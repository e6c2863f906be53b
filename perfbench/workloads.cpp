// workloads.cpp — the benchmark's traffic mixes and their request streams.
//
// Why each mix exists is recorded in perfbench/NOTES.md; the short form:
//   push-fanout   all server time in the per-slot egress path (cache patch,
//                 enqueue, flush); no pull plane, no cross-loop handoff.
//   pull-hotspot  hybrid push/pull on two loops: demand table, pull-frame
//                 encoding, kReq forwarding from loop 1, pull delivery.
//   swap-churn    back-to-back hot swaps: every activation invalidates the
//                 frame cache and runs the offline core on the swap path.
#include <stdexcept>

#include "net/framing.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

tcsa::Workload Catalog::workload() const {
  return tcsa::make_workload(times, pages);
}

std::pair<Catalog, Catalog> swap_catalogs() {
  const Catalog base{{64, 128, 256, 512}, {384, 768, 1024, 1024}, 18};
  Catalog grown = base;
  grown.pages.back() += 64;
  grown.channels = 19;
  return {base, grown};
}

WorkloadSpec workload_by_name(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  const std::uint64_t all = tcsa::net::kAllChannels;
  if (name == "push-fanout") {
    spec.catalog = {{4, 8, 16, 32}, {16, 32, 64, 128}, 16};
    spec.slot_us = 200;
    spec.session_masks = {all, all, all, all};
    spec.requests_per_slot = 0.25;
    spec.request_first = 0;
    spec.request_pages = 240;
  } else if (name == "pull-hotspot") {
    spec.catalog = {{4, 64, 512}, {4, 128, 1024}, 5};
    spec.slot_us = 4000;
    spec.loops = 2;
    spec.pull_channels = 1;
    spec.session_masks = {1ull << 0, 1ull << 1, 1ull << 2, 1ull << 3};
    spec.requests_per_slot = 0.5;
    spec.zipf_theta = 0.8;
    spec.request_first = 4 + 128;
    spec.request_pages = 1024;
  } else if (name == "swap-churn") {
    spec.catalog = swap_catalogs().first;
    spec.slot_us = 400;
    spec.session_masks = {all, all, all, all};
    spec.requests_per_slot = 0.25;
    spec.request_first = 0;
    spec.request_pages = 3200;
    spec.churn = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

std::vector<Request> make_requests(const WorkloadSpec& spec,
                                   std::uint64_t seed, std::int64_t span_ns) {
  tcsa::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5bd1e995);
  tcsa::Rng page_rng = rng.fork(1);
  // Popularity ranks map onto a fixed shuffle of the page range: the hot
  // pages spread over the group's channels, and the same pages are hot in
  // every run, so the seed moves only arrival times and draws.
  std::vector<PageId> by_rank(static_cast<std::size_t>(spec.request_pages));
  for (std::size_t i = 0; i < by_rank.size(); ++i)
    by_rank[i] = spec.request_first + static_cast<PageId>(i);
  tcsa::Rng shuffle(0x7c5a);
  for (std::size_t i = by_rank.size(); i > 1; --i)
    std::swap(by_rank[i - 1],
              by_rank[static_cast<std::size_t>(shuffle.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  const tcsa::DiscreteSampler sampler(
      tcsa::zipf_weights(by_rank.size(), spec.zipf_theta));

  const double rate_per_ns =
      spec.requests_per_slot / (static_cast<double>(spec.slot_us) * 1e3);
  const auto sessions =
      static_cast<std::int64_t>(spec.session_masks.size());
  std::vector<Request> requests;
  double t = rng.exponential(rate_per_ns);
  while (t < static_cast<double>(span_ns)) {
    Request req;
    req.due_ns = static_cast<std::int64_t>(t);
    req.session = static_cast<std::uint32_t>(rng.uniform_int(0, sessions - 1));
    req.page = by_rank[sampler.sample(page_rng)];
    requests.push_back(req);
    t += rng.exponential(rate_per_ns);
  }
  return requests;
}

}  // namespace perfbench
