// layers.cpp — per-layer replays for the traced run.
//
// Each layer's public functions are timed on the shapes the workload just
// served: its catalogs, its session count and frames per slot, its recorded
// request trace, and bytes captured off one session's stream. Every timing
// is the median over batches; every batch sits inside a span.
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/api.hpp"
#include "model/validate.hpp"
#include "net/framing.hpp"
#include "net/loop_group.hpp"
#include "net/out_queue.hpp"
#include "net/shared_buf.hpp"
#include "net/socket.hpp"
#include "net/uring_flush.hpp"
#include "obs/reqtrace.hpp"
#include "online/adaptive.hpp"
#include "perfbench.hpp"
#include "server/air_server.hpp"
#include "server/pull_plane.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

namespace net = tcsa::net;

/// Keeps replayed results observable so the optimizer cannot drop them.
volatile std::uint64_t g_sink = 0;

/// Median over `batches` of the per-call time of `ops` calls of `fn`.
template <typename Fn>
double per_op_ns(Spans& spans, const char* name, int batches, int ops, Fn fn) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    ScopedSpan span(spans, name);
    const std::int64_t t0 = mono_ns();
    for (int i = 0; i < ops; ++i) fn(i);
    samples.push_back(static_cast<double>(mono_ns() - t0) / ops);
  }
  return median(samples);
}

/// Median wall time of a slow call, repeated at least 3 times and for at
/// least `budget_ns` (at most 15 times).
template <typename Fn>
double call_ms(Spans& spans, const char* name, std::int64_t budget_ns, Fn fn) {
  std::vector<double> samples;
  const std::int64_t start = mono_ns();
  while (samples.size() < 3 ||
         (samples.size() < 15 && mono_ns() - start < budget_ns)) {
    ScopedSpan span(spans, name);
    const std::int64_t t0 = mono_ns();
    fn();
    samples.push_back(static_cast<double>(mono_ns() - t0) / 1e6);
  }
  return median(samples);
}

std::string page_payload(std::uint64_t slot) {
  std::string payload;
  tcsa::wire_put_u64(payload, slot);
  tcsa::wire_put_u32(payload, 1);
  tcsa::wire_put_u32(payload, 3);
  tcsa::wire_put_u32(payload, 42);
  return payload;
}

void drain(int fd) {
  char buffer[64 * 1024];
  while (::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT) > 0) {
  }
}

/// One slot's flush to `sessions` socketpairs carrying `frames` kPage
/// frames each, through the backend the server used; ns per session.
double flush_ns_per_session(Spans& spans, std::size_t sessions,
                            std::size_t frames, bool uring) {
  std::string frame;
  net::append_frame(frame, net::FrameType::kPage, page_payload(7));
  const net::SharedBuf buf = net::SharedBuf::wrap(frame);
  std::vector<net::Fd> server_side;
  std::vector<net::Fd> client_side;
  for (std::size_t i = 0; i < sessions; ++i) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw std::runtime_error("socketpair failed");
    server_side.emplace_back(fds[0]);
    client_side.emplace_back(fds[1]);
    net::set_nonblocking(fds[0], true);
  }
  std::vector<net::OutQueue> queues(sessions);
  std::unique_ptr<net::UringFlusher> ring;
  if (uring) ring = std::make_unique<net::UringFlusher>(64);
  std::vector<struct iovec> iov(sessions * net::kFlushBatch);
  std::vector<struct msghdr> msgs(sessions);
  std::vector<net::UringFlusher::Completion> cqes;

  std::vector<double> samples;
  for (int round = 0; round < 2000; ++round) {
    for (auto& queue : queues)
      for (std::size_t f = 0; f < frames; ++f) queue.push(buf);
    const Spans::Id id = spans.begin("net.egress.flush");
    const std::int64_t t0 = mono_ns();
    if (ring) {
      for (std::size_t i = 0; i < sessions; ++i) {
        msgs[i] = msghdr{};
        msgs[i].msg_iov = &iov[i * net::kFlushBatch];
        msgs[i].msg_iovlen =
            queues[i].gather(msgs[i].msg_iov, net::kFlushBatch);
        ring->push_sendmsg(server_side[i].get(), &msgs[i], i);
      }
      ring->submit_and_wait(static_cast<unsigned>(sessions));
      cqes.clear();
      ring->harvest(cqes);
      // The msghdrs must outlive every submitted op (the server's flush
      // waits out stragglers the same way).
      while (ring->inflight() > 0) {
        ring->submit_and_wait(ring->inflight());
        ring->harvest(cqes);
      }
      for (const auto& cqe : cqes)
        if (cqe.res > 0)
          queues[cqe.user_data].consume(static_cast<std::size_t>(cqe.res));
    } else {
      for (std::size_t i = 0; i < sessions; ++i)
        net::flush_queue(server_side[i].get(), queues[i]);
    }
    samples.push_back(static_cast<double>(mono_ns() - t0) /
                      static_cast<double>(sessions));
    spans.end(id);
    for (std::size_t i = 0; i < sessions; ++i) {
      drain(client_side[i].get());
      if (!queues[i].empty()) net::flush_queue(server_side[i].get(), queues[i]);
      drain(client_side[i].get());
      queues[i].clear();
    }
  }
  return median(samples);
}

/// Round trip of a post() to a worker loop and back to the caller's loop.
double post_round_trip_ns(Spans& spans) {
  net::LoopGroup group(2);
  bool worker_running = true;  // touched on the worker thread only
  group.start_workers([&](std::size_t index) {
    while (worker_running) group.loop(index).poll(-1);
  });
  bool done = false;  // touched on this thread only (it drives loop 0)
  const double ns = per_op_ns(spans, "net.loop_group.post", 31, 200, [&](int) {
    done = false;
    group.loop(1).post([&] { group.loop(0).post([&] { done = true; }); });
    while (!done) group.loop(0).poll(-1);
  });
  group.loop(1).post([&] { worker_running = false; });
  group.join_workers();
  return ns;
}

/// LWF demand-table add + pick over the pass's recorded kReq trace, one
/// slot at a time as the server would see it; ns per operation.
double pull_pick_ns(Spans& spans, const std::vector<Request>& requests,
                    std::size_t pull_channels) {
  std::vector<const Request*> acked;
  for (const Request& req : requests)
    if (req.acked) acked.push_back(&req);
  if (acked.empty()) return 0.0;
  std::stable_sort(acked.begin(), acked.end(),
                   [](const Request* a, const Request* b) {
                     return a->ack_next_slot < b->ack_next_slot;
                   });
  const std::size_t per_slot = std::max<std::size_t>(pull_channels, 1);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span(spans, "server.pull.replay");
    tcsa::PullDemandTable table;
    std::size_t ops = 0;
    const std::int64_t t0 = mono_ns();
    std::size_t next = 0;
    for (std::uint64_t slot = acked.front()->ack_next_slot;
         next < acked.size() || table.pending_pages() > 0; ++slot) {
      for (; next < acked.size() && acked[next]->ack_next_slot <= slot;
           ++next, ++ops)
        table.add(acked[next]->page,
                  tcsa::PullWaiter{acked[next]->session + 1ull, next + 1,
                                   slot, 0});
      for (std::size_t i = 0; i < per_slot; ++i, ++ops) {
        const auto airing =
            table.pick(tcsa::PullPolicy::kLongestWaitFirst, slot);
        if (!airing) break;
        g_sink = g_sink + airing->waiters.size();
      }
    }
    samples.push_back(static_cast<double>(mono_ns() - t0) /
                      static_cast<double>(std::max<std::size_t>(ops, 1)));
  }
  return median(samples);
}

/// ReqPercentiles::publish() over a reservoir of `samples` request delays,
/// the size the server's reservoir reached; ms per call.
double publish_ms(Spans& spans, std::uint64_t samples) {
  if (samples == 0) return 0.0;
  tcsa::obs::ReqPercentiles reservoir("perfbench_reqtrace_replay", "us",
                                      "publish() replay", {1000, 10000});
  tcsa::Rng rng(0x51a7);
  for (std::uint64_t i = 0; i < samples; ++i)
    reservoir.record(rng.exponential(1.0 / 2000.0));
  return call_ms(spans, "obs.reqtrace.publish", 100'000'000,
                 [&] { reservoir.publish(); });
}

/// FrameDecoder over bytes captured from a session's stream; ns per frame.
double decode_ns_per_frame(Spans& spans, const std::string& stream) {
  if (stream.empty()) return 0.0;
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    ScopedSpan span(spans, "client.decode.replay");
    net::FrameDecoder decoder;
    net::Frame frame;
    std::uint64_t frames = 0;
    const std::int64_t t0 = mono_ns();
    for (std::size_t at = 0; at < stream.size(); at += 64 * 1024) {
      decoder.feed(std::string_view(stream).substr(at, 64 * 1024));
      while (decoder.next(frame)) {
        ++frames;
        g_sink = g_sink + frame.payload.size();
      }
    }
    samples.push_back(static_cast<double>(mono_ns() - t0) /
                      static_cast<double>(std::max<std::uint64_t>(frames, 1)));
  }
  return median(samples);
}

}  // namespace

void replay_layers(const WorkloadSpec& spec, PassResult& result,
                   Spans& spans) {
  auto& layer = result.layer;
  // The seam plan is timed for the swap churn makes first, from the
  // catalog on air to the second swap catalog; without churn, for a swap
  // of the catalog on air to itself.
  const tcsa::Workload workload = spec.catalog.workload();
  const Catalog next_catalog =
      spec.churn ? swap_catalogs().second : spec.catalog;
  const tcsa::Workload next = next_catalog.workload();
  const SlotCount next_channels = next_catalog.channels;
  constexpr std::int64_t kBudgetNs = 300'000'000;

  // core + online: the scheduler the server runs at set-up and on a swap.
  std::optional<tcsa::ScheduleOutcome> outcome;
  layer["core.schedule_ms"] =
      call_ms(spans, "core.choose_schedule", kBudgetNs, [&] {
        outcome = tcsa::choose_schedule(workload, spec.catalog.channels);
      });
  layer["model.validate_ms"] =
      call_ms(spans, "model.validate_program", kBudgetNs, [&] {
        g_sink = g_sink +
                 tcsa::validate_program(outcome->program, workload).valid;
      });
  const tcsa::BroadcastProgram next_program =
      tcsa::choose_schedule(next, next_channels).program;
  layer["server.swap.seam_plan_ms"] =
      call_ms(spans, "server.plan_swap_seam", kBudgetNs, [&] {
        g_sink = g_sink + static_cast<std::uint64_t>(
                              tcsa::plan_swap_seam(workload, outcome->program,
                                                   0, next, next_program)
                                  .offset);
      });

  // net: framing, the frame cache's slot patch, the egress queue.
  const std::string payload = page_payload(1);
  std::string out;
  layer["net.framing.encode_ns"] =
      per_op_ns(spans, "net.framing.append_frame", 31, 20000, [&](int) {
        out.clear();
        net::append_frame(out, net::FrameType::kPage, payload);
        g_sink = g_sink + out.size();
      });
  net::SharedBuf cached = net::SharedBuf::wrap(out);
  layer["net.shared_buf.patch_ns"] =
      per_op_ns(spans, "net.shared_buf.patch_u64", 31, 20000, [&](int i) {
        g_sink = g_sink + cached.patch_u64(net::kFrameHeaderSize,
                                           static_cast<std::uint64_t>(i));
      });
  net::OutQueue queue;
  layer["net.out_queue.enqueue_ns"] =
      per_op_ns(spans, "net.out_queue.push", 31, 2000, [&](int i) {
        queue.push(cached);
        if (i == 1999) queue.clear();
      });
  layer["net.egress.flush_ns_per_session"] = flush_ns_per_session(
      spans, result.sessions, result.frames_per_slot, result.uring_active);
  layer["net.loop_group.post_ns"] = post_round_trip_ns(spans);

  // server pull plane and the client's own decoder.
  layer["server.pull.pick_ns"] =
      pull_pick_ns(spans, result.requests, spec.pull_channels);
  layer["obs.reqtrace.publish_ms"] =
      publish_ms(spans, result.reservoir_samples);
  layer["client.decode_ns_per_frame"] =
      decode_ns_per_frame(spans, result.captured_stream);
}

}  // namespace perfbench
