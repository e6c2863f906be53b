// perfbench.hpp — shared declarations of the serving benchmark.
//
// The benchmark constructs an AirServer in-process, dials it with a handful of
// client sessions, and measures the service from the client side: frames
// delivered, request waits judged in slot numbers, and server CPU per
// frame. A traced run adds spans recorded around every call the client
// makes into a library layer, and replays each layer's public functions on
// the workload's shapes (layers.cpp).
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/types.hpp"
#include "model/workload.hpp"

namespace perfbench {

using tcsa::PageId;
using tcsa::SlotCount;

// ---------------------------------------------------------------- clocks

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double q);
/// Median; the mean of the middle two for an even count; 0 when empty.
double median(std::vector<double> values);

// ---------------------------------------------------------------- spans

/// In-memory span recorder for the traced run. Single-threaded: every span
/// is opened on the client thread around a call into one library layer.
class Spans {
 public:
  using Id = std::uint32_t;  ///< 0 = no span (tracing off / no parent)

  void enable(bool on) { on_ = on; }
  bool on() const noexcept { return on_; }
  /// Opens a span; `name` must be a string literal. `req` ties the spans
  /// of one request (or swap) together; 0 = none.
  Id begin(const char* name, Id parent = 0, std::uint64_t req = 0);
  void end(Id id);
  /// Chrome trace_event document plus a per-name self-time summary.
  void write(const std::string& path) const;
  std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Id parent = 0;
    std::uint64_t req = 0;
  };
  bool on_ = false;
  std::vector<Span> spans_;
};

/// RAII span (a no-op while tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const char* name, Spans::Id parent = 0,
             std::uint64_t req = 0)
      : spans_(spans), id_(spans.begin(name, parent, req)) {}
  ~ScopedSpan() { spans_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Spans::Id id() const noexcept { return id_; }

 private:
  Spans& spans_;
  Spans::Id id_;
};

// ---------------------------------------------------------------- workloads

/// A page catalog and the channel count it airs on.
struct Catalog {
  std::vector<SlotCount> times;  ///< t_i per group
  std::vector<SlotCount> pages;  ///< P_i per group
  SlotCount channels = 0;

  tcsa::Workload workload() const;
};

/// The two catalogs every timed swap alternates between: 3 200 pages that
/// SUSC airs on 18 channels with a 512-slot cycle, and the same catalog
/// with 64 pages appended to its last group (19 channels).
std::pair<Catalog, Catalog> swap_catalogs();

/// One benchmark traffic mix: the catalog the server airs, how it is
/// served, who listens, and the open-loop request stream.
struct WorkloadSpec {
  std::string name;
  Catalog catalog;
  std::uint32_t slot_us = 0;
  std::size_t loops = 1;
  std::size_t pull_channels = 0;
  std::vector<std::uint64_t> session_masks;  ///< one per session
  double requests_per_slot = 0.0;  ///< Poisson rate over all sessions
  double zipf_theta = 0.0;         ///< 0 = uniform page choice
  PageId request_first = 0;        ///< requests draw pages from
  SlotCount request_pages = 0;     ///<   [first, first + pages)
  /// Swaps between the swap_catalogs() run back to back through the window
  /// (the catalog on air must then be the first of them).
  bool churn = false;
};

/// The named workload, or throws std::invalid_argument.
WorkloadSpec workload_by_name(const std::string& name);

/// One open-loop request, scheduled before the run starts.
struct Request {
  std::int64_t due_ns = 0;  ///< offset from load start (absolute once armed)
  std::uint32_t session = 0;
  PageId page = 0;
  bool in_window = false;
  // kReqAck
  bool acked = false;
  std::uint64_t ack_next_slot = 0;
  std::uint32_t ack_expected = 0;
  std::uint32_t ack_gen = 0;
  // delivery
  bool served = false;
  std::uint64_t served_slot = 0;
  std::int64_t served_ns = 0;
};

/// Request schedule over `span_ns` of load, drawn from `seed`.
std::vector<Request> make_requests(const WorkloadSpec& spec,
                                   std::uint64_t seed, std::int64_t span_ns);

// ---------------------------------------------------------------- results

/// Everything one serving pass (set-ups + window) measured.
struct PassResult {
  // end-to-end
  double setup_s = 0.0;  ///< least set-up of all batches
  std::vector<std::vector<double>> setup_batches_s;  ///< before, after window
  double server_cpu_ns_per_frame = 0.0;
  std::vector<double> server_cpu_part_ns_per_frame;  ///< one per window second
  double delivered_fps = 0.0;
  double req_wait_p50_ms = 0.0;
  double req_wait_p99_ms = 0.0;
  std::size_t req_wait_samples = 0;
  std::vector<double> req_wait_part_p50_ms;  ///< the p50 is their lower quartile
  std::vector<double> req_wait_part_p99_ms;  ///< the p99 is their median
  double on_time_share = 0.0;
  std::size_t swap_reply_samples = 0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> fail_reasons;
  std::vector<std::string> fail_examples;  ///< the first few, described
  // provenance of the pass
  bool uring_active = false;
  std::vector<std::size_t> placement;  ///< sessions per loop in the window
  /// Share of all CPUs' time the hypervisor stole during the window: the
  /// host contention a reader needs to judge the run's timings.
  double host_steal_share = 0.0;
  std::uint64_t redials = 0;
  // per-layer (filled in every pass; reported by the traced one)
  std::map<std::string, double> layer;
  // output check
  std::vector<std::string> check_errors;
  // request trace for the pull-table replay: (ack slot, page, session)
  std::vector<Request> requests;
  // bytes captured from one session's stream for the decode replay
  std::string captured_stream;
  std::size_t sessions = 0;
  std::size_t frames_per_slot = 0;  ///< kPage frames per session per slot
  /// Samples in the server's larger request-delay reservoir at the end of
  /// the window (traced run; the registry counts completions only then).
  std::uint64_t reservoir_samples = 0;
};

struct PassOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Sets up the server repeatedly, serves the window, checks
/// the output, and tears everything down.
PassResult run_pass(const WorkloadSpec& spec, const PassOptions& options,
                    Spans& spans);

/// Replays each layer's public functions on the workload's shapes and
/// adds the timings to `result.layer`.
void replay_layers(const WorkloadSpec& spec, PassResult& result,
                   Spans& spans);

}  // namespace perfbench
