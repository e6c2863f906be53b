// main.cpp — servebench: the serving benchmark's command line.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out PATH] [--build-type T] [--compiler C]
//              [--commit ID]
//
// With --trace 0 one untraced pass runs and the last stdout line carries
// the end-to-end metrics. With --trace 1 the pass runs traced (spans on,
// server metrics registry on), the layer replays follow, and the last line
// carries the per-layer metrics; perfbench/run.py pairs it with an
// untraced run to report the tracing overhead. The line before the result
// is a report with provenance, sample counts and the pass's end-to-end
// figures. A failed output check prints the failures to stderr and exits 3
// with no result line.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string build_type = "unknown";
  std::string compiler = "unknown";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--trace-out") args.trace_out = value;
    else if (key == "--build-type") args.build_type = value;
    else if (key == "--compiler") args.compiler = value;
    else if (key == "--commit") args.commit = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// JSON string literal (the few strings here are plain ASCII).
std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.15g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const PassResult& r) {
  return {
      {"setup_s", r.setup_s, "s"},
      {"server_cpu_ns_per_frame", r.server_cpu_ns_per_frame, "ns/frame"},
      {"delivered_fps", r.delivered_fps, "frames/s"},
      {"req_wait_p50_ms", r.req_wait_p50_ms, "ms"},
      {"on_time_share", r.on_time_share, "ratio"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

/// Unit of each per-layer figure (the traced line reports all of them).
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"core.schedule_ms", "ms"},
      {"model.validate_ms", "ms"},
      {"server.swap.seam_plan_ms", "ms"},
      {"server.swap.reply_ms", "ms"},
      {"server.swap.activation_wait_ms", "ms"},
      {"server.swap.seam_lateness_slots", "slots"},
      {"server.swap.swaps", "count"},
      {"server.airing.lag_p50_us", "us"},
      {"server.airing.lag_p99_us", "us"},
      {"server.airing.lag_samples", "count"},
      {"server.airing.loop0_cpu_ns_per_slot", "ns/slot"},
      {"net.frame_cache.encoded_per_slot", "frames/slot"},
      {"net.frame_cache.hit_ratio", "ratio"},
      {"net.framing.encode_ns", "ns"},
      {"net.shared_buf.patch_ns", "ns"},
      {"net.out_queue.enqueue_ns", "ns"},
      {"net.egress.flush_ns_per_session", "ns"},
      {"net.egress.syscalls_per_frame", "1/frame"},
      {"net.egress.sqes_per_enter", "ratio"},
      {"net.egress.eagain_share", "ratio"},
      {"net.egress.evictions", "count"},
      {"net.loop_group.post_ns", "ns"},
      {"net.loop_group.session_imbalance", "count"},
      {"net.loop_group.redials", "count"},
      {"server.workers.cpu_ns_per_frame", "ns/frame"},
      {"server.pull.pick_ns", "ns"},
      {"server.pull.busy_share", "ratio"},
      {"server.pull.coalescing", "ratio"},
      {"server.pull.backlog_peak", "count"},
      {"server.pull.dropped", "count"},
      {"obs.reqtrace.publish_ms", "ms"},
      {"obs.reqtrace.publishes", "count"},
      {"client.decode_ns_per_frame", "ns/frame"},
      {"client.cpu_share", "ratio"},
      {"client.recv_calls_per_frame", "1/frame"},
      {"client.lateness_p50_us", "us"},
      {"client.lateness_p99_us", "us"},
      {"client.lateness_samples", "count"},
      {"client.send_lag_p99_us", "us"},
      {"req_wait_p99_ms", "ms"},
      {"req_wait_samples", "count"},
  };
  return units;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

std::string provenance_json(const Args& args, const WorkloadSpec& spec,
                            const PassResult& result) {
  utsname host{};
  ::uname(&host);
  std::ostringstream out;
  out << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"build_type\": " << quote(args.build_type)
      << ", \"compiler\": " << quote(args.compiler + " " + __VERSION__)
      << ", \"kernel\": " << quote(std::string(host.sysname) + " " +
                                   host.release)
      << ", \"uring_active\": " << (result.uring_active ? "true" : "false")
      << ", \"loops\": " << spec.loops << ", \"seed\": " << args.seed
      << ", \"seconds\": " << number(args.seconds)
      << ", \"commit\": " << quote(args.commit)
      << ", \"tracing\": " << (args.trace ? "true" : "false")
      << ", \"host.steal_share\": " << number(result.host_steal_share) << "}";
  return out.str();
}

std::string pass_json(const PassResult& r) {
  std::size_t setups = 0;
  for (const auto& batch : r.setup_batches_s) setups += batch.size();
  std::ostringstream out;
  out << "{\"metrics\": " << metrics_json(end_to_end(r))
      << ", \"req_wait_p99_ms\": " << number(r.req_wait_p99_ms)
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"fail_reasons\": {";
  bool first = true;
  for (const auto& [reason, count] : r.fail_reasons) {
    out << (first ? "" : ", ") << quote(reason) << ": " << count;
    first = false;
  }
  out << "}, \"fail_examples\": [";
  for (std::size_t i = 0; i < r.fail_examples.size(); ++i)
    out << (i ? ", " : "") << quote(r.fail_examples[i]);
  out << "], \"samples\": {\"req_wait\": " << r.req_wait_samples
      << ", \"req_wait_p99_parts\": " << r.req_wait_part_p99_ms.size()
      << ", \"swap_reply\": " << r.swap_reply_samples << ", \"setup\": "
      << setups << "}, \"setup_batches\": [";
  for (std::size_t i = 0; i < r.setup_batches_s.size(); ++i) {
    std::vector<double> batch = r.setup_batches_s[i];
    out << (i ? ", " : "") << "{\"count\": " << batch.size()
        << ", \"least_s\": " << number(percentile(batch, 0.0))
        << ", \"p50_s\": " << number(percentile(batch, 0.5)) << "}";
  }
  out << "], \"server_cpu_part_ns_per_frame\": [";
  for (std::size_t i = 0; i < r.server_cpu_part_ns_per_frame.size(); ++i)
    out << (i ? ", " : "") << number(r.server_cpu_part_ns_per_frame[i]);
  out << "], \"req_wait_part_p50_ms\": [";
  for (std::size_t i = 0; i < r.req_wait_part_p50_ms.size(); ++i)
    out << (i ? ", " : "") << number(r.req_wait_part_p50_ms[i]);
  out << "], \"req_wait_part_p99_ms\": [";
  for (std::size_t i = 0; i < r.req_wait_part_p99_ms.size(); ++i)
    out << (i ? ", " : "") << number(r.req_wait_part_p99_ms[i]);
  out << "], \"placement\": [";
  for (std::size_t i = 0; i < r.placement.size(); ++i)
    out << (i ? ", " : "") << r.placement[i];
  out << "], \"redials\": " << r.redials << "}";
  return out.str();
}

bool report_check(const std::string& pass, const PassResult& result) {
  for (const std::string& error : result.check_errors)
    std::cerr << "servebench: output check failed (" << pass << " pass): "
              << error << "\n";
  return result.check_errors.empty();
}

int run(const Args& args) {
  const WorkloadSpec spec = workload_by_name(args.workload);
  Spans spans;
  PassOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  if (args.trace) {
    tcsa::obs::set_enabled(true);
    spans.enable(true);
  }
  PassResult result = run_pass(spec, options, spans);
  if (!report_check(args.trace ? "traced" : "untraced", result)) return 3;

  std::vector<Metric> metrics;
  std::string report = "{\"report\": {\"workload\": " + quote(spec.name) +
                       ", \"provenance\": " +
                       provenance_json(args, spec, result) +
                       ", \"pass\": " + pass_json(result);
  if (!args.trace) {
    metrics = end_to_end(result);
  } else {
    replay_layers(spec, result, spans);
    for (const auto& [name, unit] : layer_units())
      metrics.push_back({name, result.layer.at(name), unit});
    report += ", \"spans\": " + std::to_string(spans.size());
    if (!args.trace_out.empty()) {
      spans.write(args.trace_out);
      report += ", \"trace_file\": " + quote(args.trace_out);
    }
  }
  std::cout << report << "}}\n";
  std::cout << "{\"correct\": true, \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
