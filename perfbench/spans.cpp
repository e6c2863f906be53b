// spans.cpp — the traced run's span recorder and the percentile helpers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  // Mean of the middle two for an even count: with few values (two p99
  // parts) that halves the estimate's sampling noise against taking one.
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) / 2;
}

Spans::Id Spans::begin(const char* name, Id parent, std::uint64_t req) {
  if (!on_) return 0;
  spans_.push_back(Span{name, mono_ns(), 0, parent, req});
  return static_cast<Id>(spans_.size());
}

void Spans::end(Id id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = mono_ns();
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  // Self time: a span's duration minus the part its direct children cover
  // (children of one parent never overlap: one thread records them all).
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& span : spans_)
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  struct Summary {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Summary> summary;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    Summary& s = summary[span.name];
    ++s.count;
    s.total_ns += duration;
    s.self_ns += duration - child_ns[i + 1];
    // Span i's id is i + 1 (its position); args name the parent span and
    // the request or swap it belongs to, when there is one.
    char times[64];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(duration) / 1e3);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times;
    if (span.parent != 0 || span.req != 0)
      out << ",\"args\":{\"parent\":" << span.parent << ",\"req\":" << span.req
          << "}";
    out << "}";
  }
  out << "\n], \"summary\": {";
  bool first = true;
  for (const auto& [name, s] : summary) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\": {\"count\": "
        << s.count << ", \"total_ms\": " << static_cast<double>(s.total_ns) / 1e6
        << ", \"self_ms\": " << static_cast<double>(s.self_ns) / 1e6 << "}";
    first = false;
  }
  out << "\n}}\n";
}

}  // namespace perfbench
