#include "obs/reqtrace.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"

namespace tcsa::obs {

using detail::FlightCell;
using detail::FlightHeader;
using detail::kFlightMagic;
using detail::kFlightVersion;

namespace {

std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

extern "C" void tcsa_flight_seal_and_die(int sig) {
  // SA_RESETHAND restored the default disposition on entry; sealing is a
  // couple of stores plus msync, then the re-raise terminates as the
  // signal always would have.
  FlightRecorder::instance().seal();
  ::raise(sig);
}

extern "C" void tcsa_flight_seal(int) { FlightRecorder::instance().seal(); }

}  // namespace

const char* req_stage_name(ReqStage stage) noexcept {
  switch (stage) {
    case ReqStage::kClientSent: return "client.req.sent";
    case ReqStage::kClientAcked: return "client.req.acked";
    case ReqStage::kClientFirstByte: return "client.req.first_byte";
    case ReqStage::kClientDecoded: return "client.req.decoded";
    case ReqStage::kClientDone: return "client.req.done";
    case ReqStage::kServerRecv: return "server.req.recv";
    case ReqStage::kServerSched: return "server.req.sched";
    case ReqStage::kServerEncoded: return "server.req.encoded";
    case ReqStage::kServerFlushed: return "server.req.flushed";
    case ReqStage::kServerPullAired: return "server.req.pull_aired";
  }
  return "req.unknown";
}

std::uint64_t mint_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  const std::uint64_t seq =
      counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return (pid << 40) | (seq & ((std::uint64_t{1} << 40) - 1));
}

// ------------------------------------------------------- FlightRecorder

FlightRecorder& FlightRecorder::instance() noexcept {
  static FlightRecorder recorder;
  return recorder;
}

bool FlightRecorder::open(const std::string& path, std::uint32_t capacity) {
  close();
  if (capacity == 0) {
    error_ = "flight recorder: capacity must be nonzero";
    return false;
  }
  // Power-of-two ring so record() masks instead of dividing; rounding up
  // only ever keeps MORE events than asked for.
  while ((capacity & (capacity - 1)) != 0) capacity += capacity & -capacity;
  const int fd =
      ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    error_ = "flight recorder: open " + path + ": " + std::strerror(errno);
    return false;
  }
  const std::size_t bytes =
      sizeof(FlightHeader) + std::size_t{capacity} * sizeof(FlightCell);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    error_ =
        "flight recorder: ftruncate " + path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                      0);
  if (base == MAP_FAILED) {
    error_ = "flight recorder: mmap " + path + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  auto* hdr = reinterpret_cast<FlightHeader*>(base);
  hdr->version = kFlightVersion;
  hdr->capacity = capacity;
  hdr->head.store(0, std::memory_order_relaxed);
  hdr->wall_epoch_us = trace_epoch_wall_us();
  hdr->sealed.store(0, std::memory_order_relaxed);
  std::memset(hdr->reserved, 0, sizeof hdr->reserved);
  // Magic last: a replay never mistakes a half-initialized file for a ring.
  hdr->magic = kFlightMagic;
  fd_ = fd;
  path_ = path;
  map_bytes_ = bytes;
  capacity_ = capacity;
  error_.clear();
  map_.store(static_cast<unsigned char*>(base), std::memory_order_release);
  return true;
}

void FlightRecorder::close() noexcept {
  unsigned char* base = map_.exchange(nullptr, std::memory_order_acq_rel);
  if (base == nullptr) return;
  // Callers must quiesce writers first (the server closes after its loops
  // join); record() snapshots map_ once, so the exchange above only
  // guards against double-close.
  auto* hdr = reinterpret_cast<FlightHeader*>(base);
  hdr->sealed.store(1, std::memory_order_release);
  ::msync(base, map_bytes_, MS_SYNC);
  ::munmap(base, map_bytes_);
  ::close(fd_);
  fd_ = -1;
  map_bytes_ = 0;
  capacity_ = 0;
}

void FlightRecorder::seal() noexcept {
  unsigned char* base = map_.load(std::memory_order_acquire);
  if (base == nullptr) return;
  auto* hdr = reinterpret_cast<FlightHeader*>(base);
  hdr->sealed.store(1, std::memory_order_release);
  ::msync(base, map_bytes_, MS_ASYNC);
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  unsigned char* base = map_.load(std::memory_order_acquire);
  if (base == nullptr) return 0;
  return reinterpret_cast<FlightHeader*>(base)->head.load(
      std::memory_order_relaxed);
}

void flight_install_signal_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  struct sigaction quit {};
  quit.sa_handler = tcsa_flight_seal;
  sigemptyset(&quit.sa_mask);
  quit.sa_flags = SA_RESTART;
  ::sigaction(SIGQUIT, &quit, nullptr);
  struct sigaction fatal {};
  fatal.sa_handler = tcsa_flight_seal_and_die;
  sigemptyset(&fatal.sa_mask);
  fatal.sa_flags = SA_RESETHAND | SA_NODEFER;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
    ::sigaction(sig, &fatal, nullptr);
}

std::vector<FlightEvent> flight_load(const std::string& path, bool* sealed) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error("flight_load: open " + path + ": " +
                             std::strerror(errno));
  std::vector<unsigned char> bytes;
  unsigned char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("flight_load: read " + path + ": " +
                               std::strerror(err));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  if (bytes.size() < sizeof(FlightHeader))
    throw std::runtime_error("flight_load: " + path +
                             ": short file (no header)");
  if (load_u64(bytes.data()) != kFlightMagic)
    throw std::runtime_error("flight_load: " + path +
                             ": not a flight-recorder ring (bad magic)");
  if (load_u32(bytes.data() + 8) != kFlightVersion)
    throw std::runtime_error("flight_load: " + path +
                             ": unsupported flight-recorder version");
  const std::uint32_t capacity = load_u32(bytes.data() + 12);
  if (sealed != nullptr) *sealed = load_u64(bytes.data() + 32) != 0;
  const std::size_t expected =
      sizeof(FlightHeader) + std::size_t{capacity} * sizeof(FlightCell);
  if (capacity == 0 || bytes.size() < expected)
    throw std::runtime_error("flight_load: " + path + ": truncated ring");
  std::vector<FlightEvent> events;
  events.reserve(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    const unsigned char* cell =
        bytes.data() + sizeof(FlightHeader) + std::size_t{i} * sizeof(FlightCell);
    const std::uint64_t open_ord = load_u64(cell + 0);
    const std::uint64_t commit_ord = load_u64(cell + 40);
    if (open_ord == 0 || open_ord != commit_ord) continue;  // empty or torn
    if ((open_ord - 1) % capacity != i) continue;           // misplaced
    FlightEvent event;
    event.ordinal = open_ord;
    event.trace_id = load_u64(cell + 8);
    event.t_us = load_u64(cell + 16);
    event.arg = load_u64(cell + 24);
    event.stage = load_u32(cell + 32);
    events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.ordinal < b.ordinal;
            });
  return events;
}

// ------------------------------------------------------- ReqPercentiles

namespace {
/// Reservoir bound, matching loadgen's offset sampling: exact below this
/// many samples, stride-decimated (still unbiased in rank) above it.
constexpr std::size_t kReqSampleCap = std::size_t{1} << 17;

/// Nearest-rank position of quantile q in a sorted sample of n > 0 values.
std::size_t nearest_rank_index(double q, std::size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(index, n - 1);
}
}  // namespace

ReqPercentiles::ReqPercentiles(const std::string& base,
                               const std::string& unit,
                               const std::string& help,
                               std::vector<double> upper_bounds)
    : hist_(register_histogram(base + "_" + unit, help,
                               std::move(upper_bounds))),
      p50_(register_gauge(base + "_p50_" + unit, help + " (exact p50)")),
      p99_(register_gauge(base + "_p99_" + unit, help + " (exact p99)")),
      p999_(register_gauge(base + "_p999_" + unit, help + " (exact p999)")),
      p9999_(
          register_gauge(base + "_p9999_" + unit, help + " (exact p9999)")) {
  samples_.reserve(1024);
}

void ReqPercentiles::record(double value) noexcept {
  histogram_observe(hist_, value);
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t index = seen_++;
  if (index % stride_ != 0) return;
  samples_.push_back(value);
  if (samples_.size() >= kReqSampleCap) {
    // Halve the reservoir, double the stride: the retained set stays an
    // every-stride_-th subsample of the full stream.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2)
      samples_[kept++] = samples_[i];
    samples_.resize(kept);
    stride_ *= 2;
  }
}

void ReqPercentiles::publish() noexcept {
  // One copy under the lock, then one selection pass: the ranks ascend, so
  // each nth_element only partitions the tail the previous one left above
  // its pivot. O(n) in all, against a full sort per rank. The copy is not
  // kept between calls: a retained buffer raised the server's peak RSS.
  std::vector<double> sample;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sample = samples_;
  }
  const std::pair<double, MetricId> gauges[] = {
      {0.50, p50_}, {0.99, p99_}, {0.999, p999_}, {0.9999, p9999_}};
  auto from = sample.begin();
  for (const auto& [q, gauge] : gauges) {
    double value = 0.0;
    if (!sample.empty()) {
      const auto nth =
          sample.begin() +
          static_cast<std::ptrdiff_t>(nearest_rank_index(q, sample.size()));
      if (nth >= from) {
        std::nth_element(from, nth, sample.end());
        from = nth + 1;
      }
      value = *nth;
    }
    gauge_set(gauge, value);
  }
}

std::uint64_t ReqPercentiles::count() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

double ReqPercentiles::percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  return sorted[nearest_rank_index(q, sorted.size())];
}

}  // namespace tcsa::obs
