// serve.cpp — one serving pass: set-ups, the measured window, the output
// check, and the client-side accounting.
//
// One thread is the benchmark's only client. It busy-polls one epoll set over
// every session socket, so a request leaves when it is due and a frame is
// read when it lands, without a wakeup of the client's vCPU in between: on a
// shared host that wakeup costs the most exactly when the host is busy, and
// it would count in every request's wait. Each request is timed from its
// scheduled send time.
//
// Deadlines are judged in slots, not wall-clock microseconds: a request
// misses when its page does not air within t_p slots of the slot named in
// its kReqAck (read off the slot number the delivering frame carries), or
// when the frame arrives later than a fixed allowance (kAllowanceNs) past
// that slot's due time, or when it never arrives. NOTES.md says why the
// load generator's wall-clock miss rate is not used.
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "model/program.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "online/adaptive.hpp"
#include "perfbench.hpp"
#include "server/air_server.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

using tcsa::AirServer;
using tcsa::AirServerConfig;
using tcsa::WireReader;
using tcsa::Workload;
namespace net = tcsa::net;

constexpr std::int64_t kRampNs = 500'000'000;
/// Set-ups per batch: at least kSetupMinReps, and more until kSetupBudgetNs
/// has passed. A run sets up in two batches, one before the window and one
/// after it. On a shared host a set-up's CPU-bound part (the scheduler) runs
/// at one of two speeds, in phases from a fraction of a second to minutes
/// long; the least of many set-ups lands on the fast speed in more phases
/// the more wall time the set-ups cover.
constexpr int kSetupMinReps = 11;
constexpr int kSetupMaxReps = 1000;
constexpr std::int64_t kSetupBudgetNs = 4'000'000'000;
constexpr std::int64_t kStepTimeoutNs = 10'000'000'000;
/// How late past its slot's due time a frame may arrive. It is wider than
/// the stalls a preempted vCPU of a shared host imposes (up to ~35 ms seen),
/// so it counts a server drifting behind the clock, not the host.
constexpr std::int64_t kAllowanceNs = 50'000'000;
constexpr std::int64_t kIntrospectEveryNs = 50'000'000;
/// Every Nth in-window frame feeds the client lateness percentiles.
constexpr std::uint64_t kLatenessDecimation = 16;
/// Bytes of one session's stream kept for the decode replay.
constexpr std::size_t kCaptureBytes = 4u << 20;

/// What a hello or announce told the client about one generation.
struct GenInfo {
  std::uint32_t channels = 0;
  std::uint32_t cycle = 0;
  std::uint64_t start_slot = 0;  ///< slot of its first aired column
  std::shared_ptr<const Workload> workload;
};

/// One session's rebuild of one generation's aired cells: (slot - start)
/// mod cycle by channel, filled from the kPage frames it received.
struct Grid {
  std::vector<PageId> cells;  ///< channel * cycle + column
  std::uint64_t first_slot = 0;
  std::uint64_t last_slot = 0;
  bool any = false;
};

struct Session {
  std::size_t index = 0;
  std::uint64_t mask = 0;
  net::Fd fd;
  net::FrameDecoder decoder;
  std::string outbox;
  bool hello = false;
  std::int64_t first_page_ns = -1;
  std::map<std::uint32_t, Grid> grids;
  /// Acked, undelivered requests by page (indices into the request list).
  std::vector<std::vector<std::uint32_t>> open_by_page;
};

/// One hot swap as the swapping session saw it.
struct SwapRecord {
  std::int64_t sent_ns = 0;
  std::int64_t reply_ns = -1;
  std::int64_t announce_ns = -1;
  std::uint32_t generation = 0;
  std::int64_t seam_lateness = 0;
  bool in_window = false;
};

/// Counter readings at a window edge.
struct Mark {
  std::int64_t wall_ns = 0;
  std::uint64_t frames = 0;  ///< kPage + kPull frames delivered in window
  std::int64_t process_cpu_ns = 0;
  std::int64_t client_cpu_ns = 0;
  std::int64_t loop0_cpu_ns = 0;
  std::uint64_t slots = 0;
  std::uint64_t encoded = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t uring_enters = 0;
  std::uint64_t uring_sqes = 0;
  std::uint64_t pull_airings = 0;
  std::uint64_t pull_waiters = 0;
  std::uint64_t host_steal_ticks = 0;  ///< /proc/stat: all CPUs, stolen
  std::uint64_t host_total_ticks = 0;  ///< /proc/stat: all CPUs, all states
  tcsa::obs::MetricsSnapshot metrics;
};

std::string frame_bytes(net::FrameType type, const std::string& payload) {
  std::string out;
  net::append_frame(out, type, payload);
  return out;
}

/// Reads the all-CPU line of /proc/stat: time stolen by the hypervisor and
/// the total over every state, in clock ticks.
void host_ticks(std::uint64_t& steal, std::uint64_t& total) {
  steal = total = 0;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (!file) return;
  unsigned long long v[8] = {};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) total += x;
    steal = v[7];
  }
  std::fclose(file);
}

double vm_hwm_mb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (!file) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), file)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(file);
  return kb / 1024.0;
}

class Pass {
 public:
  Pass(const WorkloadSpec& spec, const PassOptions& options, Spans& spans)
      : spec_(spec),
        options_(options),
        spans_(spans),
        workload_(std::make_shared<const Workload>(spec.catalog.workload())) {}

  ~Pass() { teardown(); }
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  PassResult run();

 private:
  // --- set-up / teardown
  /// One batch of timed set-ups; returns their times in seconds. The last
  /// server stays up when `keep` holds.
  std::vector<double> set_up_repeatedly(bool keep);
  /// Constructs the server and starts run(); returns once a slot has aired.
  void start_server();
  /// Dials and tunes every session; returns once each has received a kPage.
  void connect_sessions();
  void dial(std::size_t index);
  void close_session(Session& session);
  void teardown();

  // --- the client loop
  /// Serves until `done()` holds or `deadline_ns` passes; returns done().
  template <typename Done>
  bool pump(std::int64_t deadline_ns, Done done);
  void on_readable(Session& session);
  void handle_frame(Session& session, const net::Frame& frame,
                    std::int64_t now);
  void on_page(Session& session, std::uint64_t slot, std::uint32_t gen,
               std::uint32_t channel, PageId page, std::int64_t now);
  void resolve(Session& session, PageId page, std::uint64_t slot,
               std::int64_t now);
  void send_due_requests(std::int64_t now);
  void maybe_send_swap(std::int64_t now);
  void send(Session& session, const std::string& bytes);
  void flush_outboxes();
  void introspect(std::int64_t now);

  // --- checks and results
  void note_gen(Session& session, std::string_view payload, bool announce,
                std::int64_t now);
  void finalize_grid(Session& session, std::uint32_t gen, Grid& grid);
  void fail_check(const std::string& what);
  Mark mark(bool with_metrics);
  /// Ramp, then the window in one-second parts; returns the marks at the
  /// window's edges and between its parts.
  std::vector<Mark> measure();
  void account(PassResult& result, const std::vector<Mark>& marks);

  const WorkloadSpec& spec_;
  const PassOptions& options_;
  Spans& spans_;
  std::shared_ptr<const Workload> workload_;

  std::unique_ptr<AirServer> server_;
  std::string runner_error_;  ///< written before runner_failed_ is set
  std::atomic<bool> runner_failed_{false};
  std::thread runner_;  ///< calls server_->run(); joined by teardown()
  std::vector<std::unique_ptr<Session>> sessions_;
  net::Fd epoll_;
  std::uint64_t redials_ = 0;

  std::map<std::uint32_t, GenInfo> gens_;
  std::map<std::uint32_t, std::vector<PageId>> validated_cells_;
  std::optional<tcsa::BroadcastProgram> reference_;  ///< generation 1
  std::vector<std::string> check_errors_;

  std::vector<Request> requests_;
  std::size_t next_request_ = 0;
  std::size_t outstanding_ = 0;  ///< sent, not yet delivered
  bool sending_ = false;

  // swaps: churn keeps one in flight while `swapping_`
  bool swapping_ = false;
  bool swap_inflight_ = false;
  /// kSwap payloads of the two swap catalogs (sent second, first, ...).
  std::string swap_payloads_[2];
  std::vector<SwapRecord> swaps_;

  // client-side accounting of the final server instance
  bool in_window_ = false;
  std::uint64_t window_frames_ = 0;
  std::uint64_t window_recv_calls_ = 0;
  std::uint64_t window_frame_seq_ = 0;
  std::int64_t min_offset_ns_ = INT64_MAX;
  std::vector<std::int64_t> lateness_offsets_ns_;  ///< decimated, raw
  std::vector<double> send_lag_us_;
  std::string capture_;
  std::vector<double> lag_us_;        ///< timeline lag of window slots
  std::uint64_t timeline_seen_ = 0;   ///< last slot read off the timeline
  std::uint64_t window_first_slot_ = 0;
  double backlog_peak_ = 0.0;
  std::int64_t next_introspect_ns_ = 0;
  std::vector<char> recv_buffer_ = std::vector<char>(256 * 1024);
};

// ------------------------------------------------------------- set-up

void Pass::start_server() {
  ScopedSpan span(spans_, "bench.setup");
  AirServerConfig config;
  config.bind_address = "127.0.0.1";
  config.port = 0;
  config.channels = spec_.catalog.channels;
  config.slot_us = spec_.slot_us;
  config.loops = spec_.loops;
  config.pull_channels = spec_.pull_channels;
  config.pull_policy = tcsa::PullPolicy::kLongestWaitFirst;
  {
    ScopedSpan construct(spans_, "server.construct", span.id());
    server_ = std::make_unique<AirServer>(*workload_, config);
  }
  runner_ = std::thread([this] {
    try {
      server_->run();
    } catch (const std::exception& e) {
      runner_error_ = e.what();
      runner_failed_.store(true, std::memory_order_release);
    }
  });
  // Set-up ends when the first slot is on air. The client spins rather than
  // sleeps: a sleep's wakeup would add its own latency to the figure.
  ScopedSpan first(spans_, "server.first_slot", span.id());
  const std::int64_t deadline = mono_ns() + kStepTimeoutNs;
  while (server_->slots_aired() == 0) {
    if (runner_failed_.load(std::memory_order_acquire))
      throw std::runtime_error("server stopped: " + runner_error_);
    if (mono_ns() >= deadline)
      throw std::runtime_error("the server never aired a slot");
    std::this_thread::yield();
  }
}

std::vector<double> Pass::set_up_repeatedly(bool keep) {
  std::vector<double> samples_s;
  const std::int64_t batch_start = mono_ns();
  for (int rep = 0; rep < kSetupMaxReps &&
                    (rep < kSetupMinReps ||
                     mono_ns() - batch_start < kSetupBudgetNs);
       ++rep) {
    teardown();
    const std::int64_t t0 = mono_ns();
    start_server();
    samples_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
  }
  if (!keep) teardown();
  return samples_s;
}

void Pass::connect_sessions() {
  ScopedSpan span(spans_, "bench.connect");
  epoll_ = net::Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_) throw std::runtime_error("epoll_create1 failed");

  sessions_.clear();
  for (std::size_t i = 0; i < spec_.session_masks.size(); ++i) dial(i);
  {
    ScopedSpan tune(spans_, "client.tune", span.id());
    for (auto& session : sessions_) {
      std::string payload;
      tcsa::wire_put_u64(payload, session->mask);
      send(*session, frame_bytes(net::FrameType::kTune, payload));
    }
  }
  const bool fed = pump(mono_ns() + kStepTimeoutNs, [this] {
    for (const auto& session : sessions_)
      if (session->first_page_ns < 0) return false;
    return true;
  });
  if (!fed) throw std::runtime_error("a session never received a page");
}

void Pass::dial(std::size_t index) {
  ScopedSpan span(spans_, "client.dial");
  const std::size_t quota =
      (spec_.session_masks.size() + spec_.loops - 1) / spec_.loops;
  const auto total = [this] {
    std::size_t sum = 0;
    for (const std::size_t n : server_->sessions_per_loop()) sum += n;
    return sum;
  };
  for (;;) {
    auto session = std::make_unique<Session>();
    session->index = index;
    session->mask = spec_.session_masks[index];
    session->fd = net::connect_tcp("127.0.0.1", server_->port());
    net::set_nonblocking(session->fd.get(), true);
    net::set_tcp_nodelay(session->fd.get());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = index;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, session->fd.get(), &ev);
    if (sessions_.size() <= index) sessions_.resize(index + 1);
    sessions_[index] = std::move(session);
    Session& s = *sessions_[index];
    if (!pump(mono_ns() + kStepTimeoutNs, [&s] { return s.hello; }))
      throw std::runtime_error("no hello from the server");
    if (spec_.loops == 1) return;
    // SO_REUSEPORT picks the loop by connection hash: redial a session that
    // landed on a loop already holding its share, so every run measures
    // the same even placement.
    if (!pump(mono_ns() + kStepTimeoutNs,
              [&] { return total() == index + 1; }))
      throw std::runtime_error("server never registered the session");
    bool over = false;
    for (const std::size_t n : server_->sessions_per_loop())
      over = over || n > quota;
    if (!over) return;
    ++redials_;
    close_session(s);
    sessions_[index].reset();
    if (!pump(mono_ns() + kStepTimeoutNs, [&] { return total() == index; }))
      throw std::runtime_error("server never dropped a redialed session");
  }
}

void Pass::close_session(Session& session) {
  if (!session.fd) return;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, session.fd.get(), nullptr);
  session.fd.reset();
}

void Pass::teardown() {
  for (auto& session : sessions_)
    if (session) close_session(*session);
  if (server_) server_->stop();
  if (runner_.joinable()) runner_.join();
  server_.reset();
  epoll_.reset();
}

// ------------------------------------------------------------- client loop

template <typename Done>
bool Pass::pump(std::int64_t deadline_ns, Done done) {
  epoll_event events[16];
  for (;;) {
    if (done()) return true;
    const std::int64_t now = mono_ns();
    if (now >= deadline_ns) return false;
    if (runner_failed_.load(std::memory_order_acquire))
      throw std::runtime_error("server stopped: " + runner_error_);
    send_due_requests(now);
    maybe_send_swap(now);
    introspect(now);
    flush_outboxes();
    const int n = ::epoll_wait(epoll_.get(), events, 16, 0);
    for (int i = 0; i < n; ++i) {
      Session* session = sessions_[events[i].data.u64].get();
      if (session && session->fd) on_readable(*session);
    }
  }
}

void Pass::on_readable(Session& session) {
  ScopedSpan span(spans_, "client.recv");
  for (;;) {
    const ssize_t n = ::recv(session.fd.get(), recv_buffer_.data(),
                             recv_buffer_.size(), 0);
    if (n > 0) {
      const std::int64_t now = mono_ns();
      if (in_window_) ++window_recv_calls_;
      const std::string_view bytes(recv_buffer_.data(),
                                   static_cast<std::size_t>(n));
      if (spans_.on() && session.index == 0 &&
          capture_.size() < kCaptureBytes && in_window_)
        capture_.append(bytes);
      session.decoder.feed(bytes);
      net::Frame frame;
      while (session.decoder.next(frame)) handle_frame(session, frame, now);
      // A short read drained the socket; epoll reports it again when more
      // arrives, so skip the recv that would only say EAGAIN.
      if (static_cast<std::size_t>(n) < recv_buffer_.size()) return;
      continue;
    }
    if (n == 0) {
      fail_check("session " + std::to_string(session.index) +
                 " closed by the server (evicted?)");
      close_session(session);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    fail_check("session " + std::to_string(session.index) +
               " recv error: " + std::strerror(errno));
    close_session(session);
    return;
  }
}

void Pass::handle_frame(Session& session, const net::Frame& frame,
                        std::int64_t now) {
  WireReader reader(frame.payload);
  switch (frame.type) {
    case net::FrameType::kHello:
    case net::FrameType::kAnnounce:
      note_gen(session, frame.payload,
               frame.type == net::FrameType::kAnnounce, now);
      return;
    case net::FrameType::kPage: {
      const std::uint64_t slot = reader.read_u64();
      const std::uint32_t gen = reader.read_u32();
      const std::uint32_t channel = reader.read_u32();
      const PageId page = reader.read_u32();
      on_page(session, slot, gen, channel, page, now);
      return;
    }
    case net::FrameType::kPull: {
      const std::uint64_t slot = reader.read_u64();
      reader.read_u32();  // generation
      const PageId page = reader.read_u32();
      if (in_window_) ++window_frames_;
      min_offset_ns_ = std::min<std::int64_t>(
          min_offset_ns_,
          now - static_cast<std::int64_t>(slot * spec_.slot_us) * 1000);
      if (page >= session.open_by_page.size() ||
          session.open_by_page[page].empty()) {
        fail_check("kPull for page " + std::to_string(page) + " on session " +
                   std::to_string(session.index) +
                   " answers no open request");
        return;
      }
      resolve(session, page, slot, now);
      return;
    }
    case net::FrameType::kReqAck: {
      const std::uint64_t trace_id = reader.read_u64();
      reader.read_u64();  // server recv stamp
      reader.read_u64();  // server send stamp
      const std::uint64_t next_slot = reader.read_u64();
      const PageId page = reader.read_u32();
      const std::uint32_t expected = reader.read_u32();
      const std::uint32_t gen = reader.read_u32();
      if (trace_id == 0 || trace_id > requests_.size()) {
        fail_check("kReqAck for unknown request " + std::to_string(trace_id));
        return;
      }
      Request& req = requests_[trace_id - 1];
      if (req.session != session.index || req.page != page || req.acked) {
        fail_check("kReqAck " + std::to_string(trace_id) +
                   " does not match its request");
        return;
      }
      req.acked = true;
      req.ack_next_slot = next_slot;
      req.ack_expected = expected;
      req.ack_gen = gen;
      if (page >= session.open_by_page.size())
        session.open_by_page.resize(page + 1);
      session.open_by_page[page].push_back(
          static_cast<std::uint32_t>(trace_id - 1));
      return;
    }
    case net::FrameType::kSwapReply: {
      const bool accepted = reader.read_u8() != 0;
      const std::uint32_t gen = reader.read_u32();
      reader.read_u64();  // activation slot
      const std::int64_t seam = reader.read_i64();
      const std::string_view error = reader.read_rest();
      if (swaps_.empty() || swaps_.back().reply_ns >= 0) {
        fail_check("unsolicited kSwapReply");
        return;
      }
      SwapRecord& swap = swaps_.back();
      swap.reply_ns = now;
      swap.generation = gen;
      swap.seam_lateness = seam;
      if (!accepted) {
        fail_check("swap rejected: " + std::string(error));
        swap_inflight_ = false;
      }
      return;
    }
    default:
      fail_check("unexpected frame type " +
                 std::to_string(static_cast<int>(frame.type)));
  }
}

void Pass::on_page(Session& session, std::uint64_t slot, std::uint32_t gen,
                   std::uint32_t channel, PageId page, std::int64_t now) {
  if (session.first_page_ns < 0) session.first_page_ns = now;
  const std::int64_t offset =
      now - static_cast<std::int64_t>(slot * spec_.slot_us) * 1000;
  min_offset_ns_ = std::min(min_offset_ns_, offset);
  if (in_window_) {
    ++window_frames_;
    if (spans_.on() && ++window_frame_seq_ % kLatenessDecimation == 0)
      lateness_offsets_ns_.push_back(offset);
  }

  const auto info = gens_.find(gen);
  if (info == gens_.end()) {
    fail_check("kPage of generation " + std::to_string(gen) +
               " before its hello/announce");
    return;
  }
  const GenInfo& g = info->second;
  if (channel >= g.channels || slot < g.start_slot) {
    fail_check("kPage outside generation " + std::to_string(gen) +
               "'s shape");
    return;
  }
  Grid& grid = session.grids[gen];
  if (grid.cells.empty())
    grid.cells.assign(static_cast<std::size_t>(g.channels) * g.cycle,
                      tcsa::kNoPage);
  const std::size_t cell =
      static_cast<std::size_t>(channel) * g.cycle +
      static_cast<std::size_t>((slot - g.start_slot) % g.cycle);
  if (grid.cells[cell] == tcsa::kNoPage) {
    grid.cells[cell] = page;
  } else if (grid.cells[cell] != page) {
    fail_check("generation " + std::to_string(gen) + " airs two pages in one "
               "cell (channel " + std::to_string(channel) + ")");
  }
  if (!grid.any) grid.first_slot = slot;
  grid.any = true;
  grid.last_slot = std::max(grid.last_slot, slot);

  if (page < session.open_by_page.size() &&
      !session.open_by_page[page].empty())
    resolve(session, page, slot, now);
}

void Pass::resolve(Session& session, PageId page, std::uint64_t slot,
                   std::int64_t now) {
  // One airing answers every open request the session holds for the page.
  for (const std::uint32_t index : session.open_by_page[page]) {
    Request& req = requests_[index];
    req.served = true;
    req.served_slot = slot;
    req.served_ns = now;
    --outstanding_;
  }
  session.open_by_page[page].clear();
}

void Pass::send_due_requests(std::int64_t now) {
  if (!sending_) return;
  while (next_request_ < requests_.size() &&
         requests_[next_request_].due_ns <= now) {
    Request& req = requests_[next_request_];
    Session* session = sessions_[req.session].get();
    std::string payload;
    tcsa::wire_put_u64(payload, next_request_ + 1);
    tcsa::wire_put_u32(payload, req.page);
    {
      ScopedSpan span(spans_, "client.send_req", 0, next_request_ + 1);
      send(*session, frame_bytes(net::FrameType::kReq, payload));
    }
    ++outstanding_;
    if (req.in_window)
      send_lag_us_.push_back(static_cast<double>(now - req.due_ns) / 1e3);
    ++next_request_;
  }
}

void Pass::maybe_send_swap(std::int64_t now) {
  if (!swapping_) return;
  // Each swap goes out after the previous one's activation, alternating
  // between the two swap catalogs (the second one first).
  if (swap_inflight_) {
    const SwapRecord& last = swaps_.back();
    if (last.reply_ns < 0 || last.announce_ns < 0) return;
    swap_inflight_ = false;
  }
  const std::string& payload = swap_payloads_[(swaps_.size() + 1) % 2];
  SwapRecord record;
  record.sent_ns = now;
  record.in_window = in_window_;
  swaps_.push_back(record);
  swap_inflight_ = true;
  ScopedSpan span(spans_, "client.send_swap", 0, swaps_.size());
  send(*sessions_[0], frame_bytes(net::FrameType::kSwap, payload));
}

void Pass::send(Session& session, const std::string& bytes) {
  session.outbox.append(bytes);
  if (!session.fd) return;
  while (!session.outbox.empty()) {
    const ssize_t n = ::send(session.fd.get(), session.outbox.data(),
                             session.outbox.size(), MSG_NOSIGNAL);
    if (n > 0) {
      session.outbox.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // would block: the next pump iteration retries
  }
}

void Pass::flush_outboxes() {
  for (auto& session : sessions_)
    if (session && !session->outbox.empty()) send(*session, std::string());
}

void Pass::introspect(std::int64_t now) {
  // Traced runs only: read the server's slot timeline and pull backlog
  // gauge often enough that the 4096-slot ring never laps the reader.
  if (!spans_.on() || !in_window_ || now < next_introspect_ns_) return;
  next_introspect_ns_ = now + kIntrospectEveryNs;
  {
    ScopedSpan span(spans_, "server.timeline.snapshot");
    for (const tcsa::obs::SlotRecord& rec : server_->timeline().snapshot()) {
      if (rec.slot < window_first_slot_ ||
          (timeline_seen_ != 0 && rec.slot <= timeline_seen_))
        continue;
      lag_us_.push_back(static_cast<double>(rec.lag_us()));
      timeline_seen_ = rec.slot;
    }
  }
  if (spec_.pull_channels > 0) {
    ScopedSpan span(spans_, "obs.snapshot");
    backlog_peak_ = std::max(
        backlog_peak_,
        tcsa::obs::snapshot().gauge_value("tcsa_server_pull_pending_waiters"));
  }
}

// ------------------------------------------------------------- checks

void Pass::note_gen(Session& session, std::string_view payload, bool announce,
                    std::int64_t now) {
  WireReader reader(payload);
  const std::uint32_t gen = reader.read_u32();
  const std::uint32_t slot_us = reader.read_u32();
  GenInfo info;
  info.channels = reader.read_u32();
  info.cycle = reader.read_u32();
  const std::uint64_t next_slot = reader.read_u64();
  info.start_slot = announce ? next_slot : 0;
  if (slot_us != spec_.slot_us || info.cycle == 0 || info.channels == 0 ||
      info.channels > 64) {
    fail_check("malformed hello/announce for generation " +
               std::to_string(gen));
    return;
  }
  const auto known = gens_.find(gen);
  if (known == gens_.end()) {
    info.workload = std::make_shared<const Workload>(
        tcsa::workload_from_binary(reader.read_rest()));
    gens_.emplace(gen, std::move(info));
  } else if (known->second.cycle != info.cycle ||
             known->second.channels != info.channels ||
             (announce && known->second.start_slot != info.start_slot)) {
    fail_check("sessions disagree on generation " + std::to_string(gen));
  }
  session.hello = true;
  if (!announce) return;
  // A generation is final once the next one is announced.
  for (auto it = session.grids.begin(); it != session.grids.end();) {
    if (it->first >= gen) break;
    finalize_grid(session, it->first, it->second);
    it = session.grids.erase(it);
  }
  if (session.index == 0 && !swaps_.empty() &&
      swaps_.back().generation == gen && swaps_.back().announce_ns < 0)
    swaps_.back().announce_ns = now;
}

void Pass::finalize_grid(Session& session, std::uint32_t gen, Grid& grid) {
  if (!grid.any) return;
  const GenInfo& g = gens_.at(gen);
  // Only a generation the session watched for a whole cycle is complete;
  // a partial one was already checked cell by cell as frames arrived.
  if (grid.last_slot - grid.first_slot + 1 < g.cycle) return;
  const std::uint64_t rows =
      g.channels >= 64 ? ~0ull : (1ull << g.channels) - 1;
  if ((session.mask & rows) == rows) {
    const auto seen = validated_cells_.find(gen);
    if (seen != validated_cells_.end()) {
      if (seen->second != grid.cells)
        fail_check("sessions saw different programs in generation " +
                   std::to_string(gen));
      return;
    }
    ScopedSpan span(spans_, "model.validate");
    tcsa::BroadcastProgram program(g.channels, g.cycle);
    for (SlotCount ch = 0; ch < g.channels; ++ch)
      for (SlotCount col = 0; col < g.cycle; ++col) {
        const PageId page =
            grid.cells[static_cast<std::size_t>(ch * g.cycle + col)];
        if (page != tcsa::kNoPage) program.place(ch, col, page);
      }
    const tcsa::ValidityReport report =
        tcsa::validate_program(program, *g.workload);
    if (!report.valid)
      fail_check("aired generation " + std::to_string(gen) +
                 " is not a valid program: " + report.violations.front());
    validated_cells_[gen] = grid.cells;
    return;
  }
  // A partial receiver cannot rebuild the program; its rows must match the
  // program the server scheduled (checked for the first generation, whose
  // rotation is 0), and that program must itself be valid.
  if (gen != 1) return;
  if (!reference_) {
    ScopedSpan span(spans_, "core.choose_schedule");
    reference_ = tcsa::choose_schedule(*g.workload, g.channels).program;
    if (!tcsa::is_valid_program(*reference_, *g.workload))
      fail_check("the scheduled program is not valid");
  }
  for (SlotCount ch = 0; ch < g.channels; ++ch) {
    if (((session.mask >> ch) & 1) == 0) continue;
    for (SlotCount col = 0; col < g.cycle; ++col)
      if (grid.cells[static_cast<std::size_t>(ch * g.cycle + col)] !=
          reference_->at(ch, col)) {
        fail_check("session " + std::to_string(session.index) +
                   " saw a cell that differs from the scheduled program");
        return;
      }
  }
}

void Pass::fail_check(const std::string& what) {
  if (check_errors_.size() < 20) check_errors_.push_back(what);
}

// ------------------------------------------------------------- the window

Mark Pass::mark(bool with_metrics) {
  Mark m;
  m.wall_ns = mono_ns();
  m.frames = window_frames_;
  m.process_cpu_ns = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  m.client_cpu_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  clockid_t loop0 = 0;
  if (::pthread_getcpuclockid(runner_.native_handle(), &loop0) == 0)
    m.loop0_cpu_ns = cpu_ns(loop0);
  m.slots = server_->slots_aired();
  m.encoded = server_->frames_encoded();
  m.cache_hits = server_->frame_cache_hits();
  m.uring_enters = server_->uring_enters();
  m.uring_sqes = server_->uring_sqes();
  m.pull_airings = server_->pull_airings();
  m.pull_waiters = server_->pull_waiters_served();
  host_ticks(m.host_steal_ticks, m.host_total_ticks);
  if (with_metrics && spans_.on()) m.metrics = tcsa::obs::snapshot();
  return m;
}

std::vector<Mark> Pass::measure() {
  const std::int64_t window_ns =
      static_cast<std::int64_t>(options_.seconds * 1e9);
  const std::int64_t load_start = mono_ns();
  requests_ = make_requests(spec_, options_.seed, kRampNs + window_ns);
  for (Request& req : requests_) {
    req.in_window = req.due_ns >= kRampNs;
    req.due_ns += load_start;
  }
  for (auto& session : sessions_)
    session->open_by_page.resize(workload_->total_pages());
  sending_ = true;
  swapping_ = spec_.churn;

  pump(load_start + kRampNs, [] { return false; });
  window_first_slot_ = server_->slots_aired();
  in_window_ = true;
  std::vector<Mark> marks{mark(true)};
  const int parts =
      std::max(1, static_cast<int>(std::lround(options_.seconds)));
  for (int part = 1; part <= parts; ++part) {
    pump(load_start + kRampNs + window_ns * part / parts,
         [] { return false; });
    marks.push_back(mark(part == parts));
  }
  const Mark& end = marks.back();
  in_window_ = false;
  // Every request due inside the window goes out, even when the pump
  // reached its deadline before sending the last ones.
  send_due_requests(mono_ns());
  flush_outboxes();
  sending_ = false;
  swapping_ = false;

  // Grace: every window request gets its full promise plus the allowance.
  const std::int64_t grace_ns =
      static_cast<std::int64_t>(workload_->max_expected_time()) *
          spec_.slot_us * 1000 +
      kAllowanceNs + 250'000'000;
  pump(end.wall_ns + grace_ns, [this] {
    if (swap_inflight_ && (swaps_.back().reply_ns < 0 ||
                           swaps_.back().announce_ns < 0))
      return false;
    return outstanding_ == 0;
  });
  return marks;
}

void Pass::account(PassResult& result, const std::vector<Mark>& marks) {
  const Mark& start = marks.front();
  const Mark& end = marks.back();
  const double window_s =
      static_cast<double>(end.wall_ns - start.wall_ns) / 1e9;
  const double frames = static_cast<double>(std::max<std::uint64_t>(
      window_frames_, 1));
  const double slots = static_cast<double>(
      std::max<std::uint64_t>(end.slots - start.slots, 1));
  const auto process_cpu =
      static_cast<double>(end.process_cpu_ns - start.process_cpu_ns);
  const auto client_cpu =
      static_cast<double>(end.client_cpu_ns - start.client_cpu_ns);
  const auto loop0_cpu =
      static_cast<double>(end.loop0_cpu_ns - start.loop0_cpu_ns);
  // Server CPU per frame is the lower quartile over the window's one-second
  // parts. Host contention (a slower vCPU, stolen time) only adds CPU time
  // to the same work, so the low parts are the ones it touched least; a
  // median moves with how many parts a contended phase covers.
  std::vector<double>& per_part = result.server_cpu_part_ns_per_frame;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const Mark& a = marks[i - 1];
    const Mark& b = marks[i];
    per_part.push_back(
        static_cast<double>((b.process_cpu_ns - a.process_cpu_ns) -
                            (b.client_cpu_ns - a.client_cpu_ns)) /
        static_cast<double>(std::max<std::uint64_t>(b.frames - a.frames, 1)));
  }
  std::vector<double> sorted_parts = per_part;
  result.server_cpu_ns_per_frame = percentile(sorted_parts, 0.25);
  result.delivered_fps = static_cast<double>(window_frames_) / window_s;
  if (end.host_total_ticks > start.host_total_ticks)
    result.host_steal_share =
        static_cast<double>(end.host_steal_ticks - start.host_steal_ticks) /
        static_cast<double>(end.host_total_ticks - start.host_total_ticks);

  // --- requests: the slot-accurate deadline accounting
  const double epoch_ns = static_cast<double>(min_offset_ns_);
  const double slot_ns = static_cast<double>(spec_.slot_us) * 1e3;
  std::vector<double> waits_ms;
  for (const Request& req : requests_) {
    if (req.acked) {
      const auto gen = gens_.find(req.ack_gen);
      if (gen == gens_.end()) {
        fail_check("kReqAck names unknown generation " +
                   std::to_string(req.ack_gen));
      } else if (req.page >= gen->second.workload->total_pages() ||
                 req.ack_expected != static_cast<std::uint32_t>(
                                         gen->second.workload->expected_time_of(
                                             req.page))) {
        fail_check("kReqAck for page " + std::to_string(req.page) +
                   " promises " + std::to_string(req.ack_expected) +
                   " slots, not the page's t_i");
      }
    }
    if (!req.in_window) continue;
    ++result.attempted;
    const char* reason = nullptr;
    if (!req.served) {
      reason = "never_arrived";
    } else {
      waits_ms.push_back(static_cast<double>(req.served_ns - req.due_ns) /
                         1e6);
      const double due_ns = epoch_ns + static_cast<double>(req.served_slot) *
                                           slot_ns;
      if (req.served_slot >= req.ack_next_slot + req.ack_expected)
        reason = "late_slot";
      else if (static_cast<double>(req.served_ns) - due_ns >
               static_cast<double>(kAllowanceNs))
        reason = "late_arrival";
    }
    if (reason) {
      ++result.failed;
      ++result.fail_reasons[reason];
      if (result.fail_examples.size() < 5)
        result.fail_examples.push_back(
            std::string(reason) + ": page " + std::to_string(req.page) +
            " on session " + std::to_string(req.session) +
            (req.acked ? ", acked at slot " + std::to_string(req.ack_next_slot)
                       : ", never acked") +
            (req.served ? ", served at slot " +
                              std::to_string(req.served_slot) + " after " +
                              std::to_string((req.served_ns - req.due_ns) /
                                             1000) +
                              " us"
                        : ""));
    }
  }
  // Both percentiles come from consecutive parts of at least 1 000 requests
  // (at most 10 parts). The p99 is the median of the parts' p99s: one burst
  // of host noise then moves one part, not the figure. The p50 is the lower
  // quartile of the parts' p50s, as server CPU is of its parts: contention
  // only ever lengthens the server's stalls (the request-completion stall's
  // length follows host speed), so the low parts are the ones it touched
  // least. The report lists every part's p50, so the stall's growth
  // through the window stays visible.
  result.req_wait_samples = waits_ms.size();
  const std::size_t parts = std::clamp<std::size_t>(waits_ms.size() / 1000, 1, 10);
  for (std::size_t part = 0; part < parts; ++part) {
    std::vector<double> slice(
        waits_ms.begin() +
            static_cast<std::ptrdiff_t>(waits_ms.size() * part / parts),
        waits_ms.begin() +
            static_cast<std::ptrdiff_t>(waits_ms.size() * (part + 1) / parts));
    result.req_wait_part_p50_ms.push_back(percentile(slice, 0.50));
    result.req_wait_part_p99_ms.push_back(percentile(slice, 0.99));
  }
  result.req_wait_p99_ms = median(result.req_wait_part_p99_ms);
  std::vector<double> part_p50s = result.req_wait_part_p50_ms;
  result.req_wait_p50_ms = percentile(part_p50s, 0.25);
  result.on_time_share =
      result.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted);

  // --- swaps
  std::vector<double> reply_ms;
  std::vector<double> activation_ms;
  double seam_worst = 0.0;
  for (const SwapRecord& swap : swaps_) {
    if (!swap.in_window) continue;
    if (swap.reply_ns < 0) continue;
    reply_ms.push_back(static_cast<double>(swap.reply_ns - swap.sent_ns) /
                       1e6);
    if (swap.announce_ns >= 0)
      activation_ms.push_back(
          static_cast<double>(swap.announce_ns - swap.reply_ns) / 1e6);
    seam_worst = std::max(seam_worst, static_cast<double>(swap.seam_lateness));
  }
  result.swap_reply_samples = reply_ms.size();


  // --- per-layer figures of the same window
  auto& layer = result.layer;
  layer["req_wait_p99_ms"] = result.req_wait_p99_ms;
  layer["req_wait_samples"] = static_cast<double>(waits_ms.size());
  layer["server.swap.reply_ms"] = median(reply_ms);
  layer["server.swap.activation_wait_ms"] = median(activation_ms);
  layer["server.swap.seam_lateness_slots"] = seam_worst;
  layer["server.swap.swaps"] = static_cast<double>(reply_ms.size());
  layer["server.airing.lag_samples"] = static_cast<double>(lag_us_.size());
  layer["server.airing.lag_p50_us"] = percentile(lag_us_, 0.50);
  layer["server.airing.lag_p99_us"] = percentile(lag_us_, 0.99);
  layer["server.airing.loop0_cpu_ns_per_slot"] = loop0_cpu / slots;
  layer["server.workers.cpu_ns_per_frame"] =
      (process_cpu - client_cpu - loop0_cpu) / frames;
  const double encoded = static_cast<double>(end.encoded - start.encoded);
  const double hits = static_cast<double>(end.cache_hits - start.cache_hits);
  const double pulls =
      static_cast<double>(end.pull_airings - start.pull_airings);
  layer["net.frame_cache.encoded_per_slot"] = encoded / slots;
  const double page_airings = hits + encoded - pulls;
  layer["net.frame_cache.hit_ratio"] =
      page_airings > 0 ? hits / page_airings : 0.0;
  const double enters =
      static_cast<double>(end.uring_enters - start.uring_enters);
  const double sqes = static_cast<double>(end.uring_sqes - start.uring_sqes);
  layer["net.egress.sqes_per_enter"] = enters > 0 ? sqes / enters : 0.0;
  const tcsa::obs::MetricsSnapshot delta = end.metrics.minus(start.metrics);
  const auto counter = [&delta](const char* name) {
    return static_cast<double>(delta.counter_value(name));
  };
  const double writev = counter("tcsa_server_writev_calls_total");
  const double eagain = counter("tcsa_server_flush_eagain_total");
  const double sent = counter("tcsa_server_frames_sent_total");
  layer["net.egress.syscalls_per_frame"] =
      sent > 0 ? (writev + eagain + enters) / sent : 0.0;
  layer["net.egress.eagain_share"] =
      writev + eagain + sqes > 0 ? eagain / (writev + eagain + sqes) : 0.0;
  layer["net.egress.evictions"] =
      static_cast<double>(server_ ? server_->sessions_evicted() : 0);
  const auto [lo, hi] =
      std::minmax_element(result.placement.begin(), result.placement.end());
  layer["net.loop_group.session_imbalance"] =
      result.placement.empty() ? 0.0 : static_cast<double>(*hi - *lo);
  layer["net.loop_group.redials"] = static_cast<double>(redials_);
  layer["server.pull.busy_share"] =
      pulls / (slots * static_cast<double>(
                           std::max<std::size_t>(spec_.pull_channels, 1)));
  layer["server.pull.coalescing"] =
      pulls > 0 ? static_cast<double>(end.pull_waiters - start.pull_waiters) /
                      pulls
                : 0.0;
  layer["server.pull.backlog_peak"] = backlog_peak_;
  layer["server.pull.dropped"] =
      counter("tcsa_server_reqs_dropped_total") +
      counter("tcsa_server_pull_waiters_dropped_total");
  // The server keeps one request-delay reservoir per population (broadcast-
  // and pull-served) and re-sorts it on every 64th completion of that
  // population: completions 1, 65, 129, ...
  const auto completions = [](const tcsa::obs::MetricsSnapshot& m) {
    const std::uint64_t pulled =
        m.counter_value("tcsa_server_reqs_pull_served_total");
    return std::pair{m.counter_value("tcsa_server_reqs_completed_total") -
                         pulled,
                     pulled};
  };
  const auto publishes = [](std::uint64_t n) { return (n + 63) / 64; };
  const auto [pushed_start, pulled_start] = completions(start.metrics);
  const auto [pushed_end, pulled_end] = completions(end.metrics);
  layer["obs.reqtrace.publishes"] = static_cast<double>(
      publishes(pushed_end) - publishes(pushed_start) +
      publishes(pulled_end) - publishes(pulled_start));
  result.reservoir_samples = std::max(pushed_end, pulled_end);
  layer["client.cpu_share"] = client_cpu / (window_s * 1e9);
  layer["client.recv_calls_per_frame"] =
      static_cast<double>(window_recv_calls_) / frames;
  std::vector<double> lateness_us;
  lateness_us.reserve(lateness_offsets_ns_.size());
  for (const std::int64_t offset : lateness_offsets_ns_)
    lateness_us.push_back(static_cast<double>(offset - min_offset_ns_) / 1e3);
  layer["client.lateness_samples"] = static_cast<double>(lateness_us.size());
  layer["client.lateness_p50_us"] = percentile(lateness_us, 0.50);
  layer["client.lateness_p99_us"] = percentile(lateness_us, 0.99);
  layer["client.send_lag_p99_us"] = percentile(send_lag_us_, 0.99);
}

PassResult Pass::run() {
  PassResult result;
  if (spec_.churn) {
    const auto [first, second] = swap_catalogs();
    for (const Catalog* catalog : {&first, &second}) {
      std::string& payload = swap_payloads_[catalog == &first ? 0 : 1];
      tcsa::wire_put_u32(payload,
                         static_cast<std::uint32_t>(catalog->channels));
      tcsa::wire_put_u8(payload, net::kSwapMethodAuto);
      tcsa::append_workload_binary(payload, catalog->workload());
    }
  }

  result.setup_batches_s.push_back(set_up_repeatedly(true));
  result.uring_active = server_->uring_active();
  connect_sessions();

  const std::vector<Mark> marks = measure();
  result.placement = server_->sessions_per_loop();
  result.peak_rss_mb = vm_hwm_mb();
  result.sessions = sessions_.size();
  account(result, marks);
  teardown();
  if (runner_failed_.load(std::memory_order_acquire))
    fail_check("server stopped: " + runner_error_);
  for (auto& session : sessions_)
    for (auto& [gen, grid] : session->grids)
      finalize_grid(*session, gen, grid);
  result.setup_batches_s.push_back(set_up_repeatedly(false));
  // Host contention only ever adds time to a set-up, so the least of the
  // run's set-ups is the figure that contention moves least.
  result.setup_s = std::numeric_limits<double>::infinity();
  for (const auto& batch : result.setup_batches_s)
    result.setup_s =
        std::min(result.setup_s, *std::min_element(batch.begin(), batch.end()));

  result.redials = redials_;
  result.check_errors = check_errors_;
  result.requests = std::move(requests_);
  result.captured_stream = std::move(capture_);
  const std::uint64_t mask = spec_.session_masks.front();
  result.frames_per_slot = 0;
  for (SlotCount ch = 0; ch < spec_.catalog.channels; ++ch)
    if ((mask >> ch) & 1) ++result.frames_per_slot;
  return result;
}

}  // namespace

PassResult run_pass(const WorkloadSpec& spec, const PassOptions& options,
                    Spans& spans) {
  Pass pass(spec, options, spans);
  return pass.run();
}

}  // namespace perfbench
