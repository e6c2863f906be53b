// multiloop_test.cpp — invariants of the sharded (loops > 1) air server:
// session conservation across loop shards under churn, per-loop slow-client
// eviction, announce exactly-once per session regardless of owning loop
// (and reaching sessions no slot frame flushes), broadcast validity at four loops, and an in-process loadgen smoke run.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "model/validate.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"
#include "server/air_server.hpp"
#include "server/loadgen.hpp"
#include "server/tune_client.hpp"
#include "util/wire.hpp"

using namespace tcsa;

namespace {

Workload paper_workload() { return make_workload({2, 4, 8}, {3, 5, 3}); }
Workload grown_workload() { return make_workload({2, 4, 8}, {3, 5, 4}); }

class ServerHarness {
 public:
  ServerHarness(Workload workload, AirServerConfig config)
      : server_(std::move(workload), config),
        thread_([this] { server_.run(); }) {}
  ~ServerHarness() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }
  AirServer& server() { return server_; }
  TuneClient::Options client_options(std::uint64_t mask) const {
    TuneClient::Options options;
    options.port = server_.port();
    options.channel_mask = mask;
    return options;
  }

 private:
  AirServer server_;
  std::thread thread_;
};

std::size_t live_sessions(const AirServer& server) {
  const std::vector<std::size_t> per_loop = server.sessions_per_loop();
  return std::accumulate(per_loop.begin(), per_loop.end(), std::size_t{0});
}

/// Polls until the shard-summed session count settles at `expected`
/// (accepts and closes propagate through loop threads asynchronously).
void wait_for_sessions(const AirServer& server, std::size_t expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live_sessions(server) != expected &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(live_sessions(server), expected);
}

// Sessions are conserved across the shards: however the kernel spreads
// accepts, the per-loop counts always sum to the number of open
// connections — through a full open/close/reopen churn cycle.
TEST(MultiLoop, SessionCountsAcrossShardsSumToLiveConnectionsUnderChurn) {
  AirServerConfig config;
  config.slot_us = 1000;
  config.max_slots = 0;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);
  ASSERT_EQ(harness.server().loops(), 4u);
  ASSERT_EQ(harness.server().sessions_per_loop().size(), 4u);

  std::vector<net::Fd> conns;
  for (int i = 0; i < 32; ++i)
    conns.push_back(net::connect_tcp("127.0.0.1", harness.server().port()));
  wait_for_sessions(harness.server(), 32);

  conns.resize(16);  // close half; shards notice via EOF
  wait_for_sessions(harness.server(), 16);

  for (int i = 0; i < 8; ++i)  // reopen some
    conns.push_back(net::connect_tcp("127.0.0.1", harness.server().port()));
  wait_for_sessions(harness.server(), 24);

  conns.clear();
  wait_for_sessions(harness.server(), 0);
}

// The eviction boundary is enforced by the shard that owns the slow
// session, wherever the kernel placed it — and healthy sessions on the
// other shards keep their deadlines.
TEST(MultiLoop, OwningShardEvictsItsSlowClient) {
  AirServerConfig config;
  config.slot_us = 1000;
  config.max_slots = 0;
  config.loops = 4;
  config.session_send_buffer = 4096;
  config.max_session_buffer = 2048;
  ServerHarness harness(paper_workload(), config);

  net::Fd lazy = net::connect_tcp("127.0.0.1", harness.server().port());
  const int small = 4096;
  ASSERT_EQ(::setsockopt(lazy.get(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  std::string tune_payload;
  wire_put_u64(tune_payload, net::kAllChannels);
  std::string tune_frame;
  net::append_frame(tune_frame, net::FrameType::kTune, tune_payload);
  ASSERT_EQ(::send(lazy.get(), tune_frame.data(), tune_frame.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(tune_frame.size()));

  TuneClient healthy(harness.client_options(net::kAllChannels));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().sessions_evicted() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    healthy.run(20);
  }
  EXPECT_EQ(harness.server().sessions_evicted(), 1u);
  EXPECT_EQ(healthy.summary().deadline_misses, 0u);
}

// A hot swap's announce crosses from loop 0 to every shard as one token;
// each session must hear about the new generation exactly once, whichever
// loop owns it.
TEST(MultiLoop, EverySessionSeesOneAnnouncePerSwap) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 2000;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  constexpr int kClients = 8;
  std::vector<std::unique_ptr<TuneClient>> clients;
  for (int i = 0; i < kClients; ++i)
    clients.push_back(std::make_unique<TuneClient>(
        harness.client_options(net::kAllChannels)));
  std::vector<std::thread> runners;
  for (const auto& client : clients)
    runners.emplace_back([&client] { client->run(0); });

  TuneClient swapper(harness.client_options(0));
  const SwapReply reply = swapper.request_swap(grown_workload());
  ASSERT_TRUE(reply.accepted) << reply.error;
  EXPECT_EQ(reply.generation, 2u);

  for (std::thread& runner : runners) runner.join();
  for (const auto& client : clients) {
    const TuneSummary summary = client->summary();
    EXPECT_EQ(summary.swaps_observed, 1u)
        << "announce must reach each session exactly once";
    EXPECT_EQ(summary.generation, 2u);
    EXPECT_EQ(summary.deadline_misses, 0u);
  }
}

/// Reads a raw session until a frame of `type` arrives (true, left in
/// `frame`) or `timeout` passes (false).
bool await_frame(int fd, net::FrameDecoder& decoder, net::FrameType type,
                 std::chrono::milliseconds timeout, net::Frame& frame) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    while (decoder.next(frame))
      if (frame.type == type) return true;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

// A session whose mask misses every aired channel gets no slot frames, so
// nothing but the announce's own flush can reach it. Its kAnnounce must
// already be there when a full-mask peer sees the slot after activation —
// at one loop and at four, wherever the kernel placed the session.
TEST(MultiLoop, AnnounceReachesSessionsOutsideTheSlotFanOut) {
  for (const std::size_t loops : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    AirServerConfig config;
    config.slot_us = 1000;
    config.max_slots = 0;
    config.loops = loops;
    ServerHarness harness(paper_workload(), config);

    // An empty mask, and a mask naming only a channel the 4-channel program
    // never airs.
    struct RawSession {
      net::Fd fd;
      net::FrameDecoder decoder;
    };
    std::vector<RawSession> quiet(2);
    const std::uint64_t masks[] = {0, 1ull << 40};
    for (std::size_t i = 0; i < quiet.size(); ++i) {
      quiet[i].fd = net::connect_tcp("127.0.0.1", harness.server().port());
      net::Frame hello;
      ASSERT_TRUE(await_frame(quiet[i].fd.get(), quiet[i].decoder,
                              net::FrameType::kHello,
                              std::chrono::seconds(5), hello));
      std::string payload;
      wire_put_u64(payload, masks[i]);
      std::string tune;
      net::append_frame(tune, net::FrameType::kTune, payload);
      ASSERT_EQ(::send(quiet[i].fd.get(), tune.data(), tune.size(),
                       MSG_NOSIGNAL),
                static_cast<ssize_t>(tune.size()));
    }

    TuneClient::Options options = harness.client_options(net::kAllChannels);
    options.record_pages = true;
    TuneClient watcher(options);
    watcher.run(4);
    TuneClient swapper(harness.client_options(0));
    const SwapReply reply = swapper.request_swap(grown_workload());
    ASSERT_TRUE(reply.accepted) << reply.error;

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto latest = [&watcher] {
      std::uint64_t slot = 0;
      for (const ReceivedPage& page : watcher.pages())
        slot = std::max(slot, page.slot);
      return slot;
    };
    while (latest() <= reply.activation_slot &&
           std::chrono::steady_clock::now() < deadline)
      watcher.run(2);
    ASSERT_GT(latest(), reply.activation_slot);

    for (RawSession& session : quiet) {
      net::Frame announce;
      ASSERT_TRUE(await_frame(session.fd.get(), session.decoder,
                              net::FrameType::kAnnounce,
                              std::chrono::seconds(2), announce))
          << "no kAnnounce for a session outside the slot fan-out";
      WireReader reader(announce.payload);
      EXPECT_EQ(reader.read_u32(), reply.generation);
      reader.read_u32();  // slot_us
      reader.read_u32();  // channels
      reader.read_u32();  // cycle
      EXPECT_EQ(reader.read_u64(), reply.activation_slot);
    }
  }
}

// The wire contract does not soften under sharding: a full-mask client of a
// 4-loop server reconstructs a cycle that the model checker accepts.
TEST(MultiLoop, FourLoopBroadcastReconstructsToAValidProgram) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 600;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  TuneClient::Options options = harness.client_options(net::kAllChannels);
  options.record_pages = true;
  TuneClient recorder(options);
  recorder.run(0);

  const std::vector<ReceivedPage>& pages = recorder.pages();
  ASSERT_FALSE(pages.empty());
  std::uint64_t first = pages.front().slot;
  for (const ReceivedPage& page : pages) first = std::min(first, page.slot);
  BroadcastProgram program(4, 8);
  for (const ReceivedPage& page : pages) {
    if (page.slot < first || page.slot >= first + 8) continue;
    program.place(static_cast<SlotCount>(page.channel),
                  static_cast<SlotCount>(page.slot - first), page.page);
  }
  const ValidityReport report = validate_program(program, paper_workload());
  EXPECT_TRUE(report.valid)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(recorder.summary().deadline_misses, 0u);
}

// The epoch-stamped frame cache works across loop shards: after the first
// cycle seeds it, steady-state cycles serve page frames by patching the
// cached buffer's slot word instead of re-encoding, and the wire output
// stays correct (the recorder reconstructs a valid program elsewhere in
// this suite from the same path).
TEST(MultiLoop, FrameCacheRevivesSteadyStateCyclesAtFourLoops) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 600;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  TuneClient::Options options = harness.client_options(net::kAllChannels);
  TuneClient recorder(options);
  recorder.run(0);
  EXPECT_EQ(recorder.summary().deadline_misses, 0u);

  // 600 slots over a cycle of 8 is 75 cycles of the same occupied cells.
  // The cache holds one frame per (channel, column) cell; everything past
  // warm-up should be a patch hit. The bound is generous (25%) because a
  // cell re-encodes whenever the worker-epoch floor has not yet passed its
  // previous airing.
  const std::uint64_t encoded = harness.server().frames_encoded();
  const std::uint64_t hits = harness.server().frame_cache_hits();
  EXPECT_GT(hits, 0u) << "cache never revived a frame at loops=4";
  EXPECT_GE(hits + encoded, 1500u) << "server did not air the expected span";
  EXPECT_LE(encoded, (hits + encoded) / 4)
      << "steady-state cycles must patch, not re-encode";
}

// A hot swap invalidates the cache wholesale: no frame aired at or past the
// activation slot carries the old generation, none before it carries the
// new one, and the per-generation hit counter restarts from zero.
TEST(MultiLoop, HotSwapInvalidatesTheFrameCacheWithoutStaleFrames) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 2000;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  TuneClient::Options options = harness.client_options(net::kAllChannels);
  options.record_pages = true;
  TuneClient recorder(options);
  std::thread runner([&recorder] { recorder.run(0); });

  // Let the generation-1 cache warm (a few full cycles) so the swap has
  // revived frames to invalidate.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().frame_cache_hits() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(harness.server().frame_cache_hits(), 0u);

  TuneClient swapper(harness.client_options(0));
  const SwapReply reply = swapper.request_swap(grown_workload());
  ASSERT_TRUE(reply.accepted) << reply.error;
  ASSERT_EQ(reply.generation, 2u);
  runner.join();

  // Stale-frame check: the generation stamp inside every received frame
  // flips exactly at the activation boundary. A cached generation-1 frame
  // leaking past the swap would fail here.
  ASSERT_FALSE(recorder.pages().empty());
  for (const ReceivedPage& page : recorder.pages()) {
    if (page.slot >= reply.activation_slot)
      EXPECT_EQ(page.generation, 2u)
          << "stale generation-1 frame aired at slot " << page.slot;
    else
      EXPECT_EQ(page.generation, 1u)
          << "generation-2 frame aired before activation at slot "
          << page.slot;
  }

  // The per-generation hit counter reset at activation: it counts only
  // generation-2 revivals, strictly fewer than the all-time total (which
  // still includes the warm generation-1 cycles we waited for).
  const std::uint64_t total_hits = harness.server().frame_cache_hits();
  const std::uint64_t gen_hits = harness.server().frame_cache_generation_hits();
  EXPECT_GT(gen_hits, 0u) << "generation 2 never revived a frame";
  EXPECT_LT(gen_hits, total_hits)
      << "counter did not reset at the swap boundary";

  // Byte-level correctness of the revived generation-2 frames: a steady
  // state cycle reconstructs to a program the model checker accepts for
  // the new workload.
  const SlotCount cycle = recorder.cycle_length();
  const std::uint64_t first = reply.activation_slot + cycle;  // warm cycle
  BroadcastProgram program(recorder.channels(), cycle);
  for (const ReceivedPage& page : recorder.pages()) {
    if (page.slot < first || page.slot >= first + cycle) continue;
    program.place(static_cast<SlotCount>(page.channel),
                  static_cast<SlotCount>(page.slot - first), page.page);
  }
  const ValidityReport report = validate_program(program, grown_workload());
  EXPECT_TRUE(report.valid)
      << (report.violations.empty() ? "" : report.violations.front());
}

// In-process loadgen smoke: every requested session connects, receives
// pages, and survives to teardown against a 4-loop server.
TEST(MultiLoop, LoadgenDrivesAndMeasuresAShardedServer) {
  AirServerConfig config;
  config.slot_us = 2000;
  config.max_slots = 0;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  LoadGenConfig load;
  load.port = harness.server().port();
  load.sessions = 200;
  load.threads = 2;
  load.duration_ms = 500;
  const LoadGenReport report = run_loadgen(load);
  EXPECT_EQ(report.sessions_connected, 200u);
  EXPECT_EQ(report.connect_failures, 0u);
  EXPECT_EQ(report.early_closes, 0u);
  EXPECT_GT(report.pages, 0u);
  EXPECT_GT(report.samples, 0u);
  EXPECT_GE(report.jitter_p99_us, report.jitter_p50_us);
  EXPECT_GE(report.jitter_max_us, report.jitter_p999_us);

  // The report is a metrics snapshot: counters carry the session counts.
  const obs::MetricsSnapshot snap = report.to_snapshot();
  EXPECT_EQ(snap.counter_value("tcsa_loadgen_sessions_total"), 200u);
  EXPECT_EQ(snap.counter_value("tcsa_loadgen_early_closes_total"), 0u);
}

}  // namespace
