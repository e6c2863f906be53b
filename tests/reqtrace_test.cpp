// Tests for the request-journey layer: the NTP-style clock-offset
// estimator, the crash-safe flight recorder (including a SIGKILL'd child),
// trace-id minting, and the exact-percentile reservoir.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/clock_sync.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"

namespace tcsa::obs {
namespace {

// ------------------------------------------------------------ clock sync

TEST(ClockOffsetEstimator, SymmetricExchangeRecoversExactOffset) {
  // Server clock runs 5000us ahead of the client's; both legs take 40us.
  ClockOffsetEstimator est;
  EXPECT_FALSE(est.has_estimate());
  const std::uint64_t t0 = 1000;
  const std::uint64_t t1 = t0 + 40 + 5000;  // arrive, on the server clock
  const std::uint64_t t2 = t1 + 10;         // 10us of server hold time
  const std::uint64_t t3 = t0 + 40 + 10 + 40;
  est.add_sample(t0, t1, t2, t3);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.offset_us(), 5000);
  EXPECT_EQ(est.rtt_us(), 80u);
  EXPECT_EQ(est.samples(), 1u);
}

TEST(ClockOffsetEstimator, NegativeOffsetWhenServerClockLags) {
  // Server clock 3ms behind: legs of 25us each, 5us hold.
  ClockOffsetEstimator est;
  const std::uint64_t t0 = 100000;
  const std::uint64_t t1 = t0 + 25 - 3000;
  const std::uint64_t t2 = t1 + 5;
  const std::uint64_t t3 = t0 + 25 + 5 + 25;
  est.add_sample(t0, t1, t2, t3);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.offset_us(), -3000);
  EXPECT_EQ(est.rtt_us(), 50u);
}

TEST(ClockOffsetEstimator, AsymmetricPathErrorBoundedByHalfRtt) {
  // True offset is 0, but the outbound leg takes 90us and the return 10us.
  // The estimator cannot see the asymmetry; its error must stay within
  // rtt/2 of the truth, which is the documented bound.
  ClockOffsetEstimator est;
  const std::uint64_t t0 = 5000;
  const std::uint64_t t1 = t0 + 90;
  const std::uint64_t t2 = t1 + 20;
  const std::uint64_t t3 = t2 + 10;
  est.add_sample(t0, t1, t2, t3);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.rtt_us(), 100u);
  const std::int64_t error = est.offset_us() - 0;
  EXPECT_LE(std::abs(error), static_cast<std::int64_t>(est.rtt_us()) / 2);
  // For this exchange the bias is exactly (out - back) / 2 = +40us.
  EXPECT_EQ(est.offset_us(), 40);
}

TEST(ClockOffsetEstimator, KeepsMinimumRttSample) {
  ClockOffsetEstimator est;
  // Slow, badly-biased exchange first: rtt 400us, offset reads 1200.
  est.add_sample(0, 1300, 1310, 400);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.rtt_us(), 390u);
  // A tight exchange refines it: rtt 30us, near-symmetric legs.
  est.add_sample(2000, 3010, 3020, 2040);
  EXPECT_EQ(est.rtt_us(), 30u);
  EXPECT_EQ(est.offset_us(), 995);
  // A later, slower exchange must NOT displace the tight one.
  est.add_sample(5000, 6500, 6510, 5600);
  EXPECT_EQ(est.rtt_us(), 30u);
  EXPECT_EQ(est.offset_us(), 995);
  EXPECT_EQ(est.samples(), 3u);
}

TEST(ClockOffsetEstimator, EqualRttTieGoesToNewerSample) {
  // Two exchanges with identical rtt but drifted offsets: the estimator
  // keeps the newer one so a long-lived client tracks drift.
  ClockOffsetEstimator est;
  est.add_sample(0, 1020, 1030, 60);    // rtt 50, offset ~1005
  est.add_sample(100, 1920, 1930, 160); // rtt 50, offset ~1805
  EXPECT_EQ(est.rtt_us(), 50u);
  EXPECT_EQ(est.offset_us(), 1795);
}

TEST(ClockOffsetEstimator, DropsImpossibleSamples) {
  ClockOffsetEstimator est;
  // Ack "arrived" before the request left.
  est.add_sample(1000, 2000, 2010, 900);
  EXPECT_FALSE(est.has_estimate());
  // Server "sent" the ack before receiving the request.
  est.add_sample(1000, 2010, 2000, 1100);
  EXPECT_FALSE(est.has_estimate());
  // Server held the request longer than the whole exchange took.
  est.add_sample(1000, 2000, 2500, 1100);
  EXPECT_FALSE(est.has_estimate());
  EXPECT_EQ(est.samples(), 0u);
  // A sane sample still lands after the garbage.
  est.add_sample(1000, 2020, 2030, 1050);
  EXPECT_TRUE(est.has_estimate());
  EXPECT_EQ(est.samples(), 1u);
}

// ------------------------------------------------------------- trace ids

TEST(MintTraceId, NonzeroUniqueAndPidTagged) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = mint_trace_id();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(id >> 40,
              static_cast<std::uint64_t>(::getpid()) & ((1ull << 24) - 1))
        << "high bits must carry the pid";
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST(ReqStageName, CoversTaxonomyAndRejectsGarbage) {
  EXPECT_STREQ(req_stage_name(ReqStage::kClientSent), "client.req.sent");
  EXPECT_STREQ(req_stage_name(ReqStage::kClientDone), "client.req.done");
  EXPECT_STREQ(req_stage_name(ReqStage::kServerRecv), "server.req.recv");
  EXPECT_STREQ(req_stage_name(ReqStage::kServerFlushed),
               "server.req.flushed");
  EXPECT_STREQ(req_stage_name(static_cast<ReqStage>(255)), "req.unknown");
}

// -------------------------------------------------------- flight recorder

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("tcsa_flight_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".bin"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(FlightRecorderTest, RoundTripPreservesEveryField) {
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, 16)) << rec.error();
  EXPECT_TRUE(rec.is_open());
  rec.record(0xABCDEF, ReqStage::kClientSent, 111, 7);
  rec.record(0xABCDEF, ReqStage::kServerRecv, 222, 3);
  rec.record(0x123456, ReqStage::kClientDone,
             333, static_cast<std::uint64_t>(-42));
  EXPECT_EQ(rec.recorded(), 3u);
  rec.close();
  EXPECT_FALSE(rec.is_open());

  bool sealed = false;
  const std::vector<FlightEvent> events = flight_load(path_, &sealed);
  EXPECT_TRUE(sealed) << "close() must seal the header";
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ordinal, 1u);
  EXPECT_EQ(events[0].trace_id, 0xABCDEFu);
  EXPECT_EQ(events[0].stage,
            static_cast<std::uint32_t>(ReqStage::kClientSent));
  EXPECT_EQ(events[0].t_us, 111u);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].stage,
            static_cast<std::uint32_t>(ReqStage::kServerRecv));
  EXPECT_EQ(events[2].ordinal, 3u);
  EXPECT_EQ(static_cast<std::int64_t>(events[2].arg), -42);
}

TEST_F(FlightRecorderTest, WrapKeepsTheMostRecentCapacityEvents) {
  constexpr std::uint32_t kCapacity = 8;
  constexpr std::uint64_t kTotal = 27;
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, kCapacity)) << rec.error();
  for (std::uint64_t i = 1; i <= kTotal; ++i)
    rec.record(i, ReqStage::kServerFlushed, i * 10, i);
  EXPECT_EQ(rec.recorded(), kTotal);
  rec.close();

  const std::vector<FlightEvent> events = flight_load(path_);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kCapacity));
  // Exactly ordinals 20..27, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ordinal, kTotal - kCapacity + 1 + i);
    EXPECT_EQ(events[i].trace_id, events[i].ordinal);
    EXPECT_EQ(events[i].t_us, events[i].ordinal * 10);
  }
}

TEST_F(FlightRecorderTest, TornCellIsDroppedNotMisread) {
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, 4)) << rec.error();
  rec.record(1, ReqStage::kClientSent, 10, 0);
  rec.record(2, ReqStage::kClientAcked, 20, 0);
  rec.record(3, ReqStage::kClientDone, 30, 0);
  rec.close();

  // Tear cell index 1 (ordinal 2) the way a mid-write SIGKILL would: the
  // commit ordinal never lands. Header is 64 bytes, cells 48, commit at
  // +40 inside the cell.
  {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    const std::uint64_t stale = 0;
    file.seekp(64 + 1 * 48 + 40);
    file.write(reinterpret_cast<const char*>(&stale), sizeof stale);
  }
  const std::vector<FlightEvent> events = flight_load(path_);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ordinal, 1u);
  EXPECT_EQ(events[1].ordinal, 3u);
}

TEST_F(FlightRecorderTest, RejectsForeignAndTruncatedFiles) {
  {
    std::ofstream file(path_, std::ios::binary);
    file << "this is not a flight ring, it is barely a file";
  }
  EXPECT_THROW(flight_load(path_), std::runtime_error);
  EXPECT_THROW(flight_load(path_ + ".missing"), std::runtime_error);

  // A valid header claiming more cells than the file holds.
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, 64)) << rec.error();
  rec.record(1, ReqStage::kClientSent, 1, 0);
  rec.close();
  std::filesystem::resize_file(path_, 64 + 10 * 48);
  EXPECT_THROW(flight_load(path_), std::runtime_error);
}

TEST_F(FlightRecorderTest, RecordWhileClosedIsANoOp) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.is_open());
  rec.record(1, ReqStage::kClientSent, 1, 0);  // must not crash
  EXPECT_EQ(rec.recorded(), 0u);
  rec.seal();  // also a no-op while closed
  EXPECT_FALSE(rec.open(path_, 0)) << "zero capacity must be rejected";
  EXPECT_FALSE(rec.error().empty());
}

TEST_F(FlightRecorderTest, ConcurrentWritersLoseNoCommittedRecords) {
  // Capacity exceeds the total record count, so no writer laps another:
  // every cell is written exactly once and the replay must be exact. (The
  // wrap path is covered single-threaded above; lapped-writer races are
  // allowed to shed cells by design, which would make exact assertions
  // here flaky.)
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  constexpr std::uint32_t kCapacity = 16384;
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, kCapacity)) << rec.error();
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        rec.record((static_cast<std::uint64_t>(t) << 32) | i,
                   ReqStage::kServerEncoded, i, static_cast<std::uint64_t>(t));
    });
  for (auto& w : writers) w.join();
  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  rec.close();

  const std::vector<FlightEvent> events = flight_load(path_);
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::uint64_t prev = 0;
  for (const FlightEvent& event : events) {
    EXPECT_EQ(event.ordinal, prev + 1) << "ordinals must be gap-free";
    prev = event.ordinal;
    const std::uint64_t thread = event.trace_id >> 32;
    ASSERT_LT(thread, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(event.arg, thread) << "payload fields written by different "
                                    "threads must not interleave";
    EXPECT_EQ(event.t_us, event.trace_id & 0xFFFFFFFFu);
  }
}

TEST_F(FlightRecorderTest, SigkilledChildLeavesAReadableRing) {
  // The whole point of MAP_SHARED: a child that is killed dead — no
  // destructors, no close(), no seal — still leaves every committed
  // record in the page cache for the parent to replay.
  constexpr std::uint64_t kEvents = 40;
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    FlightRecorder rec;
    if (!rec.open(path_, 64)) _exit(2);
    for (std::uint64_t i = 1; i <= kEvents; ++i)
      rec.record(0xF00D00 + i, ReqStage::kServerFlushed, i * 100, i);
    ::kill(::getpid(), SIGKILL);
    _exit(3);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  bool sealed = true;
  const std::vector<FlightEvent> events = flight_load(path_, &sealed);
  EXPECT_FALSE(sealed) << "a SIGKILL'd writer cannot have sealed the ring";
  ASSERT_EQ(events.size(), kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    EXPECT_EQ(events[i].ordinal, i + 1);
    EXPECT_EQ(events[i].trace_id, 0xF00D00 + i + 1);
    EXPECT_EQ(events[i].t_us, (i + 1) * 100);
  }
}

// -------------------------------------------------------- ReqPercentiles

/// Flips the process-wide metrics gate on for one test and restores the
/// previous state after, so suite ordering stays irrelevant.
class MetricsEnabledScope {
 public:
  MetricsEnabledScope() : was_(enabled()) {
    set_enabled(true);
    reset_metrics();
  }
  ~MetricsEnabledScope() { set_enabled(was_); }

 private:
  bool was_;
};

TEST(ReqPercentiles, NearestRankMatchesHandComputedValues) {
  MetricsEnabledScope metrics_on;
  ReqPercentiles pct("test_reqtrace_delay", "us", "test percentiles",
                     {100.0, 1000.0});
  EXPECT_EQ(pct.percentile(0.5), 0.0) << "empty reservoir reads 0";
  for (int i = 1; i <= 100; ++i) pct.record(static_cast<double>(i));
  EXPECT_EQ(pct.count(), 100u);
  // Nearest rank over 1..100: ceil(q*100) picks the value directly.
  EXPECT_EQ(pct.percentile(0.50), 50.0);
  EXPECT_EQ(pct.percentile(0.99), 99.0);
  EXPECT_EQ(pct.percentile(1.0), 100.0);
  EXPECT_EQ(pct.percentile(0.0), 1.0);

  pct.publish();
  const MetricsSnapshot snap = snapshot();
  EXPECT_EQ(snap.gauge_value("test_reqtrace_delay_p50_us"), 50.0);
  EXPECT_EQ(snap.gauge_value("test_reqtrace_delay_p99_us"), 99.0);
  const HistogramSnapshot* hist = snap.histogram("test_reqtrace_delay_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total(), 100u);
}

TEST(ReqPercentiles, DecimationKeepsPercentilesStable) {
  MetricsEnabledScope metrics_on;
  ReqPercentiles pct("test_reqtrace_big", "us", "decimation test", {1.0});
  // 2^17 + a half more forces at least one halving of the reservoir. A
  // uniform ramp keeps the true percentiles known.
  const std::uint64_t total = (std::uint64_t{1} << 17) + 60000;
  for (std::uint64_t i = 0; i < total; ++i)
    pct.record(static_cast<double>(i));
  EXPECT_EQ(pct.count(), total);
  const double p50 = pct.percentile(0.50);
  const double p99 = pct.percentile(0.99);
  // Stride-decimated nearest rank stays within a stride of the truth;
  // 1% slack is orders of magnitude looser than that.
  EXPECT_NEAR(p50, static_cast<double>(total) * 0.50,
              static_cast<double>(total) * 0.01);
  EXPECT_NEAR(p99, static_cast<double>(total) * 0.99,
              static_cast<double>(total) * 0.01);
}

/// publish() selects its four ranks with nth_element over one copy; each
/// gauge must equal what the sort-based percentile(q) reads off the same
/// reservoir.
void expect_publish_matches_percentile(ReqPercentiles& pct,
                                       const std::string& base) {
  pct.publish();
  const MetricsSnapshot snap = snapshot();
  const std::pair<const char*, double> gauges[] = {
      {"_p50_us", 0.50}, {"_p99_us", 0.99}, {"_p999_us", 0.999},
      {"_p9999_us", 0.9999}};
  for (const auto& [suffix, q] : gauges)
    EXPECT_EQ(snap.gauge_value(base + suffix), pct.percentile(q))
        << base << suffix;
}

TEST(ReqPercentiles, PublishEqualsPercentileOnEdgeReservoirs) {
  MetricsEnabledScope metrics_on;

  ReqPercentiles single("test_reqtrace_single", "us", "one sample", {1.0});
  single.record(42.0);
  expect_publish_matches_percentile(single, "test_reqtrace_single");
  EXPECT_EQ(single.percentile(0.9999), 42.0);

  ReqPercentiles flat("test_reqtrace_flat", "us", "all equal", {1.0});
  for (int i = 0; i < 5000; ++i) flat.record(7.0);
  expect_publish_matches_percentile(flat, "test_reqtrace_flat");
  EXPECT_EQ(flat.percentile(0.5), 7.0);

  // Heavy duplicates in shuffled order: a handful of values, the ranks
  // landing inside and on the edges of the runs.
  ReqPercentiles dup("test_reqtrace_dup", "us", "duplicates", {1.0});
  std::vector<double> fed;
  for (int i = 0; i < 20011; ++i) {
    fed.push_back(static_cast<double>((i * 7919) % 5 == 0 ? 1000 : (i % 3)));
    dup.record(fed.back());
  }
  expect_publish_matches_percentile(dup, "test_reqtrace_dup");
  std::sort(fed.begin(), fed.end());
  EXPECT_EQ(dup.percentile(0.50), fed[10005]);  // ceil(0.5 * 20011) - 1
  EXPECT_EQ(dup.percentile(0.9999), fed[20008]);  // ceil(20008.9989) - 1

  // Past the 2^17 cap: the decimated reservoir, fed a descending ramp with
  // repeats so selection has real work on both sides of each rank.
  ReqPercentiles big("test_reqtrace_capped", "us", "decimated", {1.0});
  const std::uint64_t total = (std::uint64_t{1} << 17) * 3 + 12345;
  for (std::uint64_t i = 0; i < total; ++i)
    big.record(static_cast<double>((total - i) / 3));
  EXPECT_EQ(big.count(), total);
  expect_publish_matches_percentile(big, "test_reqtrace_capped");
}

}  // namespace
}  // namespace tcsa::obs
