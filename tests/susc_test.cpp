// Tests for the SUSC scheduler (Section 3.2) and its structural guarantees
// (Theorems 3.2 and 3.3).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/channel_bound.hpp"
#include "core/susc.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "sim/broadcast_sim.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

TEST(Susc, RejectsInsufficientChannels) {
  const Workload w = make_workload({2, 4}, {2, 3});  // needs 2
  EXPECT_THROW(schedule_susc(w, 1), std::invalid_argument);
}

TEST(Susc, PaperExampleValidAtMinimum) {
  const Workload w = make_workload({2, 4}, {2, 3});
  const BroadcastProgram p = schedule_susc(w);  // 2 channels
  EXPECT_EQ(p.channels(), 2);
  EXPECT_EQ(p.cycle_length(), 4);  // t_h
  EXPECT_TRUE(is_valid_program(p, w));
}

TEST(Susc, CycleLengthIsLargestExpectedTime) {
  const Workload w = make_workload({2, 4, 8}, {1, 1, 1});
  EXPECT_EQ(schedule_susc(w).cycle_length(), 8);
}

TEST(Susc, EveryPageBroadcastExactlyCycleOverT) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  const AppearanceIndex idx(p, w.total_pages());
  for (PageId page = 0; page < w.total_pages(); ++page) {
    const SlotCount t = w.expected_time_of(page);
    EXPECT_EQ(idx.count(page), p.cycle_length() / t)
        << "page " << page << " has wrong replication count";
  }
}

TEST(Susc, Theorem33SpacingIsExactlyT) {
  // Each page's appearances form an arithmetic progression with step t_i on
  // a single channel.
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  const AppearanceIndex idx(p, w.total_pages());
  for (PageId page = 0; page < w.total_pages(); ++page) {
    const SlotCount t = w.expected_time_of(page);
    const auto a = idx.appearances(page);
    for (std::size_t k = 1; k < a.size(); ++k)
      EXPECT_EQ(a[k] - a[k - 1], t) << "page " << page;
    EXPECT_LE(a.front(), t) << "page " << page;  // Condition (1)
  }
}

TEST(Susc, PagesStayOnOneChannel) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  for (PageId page = 0; page < w.total_pages(); ++page) {
    int channels_used = 0;
    for (SlotCount ch = 0; ch < p.channels(); ++ch) {
      bool on_channel = false;
      for (SlotCount s = 0; s < p.cycle_length(); ++s)
        if (p.at(ch, s) == page) on_channel = true;
      if (on_channel) ++channels_used;
    }
    EXPECT_EQ(channels_used, 1) << "page " << page;
  }
}

TEST(Susc, ExtraChannelsStillValid) {
  const Workload w = make_workload({2, 4}, {2, 3});
  for (SlotCount channels = 2; channels <= 6; ++channels) {
    const BroadcastProgram p = schedule_susc(w, channels);
    EXPECT_TRUE(is_valid_program(p, w)) << channels << " channels";
  }
}

TEST(Susc, SingleGroupSingleChannel) {
  const Workload w = make_workload({4}, {4});
  const BroadcastProgram p = schedule_susc(w);  // 1 channel, cycle 4
  EXPECT_EQ(p.channels(), 1);
  EXPECT_EQ(p.occupied(), 4);
  EXPECT_TRUE(is_valid_program(p, w));
}

TEST(Susc, FullyPackedWhenDemandIsIntegral) {
  // Demand = 4/2 + 8/4 = 4 channels exactly: zero idle slots.
  const Workload w = make_workload({2, 4}, {4, 8});
  const BroadcastProgram p = schedule_susc(w);
  EXPECT_EQ(p.channels(), 4);
  EXPECT_EQ(p.occupied(), p.capacity());
}

TEST(Susc, SimulatedClientsNeverMissDeadline) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  SimConfig config;
  config.requests.count = 2000;
  const SimResult result = simulate_requests(p, w, config);
  EXPECT_DOUBLE_EQ(result.avg_delay, 0.0);
  EXPECT_DOUBLE_EQ(result.miss_rate, 0.0);
}

// Property sweep: SUSC produces a valid program at the Theorem 3.1 minimum
// across shapes, ladder ratios and sizes — the paper's core sufficiency
// claim (Theorems 3.1 + 3.2 + 3.3 together).
struct SuscCase {
  GroupSizeShape shape;
  GroupId h;
  SlotCount n;
  SlotCount t1;
  SlotCount c;
};

class SuscProperty : public ::testing::TestWithParam<SuscCase> {};

TEST_P(SuscProperty, ValidAtMinimumChannels) {
  const SuscCase& tc = GetParam();
  const Workload w = make_paper_workload(tc.shape, tc.h, tc.n, tc.t1, tc.c);
  const BroadcastProgram p = schedule_susc(w);
  EXPECT_EQ(p.channels(), min_channels(w));
  const ValidityReport report = validate_program(p, w);
  EXPECT_TRUE(report.valid) << w.describe() << "\nfirst violation: "
                            << (report.violations.empty()
                                    ? "none"
                                    : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuscProperty,
    ::testing::Values(
        SuscCase{GroupSizeShape::kUniform, 1, 5, 3, 2},
        SuscCase{GroupSizeShape::kUniform, 2, 10, 2, 2},
        SuscCase{GroupSizeShape::kUniform, 3, 11, 2, 2},
        SuscCase{GroupSizeShape::kUniform, 4, 64, 2, 2},
        SuscCase{GroupSizeShape::kUniform, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kNormal, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kLSkewed, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kSSkewed, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kZipf, 6, 300, 5, 2},
        SuscCase{GroupSizeShape::kBinomial, 5, 200, 3, 3},
        SuscCase{GroupSizeShape::kNormal, 4, 100, 1, 4},
        SuscCase{GroupSizeShape::kUniform, 3, 30, 7, 3},
        SuscCase{GroupSizeShape::kLSkewed, 6, 500, 2, 2},
        SuscCase{GroupSizeShape::kSSkewed, 5, 77, 3, 2}),
    [](const auto& info) {
      const SuscCase& tc = info.param;
      return shape_name(tc.shape) + "_h" + std::to_string(tc.h) + "_n" +
             std::to_string(tc.n) + "_t" + std::to_string(tc.t1) + "_c" +
             std::to_string(tc.c);
    });

// ------------------------------------------------------------ exactness
//
// schedule_susc resumes each group's scan where the previous page landed.
// The oracle below is Algorithm 2 as the paper writes it — a fresh scan
// from (0, 0) for every page, O(pages x cells) — and the resumed scan must
// reproduce its grid cell for cell.

BroadcastProgram schedule_susc_by_rescan(const Workload& workload,
                                         SlotCount channels) {
  const SlotCount cycle = workload.max_expected_time();
  BroadcastProgram program(channels, cycle);
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    const SlotCount t = workload.expected_time(g);
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      bool placed = false;
      for (SlotCount x = 0; x < channels && !placed; ++x) {
        for (SlotCount y = 0; y < t && !placed; ++y) {
          if (!program.empty_at(x, y)) continue;
          for (SlotCount k = 0; k < cycle / t; ++k)
            program.place(x, y + k * t, page);
          placed = true;
        }
      }
      if (!placed) throw std::logic_error("oracle: no slot in [0, t_i)");
    }
  }
  return program;
}

void expect_matches_rescan(const Workload& w, SlotCount channels) {
  const BroadcastProgram fast = schedule_susc(w, channels);
  const BroadcastProgram oracle = schedule_susc_by_rescan(w, channels);
  ASSERT_EQ(fast, oracle) << w.describe() << " on " << channels
                          << " channels";
}

TEST(SuscExactness, RandomDivisibleLaddersMatchTheRescan) {
  Rng rng(0x5e5c);
  for (int trial = 0; trial < 600; ++trial) {
    const auto groups = static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<SlotCount> times;
    std::vector<SlotCount> pages;
    SlotCount t = rng.uniform_int(1, 6);
    for (std::size_t g = 0; g < groups; ++g) {
      times.push_back(t);
      pages.push_back(rng.uniform_int(1, 3 * t));
      t *= rng.uniform_int(2, 3);  // mixed ratios: only t_i | t_{i+1}
    }
    const Workload w = make_workload(times, pages);
    const SlotCount bound = min_channels(w);
    expect_matches_rescan(w, bound);
    expect_matches_rescan(w, bound + rng.uniform_int(1, 4));
    if (HasFatalFailure()) return;
  }
}

TEST(SuscExactness, BenchmarkCatalogsMatchTheRescan) {
  // The serving benchmark's catalogs on the channels they air on:
  // push-fanout, pull-hotspot, swap-churn, and the swap target swap-churn
  // alternates with (64 more pages on 19 channels).
  expect_matches_rescan(make_workload({4, 8, 16, 32}, {16, 32, 64, 128}), 16);
  expect_matches_rescan(make_workload({4, 64, 512}, {4, 128, 1024}), 5);
  expect_matches_rescan(
      make_workload({64, 128, 256, 512}, {384, 768, 1024, 1024}), 18);
  expect_matches_rescan(
      make_workload({64, 128, 256, 512}, {384, 768, 1024, 1088}), 19);
}

// Scale guard: an at-bound catalog of over a million pages. Every page of
// the last group sits behind 36 full channels of 65 536 cells, so a per-page
// rescan from (0, 0) would probe ~3e12 cells (an hour or more); the resumed
// scan probes each cell about once (milliseconds). The ctest TIMEOUT on this
// suite turns a return to per-page rescans into a failure.
TEST(SuscScale, MillionPageCatalogSchedulesInLinearTime) {
  const Workload w = make_workload({16, 256, 4096, 65536},
                                   {64, 4096, 65536, 1048576});
  ASSERT_EQ(min_channels(w), 52);
  const BroadcastProgram p = schedule_susc(w);
  EXPECT_EQ(p.channels(), 52);
  EXPECT_EQ(p.occupied(), p.capacity()) << "integral demand packs the grid";
  const GroupId last = w.group_count() - 1;
  EXPECT_EQ(p.at(36, 0), w.first_page(last));
  EXPECT_EQ(p.at(51, 65535),
            w.first_page(last) +
                static_cast<PageId>(w.pages_in_group(last) - 1));
}

// Mixed-ratio ladders (the divisibility generalisation) also work.
TEST(Susc, MixedRatioLadder) {
  const Workload w = make_workload({2, 4, 12, 24}, {3, 4, 6, 10});
  const BroadcastProgram p = schedule_susc(w);
  EXPECT_TRUE(is_valid_program(p, w));
}

}  // namespace
}  // namespace tcsa
