#include "core/susc.hpp"

#include "core/channel_bound.hpp"
#include "util/contracts.hpp"

namespace tcsa {

BroadcastProgram schedule_susc(const Workload& workload, SlotCount channels) {
  TCSA_REQUIRE(channels >= min_channels(workload),
               "schedule_susc: channels below the Theorem 3.1 minimum — "
               "use PAMAD for the insufficient-channel case");
  const SlotCount cycle = workload.max_expected_time();
  BroadcastProgram program(channels, cycle);

  // Groups are stored in ascending expected-time order already (Workload
  // invariant), which is exactly Algorithm 1's sort.
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    const SlotCount t = workload.expected_time(g);
    const SlotCount replications = cycle / t;  // ceil(t_h / t_i) == exact
    // Algorithm 2 (GetAvailableSlot) returns the first empty cell scanning
    // channels in order, columns [0, t) within each. Inside one group that
    // candidate region is fixed and its cells are only ever filled (the
    // replicas below land at columns >= t), so the first empty cell never
    // moves backwards in scan order. Resuming from the last cell found
    // therefore picks exactly the cells a fresh scan from (0, 0) would, in
    // O(channels * t) probes for the whole group.
    SlotCount x = 0;
    SlotCount y = 0;
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      while (x < channels && !program.empty_at(x, y)) {
        if (++y == t) {
          y = 0;
          ++x;
        }
      }
      TCSA_ASSERT(x < channels,
                  "schedule_susc: no slot in the first t_i columns — "
                  "Theorem 3.2 violated (bug)");
      // Theorem 3.3: the arithmetic progression (x, y + k*t) is free; place()
      // asserts emptiness, so a violation surfaces immediately.
      for (SlotCount k = 0; k < replications; ++k)
        program.place(x, y + k * t, page);
    }
  }
  return program;
}

BroadcastProgram schedule_susc(const Workload& workload) {
  return schedule_susc(workload, min_channels(workload));
}

}  // namespace tcsa
