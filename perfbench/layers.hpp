// Layer microbenchmarks: synthetic loads on one layer at a time, timed through its
// public calls, so a regression can be pinned on the layer that caused it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Host nanoseconds per DES kernel operation at a steady queue depth of
/// `depth` live events. One operation is a cancel, the schedule_at calls that
/// restore the depth (two when the cancel hit a live event) and one step.
double des_ns_per_op(std::size_t depth, std::uint64_t seed);

/// Host microseconds per flow churn (one flow completion plus the start of
/// its replacement) in a single connected component of `flows` flows that
/// all share one link, so every arrival or departure rebalances all of them.
double net_us_per_churn(std::size_t flows, std::uint64_t seed);

}  // namespace perfbench
