//===- TimeBlockScheduler.h - Host-side temporal block schedule -*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host-side adjustment of Section 4.3.1: AN5D's host code issues one
/// kernel call per temporal block of bT time-steps. Because the input code
/// is double buffered through the t%2 index and each kernel call flips the
/// global buffers exactly once, the schedule must (a) cover exactly IT
/// steps with degrees between 1 and bT, and (b) use a number of kernel
/// calls congruent to IT mod 2 so that the final result lands in buffer
/// IT%2 — the adjustment the paper applies when (IT mod bT) != 0 or
/// ((IT/bT) mod 2) != (bT mod 2).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_SIM_TIMEBLOCKSCHEDULER_H
#define AN5D_SIM_TIMEBLOCKSCHEDULER_H

#include <vector>

namespace an5d {

/// Computes the sequence of per-kernel temporal degrees for \p TimeSteps
/// total steps with maximum degree \p BT.
///
/// Postconditions: every degree d satisfies 1 <= d <= BT; the degrees sum
/// to TimeSteps; and the number of kernel calls is congruent to
/// TimeSteps mod 2.
std::vector<int> scheduleTimeBlocks(long long TimeSteps, int BT);

} // namespace an5d

#endif // AN5D_SIM_TIMEBLOCKSCHEDULER_H
