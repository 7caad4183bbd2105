//===- TimeBlockScheduler.cpp - Host-side temporal block schedule -----------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/TimeBlockScheduler.h"

#include <cassert>

namespace an5d {

std::vector<int> scheduleTimeBlocks(long long TimeSteps, int BT) {
  assert(TimeSteps >= 0 && "negative time-step count");
  assert(BT >= 1 && "temporal degree must be positive");

  std::vector<int> Degrees;
  long long Full = TimeSteps / BT;
  int Remainder = static_cast<int>(TimeSteps % BT);
  Degrees.assign(static_cast<std::size_t>(Full), BT);
  if (Remainder > 0)
    Degrees.push_back(Remainder);

  // Buffer-parity fix-up: each kernel call flips the double buffer once,
  // so the call count must match TimeSteps mod 2. Splitting any block of
  // degree >= 2 adds one call without changing the step total.
  long long Calls = static_cast<long long>(Degrees.size());
  if ((Calls % 2) != (TimeSteps % 2)) {
    for (std::size_t I = 0; I < Degrees.size(); ++I) {
      if (Degrees[I] >= 2) {
        int High = Degrees[I] - Degrees[I] / 2;
        int Low = Degrees[I] / 2;
        Degrees[I] = High;
        Degrees.insert(Degrees.begin() + static_cast<std::ptrdiff_t>(I) + 1,
                       Low);
        break;
      }
    }
  }

  // The parity mismatch can only arise when some degree is at least 2, so
  // the fix-up above always succeeds.
  assert(((static_cast<long long>(Degrees.size()) % 2) == (TimeSteps % 2)) &&
         "parity fix-up failed");
  return Degrees;
}

} // namespace an5d
