//===- ScheduleIR.cpp - Backend-neutral N.5D schedule IR ------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "schedule/ScheduleIR.h"

#include <cassert>

using namespace an5d;

const char *an5d::scheduleHaloPolicyName(ScheduleHaloPolicy Policy) {
  switch (Policy) {
  case ScheduleHaloPolicy::CarryPreviousTier:
    return "carry-previous-tier";
  case ScheduleHaloPolicy::PinBoundaryOnly:
    return "pin-boundary-only";
  }
  return "unknown";
}

const InvocationSchedule &ScheduleIR::at(int Degree) const {
  assert(Degree >= 1 &&
         static_cast<size_t>(Degree) <= Invocations.size() &&
         "invocation degree outside [1, bT]");
  return Invocations[static_cast<size_t>(Degree) - 1];
}

const InvocationSchedule &ScheduleIR::full() const {
  assert(!Invocations.empty() && "schedule has no invocations (bT < 1)");
  return Invocations.back();
}

namespace {

/// Lowers the invocation plan of \p Config at temporal degree \p Degree
/// (1 <= Degree <= Config.BT; the host schedule can issue any such
/// degree). Never rejects: structurally broken configurations lower to a
/// plan the prover refutes.
InvocationSchedule lowerInvocation(const StencilProgram &Program,
                                   const BlockConfig &Config, int Degree) {
  const long long Rad = Program.radius();
  InvocationSchedule M;
  M.Name = Program.name() + " " + Config.toString() + " degree " +
           std::to_string(Degree);
  M.NumDims = Program.numDims();
  M.Radius = Program.radius();
  M.Degree = Degree;
  M.GridHalo = Rad;
  M.RingDepth = 2 * Rad + 1;
  M.LoadSpanHalo = Degree * Rad;
  M.LoadStreamReach = Degree * Rad;
  M.LoadOrderPosition = 0;
  for (int B : Config.BS) {
    // Every backend recomputes the width per invocation degree
    // (cw = bS - 2*degree*rad), so a partial-degree call has a wider
    // compute region than the full-bT call.
    const long long Width = B - 2 * Degree * Rad;
    M.BS.push_back(B);
    M.ComputeWidth.push_back(Width);
    M.BlockStride.push_back(Width);
    M.StoreWidth.push_back(Width);
  }
  M.ChunkLength = Config.HS > 0 ? Config.HS : 0;
  M.ChunkStride = M.ChunkLength;
  M.Taps = Program.taps();
  for (int T = 1; T <= Degree; ++T) {
    TierSchedule Tier;
    Tier.Tier = T;
    Tier.OrderPosition = T;
    Tier.StreamLag = static_cast<long long>(T) * Rad;
    Tier.Reach = static_cast<long long>(Degree - T) * Rad;
    M.Tiers.push_back(Tier);
  }
  M.HaloPolicy = Config.BS.empty() ? ScheduleHaloPolicy::PinBoundaryOnly
                                   : ScheduleHaloPolicy::CarryPreviousTier;
  return M;
}

} // namespace

ScheduleIR an5d::lowerSchedule(const StencilProgram &Program,
                               const BlockConfig &Config) {
  const long long Rad = Program.radius();
  ScheduleIR IR;
  IR.StencilName = Program.name();
  IR.NumDims = Program.numDims();
  IR.Radius = Program.radius();
  IR.Config = Config;
  IR.GridHalo = Rad;
  IR.RingDepth = 2 * Rad + 1;
  IR.HaloPolicy = Config.BS.empty() ? ScheduleHaloPolicy::PinBoundaryOnly
                                    : ScheduleHaloPolicy::CarryPreviousTier;
  for (int Degree = 1; Degree <= Config.BT; ++Degree)
    IR.Invocations.push_back(lowerInvocation(Program, Config, Degree));
  return IR;
}
