//===- MeasuredSimulator.cpp - Calibrated measured-performance stand-in -----===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/MeasuredSimulator.h"

#include "ir/ExprPlan.h"
#include "model/RegisterModel.h"

#include <algorithm>

namespace an5d {

const char *measureFailureKindLabel(MeasureFailureKind Kind) {
  switch (Kind) {
  case MeasureFailureKind::None:
    return "";
  case MeasureFailureKind::BuildFailed:
    return "build_failed";
  case MeasureFailureKind::NeverBuilt:
    return "never_built";
  case MeasureFailureKind::RunRejected:
    return "run_rejected";
  }
  return "";
}

std::string measureFailureMetricName(MeasureFailureKind Kind) {
  const char *Label = measureFailureKindLabel(Kind);
  if (!*Label)
    return std::string();
  return std::string("measure.failures.") + Label;
}

/// Slowdown of double-precision constant division relative to the fast-math
/// multiply the model assumes (Section 7.1 reports up to ~2x end-to-end
/// degradation versus same-shaped division-free stencils).
static constexpr double DoubleDivisionPenalty = 5.0;

/// Fraction of peak FMA throughput a real stencil kernel retires once
/// address arithmetic, predication and load/store slots share the issue
/// ports with the FMAs (the paper's compute-bound box stencils reach
/// roughly 60-70% of peak, Section 7.3).
static constexpr double AchievableComputeFraction = 0.72;

/// Per-tier pipeline cost the roofline cannot see: each combined time-step
/// adds a __syncthreads() barrier and one more dependent shared-memory
/// round-trip per sub-plane, so the achieved shared-memory throughput
/// degrades linearly with bT. This is what bends the Fig. 8 curves over
/// after their peak (~bT 10 in 2D) on real hardware.
static constexpr double SyncOverheadPerTier = 0.008;

/// Latency-hiding efficiency as a function of resident blocks per SM: a
/// single resident block cannot fully cover barrier and memory latency;
/// this is why capping registers below NVCC's natural allocation often
/// buys measurable performance (Section 6.3's -maxrregcount finding).
static double occupancyEfficiency(int BlocksPerSm) {
  return std::min(1.0, 0.7 + 0.15 * BlocksPerSm);
}

/// Extra compute-path derating once register pressure approaches the
/// 255-register architectural cap (the box3d3r/box3d4r effect of
/// Section 7.2).
static double registerPressurePenalty(const StencilProgram &Program,
                                      const BlockConfig &Config) {
  int Needed = an5dRegistersPerThread(Program, Config.BT);
  if (Needed <= 120)
    return 1.0;
  return static_cast<double>(Needed) / 120.0;
}

MeasuredResult simulateMeasured(const StencilProgram &Program,
                                const GpuSpec &Spec,
                                const BlockConfig &Config,
                                const ProblemSize &Problem) {
  MeasuredResult Out;
  Out.Model = evaluateModel(Program, Spec, Config, Problem);
  if (!Out.Model.Feasible)
    return Out;

  double TimeSmem = Out.Model.TimeSmem / Spec.SmemKernelEfficiency *
                    (1.0 + SyncOverheadPerTier * Config.BT);

  // The tuner evaluates this for every candidate configuration, so the
  // division predicate comes from the program's compiled plan instead of
  // re-walking the expression tree per call.
  double TimeCompute = Out.Model.TimeCompute / AchievableComputeFraction;
  if (Program.elemType() == ScalarType::Double &&
      Program.plan().hasConstantDivision())
    TimeCompute *= DoubleDivisionPenalty;

  double Slowest =
      std::max({TimeCompute, Out.Model.TimeGmem, TimeSmem});
  double Time = Slowest / Out.Model.EffSm /
                occupancyEfficiency(Out.Model.ConcurrentBlocksPerSm) *
                registerPressurePenalty(Program, Config);

  double UsefulFlops = static_cast<double>(Problem.cellCount()) *
                       static_cast<double>(Problem.TimeSteps) *
                       static_cast<double>(Program.flopsPerCell().total());
  Out.MeasuredTimeSeconds = Time;
  Out.MeasuredGflops = UsefulFlops / Time / 1e9;
  Out.Feasible = true;
  return Out;
}

} // namespace an5d
