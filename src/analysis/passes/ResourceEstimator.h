//===- ResourceEstimator.h - Static per-candidate resource facts *- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static resource estimation per (stencil, configuration) candidate: the
/// register-ring bytes of the N.5D pipeline, per-tier and per-block
/// working-set bytes, FLOP/byte counts straight off the ExprPlan tape,
/// load redundancy of the overlapped tiling, and the resulting arithmetic
/// intensity. These are the paper's statically knowable facts — the
/// degree-vs-register-pressure tradeoff made explicit — surfaced three
/// ways: as SweepCandidate features the tuner records, as PerformanceModel
/// inputs (registers/thread and smem/block feed the occupancy term), and
/// as the `resources` object of the `an5dc --analyze` JSON report.
///
/// Estimation never rejects; the companion pass grades the estimate:
///
///   AN5D-A301  register demand exceeds the 255-per-thread ISA bound (Warn)
///   AN5D-A302  arithmetic intensity below 1 FLOP/byte (Info)
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_ANALYSIS_PASSES_RESOURCEESTIMATOR_H
#define AN5D_ANALYSIS_PASSES_RESOURCEESTIMATOR_H

#include "analysis/passes/AnalysisPass.h"

namespace an5d {

class StencilProgram;
struct BlockConfig;
struct ScheduleIR;

/// Static resource facts of one candidate. All byte figures assume the
/// double-precision grids the pipeline executes (8-byte words).
struct ResourceEstimate {
  bool Valid = false;

  // Occupancy inputs (the exact figures PerformanceModel consumes).
  int RegistersPerThread = 0;      ///< an5dRegistersPerThread(program, bT).
  long long SmemBytesPerBlock = 0; ///< an5dSmemBytesPerBlock(program, thr).

  // Register-ring footprint of the tier pipeline.
  long long RingBytesPerThread = 0; ///< bT tiers x RingDepth words.
  long long RingBytesPerBlock = 0;  ///< RingBytesPerThread x threads.

  // Working sets (block-local; lanes x ring planes x word).
  long long TierWorkingSetBytes = 0;  ///< One tier's live ring rows.
  long long BlockWorkingSetBytes = 0; ///< All bT tiers plus the load stage.
  long long ChunkWorkingSetBytes = 0; ///< Streamed chunk incl. load reach.

  // Tape operation census (one cell, one tier application).
  long long TapeAdds = 0;
  long long TapeMuls = 0;
  long long TapeDivs = 0;
  long long TapeMathCalls = 0;
  long long TapeFlops = 0; ///< Total counted ops (math calls weigh 1).

  /// FLOPs per stored cell per time-step sweep: bT tier applications
  /// amortized over the bT steps one temporal block advances.
  double FlopsPerCell = 0;

  /// Global-memory bytes per stored cell per time-step: one load + one
  /// store per temporal block, scaled by the overlapped-tiling load
  /// redundancy and amortized over bT.
  double GmemBytesPerCell = 0;

  /// Loaded cells over stored cells of one block (block-span overlap
  /// times the streaming-chunk overlap); 1.0 means no redundancy.
  double LoadRedundancy = 1;

  /// FlopsPerCell / GmemBytesPerCell.
  double ArithmeticIntensity = 0;
};

/// Estimates off an already-lowered \p IR (the tuner path: the IR exists
/// for the analysis gate anyway, so nothing is re-lowered).
ResourceEstimate estimateResources(const StencilProgram &Program,
                                   const ScheduleIR &IR);

/// The occupancy-relevant slice only — registers/thread, smem/block and
/// the register-ring bytes — computed without lowering a schedule, so the
/// performance model can consume estimator features inside its
/// per-configuration hot loop. Fields outside that slice stay zero.
ResourceEstimate estimateOccupancy(const StencilProgram &Program,
                                   const BlockConfig &Config);

/// Appends \p Estimate as one JSON object to \p Out (the `resources`
/// member of the --analyze report).
void appendResourceJson(std::string &Out, const ResourceEstimate &Estimate);

/// The pass adapter: estimates Input.Schedule's candidate and grades it
/// (A301/A302). Silent when the input carries no schedule.
class ResourceEstimatorPass : public AnalysisPass {
public:
  const char *name() const override { return "resource-estimator"; }
  void run(const AnalysisInput &Input, AnalysisReport &Report) const override;
};

} // namespace an5d

#endif // AN5D_ANALYSIS_PASSES_RESOURCEESTIMATOR_H
