//===- Tuner.h - Model-guided parameter tuning (Section 6.3) ----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model-guided tuning flow of Section 6.3 in two stages:
///
///  1. Enumerate/prune/rank. The simulated backend (and CUDA) walks the
///     paper's grid for the stencil's dimensionality (bT in [1,16] for
///     1D/2D, [1,8] for 3D; bS in {64,128,256,512} for 2D, {16x16,
///     32x16, 32x32, 64x16} for 3D, none for 1D pure streaming; hSN in
///     {off,128,256,512,1024} for 1D, {256,512,1024} for 2D, {128,256}
///     for 3D), drops register-infeasible points and blocks past the
///     device's thread cap, and ranks the rest with the Section 5
///     performance model of the target GPU (rankByModel). Native tunes
///     rank a host menu instead (rankByHostCost): 2D bS in
///     {256,...,2048}, 3D bS1 in {8,16,32,64} by a contiguous bS2 in
///     {64,128,256}, no thread cap, at most 256 KiB of rings per
///     thread, one candidate per run that is a single chunk on the
///     tune problem, scored by a CPU cost of SIMD rows, thread balance
///     and memory traffic. Each ranked candidate is lowered to its
///     ScheduleIR once, and the standard analysis pipeline
///     (analysis/passes/AnalysisPass.h) is the one static gate: a
///     candidate with an Error finding never reaches stage 2.
///
///  2. Measured sweep: "run" the top-K candidates through the
///     measured-performance simulator with each register cap
///     ({none, 32, 64, 96}), dispatched across a small thread pool
///     (tuning/ParallelSweep.h), and keep the fastest. The native
///     backend compiles and times real kernels instead (one register
///     cap). The sweep is bit-identical for every thread count.
///
/// TuneOptions carries the knobs (top-K, register-cap menu, worker
/// threads) and is threaded through an5dc --tune and
/// examples/tuning_explorer.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_TUNING_TUNER_H
#define AN5D_TUNING_TUNER_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "model/GpuSpec.h"
#include "model/PerformanceModel.h"
#include "runtime/NativeMeasurement.h"
#include "sim/MeasuredSimulator.h"
#include "tuning/ParallelSweep.h"

#include <cstddef>
#include <vector>

namespace an5d {

/// The ranking key derived from a score (the model's GFLOP/s or the host
/// cost): the value rounded to float precision (~7 significant digits),
/// so scores that differ only by FP noise compare equal — exactly — and
/// fall through to the field tie-break. Exposed so tests can assert the
/// tie-break with the same predicate the sort uses.
double quantizedModelScore(double Score);

/// One ranked candidate.
struct RankedConfig {
  BlockConfig Config;
  /// The Section 5 breakdown (rankByModel only).
  ModelBreakdown Model;
  /// Host cost per cell update on the tune problem, lower is better
  /// (rankByHostCost only).
  double HostCost = 0;
};

/// The tuner's final verdict for one stencil on one device.
struct TuneOutcome {
  bool Feasible = false;
  BlockConfig Best;            ///< Includes the chosen register cap.
  MeasuredResult BestMeasured; ///< Simulated "Tuned" performance.
  /// The ranked candidates the sweep measured: by the model for the
  /// simulated backend, by the host cost for the native one.
  std::vector<RankedConfig> TopByModel;

  /// Sweep candidates whose measurement failed outright (native backend:
  /// kernel did not compile/load or rejected the run) — distinct from
  /// model-infeasible candidates, which are silently pruned. A non-zero
  /// count with Feasible == false usually means a broken host toolchain,
  /// not an untunable stencil; an5dc surfaces it on stderr.
  std::size_t MeasurementFailures = 0;
  std::string FirstFailureReason; ///< Representative failure (e.g. the
                                  ///< compiler log of the first one).
  /// Normalized classification of FirstFailureReason (None when no
  /// measurement failed); an5dc renders the warning label from this
  /// instead of re-parsing the free-form string.
  MeasureFailureKind FirstFailureKind = MeasureFailureKind::None;

  /// Ranked candidates the static analysis pipeline (analysis/passes/)
  /// rejected with an Error-severity finding before any kernel was
  /// compiled — tape breakage or an illegal schedule — distinct from
  /// infeasible candidates (silently pruned in stage 1) and
  /// from MeasurementFailures (the backend tried and failed). Non-zero
  /// means the feasibility model and the passes disagree; the property
  /// suite keeps this at zero for every enumerated configuration.
  std::size_t AnalysisRejections = 0;
  std::string FirstAnalysisRejection; ///< Representative finding.
};

/// Knobs of the Section 6.3 search.
struct TuneOptions {
  /// Ranked candidates that advance to the measured sweep. The paper
  /// measures the top five serially; with the parallel sweep the default
  /// widens to 16 so several block-shape families reach the measured
  /// stage even when near-tied model scores make the head of the ranking
  /// homogeneous (the model slightly favors wide blocks whose measured
  /// occupancy disappoints). Native tunes take the top K of the host
  /// ranking instead; an5dc narrows their default to 8, since every
  /// distinct bS among them costs a compile on a cold cache.
  std::size_t TopK = 16;

  /// Register caps tried per candidate (0 = uncapped), Section 6.3.
  std::vector<int> RegisterCaps = {0, 32, 64, 96};

  /// Worker threads for the measured sweep; 0 picks one per hardware
  /// thread (capped at 8). Any value yields bit-identical results (the
  /// native backend parallelizes only compilation, never timing).
  int Threads = 0;

  /// Measurement source of stage 2. With Native, stage 1 ranks by the
  /// host cost and register caps collapse to {0} — -maxrregcount is a
  /// CUDA knob with no CPU analogue, so cap variants would compile and
  /// time the same kernel repeatedly. All dimensionalities run real
  /// kernels (1D streams through the chunk-parallel kernel).
  MeasurementBackend Backend = MeasurementBackend::Simulated;

  /// Compile/cache/timing knobs of the Native backend.
  NativeMeasureOptions Native;
};

/// Model-guided configuration search for one device.
class Tuner {
public:
  explicit Tuner(GpuSpec Spec) : Spec(std::move(Spec)) {}

  const GpuSpec &spec() const { return Spec; }

  /// The raw parameter grid for \p Program's dimensionality (no pruning,
  /// RegisterCap unset).
  std::vector<BlockConfig> enumerateConfigs(const StencilProgram &Program)
      const;

  /// Stage 1: evaluates the model over the pruned grid and returns the
  /// best \p TopK candidates in descending model performance. Scores
  /// compare through quantizedModelScore with a total order over the
  /// configuration fields as tie-break, so the ranking is deterministic
  /// across compilers and FP flags.
  std::vector<RankedConfig> rankByModel(const StencilProgram &Program,
                                        const ProblemSize &Problem,
                                        std::size_t TopK) const;

  /// Native stage 1: ranks the host menu for \p Program's dimensionality
  /// (see the file comment) by the host cost on \p Problem with
  /// \p Threads kernel threads and returns the best \p TopK in
  /// ascending cost. Costs compare through quantizedModelScore; ties
  /// break on bS first (so a tie keeps the top-K on fewer compiles),
  /// then bT, then hS. Independent of the GPU spec.
  static std::vector<RankedConfig> rankByHostCost(
      const StencilProgram &Program, const ProblemSize &Problem,
      std::size_t TopK, int Threads);

  /// The full measured workload over the raw grid (no model ranking):
  /// every feasible, register-legal configuration x \p RegisterCaps,
  /// replicated for problem indices [0, NumProblems). The throughput
  /// bench and the sweep tests dispatch this to exercise the pool beyond
  /// the tuner's own top-K stage.
  std::vector<SweepCandidate> enumerateSweepCandidates(
      const StencilProgram &Program, std::size_t NumProblems,
      const std::vector<int> &RegisterCaps = {0, 32, 64, 96}) const;

  /// Full tuning flow: rank (rankByModel, or rankByHostCost with the
  /// native backend's kernel threads — Options.Native.Runtime.Threads,
  /// else the hardware concurrency), sweep the top-K with each register
  /// cap across Options.Threads workers, return the fastest measured
  /// configuration. Bit-identical for every thread count.
  TuneOutcome tune(const StencilProgram &Program, const ProblemSize &Problem,
                   const TuneOptions &Options = TuneOptions()) const;

  /// Tunes one stencil for several problem sizes at once: the per-problem
  /// candidates (top-K x register caps, cross-product with the problem
  /// list) form a single measured sweep over the shared thread pool, then
  /// each problem reduces serially to its own outcome.
  std::vector<TuneOutcome>
  tuneAcrossProblems(const StencilProgram &Program,
                     const std::vector<ProblemSize> &Problems,
                     const TuneOptions &Options = TuneOptions()) const;

  /// The Sconf configuration of Section 6.3 (STENCILGEN's kernel
  /// parameters): bT=4, hSN=128, bS=32 for 2D / 32x32 for 3D, with the
  /// streaming division disabled for 3D stencils. For 1D (which the paper
  /// does not evaluate) this is the pure-streaming analogue bT=4, hSN=128.
  static BlockConfig sconf(const StencilProgram &Program);

private:
  /// The dimensionality-independent pruning both stages share: block
  /// feasibility plus the register-limit estimate.
  bool passesStaticPruning(const StencilProgram &Program,
                           const BlockConfig &Config) const;

  GpuSpec Spec;
};

} // namespace an5d

#endif // AN5D_TUNING_TUNER_H
