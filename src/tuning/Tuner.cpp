//===- Tuner.cpp - Model-guided parameter tuning (Section 6.3) --------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuning/Tuner.h"

#include "analysis/passes/AnalysisPass.h"
#include "analysis/passes/ResourceEstimator.h"
#include "model/RegisterModel.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "tuning/ParallelSweep.h"

#include <algorithm>
#include <cmath>

namespace an5d {

std::vector<BlockConfig>
Tuner::enumerateConfigs(const StencilProgram &Program) const {
  std::vector<BlockConfig> Configs;
  if (Program.numDims() == 2) {
    for (int BT = 1; BT <= 16; ++BT)
      for (int BS : {64, 128, 256, 512})
        for (int HS : {256, 512, 1024}) {
          BlockConfig C;
          C.BT = BT;
          C.BS = {BS};
          C.HS = HS;
          Configs.push_back(std::move(C));
        }
    return Configs;
  }
  if (Program.numDims() == 3) {
    static const int Shapes[][2] = {{16, 16}, {32, 16}, {32, 32}, {64, 16}};
    for (int BT = 1; BT <= 8; ++BT)
      for (const auto &Shape : Shapes)
        for (int HS : {128, 256}) {
          BlockConfig C;
          C.BT = BT;
          C.BS = {Shape[0], Shape[1]};
          C.HS = HS;
          Configs.push_back(std::move(C));
        }
    return Configs;
  }
  // 1D stencils stream their single dimension (no blocked dimensions, one
  // lane per block): all thread-block parallelism comes from the hSN
  // division of Section 4.2.3, so the grid crosses bT with the chunk
  // length, streaming off (hS=0, a single chunk) included for reference —
  // the model ranks it last because one block idles every other SM.
  for (int BT = 1; BT <= 16; ++BT)
    for (int HS : {0, 128, 256, 512, 1024}) {
      BlockConfig C;
      C.BT = BT;
      C.BS.clear();
      C.HS = HS;
      Configs.push_back(std::move(C));
    }
  return Configs;
}

double quantizedModelScore(double Gflops) {
  // Float's 2^-24 relative quantum is ~10 orders of magnitude above the
  // double-rounding noise the model can accumulate, so scores that differ
  // only in compiler/FP-flag-dependent low bits collapse to the same key
  // and fall through to the field tie-break. Comparing quantized keys
  // exactly keeps the sort comparator a strict weak ordering (an
  // epsilon-relative "tied" predicate would not be transitive).
  return static_cast<double>(static_cast<float>(Gflops));
}

bool Tuner::passesStaticPruning(const StencilProgram &Program,
                                const BlockConfig &Config) const {
  return Config.isFeasible(Program.radius(), Spec.MaxThreadsPerBlock) &&
         !exceedsRegisterLimits(Program, Config, Spec);
}

std::vector<RankedConfig> Tuner::rankByModel(const StencilProgram &Program,
                                             const ProblemSize &Problem,
                                             std::size_t TopK) const {
  std::vector<RankedConfig> Ranked;
  for (const BlockConfig &Config : enumerateConfigs(Program)) {
    if (!passesStaticPruning(Program, Config))
      continue;
    ModelBreakdown Model = evaluateModel(Program, Spec, Config, Problem);
    if (!Model.Feasible)
      continue;
    Ranked.push_back({Config, std::move(Model)});
  }
  std::sort(Ranked.begin(), Ranked.end(),
            [](const RankedConfig &A, const RankedConfig &B) {
              double QA = quantizedModelScore(A.Model.Gflops);
              double QB = quantizedModelScore(B.Model.Gflops);
              if (QA != QB)
                return QA > QB;
              // Deterministic tie-break: smaller bT, then smaller block,
              // then the remaining fields — a total order over distinct
              // configurations, so equal scores cannot reorder between
              // compilers or std::sort implementations.
              if (A.Config.BT != B.Config.BT)
                return A.Config.BT < B.Config.BT;
              if (A.Config.numThreads() != B.Config.numThreads())
                return A.Config.numThreads() < B.Config.numThreads();
              if (A.Config.BS != B.Config.BS)
                return A.Config.BS < B.Config.BS;
              return A.Config.HS < B.Config.HS;
            });
  if (Ranked.size() > TopK)
    Ranked.resize(TopK);
  return Ranked;
}

std::vector<SweepCandidate> Tuner::enumerateSweepCandidates(
    const StencilProgram &Program, std::size_t NumProblems,
    const std::vector<int> &RegisterCaps) const {
  // Enumeration and static pruning are problem-independent: walk the grid
  // once, then cross the survivors with the problem indices and caps.
  std::vector<BlockConfig> Pruned;
  for (const BlockConfig &Config : enumerateConfigs(Program))
    if (passesStaticPruning(Program, Config))
      Pruned.push_back(Config);

  std::vector<SweepCandidate> Candidates;
  Candidates.reserve(NumProblems * Pruned.size() * RegisterCaps.size());
  for (std::size_t P = 0; P < NumProblems; ++P)
    for (const BlockConfig &Config : Pruned)
      for (int Cap : RegisterCaps) {
        SweepCandidate Item;
        Item.Config = Config;
        Item.Config.RegisterCap = Cap;
        Item.ProblemIndex = P;
        Candidates.push_back(std::move(Item));
      }
  return Candidates;
}

TuneOutcome Tuner::tune(const StencilProgram &Program,
                        const ProblemSize &Problem,
                        const TuneOptions &Options) const {
  return tuneAcrossProblems(Program, {Problem}, Options).front();
}

std::vector<TuneOutcome>
Tuner::tuneAcrossProblems(const StencilProgram &Program,
                          const std::vector<ProblemSize> &Problems,
                          const TuneOptions &Options) const {
  std::vector<TuneOutcome> Outcomes(Problems.size());

  obs::TraceSpan TuneSpan("tune");
  if (TuneSpan.active()) {
    TuneSpan.attr("stencil", Program.name());
    TuneSpan.attr("problems", std::to_string(Problems.size()));
  }
  obs::count("tuner.tunes");

  // The native backend times real CPU kernels (all dimensionalities —
  // 1D streams through the chunk-parallel kernel): register caps are a
  // CUDA knob the kernel source does not encode, so cap variants would
  // rebuild and re-time identical kernels.
  bool UseNative = Options.Backend == MeasurementBackend::Native;
  static const std::vector<int> NativeCaps = {0};
  const std::vector<int> &Caps =
      UseNative ? NativeCaps : Options.RegisterCaps;

  // Stage 1 (enumerate/prune): per-problem model ranking, then the full
  // candidate list — top-K x register caps, cross-product with the
  // problem sizes — for one shared sweep.
  std::vector<SweepCandidate> Candidates;
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  for (std::size_t P = 0; P < Problems.size(); ++P) {
    {
      AN5D_TRACE_SPAN("tune.rank");
      Outcomes[P].TopByModel =
          rankByModel(Program, Problems[P], Options.TopK);
    }
    obs::count("tuner.candidates_ranked",
               static_cast<long long>(Outcomes[P].TopByModel.size()));
    for (const RankedConfig &Candidate : Outcomes[P].TopByModel) {
      obs::TraceSpan CandidateSpan("tune.candidate");
      if (CandidateSpan.active())
        CandidateSpan.attr("config", Candidate.Config.toString());
      // Lower once; the analysis pipeline checks this IR and the sweep
      // candidates carry it down to the native backend, so nothing
      // re-derives the schedule from the raw configuration.
      ScheduleIR Lowered = [&] {
        AN5D_TRACE_SPAN("tune.lower");
        return lowerSchedule(Program, Candidate.Config);
      }();
      // The analysis pipeline gates the sweep: tape discipline, schedule
      // legality (the access-bounds prover), and the resource features
      // the sweep candidates carry. A candidate with an Error finding
      // never reaches the compiler. rankByModel only emits
      // feasibility-pruned configs, so a rejection here means the model
      // and the prover disagree — worth surfacing loudly rather than
      // timing a kernel with a latent race.
      AnalysisInput PassInput;
      PassInput.Program = &Program;
      PassInput.Schedule = &Lowered;
      AnalysisReport Analysis = [&] {
        AN5D_TRACE_SPAN("tune.analyze");
        return Passes.run(PassInput);
      }();
      if (!Analysis.proven()) {
        ++Outcomes[P].AnalysisRejections;
        obs::count("tuner.analysis_rejections");
        if (Outcomes[P].FirstAnalysisRejection.empty()) {
          for (const AnalysisFinding &F : Analysis.Findings) {
            if (F.Severity != FindingSeverity::Error)
              continue;
            Outcomes[P].FirstAnalysisRejection =
                Candidate.Config.toString() + ": " + F.toString();
            break;
          }
        }
        continue;
      }
      ResourceEstimate Resources = estimateResources(Program, Lowered);
      for (int Cap : Caps) {
        SweepCandidate Item;
        Item.Config = Candidate.Config;
        Item.Config.RegisterCap = Cap;
        Item.Schedule = Lowered;
        Item.Schedule.Config.RegisterCap = Cap;
        Item.ProblemIndex = P;
        Item.Resources = Resources;
        Candidates.push_back(std::move(Item));
      }
    }
  }

  // Stage 2 (measured sweep): parallel across the pool; the reduction
  // below walks the deterministic result array serially in candidate
  // order, so the outcome is bit-identical for every thread count. The
  // native backend parallelizes compilation over the same pool and then
  // times the compiled kernels serially.
  NativeMeasureOptions NativeOptions = Options.Native;
  if (NativeOptions.CompileThreads == 0)
    NativeOptions.CompileThreads = Options.Threads;
  std::vector<MeasuredResult> Results = [&] {
    obs::TraceSpan SweepSpan("tune.sweep");
    if (SweepSpan.active()) {
      SweepSpan.attr("backend", UseNative ? "native" : "simulated");
      SweepSpan.attr("candidates", std::to_string(Candidates.size()));
    }
    return UseNative ? nativeMeasuredSweep(Program, Candidates, Problems,
                                           NativeOptions)
                     : parallelMeasuredSweep(Program, Spec, Candidates,
                                             Problems, Options.Threads);
  }();
  for (std::size_t I = 0; I < Candidates.size(); ++I) {
    const MeasuredResult &Measured = Results[I];
    TuneOutcome &Outcome = Outcomes[Candidates[I].ProblemIndex];
    if (!Measured.Feasible) {
      // Candidates the backend could not run at all (compile/load
      // failure, rejected run) are counted separately from genuinely
      // infeasible ones so the caller can warn about a broken toolchain.
      if (!Measured.FailureReason.empty()) {
        ++Outcome.MeasurementFailures;
        if (Outcome.FirstFailureReason.empty()) {
          Outcome.FirstFailureReason = Measured.FailureReason;
          Outcome.FirstFailureKind = Measured.FailureKind;
        }
      }
      continue;
    }
    if (!Outcome.Feasible ||
        Measured.MeasuredGflops > Outcome.BestMeasured.MeasuredGflops) {
      Outcome.Feasible = true;
      Outcome.Best = Candidates[I].Config;
      Outcome.BestMeasured = Measured;
    }
  }
  return Outcomes;
}

BlockConfig Tuner::sconf(const StencilProgram &Program) {
  BlockConfig Config;
  Config.BT = 4;
  if (Program.numDims() == 1) {
    // No STENCILGEN 1D baseline exists in the paper; the pure-streaming
    // analogue keeps bT=4 and the 2D chunk length.
    Config.BS.clear();
    Config.HS = 128;
  } else if (Program.numDims() == 2) {
    Config.BS = {32};
    Config.HS = 128;
  } else {
    // The paper abbreviates STENCILGEN's 3D block shape; 32x32 is the
    // shape its released 3D kernels use and keeps bT=4 halos feasible for
    // second-order stencils (interpretation documented in EXPERIMENTS.md).
    Config.BS = {32, 32};
    Config.HS = 0; // streaming division disabled for 3D (Section 6.3)
  }
  return Config;
}

} // namespace an5d
