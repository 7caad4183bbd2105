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
#include "sim/TimeBlockScheduler.h"
#include "tuning/ParallelSweep.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <thread>

namespace an5d {

namespace {

/// Every (bT, bS, hS) of bT in [1, MaxBT] x \p Shapes x \p Chunks, bT
/// outermost and hS innermost.
std::vector<BlockConfig>
crossProduct(int MaxBT, const std::vector<std::vector<int>> &Shapes,
             const std::vector<int> &Chunks) {
  std::vector<BlockConfig> Configs;
  for (int BT = 1; BT <= MaxBT; ++BT)
    for (const std::vector<int> &Shape : Shapes)
      for (int HS : Chunks) {
        BlockConfig C;
        C.BT = BT;
        C.BS = Shape;
        C.HS = HS;
        Configs.push_back(std::move(C));
      }
  return Configs;
}

/// The 1D grid both rankings share. 1D stencils stream their single
/// dimension (no blocked dimensions, one lane per block): all parallelism
/// comes from the hSN division of Section 4.2.3, so the grid crosses bT
/// with the chunk length, streaming off (hS=0, a single chunk) included
/// for reference.
std::vector<BlockConfig> streamingGrid() {
  return crossProduct(16, {{}}, {0, 128, 256, 512, 1024});
}

/// The native menu: blocks sized for a CPU core rather than a thread
/// block. The contiguous axis (the last bS) stays long so the `omp simd`
/// rows run whole vectors, and no thread cap applies. bT and hS keep the
/// Section 6.3 ranges.
std::vector<BlockConfig> hostMenu(int NumDims) {
  if (NumDims == 2)
    return crossProduct(16, {{256}, {512}, {1024}, {2048}},
                        {256, 512, 1024});
  if (NumDims == 3) {
    std::vector<std::vector<int>> Shapes;
    for (int Rows : {8, 16, 32, 64})
      for (int Contiguous : {64, 128, 256})
        Shapes.push_back({Rows, Contiguous});
    return crossProduct(8, Shapes, {128, 256});
  }
  return streamingGrid();
}

/// Most ring bytes per kernel thread a native candidate may allocate:
/// bT * (2*radius + 1) * prod(bS) * element bytes. It keeps every thread's
/// rings within its share of L2 and bounds the tune's memory.
constexpr long long HostRingBudgetBytes = 256 * 1024;

/// Sum of Weight(span) over the tiles [o, o + Width) that cover
/// [0, Extent), where span is the length of [o - Reach, o + Width + Reach)
/// clipped to [Lo, Hi).
template <typename WeightFn>
long long sumOverTiles(long long Extent, long long Width, long long Reach,
                       long long Lo, long long Hi, WeightFn Weight) {
  long long Sum = 0;
  for (long long O = 0; O < Extent; O += Width)
    Sum += Weight(std::max(
        std::min(O + Width + Reach, Hi) - std::max(O - Reach, Lo), 0LL));
  return Sum;
}

/// The host cost of running \p Config on \p Problem with \p Threads
/// kernel threads, per cell update, over the invocations the host
/// schedule issues for the problem's step count. Per invocation of
/// degree d:
///
///  - compute: tier t covers its compute range widened by its reach
///    (d - t)*radius, interior cells only. A row of L contiguous lanes
///    costs floor(L/V) vector iterations, L mod V scalar remainder lanes
///    and 2 of loop overhead, V = 32 bytes / element; that summed over
///    rows, tiers, blocks and chunks is divided by the thread balance
///    of the (chunk, block) work items;
///  - memory: 0.02 per byte moved, at 2 * element bytes per loaded cell.
///    The load stage fills every lane of a block's span, in the grid or
///    not, on each plane of its chunk widened by d*radius (clipped to the
///    grid and its halo), so the load redundancy of the overlapped tiling,
///    oversized blocks and the 1/d amortization all show.
///
/// Runs the step count makes identical (bT past the steps, hS past the
/// streamed extent) cost exactly the same.
double hostCost(const StencilProgram &Program, const BlockConfig &Config,
                const ProblemSize &Problem, int Threads) {
  const long long Radius = Program.radius();
  const long long Elem = Program.wordSize();
  const long long VectorLanes = 32 / Elem;
  auto RowCost = [VectorLanes](long long L) {
    return L / VectorLanes + L % VectorLanes + 2;
  };
  auto Cells = [](long long L) { return L; };
  const std::vector<long long> &N = Problem.Extents;
  const long long Chunk = Config.HS > 0 && Config.HS < N[0] ? Config.HS : N[0];
  const std::size_t Blocked = Config.BS.size();
  const long long Steps = std::max(Problem.TimeSteps, 1LL);

  std::map<int, long long> Calls;
  for (int Degree : scheduleTimeBlocks(Steps, Config.BT))
    ++Calls[Degree];
  double Total = 0;
  for (const auto &[Degree, Count] : Calls) {
    const long long D = Degree;
    long long Items = (N[0] + Chunk - 1) / Chunk;
    long long Loaded =
        sumOverTiles(N[0], Chunk, D * Radius, -Radius, N[0] + Radius, Cells);
    std::vector<long long> Width(Blocked);
    for (std::size_t A = 0; A < Blocked; ++A) {
      Width[A] = Config.BS[A] - 2 * D * Radius;
      const long long Blocks = (N[A + 1] + Width[A] - 1) / Width[A];
      Items *= Blocks;
      Loaded *= Blocks * Config.BS[A];
    }
    long long Work = 0;
    for (long long Tier = 1; Tier <= D; ++Tier) {
      const long long Reach = (D - Tier) * Radius;
      long long Rows = 1, RowWork = RowCost(1);
      if (Blocked > 0)
        RowWork = sumOverTiles(N[Blocked], Width[Blocked - 1], Reach, 0,
                               N[Blocked], RowCost);
      if (Blocked > 1)
        Rows = sumOverTiles(N[1], Width[0], Reach, 0, N[1], Cells);
      Work += sumOverTiles(N[0], Chunk, Reach, 0, N[0], Cells) * Rows *
              RowWork;
    }
    const long long Slots = Threads * ((Items + Threads - 1) / Threads);
    Total += static_cast<double>(Count) *
             (static_cast<double>(Work) * static_cast<double>(Slots) /
                  static_cast<double>(Items) +
              0.02 * 2.0 * static_cast<double>(Elem * Loaded));
  }
  return Total / (static_cast<double>(Steps) *
                  static_cast<double>(Problem.cellCount()));
}

} // namespace

std::vector<BlockConfig>
Tuner::enumerateConfigs(const StencilProgram &Program) const {
  if (Program.numDims() == 2)
    return crossProduct(16, {{64}, {128}, {256}, {512}}, {256, 512, 1024});
  if (Program.numDims() == 3)
    return crossProduct(8, {{16, 16}, {32, 16}, {32, 32}, {64, 16}},
                        {128, 256});
  // The model ranks hS=off last: one thread block idles every other SM.
  return streamingGrid();
}

double quantizedModelScore(double Score) {
  // Float's 2^-24 relative quantum is ~10 orders of magnitude above the
  // double-rounding noise the model can accumulate, so scores that differ
  // only in compiler/FP-flag-dependent low bits collapse to the same key
  // and fall through to the field tie-break. Comparing quantized keys
  // exactly keeps the sort comparator a strict weak ordering (an
  // epsilon-relative "tied" predicate would not be transitive).
  return static_cast<double>(static_cast<float>(Score));
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

std::vector<RankedConfig> Tuner::rankByHostCost(const StencilProgram &Program,
                                               const ProblemSize &Problem,
                                               std::size_t TopK,
                                               int Threads) {
  // The cost walks the problem's axes, so a problem of the wrong arity or
  // with an empty axis ranks nothing.
  if (static_cast<int>(Problem.Extents.size()) != Program.numDims() ||
      std::any_of(Problem.Extents.begin(), Problem.Extents.end(),
                  [](long long E) { return E < 1; }))
    return {};
  const long long RingDepth = 2LL * Program.radius() + 1;
  const long long StreamExtent = Problem.Extents.front();
  std::set<std::pair<int, std::vector<int>>> OneChunk;
  std::vector<RankedConfig> Ranked;
  for (const BlockConfig &Config : hostMenu(Program.numDims())) {
    if (!Config.isFeasible(Program.radius()) ||
        Config.BT * RingDepth * Config.numThreads() * Program.wordSize() >
            HostRingBudgetBytes)
      continue;
    // Every hS at or above the streamed extent runs the same single
    // chunk: time it once.
    if ((Config.HS == 0 || Config.HS >= StreamExtent) &&
        !OneChunk.insert({Config.BT, Config.BS}).second)
      continue;
    RankedConfig Entry;
    Entry.Config = Config;
    Entry.HostCost = hostCost(Program, Config, Problem, std::max(Threads, 1));
    Ranked.push_back(std::move(Entry));
  }
  std::sort(Ranked.begin(), Ranked.end(),
            [](const RankedConfig &A, const RankedConfig &B) {
              double QA = quantizedModelScore(A.HostCost);
              double QB = quantizedModelScore(B.HostCost);
              if (QA != QB)
                return QA < QB;
              // Ties (blocks that all cover the tune problem, bT past its
              // step count) break on bS first, so the top-K spans as few
              // kernels as it can — each distinct bS is one compile —
              // then bT, then hS.
              if (A.Config.numThreads() != B.Config.numThreads())
                return A.Config.numThreads() < B.Config.numThreads();
              if (A.Config.BS != B.Config.BS)
                return A.Config.BS < B.Config.BS;
              if (A.Config.BT != B.Config.BT)
                return A.Config.BT < B.Config.BT;
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

  // Stage 1 (enumerate/prune): per-problem ranking — the host cost over
  // the host menu for native kernels, the Section 5 model otherwise —
  // then the full candidate list — top-K x register caps, cross-product
  // with the problem sizes — for one shared sweep.
  const int KernelThreads =
      Options.Native.Runtime.Threads > 0
          ? Options.Native.Runtime.Threads
          : static_cast<int>(std::thread::hardware_concurrency());
  std::vector<SweepCandidate> Candidates;
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  for (std::size_t P = 0; P < Problems.size(); ++P) {
    {
      AN5D_TRACE_SPAN("tune.rank");
      Outcomes[P].TopByModel =
          UseNative ? rankByHostCost(Program, Problems[P], Options.TopK,
                                     KernelThreads)
                    : rankByModel(Program, Problems[P], Options.TopK);
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
      // never reaches the compiler. Both rankings emit only feasible
      // configs, so a rejection here means feasibility and the prover
      // disagree — worth surfacing loudly rather than timing a kernel
      // with a latent race.
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
