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
#include <tuple>

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
/// rows run whole vectors, and no thread cap applies. In 3D it is 512
/// lanes, so one block spans every row of up to 512 - 2*bT*radius cells:
/// such a row has no overhanging block, recomputes no halo lanes along
/// the unit-stride axis and ends in one remainder. bT and hS keep the
/// Section 6.3 ranges.
std::vector<BlockConfig> hostMenu(int NumDims) {
  if (NumDims == 2)
    return crossProduct(16, {{256}, {512}, {1024}, {2048}},
                        {256, 512, 1024});
  if (NumDims == 3)
    return crossProduct(8, {{8, 512}, {16, 512}, {32, 512}, {64, 512}},
                        {128, 256});
  return streamingGrid();
}

/// Most ring bytes per kernel thread a native candidate may allocate on
/// the ranked problem: bT * (2*radius + 1) * prod(bS) * element bytes,
/// with the contiguous 3D axis clipped as the kernel sizes its ring rows,
/// to min(bS2, N2 + 2*bT*radius). The 2D budget counts unclipped bS-lane
/// rows. The kernel clips 2D ring rows the same way, so a block wider
/// than the tune problem's rows allocates less there, but the count is
/// exact on the grids the picks run on, whose rows are wider than every
/// 2D bS. It keeps every thread's rings within its share of L2 and bounds
/// the tune's memory. Ranked on 64-cell rows (nativeMeasurementProblem),
/// a 3D ring grows at most 512/64 = 8 times on longer rows, to 2 MiB.
constexpr long long HostRingBudgetBytes = 256 * 1024;

/// The ring bytes per kernel thread that HostRingBudgetBytes charges
/// \p Config on \p Problem.
long long hostRingBytes(const StencilProgram &Program,
                        const BlockConfig &Config,
                        const ProblemSize &Problem) {
  long long Lanes = Config.numThreads();
  if (Config.BS.size() == 2)
    Lanes = Config.BS[0] *
            std::min<long long>(Config.BS[1],
                                Problem.Extents[2] +
                                    2LL * Config.BT * Program.radius());
  return Config.BT * (2LL * Program.radius() + 1) * Lanes *
         Program.wordSize();
}

/// The tiles [begin(C), begin(C + 1)), C < Count, that cover an axis of
/// Extent cells: Width-cell tiles with the last one clipped to the axis,
/// or, with Width = 0, Count tiles whose lengths differ by at most one.
struct AxisTiles {
  long long Extent = 0;
  long long Count = 0;
  long long Width = 0;
  long long begin(long long C) const {
    return Width > 0 ? std::min(C * Width, Extent) : C * Extent / Count;
  }
};

/// The blocks of compute width \p Width over a blocked axis.
AxisTiles blockTiles(long long Extent, long long Width) {
  return {Extent, (Extent + Width - 1) / Width, Width};
}

/// The stream chunks a native kernel runs \p Config's calls in on a
/// streamed axis of \p Extent planes with \p Threads kernel threads. The
/// 1D kernel cuts hS-plane chunks (hS = 0: one chunk). The 2D/3D kernels
/// (CppCodegen's streamChunks) split the axis into near-equal chunks of at
/// most hS planes (hS = 0: no maximum) and, while the extent allows, at
/// least one per thread, so hS is the longest chunk rather than the only
/// length.
AxisTiles streamChunks(const BlockConfig &Config, long long Extent,
                       int Threads) {
  const long long HS = Config.HS;
  if (Config.BS.empty())
    return blockTiles(Extent, HS > 0 ? HS : Extent);
  const long long Bounded = HS > 0 ? (Extent + HS - 1) / HS : 1;
  return {Extent, std::min(Extent, std::max<long long>(Bounded, Threads)), 0};
}

/// Sum of Weight(span) over \p Tiles, where span is the length of the
/// tile widened by \p Reach on both sides and clipped to [Lo, Hi).
template <typename WeightFn>
long long sumOverTiles(const AxisTiles &Tiles, long long Reach, long long Lo,
                       long long Hi, WeightFn Weight) {
  long long Sum = 0;
  for (long long C = 0; C < Tiles.Count; ++C)
    Sum += Weight(std::max(std::min(Tiles.begin(C + 1) + Reach, Hi) -
                               std::max(Tiles.begin(C) - Reach, Lo),
                           0LL));
  return Sum;
}

/// The host cost of running \p Config on \p Problem with \p Threads
/// kernel threads, per cell update, over the invocations the host
/// schedule issues for the problem's step count. Per invocation of
/// degree d, over the streamChunks split of the streamed axis:
///
///  - compute: tier t covers its compute range widened by its reach
///    (d - t)*radius, interior cells only. A row of L contiguous lanes
///    costs floor(L/V) vector iterations, L mod V scalar remainder lanes
///    and 2 of loop overhead, V = 32 bytes / element; that summed over
///    rows, tiers, blocks and chunks is divided by the thread balance
///    of the (chunk, block) work items;
///  - memory: 0.02 per byte moved, at 2 * element bytes per loaded cell.
///    The load stage copies each block's span clipped to the grid and its
///    halo, on each plane of its chunk widened by d*radius (clipped the
///    same way), so the load redundancy of the overlapped tiling and the
///    1/d amortization show, and a block wider than the grid loads only
///    the grid.
///
/// Runs the step count makes identical (bT past the steps) and runs
/// rankByHostCost counts as the same (sameRunKey) cost exactly the same.
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
  const AxisTiles Chunks = streamChunks(Config, N[0], Threads);
  const std::size_t Blocked = Config.BS.size();
  const long long Steps = std::max(Problem.TimeSteps, 1LL);

  std::map<int, long long> Calls;
  for (int Degree : scheduleTimeBlocks(Steps, Config.BT))
    ++Calls[Degree];
  double Total = 0;
  for (const auto &[Degree, Count] : Calls) {
    const long long D = Degree;
    long long Items = Chunks.Count;
    long long Loaded =
        sumOverTiles(Chunks, D * Radius, -Radius, N[0] + Radius, Cells);
    std::vector<AxisTiles> Blocks;
    for (std::size_t A = 0; A < Blocked; ++A) {
      Blocks.push_back(blockTiles(N[A + 1], Config.BS[A] - 2 * D * Radius));
      Items *= Blocks[A].Count;
      Loaded *= sumOverTiles(Blocks[A], D * Radius, -Radius,
                             N[A + 1] + Radius, Cells);
    }
    long long Work = 0;
    for (long long Tier = 1; Tier <= D; ++Tier) {
      const long long Reach = (D - Tier) * Radius;
      long long Rows = 1, RowWork = RowCost(1);
      if (Blocked > 0)
        RowWork = sumOverTiles(Blocks[Blocked - 1], Reach, 0, N[Blocked],
                               RowCost);
      if (Blocked > 1)
        Rows = sumOverTiles(Blocks[0], Reach, 0, N[1], Cells);
      Work += sumOverTiles(Chunks, Reach, 0, N[0], Cells) * Rows * RowWork;
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

/// What makes two host-menu candidates the same run on \p Problem with
/// \p Threads kernel threads: the same bT, the same stream chunks and the
/// same bS on every blocked axis one block does not cover. The chunk count
/// fixes the chunks: the 2D/3D split by construction, and the 1D menu's
/// hS, which double, cut equally many chunks only when both reach past
/// the extent. A block covers its axis at every degree once it does at
/// bT, and its run then does not depend on its bS (0 in the key).
using RunKey = std::tuple<int, long long, std::vector<int>>;
RunKey sameRunKey(const StencilProgram &Program, const BlockConfig &Config,
                  const ProblemSize &Problem, int Threads) {
  std::vector<int> Uncovered = Config.BS;
  for (std::size_t A = 0; A < Uncovered.size(); ++A)
    if (Uncovered[A] - 2LL * Config.BT * Program.radius() >=
        Problem.Extents[A + 1])
      Uncovered[A] = 0;
  return {Config.BT, streamChunks(Config, Problem.Extents[0], Threads).Count,
          std::move(Uncovered)};
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

/// Sorts \p Ranked best first by \p Cost (lower is better), compared
/// through quantizedModelScore. Ties break on smaller bT, then smaller
/// block, then the remaining fields — a total order over distinct
/// configurations, so equal scores cannot reorder between compilers or
/// std::sort implementations. Both rankings sort through it.
template <typename CostFn>
static void sortByCost(std::vector<RankedConfig> &Ranked, CostFn Cost) {
  std::sort(Ranked.begin(), Ranked.end(),
            [&Cost](const RankedConfig &A, const RankedConfig &B) {
              double QA = quantizedModelScore(Cost(A));
              double QB = quantizedModelScore(Cost(B));
              if (QA != QB)
                return QA < QB;
              return std::make_tuple(A.Config.BT, A.Config.numThreads(),
                                     A.Config.BS, A.Config.HS) <
                     std::make_tuple(B.Config.BT, B.Config.numThreads(),
                                     B.Config.BS, B.Config.HS);
            });
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
  // Higher modeled GFLOP/s first.
  sortByCost(Ranked,
             [](const RankedConfig &C) { return -C.Model.Gflops; });
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
  Threads = std::max(Threads, 1);
  std::set<RunKey> Runs;
  std::vector<RankedConfig> Ranked;
  for (const BlockConfig &Config : hostMenu(Program.numDims())) {
    if (!Config.isFeasible(Program.radius()) ||
        hostRingBytes(Program, Config, Problem) > HostRingBudgetBytes)
      continue;
    // Candidates that run the same on the tune problem are timed once:
    // the menu lists bS and hS in ascending order, so the first of them
    // kept is the narrowest bS.
    if (!Runs.insert(sameRunKey(Program, Config, Problem, Threads)).second)
      continue;
    RankedConfig Entry;
    Entry.Config = Config;
    Entry.HostCost = hostCost(Program, Config, Problem, Threads);
    Ranked.push_back(std::move(Entry));
  }
  // Ties remain where bT past the step count runs the same blocks: over
  // 8 steps bT 4 and 8 both run two degree-4 blocks.
  sortByCost(Ranked, [](const RankedConfig &C) { return C.HostCost; });
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
    // second-order stencils (README "Deviations from the paper").
    Config.BS = {32, 32};
    Config.HS = 0; // streaming division disabled for 3D (Section 6.3)
  }
  return Config;
}

} // namespace an5d
