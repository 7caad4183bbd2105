//===- bench_emulator_throughput.cpp - Emulator microbenchmarks ---------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark timings of the functional components themselves (not a
/// paper figure): the reference executor — through the default batched
/// compiled tape and the recursive tree-walk oracle — the blocked N.5D
/// emulator, which runs only the tape, plus the thread census and the
/// full tuning flow. The reference executor is the bitwise check behind
/// every verified kernel and the emulator is the tuner's inner loop, so
/// their throughput bounds how many scenarios the whole reproduction can
/// sweep; tools/bench_emulator.sh dumps these numbers to
/// BENCH_emulator.json to track the trajectory PR over PR.
///
/// BM_ReferenceJ2d5ptTapeVsTreeWalk times the tape in the benchmark loop
/// and the tree walk once up front, reporting the ratio as the
/// "tape_speedup_x" counter. Per-cell tape dispatch read 7-10 there and
/// batched evaluation reads 65-92 on a 4-vCPU Xeon host; the CI
/// perf-smoke job fails below 20. Its 64x64 grid is under
/// CompiledTape::ParallelCells, so referenceRun keeps it on one thread and
/// the counter still compares a serial tape with a serial tree walk.
///
/// The *TuneProblem cases run referenceRun on nativeMeasurementProblem's
/// grids (j2d5pt and j2d9pt 512^2 x 32 steps, star3d1r 64^3 x 8 steps):
/// the bitwise check the end-to-end benchmark's setup runs after each
/// native tune. These steps are past the threshold, so referenceRun splits
/// their rows over the OpenMP pool; the "oracle_threads" counter is the
/// team size the sim.reference span of one traced call reports, and the
/// CI perf-smoke job fails when j2d5pt's reads below 2 on a multi-core
/// runner.
///
//===----------------------------------------------------------------------===//

#include "model/ThreadCensus.h"
#include "obs/Trace.h"
#include "runtime/NativeMeasurement.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

using namespace an5d;

namespace {

/// Cells per invocation for the given extents and steps.
long long cellSteps(const std::vector<long long> &Extents, long long Steps) {
  long long Cells = 1;
  for (long long E : Extents)
    Cells *= E;
  return Cells * Steps;
}

void runReferenceBench(benchmark::State &State, const StencilProgram &P,
                       std::vector<long long> Extents, long long Steps,
                       EvalStrategy Strategy) {
  Grid<float> A(Extents, P.radius()), B(Extents, P.radius());
  fillGridDeterministic(A, 1);
  copyGrid(A, B);
  for (auto _ : State) {
    referenceRun<float>(P, {&A, &B}, Steps, Strategy);
    benchmark::DoNotOptimize(A.raw().data());
  }
  State.SetItemsProcessed(State.iterations() * cellSteps(Extents, Steps));
}

/// referenceRun on nativeMeasurementProblem from the same seeded input in
/// every iteration, as the bitwise check after a native tune runs it.
/// Reusing the buffers across iterations would let the values decay into
/// subnormals and time those instead.
void runTuneProblemBench(benchmark::State &State, const StencilProgram &P) {
  ProblemSize Problem = nativeMeasurementProblem(P.numDims());
  Grid<float> Input(Problem.Extents, P.radius());
  fillGridDeterministic(Input, 1);
  Grid<float> A = Input, B = Input;
  for (auto _ : State) {
    State.PauseTiming();
    copyGrid(Input, A);
    copyGrid(Input, B);
    State.ResumeTiming();
    referenceRun<float>(P, {&A, &B}, Problem.TimeSteps);
    benchmark::DoNotOptimize(A.raw().data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() *
                          cellSteps(Problem.Extents, Problem.TimeSteps));

  // One traced call after the timed loop: the team the oracle ran on.
  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  Recorder.clear();
  Recorder.enable();
  referenceRun<float>(P, {&A, &B}, Problem.TimeSteps);
  Recorder.disable();
  double Threads = 0;
  for (const obs::SpanRecord &Span : Recorder.snapshot())
    for (const obs::SpanAttr &Attr : Span.Attrs)
      if (Span.Name == "sim.reference" && Attr.Key == "threads")
        Threads = std::stod(Attr.Value);
  Recorder.clear();
  State.counters["oracle_threads"] = Threads;
}

void runBlockedBench(benchmark::State &State, const StencilProgram &P,
                     const BlockConfig &Config,
                     std::vector<long long> Extents, long long Steps) {
  Grid<float> A(Extents, P.radius()), B(Extents, P.radius());
  fillGridDeterministic(A, 1);
  copyGrid(A, B);
  for (auto _ : State) {
    blockedRun<float>(P, Config, {&A, &B}, Steps);
    benchmark::DoNotOptimize(A.raw().data());
  }
  State.SetItemsProcessed(State.iterations() * cellSteps(Extents, Steps));
}

/// Best-of-3 wall time of one tree-walk invocation, for the comparison
/// counters.
template <typename Fn> double timeTreeWalkNs(const Fn &Run) {
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    Run();
    auto End = std::chrono::steady_clock::now();
    double Ns = std::chrono::duration<double, std::nano>(End - Start).count();
    Best = Rep == 0 ? Ns : std::min(Best, Ns);
  }
  return Best;
}

} // namespace

//===----------------------------------------------------------------------===//
// Reference executor
//===----------------------------------------------------------------------===//

static void BM_ReferenceJ2d5pt(benchmark::State &State) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  runReferenceBench(State, *P, {64, 64}, 2, EvalStrategy::CompiledTape);
}
BENCHMARK(BM_ReferenceJ2d5pt);

static void BM_ReferenceJ2d5ptTreeWalk(benchmark::State &State) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  runReferenceBench(State, *P, {64, 64}, 2, EvalStrategy::TreeWalk);
}
BENCHMARK(BM_ReferenceJ2d5ptTreeWalk);

static void BM_ReferenceStar2d4r(benchmark::State &State) {
  // High-order (rad 4) star: 17 taps.
  auto P = makeStarStencil(2, 4, ScalarType::Float);
  runReferenceBench(State, *P, {64, 64}, 2, EvalStrategy::CompiledTape);
}
BENCHMARK(BM_ReferenceStar2d4r);

static void BM_ReferenceBox2d2r(benchmark::State &State) {
  // High-order (rad 2) box: 25 taps.
  auto P = makeBoxStencil(2, 2, ScalarType::Float);
  runReferenceBench(State, *P, {64, 64}, 2, EvalStrategy::CompiledTape);
}
BENCHMARK(BM_ReferenceBox2d2r);

static void BM_ReferenceJ3d27pt(benchmark::State &State) {
  auto P = makeJacobi3d27pt(ScalarType::Float);
  runReferenceBench(State, *P, {24, 24, 24}, 2, EvalStrategy::CompiledTape);
}
BENCHMARK(BM_ReferenceJ3d27pt);

static void BM_ReferenceBox3d2r(benchmark::State &State) {
  // 3D high-order box: 125 taps.
  auto P = makeBoxStencil(3, 2, ScalarType::Float);
  runReferenceBench(State, *P, {24, 24, 24}, 2, EvalStrategy::CompiledTape);
}
BENCHMARK(BM_ReferenceBox3d2r);

static void BM_ReferenceJ2d5ptTuneProblem(benchmark::State &State) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  runTuneProblemBench(State, *P);
}
BENCHMARK(BM_ReferenceJ2d5ptTuneProblem)->Unit(benchmark::kMillisecond);

static void BM_ReferenceJ2d9ptTuneProblem(benchmark::State &State) {
  // The costliest of the end-to-end bench's checks: 9 taps on 512^2 x 32.
  auto P = makeJacobi2d9pt(ScalarType::Float);
  runTuneProblemBench(State, *P);
}
BENCHMARK(BM_ReferenceJ2d9ptTuneProblem)->Unit(benchmark::kMillisecond);

static void BM_ReferenceStar3d1rTuneProblem(benchmark::State &State) {
  auto P = makeStarStencil(3, 1, ScalarType::Float);
  runTuneProblemBench(State, *P);
}
BENCHMARK(BM_ReferenceStar3d1rTuneProblem)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Blocked N.5D emulator
//===----------------------------------------------------------------------===//

static void BM_BlockedJ2d5pt(benchmark::State &State) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig Config;
  Config.BT = static_cast<int>(State.range(0));
  Config.BS = {64};
  Config.HS = 0;
  runBlockedBench(State, *P, Config, {64, 64}, Config.BT);
}
BENCHMARK(BM_BlockedJ2d5pt)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void BM_BlockedStar2d2r(benchmark::State &State) {
  // rad 2 at degree 2: 8 halo lanes per side of the 64-lane block.
  auto P = makeStarStencil(2, 2, ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {64};
  Config.HS = 0;
  runBlockedBench(State, *P, Config, {64, 64}, 2);
}
BENCHMARK(BM_BlockedStar2d2r);

static void BM_BlockedStar3d(benchmark::State &State) {
  auto P = makeStarStencil(3, 1, ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {16, 16};
  Config.HS = 0;
  runBlockedBench(State, *P, Config, {24, 24, 24}, 2);
}
BENCHMARK(BM_BlockedStar3d);

static void BM_BlockedBox3d2r(benchmark::State &State) {
  // 3D high-order box (125 taps), rad 2 at degree 1.
  auto P = makeBoxStencil(3, 2, ScalarType::Float);
  BlockConfig Config;
  Config.BT = 1;
  Config.BS = {16, 16};
  Config.HS = 0;
  runBlockedBench(State, *P, Config, {24, 24, 24}, 2);
}
BENCHMARK(BM_BlockedBox3d2r);

//===----------------------------------------------------------------------===//
// Tape vs tree-walk comparison counters
//===----------------------------------------------------------------------===//

static void BM_ReferenceJ2d5ptTapeVsTreeWalk(benchmark::State &State) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  Grid<float> A({64, 64}, 1), B({64, 64}, 1);
  fillGridDeterministic(A, 1);
  copyGrid(A, B);
  double TreeNs = timeTreeWalkNs([&] {
    referenceRun<float>(*P, {&A, &B}, 2, EvalStrategy::TreeWalk);
  });
  double TapeNs = 0;
  for (auto _ : State) {
    auto Start = std::chrono::steady_clock::now();
    referenceRun<float>(*P, {&A, &B}, 2, EvalStrategy::CompiledTape);
    auto End = std::chrono::steady_clock::now();
    TapeNs += std::chrono::duration<double, std::nano>(End - Start).count();
    benchmark::DoNotOptimize(A.raw().data());
  }
  State.SetItemsProcessed(State.iterations() * 2 * 64 * 64);
  State.counters["treewalk_ns"] = TreeNs;
  State.counters["tape_speedup_x"] =
      TapeNs > 0 ? TreeNs * static_cast<double>(State.iterations()) / TapeNs
                 : 0;
}
BENCHMARK(BM_ReferenceJ2d5ptTapeVsTreeWalk);

//===----------------------------------------------------------------------===//
// Census and tuner
//===----------------------------------------------------------------------===//

static void BM_ThreadCensus2d(benchmark::State &State) {
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  BlockConfig Config;
  Config.BT = 10;
  Config.BS = {256};
  Config.HS = 256;
  ProblemSize Problem = ProblemSize::paperDefault(2);
  for (auto _ : State) {
    ThreadCensus Census = computeThreadCensus(*P, Config, Problem);
    benchmark::DoNotOptimize(Census.ComputeOps);
  }
}
BENCHMARK(BM_ThreadCensus2d);

static void BM_FullTuneStar2d(benchmark::State &State) {
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  ProblemSize Problem = ProblemSize::paperDefault(2);
  for (auto _ : State) {
    TuneOutcome Outcome = T.tune(*P, Problem);
    benchmark::DoNotOptimize(Outcome.BestMeasured.MeasuredGflops);
  }
}
BENCHMARK(BM_FullTuneStar2d);

BENCHMARK_MAIN();
