//===- bench_native_runtime.cpp - Tape emulator vs native OpenMP kernels ------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark comparison of the two execution tiers that run the
/// blocked N.5D schedule on this machine: the in-process compiled-tape
/// emulator (sim/BlockedExecutor.h) and the JIT-compiled native OpenMP
/// kernel (runtime/NativeExecutor.h). Both compute bit-identical results;
/// the native kernel exists so "measured" tuning can time real hardware
/// behavior, and this bench tracks how much faster it runs.
///
/// Native cases appear at 1 and 4 OpenMP threads (4 is clamped to the
/// machine's pool when smaller); the BM_Native* cases report the live
/// ratio against a best-of-3 tape-emulator run as "native_vs_tape_x". On
/// the 3D benchmarks at >= 4 threads the native kernel is expected to beat
/// the tape emulator comfortably (specialized constants, no interpreter
/// dispatch, parallel blocks). BM_NativeOmp_star3d1r_host_block times the
/// host-menu shape native tunes pick for star3d1r (bT=4 bS=32x512 hS=128
/// on 192^3 x 16), BM_NativeOmp_j2d5pt_host_block a 2D host-menu shape
/// (bT=14 bS=1024 hS=256 on 512^2 x 32). The 1D cases cover the
/// pure-streaming kernel (empty bS, OpenMP over hS chunks). Kernels
/// compile once into a per-user cache (AN5D_KERNEL_CACHE overrides), so
/// repeat runs skip compilation; tools/bench_emulator.sh dumps the results
/// to BENCH_native.json.
///
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "runtime/NativeExecutor.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "stencils/Benchmarks.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

using namespace an5d;

namespace {

long long cellSteps(const std::vector<long long> &Extents, long long Steps) {
  long long Cells = 1;
  for (long long E : Extents)
    Cells *= E;
  return Cells * Steps;
}

/// One benchmarked scenario: stencil, configuration, problem.
struct Scenario {
  std::unique_ptr<StencilProgram> Program;
  BlockConfig Config;
  std::vector<long long> Extents;
  long long Steps;
};

Scenario makeScenario(const std::string &Name,
                      ScalarType Type = ScalarType::Float) {
  Scenario S;
  S.Program = makeBenchmarkStencil(Name, Type);
  if (S.Program->numDims() == 1) {
    // Pure streaming: bS stays empty, parallelism comes from hS chunks.
    S.Config.BT = 8;
    S.Config.BS.clear();
    S.Config.HS = 4096;
    S.Extents = {1 << 16};
    S.Steps = 32;
  } else if (S.Program->numDims() == 2) {
    S.Config.BT = 4;
    S.Config.BS = {128};
    S.Config.HS = 128;
    S.Extents = {512, 512};
    S.Steps = 8;
  } else {
    S.Config.BT = 2;
    S.Config.BS = {32, 32};
    S.Config.HS = 0;
    S.Extents = {64, 64, 64};
    S.Steps = 4;
  }
  return S;
}

/// Best-of-3 wall time of \p Run(A, B), each run from the seeded input,
/// for the ratio counter. Both tiers are timed this way, so the ratio
/// compares like with like.
template <typename T, typename RunFn>
double bestOf3Ns(const Scenario &S, RunFn Run) {
  Grid<T> A(S.Extents, S.Program->radius()), B(A);
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    fillGridDeterministic(A, 1);
    copyGrid(A, B);
    auto Start = std::chrono::steady_clock::now();
    Run(A, B);
    auto End = std::chrono::steady_clock::now();
    double Ns =
        std::chrono::duration<double, std::nano>(End - Start).count();
    Best = Rep == 0 ? Ns : std::min(Best, Ns);
  }
  return Best;
}

/// Restores both buffers to the seeded input outside the timed region.
/// Every timed run starts from the same data: stepping one grid across
/// iterations decays stencils whose weights sum below 1 (j2d5pt: 0.42 per
/// step) into subnormals, which slow both tiers by different amounts.
template <typename T>
void resetGrids(benchmark::State &State, const Grid<T> &Init, Grid<T> &A,
                Grid<T> &B) {
  State.PauseTiming();
  copyGrid(Init, A);
  copyGrid(Init, B);
  State.ResumeTiming();
}

template <typename T>
void runTapeBench(benchmark::State &State, const std::string &Name,
                  ScalarType Type) {
  Scenario S = makeScenario(Name, Type);
  Grid<T> Init(S.Extents, S.Program->radius()), A(Init), B(Init);
  fillGridDeterministic(Init, 1);
  for (auto _ : State) {
    resetGrids(State, Init, A, B);
    blockedRun<T>(*S.Program, S.Config, {&A, &B}, S.Steps);
    benchmark::DoNotOptimize(A.raw().data());
  }
  State.SetItemsProcessed(State.iterations() * cellSteps(S.Extents, S.Steps));
}

void runTapeBench(benchmark::State &State, const std::string &Name) {
  runTapeBench<float>(State, Name, ScalarType::Float);
}

template <typename T>
void runNativeBench(benchmark::State &State, const Scenario &S, int Threads) {
  NativeRuntimeOptions Options;
  Options.Threads = Threads;
  NativeExecutor Executor(*S.Program, lowerSchedule(*S.Program, S.Config),
                          Options);
  if (!Executor.ok()) {
    State.SkipWithError(Executor.error().c_str());
    return;
  }
  Grid<T> Init(S.Extents, S.Program->radius()), A(Init), B(Init);
  fillGridDeterministic(Init, 1);
  for (auto _ : State) {
    resetGrids(State, Init, A, B);
    Executor.run<T>({&A, &B}, S.Steps);
    benchmark::DoNotOptimize(A.raw().data());
  }
  State.SetItemsProcessed(State.iterations() * cellSteps(S.Extents, S.Steps));
  State.counters["kernel_threads"] =
      static_cast<double>(Executor.kernelMaxThreads());
  // Live ratio against the tape emulator: benchmark reports per-iteration
  // time only after the fact, so time both tiers again, best of 3 each.
  double TapeNs = bestOf3Ns<T>(S, [&S](Grid<T> &A, Grid<T> &B) {
    blockedRun<T>(*S.Program, S.Config, {&A, &B}, S.Steps);
  });
  double NativeNs = bestOf3Ns<T>(S, [&](Grid<T> &A, Grid<T> &B) {
    Executor.run<T>({&A, &B}, S.Steps);
  });
  State.counters["tape_ns_per_run"] = TapeNs;
  if (NativeNs > 0)
    State.counters["native_vs_tape_x"] = TapeNs / NativeNs;
}

void runNativeBench(benchmark::State &State, const std::string &Name,
                    int Threads) {
  runNativeBench<float>(State, makeScenario(Name), Threads);
}

} // namespace

//===----------------------------------------------------------------------===//
// 1D (pure streaming; native parallelism comes from hS chunks)
//===----------------------------------------------------------------------===//

static void BM_TapeBlocked_j1d3pt(benchmark::State &State) {
  runTapeBench(State, "j1d3pt");
}
BENCHMARK(BM_TapeBlocked_j1d3pt)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_j1d3pt(benchmark::State &State) {
  runNativeBench(State, "j1d3pt", static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_j1d3pt)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

static void BM_TapeBlocked_star1d2r(benchmark::State &State) {
  runTapeBench(State, "star1d2r");
}
BENCHMARK(BM_TapeBlocked_star1d2r)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_star1d2r(benchmark::State &State) {
  runNativeBench(State, "star1d2r", static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_star1d2r)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// 2D
//===----------------------------------------------------------------------===//

static void BM_TapeBlocked_j2d5pt(benchmark::State &State) {
  runTapeBench(State, "j2d5pt");
}
BENCHMARK(BM_TapeBlocked_j2d5pt)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_j2d5pt(benchmark::State &State) {
  runNativeBench(State, "j2d5pt", static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_j2d5pt)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

// Double-precision points: same stencil and schedule, 8-byte elements —
// BENCH_native.json tracks both element types for the native-vs-tape
// ratio (bandwidth doubles, the tape's interpretive overhead does not).
static void BM_TapeBlocked_j2d5pt_double(benchmark::State &State) {
  runTapeBench<double>(State, "j2d5pt", ScalarType::Double);
}
BENCHMARK(BM_TapeBlocked_j2d5pt_double)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_j2d5pt_double(benchmark::State &State) {
  runNativeBench<double>(State, makeScenario("j2d5pt", ScalarType::Double),
                         static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_j2d5pt_double)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

// j2d5pt at a host-menu shape: bT=14 bS=1024 hS=256 on the native tune
// problem (512^2 x 32), where one block spans each row and its ring rows
// shrink to the row and its halo. The scenario above (bS=128 bT=4) is a
// shape the host menu never offers, since its narrowest 2D bS is 256.
static void BM_NativeOmp_j2d5pt_host_block(benchmark::State &State) {
  Scenario S = makeScenario("j2d5pt");
  S.Config.BT = 14;
  S.Config.BS = {1024};
  S.Config.HS = 256;
  S.Steps = 32;
  runNativeBench<float>(State, S, static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_j2d5pt_host_block)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

static void BM_TapeBlocked_star2d2r(benchmark::State &State) {
  runTapeBench(State, "star2d2r");
}
BENCHMARK(BM_TapeBlocked_star2d2r)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_star2d2r(benchmark::State &State) {
  runNativeBench(State, "star2d2r", static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_star2d2r)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// 3D (the acceptance cases: native must win at >= 4 threads)
//===----------------------------------------------------------------------===//

static void BM_TapeBlocked_star3d1r(benchmark::State &State) {
  runTapeBench(State, "star3d1r");
}
BENCHMARK(BM_TapeBlocked_star3d1r)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_star3d1r(benchmark::State &State) {
  runNativeBench(State, "star3d1r", static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_star3d1r)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

// star3d1r at the shape native tunes usually pick for cache- and
// DRAM-resident grids: bT=4 bS=32x512 hS=128 on 192^3 x 16, where one
// block spans each row. The scenario above (bS=32x32) is a shape the host
// menu never offers, since its contiguous bS2 is 512.
static void BM_NativeOmp_star3d1r_host_block(benchmark::State &State) {
  Scenario S = makeScenario("star3d1r");
  S.Config.BT = 4;
  S.Config.BS = {32, 512};
  S.Config.HS = 128;
  S.Extents = {192, 192, 192};
  S.Steps = 16;
  runNativeBench<float>(State, S, static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_star3d1r_host_block)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

static void BM_TapeBlocked_star3d1r_double(benchmark::State &State) {
  runTapeBench<double>(State, "star3d1r", ScalarType::Double);
}
BENCHMARK(BM_TapeBlocked_star3d1r_double)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_star3d1r_double(benchmark::State &State) {
  runNativeBench<double>(State, makeScenario("star3d1r", ScalarType::Double),
                         static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_star3d1r_double)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

static void BM_TapeBlocked_j3d27pt(benchmark::State &State) {
  runTapeBench(State, "j3d27pt");
}
BENCHMARK(BM_TapeBlocked_j3d27pt)->Unit(benchmark::kMillisecond);

static void BM_NativeOmp_j3d27pt(benchmark::State &State) {
  runNativeBench(State, "j3d27pt", static_cast<int>(State.range(0)));
}
BENCHMARK(BM_NativeOmp_j3d27pt)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Observability guard: the disabled-span fast path
//===----------------------------------------------------------------------===//

// The native hot paths (runtime/NativeMeasurement.cpp, NativeExecutor)
// carry AN5D_TRACE_SPAN instrumentation that must be free when tracing is
// off — one relaxed atomic load and a branch, no clock read, no lock.
// This guard pins that cost at the nanosecond scale so a regression (an
// accidental clock read or allocation on the disabled path) shows up in
// BENCH_native.json even though kernel throughput would not move.
static void BM_ObsDisabledSpan(benchmark::State &State) {
  obs::TraceRecorder::global().disable();
  for (auto _ : State) {
    AN5D_TRACE_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsDisabledSpan);

// The enabled cost for contrast: clock reads plus a striped-lock append.
// The buffer is dropped in batches outside the span itself so memory stays
// bounded; the amortized clear is part of the reported cost.
static void BM_ObsEnabledSpan(benchmark::State &State) {
  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  Recorder.clear();
  Recorder.enable();
  std::size_t SinceClear = 0;
  for (auto _ : State) {
    { AN5D_TRACE_SPAN("bench.enabled"); }
    if (++SinceClear == 8192) {
      Recorder.clear();
      SinceClear = 0;
    }
  }
  Recorder.disable();
  Recorder.clear();
}
BENCHMARK(BM_ObsEnabledSpan);

BENCHMARK_MAIN();
