//===- NativeMeasurement.cpp - Real measured sweep on compiled kernels -------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/NativeMeasurement.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/Grid.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <thread>

namespace an5d {

ProblemSize nativeMeasurementProblem(int NumDims) {
  ProblemSize Problem;
  if (NumDims == 2) {
    Problem.Extents = {512, 512};
    Problem.TimeSteps = 32;
  } else if (NumDims == 3) {
    Problem.Extents = {64, 64, 64};
    Problem.TimeSteps = 8;
  } else {
    Problem.Extents = {65536};
    Problem.TimeSteps = 64;
  }
  return Problem;
}

namespace {

/// The input of one timed problem: the pristine grid, filled once, and
/// the two buffers every run starts from a fresh copy of.
template <typename T> struct TimingInput {
  Grid<T> Pristine, Buf0, Buf1;

  TimingInput(const ProblemSize &Problem, int Radius)
      : Pristine(Problem.Extents, Radius), Buf0(Problem.Extents, Radius),
        Buf1(Problem.Extents, Radius) {
    fillGridDeterministic(Pristine, 42);
  }
};

/// The timing loop of the sweep and of timeNativeKernel: pins the
/// kernel's pool, runs one untimed warmup when \p Warmup is set, then keeps
/// the fastest of \p Repeats timed runs, each from a fresh copy of the
/// pristine input.
template <typename T>
KernelTiming timeRuns(const NativeExecutor &Executor,
                      const ProblemSize &Problem, TimingInput<T> &Input,
                      int Repeats, int Threads, bool Warmup) {
  // Pin explicitly: with no request (Threads == 0) pin to the machine's
  // hardware concurrency, not to the kernel's current default — the
  // latter is whatever ambient OMP_NUM_THREADS initialized the pool to,
  // and measurements must not float with the caller's environment. The
  // previous pool size is restored on exit: the OpenMP ICV is
  // process-wide, so leaving the pin in place would silently change the
  // thread count of any later kernel run in this process (e.g. an5dc
  // --tune --measure native followed by --run-native).
  int Ambient = Executor.kernelMaxThreads();
  int Pin = Threads;
  if (Pin <= 0)
    Pin = static_cast<int>(std::thread::hardware_concurrency());
  if (Pin <= 0)
    Pin = Ambient; // no concurrency info: freeze the pool as-is
  Executor.pinKernelThreads(Pin);
  struct RestorePool {
    const NativeExecutor &Executor;
    int Threads;
    ~RestorePool() { Executor.pinKernelThreads(Threads); }
  } Restore{Executor, Ambient};

  KernelTiming Timing;
  // Read back rather than echo the request: a kernel built without
  // OpenMP ignores the pin and stays at 1.
  Timing.ThreadsUsed = Executor.kernelMaxThreads();

  double Best = std::numeric_limits<double>::infinity();
  int TimedRepeats = std::max(1, Repeats);
  for (int Rep = Warmup ? -1 : 0; Rep < TimedRepeats; ++Rep) {
    copyGrid(Input.Pristine, Input.Buf0);
    copyGrid(Input.Pristine, Input.Buf1);
    // The span's clock reads happen strictly outside the Start..now
    // window below, so enabling tracing widens the span, not the number.
    obs::TraceSpan RepSpan(Rep < 0 ? "measure.warmup" : "measure.repeat");
    auto Start = std::chrono::steady_clock::now();
    int Rc = Executor.runRaw(Input.Buf0.data(), Input.Buf1.data(),
                             Problem.Extents.data(),
                             static_cast<int>(Problem.Extents.size()),
                             Problem.TimeSteps);
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    if (Rc != 0) {
      Timing.Rc = Rc;
      return Timing;
    }
    if (Rep < 0)
      continue; // warmup run: correct but untimed
    Best = std::min(Best, Seconds);
  }
  // Metric bumps live after the timed loop — one batch per call, never
  // inside a measured window.
  if (Warmup)
    obs::count("measure.warmups");
  obs::count("measure.repeats", TimedRepeats);
  if (Best < MinMeasurableSeconds)
    obs::count("measure.clamps");
  Timing.Seconds = std::max(Best, MinMeasurableSeconds);
  obs::observe("measure.run_seconds", Timing.Seconds,
               obs::runSecondsBuckets());
  return Timing;
}

} // namespace

template <typename T>
KernelTiming timeNativeKernel(const NativeExecutor &Executor,
                              const ProblemSize &Problem, int Radius,
                              int Repeats, int Threads) {
  TimingInput<T> Input(Problem, Radius);
  return timeRuns(Executor, Problem, Input, Repeats, Threads,
                  /*Warmup=*/true);
}

template KernelTiming timeNativeKernel<float>(const NativeExecutor &,
                                              const ProblemSize &, int, int,
                                              int);
template KernelTiming timeNativeKernel<double>(const NativeExecutor &,
                                               const ProblemSize &, int, int,
                                               int);

std::vector<MeasuredResult>
nativeMeasuredSweep(const StencilProgram &Program,
                    const std::vector<SweepCandidate> &Candidates,
                    const std::vector<ProblemSize> &Problems,
                    const NativeMeasureOptions &Options, KernelCache *Cache) {
  std::vector<MeasuredResult> Results(Candidates.size());
  if (Candidates.empty())
    return Results;
  obs::count("sweep.candidates", static_cast<long long>(Candidates.size()));

  std::unique_ptr<KernelCache> OwnedCache;
  if (!Cache) {
    OwnedCache = std::make_unique<KernelCache>(Options.Runtime.CacheDir);
    Cache = OwnedCache.get();
  }

  // Lower each candidate exactly once (unless the caller — the tuner —
  // already did and handed the IR down): the kernel codegen and the
  // timing stage below both consume this one schedule.
  std::vector<ScheduleIR> Lowered(Candidates.size());
  std::vector<const ScheduleIR *> Schedules(Candidates.size());
  for (std::size_t I = 0; I < Candidates.size(); ++I) {
    // A lowered IR always names its stencil; a default-constructed
    // SweepCandidate::Schedule does not.
    if (!Candidates[I].Schedule.StencilName.empty()) {
      assert(Candidates[I].Schedule.Config.toString() ==
                 Candidates[I].Config.toString() &&
             "pre-lowered schedule does not match the candidate config");
      Schedules[I] = &Candidates[I].Schedule;
    } else {
      Lowered[I] = lowerSchedule(Program, Candidates[I].Config);
      Schedules[I] = &Lowered[I];
    }
  }

  // Candidates sharing one configuration — the same top-K config timed
  // against several problem sizes — share one executor. Each candidate
  // maps to the slot of the first candidate with its configuration.
  std::vector<std::size_t> KernelSlot(Candidates.size());
  std::vector<std::size_t> Slots;
  {
    std::map<std::string, std::size_t> SlotByConfig;
    for (std::size_t I = 0; I < Candidates.size(); ++I) {
      KernelSlot[I] =
          SlotByConfig.try_emplace(Candidates[I].Config.toString(), I)
              .first->second;
      if (KernelSlot[I] == I)
        Slots.push_back(I);
    }
  }

  // Stage 1: build every slot's executor across the pool. Executors land
  // in their own pre-allocated slot, so the stage is race-free. A kernel
  // library depends on the stencil only, so the first slot compiles and
  // the shared cache serves the rest from behind its per-key lock.
  std::vector<std::unique_ptr<NativeExecutor>> Executors(Candidates.size());
  std::atomic<std::size_t> NextItem{0};
  auto Worker = [&]() {
    for (std::size_t Next;
         (Next = NextItem.fetch_add(1, std::memory_order_relaxed)) <
         Slots.size();) {
      obs::gaugeSet("sweep.queue_depth",
                    static_cast<long long>(Slots.size() - Next - 1));
      const std::size_t Item = Slots[Next];
      obs::TraceSpan Span("sweep.compile");
      if (Span.active())
        Span.attr("config", Candidates[Item].Config.toString());
      Executors[Item] = std::make_unique<NativeExecutor>(
          Program, *Schedules[Item], Options.Runtime, Cache);
    }
  };
  int NumWorkers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolveSweepThreads(Options.CompileThreads)),
      Slots.size()));
  if (NumWorkers <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Helpers;
    Helpers.reserve(static_cast<std::size_t>(NumWorkers) - 1);
    for (int I = 1; I < NumWorkers; ++I)
      Helpers.emplace_back(Worker);
    Worker();
    for (std::thread &Helper : Helpers)
      Helper.join();
  }

  // Stage 2: serial timing, one kernel at a time (measurements must not
  // contend with each other for cores). Every candidate runs the
  // stencil's one kernel library, so the sweep warms it up once, on the
  // first candidate whose kernel runs: the warmup pages in the kernel code
  // and spins up its thread pool, neither of which depends on the
  // configuration or the extents. Each problem size gets one input,
  // filled on its first timed candidate and freed after its last; every
  // timed repeat restores both buffers from its pristine grid, so each
  // candidate starts from the same bits.
  double FlopsPerCell =
      static_cast<double>(Program.flopsPerCell().total());
  std::vector<std::size_t> LastUse(Problems.size());
  for (std::size_t I = 0; I < Candidates.size(); ++I) {
    assert(Candidates[I].ProblemIndex < Problems.size() &&
           "candidate addresses a problem size outside the sweep");
    LastUse[Candidates[I].ProblemIndex] = I;
  }
  auto TimeCandidates = [&](auto Elem) {
    using T = decltype(Elem);
    std::vector<std::unique_ptr<TimingInput<T>>> Inputs(Problems.size());
    bool Warmed = false;
    for (std::size_t I = 0; I < Candidates.size(); ++I) {
      NativeExecutor *Executor = Executors[KernelSlot[I]].get();
      if (!Executor || !Executor->ok()) {
        // Not an infeasible configuration: record why the kernel never
        // ran so the tuner can surface compile failures distinctly.
        Results[I].FailureReason =
            Executor ? Executor->error() : "kernel was never built";
        Results[I].FailureKind = Executor ? MeasureFailureKind::BuildFailed
                                          : MeasureFailureKind::NeverBuilt;
        continue;
      }
      const std::size_t P = Candidates[I].ProblemIndex;
      const ProblemSize &Problem = Problems[P];
      obs::TraceSpan CandidateSpan("measure.candidate");
      if (CandidateSpan.active()) {
        CandidateSpan.attr("config", Candidates[I].Config.toString());
        CandidateSpan.attr("problem", std::to_string(P));
      }
      if (!Inputs[P])
        Inputs[P] = std::make_unique<TimingInput<T>>(Problem, Program.radius());
      KernelTiming Timing =
          timeRuns(*Executor, Problem, *Inputs[P], Options.Repeats,
                   Options.Runtime.Threads, /*Warmup=*/!Warmed);
      if (I == LastUse[P])
        Inputs[P].reset();
      if (Timing.Rc != 0) {
        Results[I].FailureReason = "kernel rejected the run (code " +
                                   std::to_string(Timing.Rc) + ")";
        Results[I].FailureKind = MeasureFailureKind::RunRejected;
        continue;
      }
      Warmed = true;
      MeasuredResult &Out = Results[I];
      Out.Feasible = true;
      Out.MeasuredTimeSeconds = Timing.Seconds;
      double CellUpdates = static_cast<double>(Problem.cellCount()) *
                           static_cast<double>(Problem.TimeSteps);
      Out.MeasuredGflops = FlopsPerCell * CellUpdates / Timing.Seconds / 1e9;
    }
  };
  if (Program.elemType() == ScalarType::Float)
    TimeCandidates(float{});
  else
    TimeCandidates(double{});

  // One failure-kind counter bump per failed result, in one place: the
  // metrics exactly mirror what the tuner's reduction will count into
  // TuneOutcome::MeasurementFailures.
  for (const MeasuredResult &Result : Results)
    if (Result.FailureKind != MeasureFailureKind::None)
      obs::count(measureFailureMetricName(Result.FailureKind));
  return Results;
}

} // namespace an5d
