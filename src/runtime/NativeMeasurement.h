//===- NativeMeasurement.h - Real measured sweep on compiled kernels -*-C++-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Native measurement backend of the tuning flow: instead of the
/// calibrated MeasuredSimulator, each sweep candidate runs through a real
/// compiled OpenMP kernel (runtime/NativeExecutor.h; one kernel serves
/// every configuration of a stencil) and is timed on the host CPU.
/// Executors are built across a thread pool, while the timed runs execute
/// strictly serially, one kernel at a time with the machine to itself, so
/// measurements are not polluted by sibling candidates.
///
/// The sweep runs no static check of its own: the tuner has already
/// passed every candidate through the analysis pipeline
/// (analysis/passes/AnalysisPass.h), the one schedule-legality gate, and
/// a configuration the kernel cannot run fails through the build or run
/// path with a MeasureFailureKind.
///
/// The numbers are wall-clock GFLOP/s of this machine's CPU, not of the
/// modeled GPU: they rank configurations by real behavior but live on a
/// different scale than the simulated backend (see README "Native
/// runtime" for the caveats).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_RUNTIME_NATIVEMEASUREMENT_H
#define AN5D_RUNTIME_NATIVEMEASUREMENT_H

#include "runtime/NativeExecutor.h"
#include "sim/MeasuredSimulator.h"
#include "tuning/ParallelSweep.h"

#include <vector>

namespace an5d {

/// Knobs of the native measured sweep.
struct NativeMeasureOptions {
  /// Compile/cache/load pipeline settings (cache dir, compiler, kernel
  /// threads). Runtime.Threads is the timed kernels' OpenMP pool size
  /// (an5dc --measure-threads); 0 pins each kernel to the machine's
  /// hardware concurrency instead of floating with the ambient
  /// OMP_NUM_THREADS.
  NativeRuntimeOptions Runtime;

  /// Worker threads for the parallel compile stage; 0 resolves like the
  /// simulated sweep (resolveSweepThreads). Timing is always serial.
  int CompileThreads = 0;

  /// Timed repetitions per candidate; the fastest is kept (compensates
  /// for scheduler noise on a busy host). Every timed repetition starts
  /// from the same pristine input. A sweep adds one untimed warmup in
  /// all, before the timed runs of its first candidate whose kernel runs:
  /// every candidate runs the stencil's one kernel library, so what a
  /// warmup keeps out of the timed runs (paging in the kernel, starting
  /// its thread pool) happens once per sweep (an5dc --measure-repeats
  /// sets the timed count).
  int Repeats = 2;
};

/// A problem size small enough for wall-clock candidate timing on a CPU
/// (the paper-default sizes are sized for a V100 and would take minutes
/// per candidate here).
ProblemSize nativeMeasurementProblem(int NumDims);

/// One kernel timing: the run status is separate from the wall-clock
/// value, so a rejected run (Rc != 0) cannot be confused with a
/// degenerate zero-length measurement.
struct KernelTiming {
  int Rc = 0;          ///< an5d_run status; non-zero means the kernel
                       ///< rejected the run and Seconds is meaningless.
  double Seconds = 0;  ///< Best wall clock over the timed repeats, clamped
                       ///< to >= MinMeasurableSeconds.
  int ThreadsUsed = 0; ///< Pool size the timed runs executed with (1 for
                       ///< kernels built without OpenMP); the ambient
                       ///< pool size is restored before returning.
};

/// Floor for a timed run: anything faster than this is below what a
/// steady_clock round-trip resolves reliably, so GFLOP/s derived from it
/// would be noise (or a division by zero on a coarse clock). 100ns.
constexpr double MinMeasurableSeconds = 1e-7;

/// The measurement protocol of `an5dc --run-native`, the one-off form of
/// the sweep's timing loop: fills one pristine input, pins the kernel's
/// OpenMP pool (\p Threads; 0 = hardware concurrency) and restores the
/// previous pool size on exit, runs one untimed warmup, then keeps the
/// fastest of \p Repeats timed `an5d_run` invocations, each from a fresh
/// copy of the pristine input. T must match the kernel's element type.
template <typename T>
KernelTiming timeNativeKernel(const NativeExecutor &Executor,
                              const ProblemSize &Problem, int Radius,
                              int Repeats, int Threads);

extern template KernelTiming
timeNativeKernel<float>(const NativeExecutor &, const ProblemSize &, int,
                        int, int);
extern template KernelTiming
timeNativeKernel<double>(const NativeExecutor &, const ProblemSize &, int,
                         int, int);

/// Runs every candidate through a compiled kernel: each candidate is
/// lowered to its ScheduleIR exactly once (or reuses the IR the tuner
/// handed down in SweepCandidate::Schedule), and executors are built
/// across \p Options.CompileThreads workers (candidates sharing a
/// configuration — the same config timed against several problem sizes
/// — share one executor; every configuration of the stencil shares one
/// compiled kernel, so a cold sweep compiles once and hits the cache for
/// the rest). Timing then runs serially in candidate order with the
/// protocol of timeNativeKernel, except that the sweep runs one untimed
/// warmup in all (on the first candidate whose kernel runs) and fills
/// one pristine input per problem size (on the first candidate timed
/// against it, freed after the last), which every timed repeat of every
/// candidate on that size restores both buffers from. Results are
/// indexed exactly like \p Candidates; infeasible or failed-to-build
/// candidates come back with Feasible == false, and candidates whose
/// kernel failed to build or rejected the run carry the reason in
/// MeasuredResult::FailureReason. \p Cache may be null (a private cache
/// over Options.Runtime.CacheDir is used).
std::vector<MeasuredResult>
nativeMeasuredSweep(const StencilProgram &Program,
                    const std::vector<SweepCandidate> &Candidates,
                    const std::vector<ProblemSize> &Problems,
                    const NativeMeasureOptions &Options,
                    KernelCache *Cache = nullptr);

} // namespace an5d

#endif // AN5D_RUNTIME_NATIVEMEASUREMENT_H
