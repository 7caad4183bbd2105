//===- NativeExecutor.h - Compiled-kernel stencil execution -----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a stencil through a JIT-compiled native kernel instead of the
/// in-process emulators: generateCppKernelLibrary emits the blocked N.5D
/// schedule as an OpenMP translation unit, NativeCompiler builds it into a
/// shared object (through the persistent KernelCache), DynamicKernel loads
/// it, and run() presents the same interface as referenceRun /
/// BlockedExecutor::run — Buffers[0] holds the input at t=0, the result of
/// step N lands in Buffers[N % 2], and the output matches the in-process
/// executors bit for bit (the kernels are compiled with -ffp-contract=off
/// and exact-float literals; the equivalence suite in
/// tests/NativeRuntimeTest.cpp pins this on every built-in benchmark).
///
/// ## Kernel ABI (CppKernelAbiVersion = 3)
///
///   int an5d_abi_version(void);
///   const char *an5d_stencil_name(void);  // e.g. "j2d5pt"
///   int an5d_num_dims(void);              // 1, 2 or 3
///   int an5d_radius(void);
///   int an5d_elem_size(void);             // sizeof element in bytes
///   int an5d_max_threads(void);           // OpenMP pool size (1 if serial)
///   void an5d_set_threads(int n);         // n <= 0 keeps the default
///   int an5d_run(void *buf0, void *buf1, const long long *extents,
///                long long timeSteps, int bt, long long hs,
///                const int *bs);
///
/// A library bakes in the stencil and its element type, nothing else:
/// extents, step count, the temporal block bT, the stream chunk hS and
/// the block sizes bS are arguments of every an5d_run call, so every
/// configuration of a stencil loads one compiled kernel. `bs` holds the
/// numDims - 1 block sizes of the blocked axes (axis 1 first); a 1D
/// kernel has no blocked axis and ignores it, so it may be null there.
/// an5d_run returns 0 on success and non-zero, before touching either
/// buffer, on bad arguments: null or identical buffers (the blocked
/// invocation restrict-qualifies them), a negative step count, an extent
/// below 1, bt < 1, hs < 0, a null `bs` in 2D or 3D, or a bt that `bs`
/// cannot hold (bS - 2*bt*radius < 1 on some blocked axis). The library
/// keeps no file-scope state, so concurrent calls — into one loaded
/// kernel or several — are safe.
///
/// hS bounds the stream chunks a call runs. The 1D kernel cuts chunks of
/// hS planes (0: one chunk). The 2D/3D kernels split the streamed axis
/// into near-equal chunks of at most hS planes (0: no maximum) and, while
/// the extent allows, at least one per kernel thread, and hand the
/// (chunk, block) items out dynamically, so every thread has work from the
/// start on any grid.
///
/// Both buffers are padded row-major grids with a halo of radius cells per
/// side of every dimension in `extents` (streaming dimension first) —
/// exactly Grid<T>'s layout, so run() passes Grid::data() straight through.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_RUNTIME_NATIVEEXECUTOR_H
#define AN5D_RUNTIME_NATIVEEXECUTOR_H

#include "ir/StencilProgram.h"
#include "runtime/DynamicKernel.h"
#include "schedule/ScheduleIR.h"
#include "runtime/KernelCache.h"
#include "sim/Grid.h"

#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace an5d {

/// Knobs of the compile/cache/load pipeline.
struct NativeRuntimeOptions {
  /// Kernel cache directory; empty picks KernelCache::defaultDirectory().
  /// Ignored when a shared cache is passed to the constructor.
  std::string CacheDir;

  /// Host compiler command; empty picks NativeCompiler::detect().
  std::string Compiler;

  /// Extra compiler flags appended after the standard kernel flags (a
  /// later -O level overrides the default -O2, which the tests use to
  /// speed up their many small builds). Part of the cache key.
  std::vector<std::string> ExtraCompileFlags;

  /// OpenMP threads the kernel may use; 0 keeps the runtime default.
  int Threads = 0;

  /// Rebuild even if the cache already holds the kernel.
  bool ForceRecompile = false;
};

/// A loaded native kernel for one (stencil, configuration) pair.
///
/// Construction compiles (or fetches) and loads the kernel for the
/// stencil; check ok() before running. Every run passes the schedule's
/// bT, hS and bS to `an5d_run`, so every executor of a stencil shares one
/// cache entry (cacheKey()). The executor is usable from any thread, and
/// concurrent runs — of one executor or of several sharing a kernel —
/// proceed in parallel: the kernel keeps no state between calls.
class NativeExecutor {
public:
  /// Builds the kernel from an already lowered schedule (the tuner's
  /// native sweep lowers once per candidate and hands the IR down here).
  /// \p SharedCache lets many executors (a tuning sweep, a test suite)
  /// share one cache and its statistics; when null a private cache over
  /// Options.CacheDir is created.
  NativeExecutor(const StencilProgram &Program, const ScheduleIR &Schedule,
                 const NativeRuntimeOptions &Options = {},
                 KernelCache *SharedCache = nullptr);

  /// False if generation, compilation, loading or the ABI check failed;
  /// error() then explains why (including the compiler log).
  bool ok() const { return Library != nullptr && Error.empty(); }
  const std::string &error() const { return Error; }

  /// True if the shared object came out of the cache without compiling.
  bool cacheHit() const { return Artifact.CacheHit; }
  double compileSeconds() const { return Artifact.CompileSeconds; }
  const std::string &libraryPath() const { return Artifact.LibraryPath; }
  const std::string &cacheKey() const { return Artifact.Key; }

  /// The OpenMP thread-pool size the loaded kernel reports (1 if it was
  /// built without OpenMP). 0 if the executor failed.
  int kernelMaxThreads() const;

  /// The temporal tile (bT) of the executor's schedule, passed to every
  /// `an5d_run` call. The traced run path chunks long sweeps by this to
  /// report per-temporal-block progress.
  int blockTime() const { return BlockTime; }

  /// Pins the kernel's OpenMP pool to \p N threads via `an5d_set_threads`
  /// (no-op for N <= 0 or a failed executor). The measurement path calls
  /// this before timing so results do not float with the ambient
  /// OMP_NUM_THREADS of the calling process.
  void pinKernelThreads(int N) const;

  /// Same contract as referenceRun / BlockedExecutor::run: advances
  /// \p TimeSteps steps, input in Buffers[0], result in
  /// Buffers[TimeSteps % 2]. The grids must use halo == radius and share
  /// one layout. Aborts with a diagnostic if the kernel rejects the run
  /// (programming error: layout/type mismatch is asserted here first).
  template <typename T>
  void run(std::array<Grid<T> *, 2> Buffers, long long TimeSteps) const {
    assert(ok() && "run() on a failed native kernel");
    assert(static_cast<int>(sizeof(T)) == ElemSize &&
           "element type does not match the compiled kernel");
    assert(Buffers[0]->numDims() == NumDims && "dimensionality mismatch");
    assert(Buffers[0]->halo() == Radius &&
           "native kernels require halo == radius");
    assert(Buffers[1]->halo() == Buffers[0]->halo() &&
           Buffers[1]->extents() == Buffers[0]->extents() &&
           "native execution requires identically laid out buffers");
    const std::vector<long long> &Extents = Buffers[0]->extents();
    int Rc = runRaw(Buffers[0]->data(), Buffers[1]->data(), Extents.data(),
                    static_cast<int>(Extents.size()), TimeSteps);
    if (Rc != 0) {
      std::fprintf(stderr,
                   "an5d: native kernel %s rejected the run (code %d)\n",
                   Artifact.LibraryPath.c_str(), Rc);
      std::abort();
    }
  }

  /// Untyped entry for callers that manage raw buffers (the timing path).
  /// Returns the kernel's an5d_run result; -1 on arity mismatch.
  int runRaw(void *Buf0, void *Buf1, const long long *Extents,
             int NumExtents, long long TimeSteps) const;

private:
  /// The runRaw body when tracing is enabled: wraps the invocation in a
  /// `native.run` span and, for sweeps longer than the kernel's temporal
  /// tile, emits one `native.block` child span per bT-sized chunk
  /// (bit-exact with the single whole-sweep invocation).
  int runTraced(void *Buf0, void *Buf1, const long long *Extents,
                long long TimeSteps) const;

  std::string Error;
  KernelArtifact Artifact;
  std::unique_ptr<KernelCache> OwnedCache;
  std::unique_ptr<DynamicKernel> Library;

  int NumDims = 0;
  int Radius = 0;
  int ElemSize = 0;
  int Threads = 0;
  int BlockTime = 0;
  long long StreamChunk = 0; ///< hS of the schedule: the longest chunk.
  std::vector<int> BlockSizes; ///< bS of the schedule (empty in 1D).

  using RunFn = int(void *, void *, const long long *, long long, int,
                    long long, const int *);
  using IntFn = int();
  using SetThreadsFn = void(int);
  RunFn *Run = nullptr;
  SetThreadsFn *SetThreads = nullptr;
  IntFn *MaxThreads = nullptr;
};

} // namespace an5d

#endif // AN5D_RUNTIME_NATIVEEXECUTOR_H
