//===- NativeExecutor.cpp - Compiled-kernel stencil execution ----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/NativeExecutor.h"

#include "codegen/CppCodegen.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/NativeCompiler.h"

#include <algorithm>
#include <string>

namespace an5d {

NativeExecutor::NativeExecutor(const StencilProgram &Program,
                               const ScheduleIR &Schedule,
                               const NativeRuntimeOptions &Options,
                               KernelCache *SharedCache)
    : Threads(Options.Threads), BlockTime(Schedule.Config.BT),
      StreamChunk(Schedule.Config.HS), BlockSizes(Schedule.Config.BS) {
  const BlockConfig &Config = Schedule.Config;
  if (Program.numDims() < 1 || Program.numDims() > 3) {
    Error = "the native runtime supports 1D, 2D and 3D stencils (got " +
            std::to_string(Program.numDims()) + "D)";
    return;
  }
  if (!Config.isFeasible(Program.radius())) {
    Error = "configuration " + Config.toString() +
            " is infeasible for radius " + std::to_string(Program.radius());
    return;
  }

  NativeCompiler Compiler(Options.Compiler);
  if (!Compiler.available()) {
    Error = "host compiler '" + Compiler.command() + "' is not available";
    return;
  }

  KernelCache *Cache = SharedCache;
  if (!Cache) {
    OwnedCache = std::make_unique<KernelCache>(Options.CacheDir);
    Cache = OwnedCache.get();
  }

  Artifact = Cache->getOrBuild(generateCppKernelLibrary(Program, Schedule),
                               Compiler, Options.ExtraCompileFlags,
                               Options.ForceRecompile);
  if (!Artifact.Ok) {
    Error = "kernel build failed:\n" + Artifact.Log;
    return;
  }

  std::string LoadError;
  Library = DynamicKernel::load(Artifact.LibraryPath, &LoadError);
  if (!Library) {
    Error = LoadError;
    return;
  }

  auto *AbiVersion = Library->fn<IntFn>("an5d_abi_version");
  auto *Dims = Library->fn<IntFn>("an5d_num_dims");
  auto *Rad = Library->fn<IntFn>("an5d_radius");
  auto *Elem = Library->fn<IntFn>("an5d_elem_size");
  Run = Library->fn<RunFn>("an5d_run");
  SetThreads = Library->fn<SetThreadsFn>("an5d_set_threads");
  MaxThreads = Library->fn<IntFn>("an5d_max_threads");
  if (!AbiVersion || !Dims || !Rad || !Elem || !Run || !SetThreads ||
      !MaxThreads) {
    Error = "kernel " + Artifact.LibraryPath +
            " does not export the an5d_* ABI";
    Library.reset();
    return;
  }
  if (AbiVersion() != CppKernelAbiVersion) {
    Error = "kernel ABI version " + std::to_string(AbiVersion()) +
            " does not match the runtime's " +
            std::to_string(CppKernelAbiVersion);
    Library.reset();
    return;
  }

  NumDims = Dims();
  Radius = Rad();
  ElemSize = Elem();
  if (NumDims != Program.numDims() || Radius != Program.radius() ||
      ElemSize != Program.wordSize()) {
    Error = "kernel metadata does not match the stencil program "
            "(cache collision or stale artifact " +
            Artifact.LibraryPath + ")";
    Library.reset();
    return;
  }
}

int NativeExecutor::kernelMaxThreads() const {
  return MaxThreads ? MaxThreads() : 0;
}

void NativeExecutor::pinKernelThreads(int N) const {
  if (SetThreads && N > 0)
    SetThreads(N);
}

int NativeExecutor::runRaw(void *Buf0, void *Buf1, const long long *Extents,
                           int NumExtents, long long TimeSteps) const {
  if (!Run || NumExtents != NumDims)
    return -1;
  if (Threads > 0)
    SetThreads(Threads);
  // The profiled path is behind the one relaxed atomic load every span
  // performs anyway: with tracing off, a raw run costs exactly what it
  // did before the observability layer existed.
  if (obs::TraceRecorder::enabled())
    return runTraced(Buf0, Buf1, Extents, TimeSteps);
  return Run(Buf0, Buf1, Extents, TimeSteps, BlockTime, StreamChunk,
             BlockSizes.data());
}

int NativeExecutor::runTraced(void *Buf0, void *Buf1,
                              const long long *Extents,
                              long long TimeSteps) const {
  obs::TraceSpan Span("native.run");
  if (Span.active()) {
    Span.attr("steps", std::to_string(TimeSteps));
    Span.attr("kernel", Artifact.Key);
  }
  obs::count("native.runs");
  if (BlockTime <= 0 || TimeSteps <= BlockTime)
    return Run(Buf0, Buf1, Extents, TimeSteps, BlockTime, StreamChunk,
               BlockSizes.data());

  // Per-temporal-block progress: invoke the kernel one bT-sized tile at a
  // time. Each invocation follows the ABI's double-buffer contract — S
  // steps from the buffer holding the current state land the result in
  // argument index S % 2 — so after all chunks the result sits in
  // Buf{TimeSteps % 2}, exactly where one whole-sweep invocation puts it,
  // and every chunk is the same bit-exact kernel, so decomposition does
  // not change the numbers.
  void *Bufs[2] = {Buf0, Buf1};
  int Current = 0;
  for (long long Done = 0; Done < TimeSteps;) {
    long long Steps = std::min<long long>(BlockTime, TimeSteps - Done);
    obs::TraceSpan BlockSpan("native.block");
    if (BlockSpan.active()) {
      BlockSpan.attr("t0", std::to_string(Done));
      BlockSpan.attr("steps", std::to_string(Steps));
    }
    int Rc = Run(Bufs[Current], Bufs[1 - Current], Extents, Steps, BlockTime,
                 StreamChunk, BlockSizes.data());
    if (Rc != 0)
      return Rc;
    Current ^= static_cast<int>(Steps & 1);
    Done += Steps;
  }
  return 0;
}

} // namespace an5d
