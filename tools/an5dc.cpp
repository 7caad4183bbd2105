//===- an5dc.cpp - The AN5D source-to-source stencil compiler -----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line front door of the framework, mirroring what the paper's
/// AN5D tool does: read an unoptimized double-buffered C stencil, detect
/// the pattern, pick (or accept) a blocking configuration, and emit CUDA
/// host + kernel code. Additional switches expose the performance model,
/// the tuner and the portable self-checking C++ backend.
///
/// Usage:
///   an5dc [options] input.c
///   an5dc --list-benchmarks
///   an5dc --benchmark j2d5pt --tune --emit-cuda out/
///
/// Options:
///   --name NAME          stencil name (default: input file stem)
///   --benchmark NAME     use a built-in Table 3 benchmark instead of a file
///   --type float|double  element type override
///   --device v100|p100   target GPU for tuning/model (default v100)
///   --bt N --bs N[,N] --hs N --regs N    manual configuration
///   --tune               pick the configuration with the Section 6.3 flow
///   --tune-threads N     measured-sweep worker threads (0 = auto)
///   --tune-topk N        ranked candidates to measure (default 16; 8
///                        with --measure native, which ranks by the host
///                        cost instead of the GPU model)
///   --measure SOURCE     measured-sweep source: simulated (default) or
///                        native (JIT-compiled OpenMP kernels on this CPU)
///   --measure-threads N  OpenMP threads per timed native kernel — applies
///                        to the --tune --measure native sweep and to
///                        --run-native (0 = the tune sweep pins to this
///                        machine's hardware concurrency)
///   --measure-repeats N  timed repetitions, best kept (>= 1) — applies
///                        to the tune sweep (plus one untimed warmup)
///                        and to --run-native
///   --print-stencil      show the detected stencil and classification
///   --print-model        show the roofline breakdown for the configuration
///                        (like --report and --emit-cuda, exit 1 for a
///                        block above the device's threads-per-block cap)
///   --lint               lint the generated kernel-library and
///                        check-program sources (ABI symbols, exact-float
///                        literals, banned calls, restrict qualifiers)
///                        and lint every JIT kernel before compiling it
///   --analyze FILE       run the static analysis passes (tape verifier,
///                        access-bounds prover — the schedule-legality
///                        proof over every degree — and resource
///                        estimator) over the configuration's lowered
///                        schedule without compiling anything and write
///                        the an5d-analysis-v1 JSON report (findings +
///                        resource estimates) to FILE ('-' = stdout);
///                        non-zero exit on Error-severity findings
///   --emit-cuda DIR      write <kernel>.cu and <kernel>_host.cpp to DIR
///   --emit-check DIR     write the self-checking portable C++ program
///   --emit-omp DIR       write the callable OpenMP kernel library source
///   --verify             run the blocked emulator vs the reference
///   --verify-native      compile the native kernel and check it against
///                        the reference bit for bit, on a problem sized
///                        to cross block, chunk and invocation seams
///   --run-native         compile (or fetch from cache), load and time the
///                        native kernel on a CPU-sized problem
///   --kernel-cache DIR   kernel-cache directory (default: see README)
///   --trace FILE         record trace spans across the whole run and write
///                        them as Chrome trace-event JSON (open in
///                        Perfetto); AN5D_TRACE in the environment is the
///                        flagless equivalent
///   --metrics FILE       write the metrics-registry export (counters,
///                        gauges, histograms, span aggregates) as JSON;
///                        AN5D_METRICS is the flagless equivalent
///   --obs-summary        print the aggregated span table and the non-zero
///                        metrics on exit (implies span recording)
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"
#include "analysis/passes/AnalysisPass.h"
#include "analysis/passes/ResourceEstimator.h"
#include "codegen/CppCodegen.h"
#include "codegen/CudaCodegen.h"
#include "codegen/LoopTilingCodegen.h"
#include "frontend/StencilExtractor.h"
#include "obs/JsonLite.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "report/ScheduleReport.h"
#include "runtime/NativeExecutor.h"
#include "runtime/NativeMeasurement.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/MeasuredSimulator.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "transforms/ExprSimplify.h"
#include "tuning/Tuner.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

using namespace an5d;

namespace {

struct CliOptions {
  std::string InputPath;
  std::string Name;
  std::string Benchmark;
  std::optional<ScalarType> Type;
  bool UseP100 = false;
  int BT = 0;
  std::vector<int> BS;
  int HS = -1;
  int Regs = 0;
  bool Tune = false;
  TuneOptions Tuning;
  bool TopKSet = false;
  int MeasureThreads = -1; ///< --measure-threads; -1 = not set
  int MeasureRepeats = 0;  ///< --measure-repeats; 0 = not set
  bool PrintStencil = false;
  bool PrintModel = false;
  bool Report = false;
  bool Simplify = false;
  bool DivToMul = false;
  bool Verify = false;
  bool VerifyNative = false;
  bool Lint = false;
  std::string AnalyzePath; ///< --analyze; empty = off, "-" = stdout
  bool RunNative = false;
  std::string TracePath;   ///< --trace / AN5D_TRACE; empty = off
  std::string MetricsPath; ///< --metrics / AN5D_METRICS; empty = off
  bool ObsSummary = false; ///< --obs-summary
  NativeRuntimeOptions NativeOpts;
  CodegenOptions Codegen;
  std::string EmitCudaDir;
  std::string EmitCheckDir;
  std::string EmitOmpDir;
  std::string EmitLoopTilingDir;
  bool ListBenchmarks = false;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: an5dc [options] input.c\n"
      "  --benchmark NAME | --list-benchmarks\n"
      "  --name NAME --type float|double --device v100|p100\n"
      "  --bt N --bs N[,N] --hs N --regs N | --tune\n"
      "  --tune-threads N --tune-topk N --measure simulated|native\n"
      "  --measure-threads N --measure-repeats N\n"
      "  --print-stencil --print-model --report --verify\n"
      "  --verify-native --lint --analyze FILE\n"
      "  --run-native --kernel-cache DIR\n"
      "  --trace FILE --metrics FILE --obs-summary\n"
      "  --simplify --div-to-mul\n"
      "  --no-assoc-opt --no-dafree-opt --vectorized-smem --unroll-inner\n"
      "  --emit-cuda DIR --emit-check DIR --emit-omp DIR "
      "--emit-loop-tiling DIR\n");
}

/// Parses a full decimal integer >= \p MinValue into \p Out; anything else
/// ("foo", "12x", overflow, too small) gets a diagnostic naming \p Flag.
bool parseIntValue(const char *Flag, const char *Text, int MinValue,
                   int &Out) {
  char *End = nullptr;
  errno = 0;
  long Value = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || Value < MinValue ||
      Value > INT_MAX) {
    std::fprintf(stderr,
                 "an5dc: invalid value '%s' for %s (expected an integer "
                 ">= %d)\n",
                 Text, Flag, MinValue);
    return false;
  }
  Out = static_cast<int>(Value);
  return true;
}

/// Parses a comma-separated list of positive integers (--bs).
bool parseIntListValue(const char *Flag, const std::string &Text,
                       std::vector<int> &Out) {
  Out.clear();
  std::stringstream Stream(Text);
  std::string Item;
  while (std::getline(Stream, Item, ',')) {
    int Value = 0;
    if (!parseIntValue(Flag, Item.c_str(), 1, Value))
      return false;
    Out.push_back(Value);
  }
  if (Out.empty()) {
    std::fprintf(stderr, "an5dc: empty value for %s\n", Flag);
    return false;
  }
  return true;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "an5dc: missing value for %s\n", Arg.c_str());
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (Arg == "--list-benchmarks") {
      Options.ListBenchmarks = true;
    } else if (Arg == "--benchmark") {
      const char *V = Next();
      if (!V)
        return false;
      Options.Benchmark = V;
    } else if (Arg == "--name") {
      const char *V = Next();
      if (!V)
        return false;
      Options.Name = V;
    } else if (Arg == "--type") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "float") == 0)
        Options.Type = ScalarType::Float;
      else if (std::strcmp(V, "double") == 0)
        Options.Type = ScalarType::Double;
      else {
        std::fprintf(stderr, "an5dc: unknown type '%s'\n", V);
        return false;
      }
    } else if (Arg == "--device") {
      const char *V = Next();
      if (!V)
        return false;
      Options.UseP100 = std::strcmp(V, "p100") == 0;
    } else if (Arg == "--bt") {
      const char *V = Next();
      if (!V || !parseIntValue("--bt", V, 1, Options.BT))
        return false;
    } else if (Arg == "--bs") {
      const char *V = Next();
      if (!V || !parseIntListValue("--bs", V, Options.BS))
        return false;
    } else if (Arg == "--hs") {
      const char *V = Next();
      if (!V || !parseIntValue("--hs", V, 0, Options.HS))
        return false;
    } else if (Arg == "--regs") {
      const char *V = Next();
      if (!V || !parseIntValue("--regs", V, 0, Options.Regs))
        return false;
    } else if (Arg == "--tune") {
      Options.Tune = true;
    } else if (Arg == "--tune-threads") {
      const char *V = Next();
      if (!V ||
          !parseIntValue("--tune-threads", V, 0, Options.Tuning.Threads))
        return false;
    } else if (Arg == "--tune-topk") {
      const char *V = Next();
      int K = 0;
      if (!V || !parseIntValue("--tune-topk", V, 1, K))
        return false;
      Options.Tuning.TopK = static_cast<std::size_t>(K);
      Options.TopKSet = true;
    } else if (Arg == "--measure") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "simulated") == 0)
        Options.Tuning.Backend = MeasurementBackend::Simulated;
      else if (std::strcmp(V, "native") == 0)
        Options.Tuning.Backend = MeasurementBackend::Native;
      else {
        std::fprintf(stderr,
                     "an5dc: unknown measurement source '%s' (expected "
                     "'simulated' or 'native')\n",
                     V);
        return false;
      }
    } else if (Arg == "--measure-threads") {
      const char *V = Next();
      if (!V ||
          !parseIntValue("--measure-threads", V, 0, Options.MeasureThreads))
        return false;
    } else if (Arg == "--measure-repeats") {
      const char *V = Next();
      if (!V ||
          !parseIntValue("--measure-repeats", V, 1, Options.MeasureRepeats))
        return false;
    } else if (Arg == "--kernel-cache") {
      const char *V = Next();
      if (!V)
        return false;
      Options.NativeOpts.CacheDir = V;
    } else if (Arg == "--trace") {
      const char *V = Next();
      if (!V)
        return false;
      Options.TracePath = V;
    } else if (Arg == "--metrics") {
      const char *V = Next();
      if (!V)
        return false;
      Options.MetricsPath = V;
    } else if (Arg == "--obs-summary") {
      Options.ObsSummary = true;
    } else if (Arg == "--verify-native") {
      Options.VerifyNative = true;
    } else if (Arg == "--lint") {
      Options.Lint = true;
      Options.NativeOpts.LintKernels = true;
    } else if (Arg == "--analyze") {
      const char *V = Next();
      if (!V)
        return false;
      Options.AnalyzePath = V;
    } else if (Arg == "--run-native") {
      Options.RunNative = true;
    } else if (Arg == "--print-stencil") {
      Options.PrintStencil = true;
    } else if (Arg == "--print-model") {
      Options.PrintModel = true;
    } else if (Arg == "--report") {
      Options.Report = true;
    } else if (Arg == "--simplify") {
      Options.Simplify = true;
    } else if (Arg == "--div-to-mul") {
      Options.DivToMul = true;
    } else if (Arg == "--verify") {
      Options.Verify = true;
    } else if (Arg == "--no-assoc-opt") {
      // Section 4.3.3: the associative-stencil optimization can be
      // disabled with a compile-time switch.
      Options.Codegen.EnableAssociativeOpt = false;
    } else if (Arg == "--no-dafree-opt") {
      Options.Codegen.EnableDiagonalAccessFreeOpt = false;
    } else if (Arg == "--vectorized-smem") {
      // Re-enable NVCC's vectorized shared-memory access (the paper
      // disables it by default to cut register pressure).
      Options.Codegen.DisableVectorizedSmemAccess = false;
    } else if (Arg == "--unroll-inner") {
      Options.Codegen.UnrollInnerLoop = true;
    } else if (Arg == "--emit-cuda") {
      const char *V = Next();
      if (!V)
        return false;
      Options.EmitCudaDir = V;
    } else if (Arg == "--emit-check") {
      const char *V = Next();
      if (!V)
        return false;
      Options.EmitCheckDir = V;
    } else if (Arg == "--emit-omp") {
      const char *V = Next();
      if (!V)
        return false;
      Options.EmitOmpDir = V;
    } else if (Arg == "--emit-loop-tiling") {
      const char *V = Next();
      if (!V)
        return false;
      Options.EmitLoopTilingDir = V;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "an5dc: unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Options.InputPath = Arg;
    }
  }
  return true;
}

/// Verifies the blocked schedule against the reference on a small grid.
template <typename T>
bool verifyBlocked(const StencilProgram &Program, const BlockConfig &Config) {
  std::vector<long long> Extents =
      Program.numDims() == 1   ? std::vector<long long>{97}
      : Program.numDims() == 2 ? std::vector<long long>{41, 37}
                               : std::vector<long long>{15, 13, 12};
  long long Steps = 9;
  Grid<T> Ref0(Extents, Program.radius()), Ref1(Extents, Program.radius());
  fillGridDeterministic(Ref0, 77);
  copyGrid(Ref0, Ref1);
  Grid<T> Blk0 = Ref0, Blk1 = Ref0;
  referenceRun<T>(Program, {&Ref0, &Ref1}, Steps);
  blockedRun<T>(Program, Config, {&Blk0, &Blk1}, Steps);
  const Grid<T> &Want = Steps % 2 == 0 ? Ref0 : Ref1;
  const Grid<T> &Got = Steps % 2 == 0 ? Blk0 : Blk1;
  return Want.raw() == Got.raw();
}

/// Shrinks a tuned configuration to something the CPU emulator can verify
/// quickly while preserving the temporal degree when possible.
BlockConfig verificationConfig(const StencilProgram &Program,
                               const BlockConfig &Tuned) {
  BlockConfig Small = Tuned;
  int Rad = Program.radius();
  while (Small.BT > 1 && 2 * Small.BT * Rad + 8 > 40)
    --Small.BT; // keep blocks emulator-sized
  for (int &B : Small.BS)
    B = 2 * Small.BT * Rad + 8;
  Small.HS = 10;
  return Small;
}

/// The --verify-native problem, sized from the configuration so the check
/// crosses the seams a production run crosses: 2*cw+3 cells per blocked
/// axis (cw = bS - 2*bT*RAD, so three blocks, the last one partial),
/// 2*hS+3 planes on the streaming axis when hS > 0 (three chunks), and
/// 2*bT+1 steps (two full-degree invocations plus a remainder).
ProblemSize nativeVerificationProblem(const StencilProgram &Program,
                                      const BlockConfig &Config) {
  ProblemSize Problem;
  const long long DefaultStream[] = {193, 97, 33};
  Problem.Extents.push_back(Config.HS > 0
                                ? 2LL * Config.HS + 3
                                : DefaultStream[Program.numDims() - 1]);
  for (int BS : Config.BS) {
    long long ComputeWidth = BS - 2LL * Config.BT * Program.radius();
    Problem.Extents.push_back(2 * ComputeWidth + 3);
  }
  Problem.TimeSteps = 2LL * Config.BT + 1;
  return Problem;
}

/// Verifies the compiled native kernel against the reference bit for bit.
/// Unlike --verify this runs the *actual* configuration — the native
/// kernel handles production-sized blocks without shrinking.
template <typename T>
bool verifyNativeKernel(const StencilProgram &Program,
                        const BlockConfig &Config, const ProblemSize &Problem,
                        const NativeRuntimeOptions &NativeOpts) {
  NativeExecutor Executor(Program, Config, NativeOpts);
  if (!Executor.ok()) {
    std::fprintf(stderr, "an5dc: %s\n", Executor.error().c_str());
    return false;
  }
  const std::vector<long long> &Extents = Problem.Extents;
  const long long Steps = Problem.TimeSteps;
  Grid<T> Ref0(Extents, Program.radius()), Ref1(Extents, Program.radius());
  fillGridDeterministic(Ref0, 77);
  copyGrid(Ref0, Ref1);
  Grid<T> Nat0 = Ref0, Nat1 = Ref0;
  referenceRun<T>(Program, {&Ref0, &Ref1}, Steps);
  Executor.run<T>({&Nat0, &Nat1}, Steps);
  const Grid<T> &Want = Steps % 2 == 0 ? Ref0 : Ref1;
  const Grid<T> &Got = Steps % 2 == 0 ? Nat0 : Nat1;
  return Want.raw() == Got.raw();
}

/// Compiles (or fetches), loads and times the native kernel on the
/// CPU-sized measurement problem; prints throughput and cache behavior.
/// \p Repeats > 1 keeps the fastest run (--measure-repeats).
template <typename T>
bool runNativeTimed(const StencilProgram &Program, const BlockConfig &Config,
                    const NativeRuntimeOptions &NativeOpts, int Repeats) {
  NativeExecutor Executor(Program, Config, NativeOpts);
  if (!Executor.ok()) {
    std::fprintf(stderr, "an5dc: %s\n", Executor.error().c_str());
    return false;
  }
  if (Executor.cacheHit())
    std::printf("kernel cache: hit (%s)\n", Executor.libraryPath().c_str());
  else
    std::printf("kernel cache: miss, compiled in %.2f s (%s)\n",
                Executor.compileSeconds(), Executor.libraryPath().c_str());

  ProblemSize Problem = nativeMeasurementProblem(Program.numDims());
  Repeats = std::max(1, Repeats);
  // The same warmup/pin/best-of/clamp protocol the tune sweep uses, so
  // --run-native numbers are directly comparable to --measure native.
  KernelTiming Timing = timeNativeKernel<T>(
      Executor, Problem, Program.radius(), Repeats, NativeOpts.Threads);
  if (Timing.Rc != 0) {
    std::fprintf(stderr, "an5dc: native kernel rejected the run (code %d)\n",
                 Timing.Rc);
    return false;
  }
  double CellUpdates = static_cast<double>(Problem.cellCount()) *
                       static_cast<double>(Problem.TimeSteps);
  double Gflops = static_cast<double>(Program.flopsPerCell().total()) *
                  CellUpdates / Timing.Seconds / 1e9;
  std::printf("native run (%s, %s): %.3f s (best of %d), %.2f GFLOP/s on "
              "%d thread(s)\n",
              Config.toString().c_str(), Problem.toString().c_str(),
              Timing.Seconds, Repeats, Gflops, Timing.ThreadsUsed);
  return true;
}

/// Flushes the observability outputs on every exit path: installed right
/// after argument parsing, so a tune that fails halfway still leaves its
/// partial trace and metrics behind for diagnosis.
struct ObsFlushGuard {
  const CliOptions &Options;

  explicit ObsFlushGuard(const CliOptions &Options) : Options(Options) {
    if (!Options.TracePath.empty() || Options.ObsSummary)
      obs::TraceRecorder::global().enable();
  }

  ~ObsFlushGuard() {
    obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
    obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();

    if (!Options.TracePath.empty()) {
      std::ofstream Out(Options.TracePath);
      Out << Recorder.toChromeTraceJson();
      if (Out)
        std::printf("wrote trace %s (load it in Perfetto or "
                    "chrome://tracing)\n",
                    Options.TracePath.c_str());
      else
        std::fprintf(stderr, "an5dc: cannot write trace file %s\n",
                     Options.TracePath.c_str());
    }

    if (!Options.MetricsPath.empty()) {
      std::ofstream Out(Options.MetricsPath);
      Out << Registry.toJson(&Recorder);
      if (Out)
        std::printf("wrote metrics %s\n", Options.MetricsPath.c_str());
      else
        std::fprintf(stderr, "an5dc: cannot write metrics file %s\n",
                     Options.MetricsPath.c_str());
    }

    if (Options.ObsSummary) {
      std::string Spans = Recorder.summaryTable();
      if (!Spans.empty())
        std::printf("--- span summary ---\n%s", Spans.c_str());
      std::string Metrics = Registry.summaryTable();
      if (!Metrics.empty())
        std::printf("--- metrics ---\n%s", Metrics.c_str());
    }

    // The kernel-cache scoreboard prints whenever this run touched the
    // cache at all — cheap visibility into whether a tune re-used or
    // re-built its kernels, no flag needed.
    long long Hits = Registry.counterValue("kernel_cache.hits");
    long long Misses = Registry.counterValue("kernel_cache.misses");
    long long Failures = Registry.counterValue("kernel_cache.failures");
    long long Evictions = Registry.counterValue("kernel_cache.evictions");
    if (Hits + Misses + Failures > 0)
      std::printf("kernel cache: %lld hit(s), %lld miss(es), %lld "
                  "failure(s), %lld eviction(s), %.0f%% hit rate\n",
                  Hits, Misses, Failures, Evictions,
                  Hits + Misses > 0
                      ? 100.0 * static_cast<double>(Hits) /
                            static_cast<double>(Hits + Misses)
                      : 0.0);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Options;
  if (!parseArgs(Argc, Argv, Options)) {
    printUsage();
    return 2;
  }

  // Flagless observability for wrapped invocations (CI, bench scripts):
  // the environment supplies the paths the flags would.
  if (Options.TracePath.empty())
    if (const char *Env = std::getenv("AN5D_TRACE"); Env && *Env)
      Options.TracePath = Env;
  if (Options.MetricsPath.empty())
    if (const char *Env = std::getenv("AN5D_METRICS"); Env && *Env)
      Options.MetricsPath = Env;
  // Every return below flows through the guard's flush.
  ObsFlushGuard ObsFlush(Options);

  if (Options.ListBenchmarks) {
    for (const std::string &Name : benchmarkStencilNames())
      std::printf("%s\n", Name.c_str());
    for (const std::string &Name : extraStencilNames())
      std::printf("%s\n", Name.c_str());
    return 0;
  }

  // Obtain the stencil: built-in benchmark or parsed C input.
  std::unique_ptr<StencilProgram> Program;
  if (!Options.Benchmark.empty()) {
    Program = makeBenchmarkStencil(
        Options.Benchmark, Options.Type.value_or(ScalarType::Float));
    if (!Program) {
      std::fprintf(stderr, "an5dc: unknown benchmark '%s'\n",
                   Options.Benchmark.c_str());
      return 2;
    }
  } else {
    if (Options.InputPath.empty()) {
      std::fprintf(stderr, "an5dc: no input file\n");
      printUsage();
      return 2;
    }
    std::ifstream In(Options.InputPath);
    if (!In) {
      std::fprintf(stderr, "an5dc: cannot open '%s'\n",
                   Options.InputPath.c_str());
      return 2;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    std::string Name = Options.Name.empty()
                           ? std::filesystem::path(Options.InputPath)
                                 .stem()
                                 .string()
                           : Options.Name;
    DiagnosticEngine Diags;
    StencilExtractor Extractor(Diags);
    auto Result =
        Extractor.extractFromSource(Buffer.str(), Name, Options.Type);
    if (!Result) {
      std::fprintf(stderr, "%s", Diags.toString().c_str());
      return 1;
    }
    Program = std::move(Result->Program);
  }

  // Opt-in normalization passes (these change floating-point rounding;
  // the default pipeline stays bit-exact with the input program).
  if (Options.Simplify || Options.DivToMul) {
    ExprPtr Update = Program->update().clone();
    if (Options.Simplify) {
      SimplifyStats Stats;
      Update = simplifyExpr(std::move(Update), Program.get(), &Stats);
      std::printf("simplify: folded %d constants, removed %d identities\n",
                  Stats.ConstantsFolded, Stats.IdentitiesRemoved);
    }
    if (Options.DivToMul) {
      int Rewritten = 0;
      Update = rewriteDivisionByConstant(std::move(Update), Program.get(),
                                         &Rewritten);
      std::printf("div-to-mul: rewrote %d division(s) by a constant "
                  "(Section 7.1 work-around)\n",
                  Rewritten);
    }
    Program = std::make_unique<StencilProgram>(
        Program->name(), Program->numDims(), Program->elemType(),
        Program->arrayName(), std::move(Update), Program->coefficients());
  }

  if (Options.PrintStencil)
    std::printf("%s\n  class: %s, FLOP/cell: %lld, effALU: %.3f\n",
                Program->toString().c_str(),
                optimizationClassName(Program->optimizationClass()),
                Program->flopsPerCell().total(),
                Program->instructionMix().aluEfficiency());

  GpuSpec Spec =
      Options.UseP100 ? GpuSpec::teslaP100() : GpuSpec::teslaV100();
  ProblemSize Problem = ProblemSize::paperDefault(Program->numDims());

  // A thread request applies to every native-kernel run this invocation
  // makes (--run-native, --verify-native, and — via the Runtime copy
  // below — the measured tune sweep).
  if (Options.MeasureThreads > 0)
    Options.NativeOpts.Threads = Options.MeasureThreads;

  bool NativeMeasure =
      Options.Tuning.Backend == MeasurementBackend::Native;

  // Configuration: manual, tuned, or a sensible default.
  BlockConfig Config;
  if (Options.Tune) {
    // The native backend times real kernels on this CPU, so it tunes over
    // the CPU-sized measurement problem (the paper-default extents are
    // sized for a V100) and narrows the default top-K — each candidate
    // costs a compile. `Problem` itself stays on the paper default so
    // --print-model / --report keep their usual meaning.
    ProblemSize TuneProblem = Problem;
    if (NativeMeasure) {
      TuneProblem = nativeMeasurementProblem(Program->numDims());
      if (!Options.TopKSet)
        Options.Tuning.TopK = 8;
      Options.Tuning.Native.Runtime = Options.NativeOpts;
      if (Options.MeasureRepeats > 0)
        Options.Tuning.Native.Repeats = Options.MeasureRepeats;
    }
    Tuner T(Spec);
    TuneOutcome Outcome = T.tune(*Program, TuneProblem, Options.Tuning);
    if (Outcome.MeasurementFailures > 0) {
      // Distinct from "infeasible": these candidates never produced a
      // measurement (usually a broken host compiler, not a bad config).
      // Flatten the reason — compile failures span several lines and the
      // first one alone is a contentless "kernel build failed:" header.
      std::string Reason = Outcome.FirstFailureReason.substr(0, 300);
      for (char &C : Reason)
        if (C == '\n')
          C = ' ';
      if (Outcome.FirstFailureReason.size() > 300)
        Reason += "...";
      // The kind label is the same vocabulary the metrics counters use
      // (measure.failures.<label>), so the warning, the metrics export
      // and TuneOutcome all classify a failure identically.
      std::fprintf(stderr,
                   "an5dc: warning: %zu candidate kernel(s) failed to "
                   "compile or run (first [%s]: %s)\n",
                   Outcome.MeasurementFailures,
                   measureFailureKindLabel(Outcome.FirstFailureKind),
                   Reason.c_str());
    }
    if (!Outcome.Feasible) {
      std::fprintf(stderr, "an5dc: tuning found no feasible config\n");
      return 1;
    }
    Config = Outcome.Best;
    if (NativeMeasure)
      std::printf("tuned: %s  (native %.2f GFLOP/s measured on host CPU, "
                  "%.3f s)\n",
                  Config.toString().c_str(),
                  Outcome.BestMeasured.MeasuredGflops,
                  Outcome.BestMeasured.MeasuredTimeSeconds);
    else
      std::printf("tuned: %s  (simulated %.0f GFLOP/s on %s)\n",
                  Config.toString().c_str(),
                  Outcome.BestMeasured.MeasuredGflops, Spec.Name.c_str());
  } else {
    Config.BT = Options.BT > 0 ? Options.BT : 4;
    if (!Options.BS.empty())
      Config.BS = Options.BS;
    else if (Program->numDims() == 2)
      Config.BS = {256};
    else if (Program->numDims() == 3)
      Config.BS = {32, 32};
    // 1D: BS stays empty (pure streaming; see model/BlockConfig.h).
    Config.HS = Options.HS >= 0 ? Options.HS
                                : (Program->numDims() == 3 ? 128 : 256);
    Config.RegisterCap = Options.Regs;
    if (static_cast<int>(Config.BS.size()) != Program->numDims() - 1) {
      std::fprintf(stderr,
                   "an5dc: --bs needs %d value(s) for a %dD stencil\n",
                   Program->numDims() - 1, Program->numDims());
      return 1;
    }
    if (!Config.isFeasible(Program->radius())) {
      std::fprintf(stderr,
                   "an5dc: configuration %s is infeasible for radius %d\n",
                   Config.toString().c_str(), Program->radius());
      return 1;
    }
  }

  // A CPU kernel takes any legal block, and a native tune may pick one
  // wider than a GPU can launch; only the outputs that model or emit the
  // CUDA kernel need the device's thread cap.
  if ((Options.Report || Options.PrintModel ||
       !Options.EmitCudaDir.empty()) &&
      !Config.isFeasible(Program->radius(), Spec.MaxThreadsPerBlock)) {
    std::fprintf(stderr,
                 "an5dc: %s has %lld threads per block, above the "
                 "%d-thread cap of %s (--emit-cuda, --print-model and "
                 "--report need a launchable block)\n",
                 Config.toString().c_str(), Config.numThreads(),
                 Spec.MaxThreadsPerBlock, Spec.Name.c_str());
    return 1;
  }

  if (!Options.AnalyzePath.empty()) {
    // The dataflow pass pipeline over the lowered schedule, plus the
    // per-candidate resource estimate, as one machine-readable report.
    // Error-severity findings fail the invocation after the report is
    // written — the artifact is the point, reviewers read it either way.
    ScheduleIR Lowered = lowerSchedule(*Program, Config);
    AnalysisInput PassInput;
    PassInput.Program = Program.get();
    PassInput.Schedule = &Lowered;
    AnalysisReport Analysis =
        AnalysisPassManager::standardPipeline().run(PassInput);
    ResourceEstimate Resources = estimateResources(*Program, Lowered);

    std::string Json = "{\"schema\":\"an5d-analysis-v1\",\"stencil\":";
    obs::appendJsonString(Json, Program->name());
    Json += ",\"config\":";
    obs::appendJsonString(Json, Config.toString());
    Json += ",\"errors\":" + std::to_string(Analysis.errorCount());
    Json += ",\"warnings\":" + std::to_string(Analysis.countBySeverity(
                                   FindingSeverity::Warn));
    Json += ",\"infos\":" + std::to_string(Analysis.countBySeverity(
                                FindingSeverity::Info));
    Json += ",\"findings\":" + Analysis.toJson();
    Json += ",\"resources\":";
    appendResourceJson(Json, Resources);
    Json += "}\n";

    if (Options.AnalyzePath == "-") {
      std::fwrite(Json.data(), 1, Json.size(), stdout);
    } else {
      std::ofstream Out(Options.AnalyzePath);
      if (!Out) {
        std::fprintf(stderr, "an5dc: cannot write '%s'\n",
                     Options.AnalyzePath.c_str());
        return 1;
      }
      Out << Json;
      std::printf("analyze (%s): %zu finding(s), %zu error(s); report "
                  "written to %s\n",
                  Config.toString().c_str(), Analysis.Findings.size(),
                  Analysis.errorCount(), Options.AnalyzePath.c_str());
    }
    if (!Analysis.proven()) {
      std::fprintf(stderr, "an5dc: static analysis found %zu error(s):\n%s",
                   Analysis.errorCount(), Analysis.toString().c_str());
      return 1;
    }
  }

  if (Options.Lint) {
    // Lint the sources --emit-omp and --emit-check would write for this
    // configuration (JIT candidates are additionally linted through
    // NativeRuntimeOptions::LintKernels, set alongside this flag).
    bool Clean = true;
    auto LintOne = [&](const std::string &Source, LintTarget Target,
                       const char *Tag) {
      LintReport Report = lintTranslationUnit(Source, Target,
                                              Program->elemType());
      if (Report.clean()) {
        std::printf("lint (%s, %s): clean\n", Tag,
                    Config.toString().c_str());
      } else {
        std::fprintf(stderr, "an5dc: lint failed for the %s:\n%s", Tag,
                     Report.toString().c_str());
        Clean = false;
      }
    };
    LintOne(generateCppKernelLibrary(*Program, Config),
            LintTarget::KernelLibrary, "kernel library");
    ProblemSize CheckSize;
    CheckSize.Extents = Program->numDims() == 1
                            ? std::vector<long long>{95}
                        : Program->numDims() == 2
                            ? std::vector<long long>{40, 37}
                            : std::vector<long long>{14, 12, 11};
    CheckSize.TimeSteps = 11;
    LintOne(generateCppCheckProgram(
                *Program, verificationConfig(*Program, Config), CheckSize),
            LintTarget::CheckProgram, "check program");
    if (!Clean)
      return 1;
  }

  if (Options.Report)
    std::printf("%s", renderScheduleReport(*Program, Spec, Config, Problem)
                          .c_str());

  if (Options.PrintModel) {
    ModelBreakdown Model = evaluateModel(*Program, Spec, Config, Problem);
    std::printf("model (%s, %s): %s\n", Spec.Name.c_str(),
                Problem.toString().c_str(), Model.toString().c_str());
    MeasuredResult Measured =
        simulateMeasured(*Program, Spec, Config, Problem);
    if (Measured.Feasible)
      std::printf("simulated measurement: %.0f GFLOP/s (accuracy %.0f%%)\n",
                  Measured.MeasuredGflops,
                  100 * Measured.modelAccuracy());
  }

  if (Program->numDims() == 1 && !Options.EmitLoopTilingDir.empty()) {
    // generateCuda renders the 1D pure-streaming schedule, but the
    // loop-tiling baseline generator only knows 2D/3D kernel shapes.
    std::fprintf(stderr,
                 "an5dc: the loop-tiling CUDA baseline does not support 1D "
                 "stencils (use --emit-cuda for the blocked kernel)\n");
    return 1;
  }

  if (!Options.EmitCudaDir.empty()) {
    std::filesystem::create_directories(Options.EmitCudaDir);
    GeneratedCuda Cuda = generateCuda(*Program, Config, Options.Codegen);
    std::string Base = Options.EmitCudaDir + "/" + Cuda.KernelName;
    std::ofstream(Base + ".cu") << Cuda.KernelSource;
    std::ofstream(Base + "_host.cpp") << Cuda.HostSource;
    std::printf("wrote %s.cu and %s_host.cpp\n", Base.c_str(), Base.c_str());
  }

  if (!Options.EmitLoopTilingDir.empty()) {
    std::filesystem::create_directories(Options.EmitLoopTilingDir);
    GeneratedLoopTiling Baseline = generateLoopTilingCuda(*Program);
    std::string Path = Options.EmitLoopTilingDir + "/" +
                       Baseline.KernelName + ".cu";
    std::ofstream(Path) << Baseline.Source;
    std::printf("wrote %s (baseline, no temporal blocking)\n",
                Path.c_str());
  }

  if (!Options.EmitCheckDir.empty()) {
    std::filesystem::create_directories(Options.EmitCheckDir);
    BlockConfig Small = verificationConfig(*Program, Config);
    ProblemSize CheckSize;
    CheckSize.Extents = Program->numDims() == 1
                            ? std::vector<long long>{95}
                        : Program->numDims() == 2
                            ? std::vector<long long>{40, 37}
                            : std::vector<long long>{14, 12, 11};
    CheckSize.TimeSteps = 11;
    std::string Path = Options.EmitCheckDir + "/" +
                       Program->name() + "_check.cpp";
    std::ofstream(Path) << generateCppCheckProgram(*Program, Small,
                                                   CheckSize);
    std::printf("wrote %s\n", Path.c_str());
  }

  if (!Options.EmitOmpDir.empty()) {
    std::filesystem::create_directories(Options.EmitOmpDir);
    std::string Path =
        Options.EmitOmpDir + "/" + Program->name() + "_omp.cpp";
    std::ofstream(Path) << generateCppKernelLibrary(*Program, Config);
    std::printf("wrote %s (callable kernel library, an5d_run ABI)\n",
                Path.c_str());
  }

  if (Options.RunNative) {
    bool Ok = Program->elemType() == ScalarType::Float
                  ? runNativeTimed<float>(*Program, Config,
                                          Options.NativeOpts,
                                          Options.MeasureRepeats)
                  : runNativeTimed<double>(*Program, Config,
                                           Options.NativeOpts,
                                           Options.MeasureRepeats);
    if (!Ok)
      return 1;
  }

  if (Options.VerifyNative) {
    const ProblemSize Problem = nativeVerificationProblem(*Program, Config);
    bool Ok = Program->elemType() == ScalarType::Float
                  ? verifyNativeKernel<float>(*Program, Config, Problem,
                                              Options.NativeOpts)
                  : verifyNativeKernel<double>(*Program, Config, Problem,
                                               Options.NativeOpts);
    std::printf("verify-native (%s, %s): %s\n", Config.toString().c_str(),
                Problem.toString().c_str(),
                Ok ? "native == reference (bitwise)" : "MISMATCH");
    if (!Ok)
      return 1;
  }

  if (Options.Verify) {
    BlockConfig Small = verificationConfig(*Program, Config);
    bool Ok = Program->elemType() == ScalarType::Float
                  ? verifyBlocked<float>(*Program, Small)
                  : verifyBlocked<double>(*Program, Small);
    std::printf("verify (%s): %s\n", Small.toString().c_str(),
                Ok ? "blocked == reference (bitwise)" : "MISMATCH");
    if (!Ok)
      return 1;
  }
  return 0;
}
