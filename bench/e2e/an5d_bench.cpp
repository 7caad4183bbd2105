//===- an5d_bench.cpp - End-to-end AN5D benchmark ---------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark: time from DSL text to a tuned, loaded and
/// bit-verified native kernel, and that kernel's speed next to a fixed
/// reference kernel on cache-resident and DRAM-resident grids.
///
///   an5d_bench --workload W [--seed N] [--seconds S] [--trace DIR]
///              [--work DIR] [--smoke] [--expect BENCHMARK.json]
///
/// One process runs one workload as a closed loop with one client, using
/// at most `nproc` kernel threads and `nproc` compile workers. Every layer
/// is measured from outside, by timing calls into its public functions;
/// with --trace those calls are additionally wrapped in `bench.<layer>.*`
/// spans for one extra traced pass, next to the spans the library already
/// records. The last line of stdout is one JSON object: end-to-end
/// metrics, or the per-layer metrics when --trace is given. The exit code
/// is non-zero when any validity check failed. bench/e2e/README.md has
/// the glossary and the reasons behind each workload.
///
//===----------------------------------------------------------------------===//

#include "Machine.h"

#include "analysis/passes/AnalysisPass.h"
#include "analysis/passes/ResourceEstimator.h"
#include "codegen/CppCodegen.h"
#include "frontend/StencilExtractor.h"
#include "model/GpuSpec.h"
#include "obs/JsonLite.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/KernelCache.h"
#include "runtime/NativeCompiler.h"
#include "runtime/NativeExecutor.h"
#include "runtime/NativeMeasurement.h"
#include "schedule/ScheduleIR.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace an5d;
using namespace an5d::bench;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Median and quartiles of one sample set (linear interpolation between
/// order statistics).
struct Summary {
  double Median = 0, Q1 = 0, Q3 = 0;
  std::size_t N = 0;
};

Summary summarize(std::vector<double> Values) {
  Summary S;
  S.N = Values.size();
  if (Values.empty())
    return S;
  std::sort(Values.begin(), Values.end());
  auto Quantile = [&](double P) {
    double Pos = P * static_cast<double>(Values.size() - 1);
    std::size_t Lo = static_cast<std::size_t>(Pos);
    std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
    return Values[Lo] + (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
  };
  S.Median = Quantile(0.5);
  S.Q1 = Quantile(0.25);
  S.Q3 = Quantile(0.75);
  return S;
}

/// Kendall tau-b between the model's order (position 0 ranked best) and
/// the measured throughputs \p Gflops, over the candidates that ran.
double kendallTau(const std::vector<double> &Gflops) {
  long long Concordant = 0, Discordant = 0, Ties = 0, Pairs = 0;
  for (std::size_t I = 0; I < Gflops.size(); ++I)
    for (std::size_t J = I + 1; J < Gflops.size(); ++J) {
      ++Pairs;
      if (Gflops[I] > Gflops[J])
        ++Concordant;
      else if (Gflops[I] < Gflops[J])
        ++Discordant;
      else
        ++Ties;
    }
  double Denominator = std::sqrt(static_cast<double>(Pairs) *
                                 static_cast<double>(Pairs - Ties));
  return Denominator > 0
             ? static_cast<double>(Concordant - Discordant) / Denominator
             : 0.0;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One stencil as the user writes it: DSL text plus the values of its free
/// coefficients. The program under test sees only this text and the
/// generated grids.
struct StencilSource {
  std::string Name;
  std::string Text;
  std::map<std::string, double> Coefficients;
  /// Shape of the grids the benchmark allocates before the first parse.
  int NumDims;
  int Radius;
  /// Runs in every workload, so its per-stencil metrics are in every
  /// result line.
  bool EveryWorkload;
};

std::vector<StencilSource> stencilSources() {
  return {{"j2d5pt", j2d5ptSource(), {}, 2, 1, true},
          {"j2d9pt", j2d9ptSource(),
           makeJacobi2d9pt(ScalarType::Float)->coefficients(), 2, 2, false},
          {"star3d1r", star3d1rSource(), {}, 3, 1, true}};
}

std::uint64_t mix64(std::uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Fills every cell (halo included) with a value in (0, 1) derived from
/// (Seed, index) alone, so the result does not depend on the thread split
/// and both ping-pong buffers can be given identical boundaries.
void fillCells(float *Data, long long Count, std::uint64_t Seed,
               int Threads) {
  parallelFor(Threads, Count, [=](long long Begin, long long End) {
    for (long long I = Begin; I < End; ++I) {
      std::uint64_t Bits = mix64(Seed ^ mix64(static_cast<std::uint64_t>(I)));
      // 23 random bits: (2k + 1) / 2^24 is exact in float.
      Data[I] = (static_cast<float>(Bits >> 41) + 0.5f) * 0x1p-23f;
    }
  });
}

/// FNV-1a over the output bits (per thread slice, slices combined in
/// order) plus the count of subnormal cells.
struct OutputScan {
  std::uint64_t Hash = 0;
  long long Subnormals = 0;
};

OutputScan scanOutput(const float *Data, long long Count, int Threads) {
  std::vector<std::uint64_t> Hashes(static_cast<std::size_t>(Threads));
  std::vector<long long> Subnormals(static_cast<std::size_t>(Threads));
  parallelFor(Threads, Threads, [&](long long First, long long Last) {
    for (long long T = First; T < Last; ++T) {
      std::uint64_t H = 0xCBF29CE484222325ULL;
      long long Sub = 0;
      for (long long I = Count * T / Threads; I < Count * (T + 1) / Threads;
           ++I) {
        std::uint32_t Bits;
        std::memcpy(&Bits, Data + I, sizeof(Bits));
        H = (H ^ Bits) * 0x100000001B3ULL;
        Sub += (Bits & 0x7F800000u) == 0 && (Bits & 0x007FFFFFu) != 0;
      }
      Hashes[static_cast<std::size_t>(T)] = H;
      Subnormals[static_cast<std::size_t>(T)] = Sub;
    }
  });
  OutputScan Scan;
  Scan.Hash = 0xCBF29CE484222325ULL;
  for (int T = 0; T < Threads; ++T) {
    Scan.Hash = (Scan.Hash ^ Hashes[static_cast<std::size_t>(T)]) *
                0x100000001B3ULL;
    Scan.Subnormals += Subnormals[static_cast<std::size_t>(T)];
  }
  return Scan;
}

//===----------------------------------------------------------------------===//
// Reference kernels
//===----------------------------------------------------------------------===//

/// A frozen copy of one stencil's generated bT=1 kernel library
/// (bench/e2e/reference/), built by this package with the flags the native
/// compiler used when it was generated. Later changes to the code
/// generator, the compiler flags or the runtime do not reach it, so its
/// time over the tuned kernel's time is a speed-up against a fixed
/// baseline. It shares the generated kernels' structure, so a busy host
/// slows both alike and the ratio holds where absolute throughput does not
/// (README "Noise").
class ReferenceKernel {
public:
  ReferenceKernel(const std::string &Stencil, int Threads) {
    std::string Path = std::string(AN5D_E2E_REFERENCE_DIR) +
                       "/an5d_e2e_reference_" + Stencil + ".so";
    // Never unloaded while the process runs: libgomp's pool threads may
    // still sit in the library's code after a run returns.
    Handle = ::dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL | RTLD_NODELETE);
    if (!Handle) {
      Error = "cannot load " + Path + ": " + ::dlerror();
      return;
    }
    auto SetThreads = reinterpret_cast<void (*)(int)>(
        ::dlsym(Handle, "an5d_set_threads"));
    Run = reinterpret_cast<RunFn>(::dlsym(Handle, "an5d_run"));
    if (!SetThreads || !Run) {
      Error = Path + " lacks an5d_set_threads or an5d_run";
      Run = nullptr;
      return;
    }
    SetThreads(Threads);
  }
  ~ReferenceKernel() {
    if (Handle)
      ::dlclose(Handle);
  }
  ReferenceKernel(const ReferenceKernel &) = delete;
  ReferenceKernel &operator=(const ReferenceKernel &) = delete;

  bool ok() const { return Run != nullptr; }
  const std::string &error() const { return Error; }

  int run(float *Buf0, float *Buf1, const long long *Extents,
          long long Steps) const {
    return Run(Buf0, Buf1, Extents, Steps);
  }

private:
  using RunFn = int (*)(void *, void *, const long long *, long long);
  void *Handle = nullptr;
  RunFn Run = nullptr;
  std::string Error;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class ProblemClass { Tune, Cache, Dram };

struct Workload {
  const char *Name;
  ProblemClass Problem;
  /// Every setup tunes into a fresh, empty kernel cache.
  bool ColdCache;
};

// Why these four: tune_cold is dominated by the host compiler, tune_warm
// by everything else on the way to a tuned kernel (no compile runs, so a
// compile-only change must not move it), run_cache by the kernels' own
// compute (memory traffic is not the bound), and run_dram by the memory
// traffic temporal blocking exists to cut.
const Workload Workloads[] = {
    {"tune_cold", ProblemClass::Tune, true},
    {"tune_warm", ProblemClass::Tune, false},
    {"run_cache", ProblemClass::Cache, false},
    {"run_dram", ProblemClass::Dram, false},
};

/// Largest subnormal share of an output before the run is invalid: past
/// it the timing measures FPU assists, not the stencil.
constexpr double MaxSubnormalFrac = 1e-3;

/// Timed setups per run of the run workloads; the tune workloads repeat
/// for --seconds, at least this often. setup_s is their median.
constexpr int MinSetups = 3;

/// Sampling time of the tune workloads, whose samples take milliseconds.
constexpr double TuneSampleSeconds = 2.0;

/// The stencil whose speed-up is an end-to-end metric of its own. It runs
/// in every workload, and its ratio holds steady from run to run; the 3D
/// stencil's does not (README "Bounds and the record"), so its speed-up
/// is a per-layer metric and counts in speedup_x.
constexpr const char *HeadlineStencil = "j2d5pt";

struct Settings {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  std::string TraceDir;
  std::string WorkDir = ".bench_build/e2e/work";
  bool Smoke = false;
  std::string Expect;

  /// CPUs this process may use: kernel threads, compile workers, fills.
  int Cpus = 1;
  LlcInfo Llc;
};

long long roundUp(long long Value, long long Multiple) {
  return (Value + Multiple - 1) / Multiple * Multiple;
}

/// The tuner's problem: nativeMeasurementProblem, as `an5dc --tune
/// --measure native` uses.
ProblemSize tuneProblem(int NumDims, const Settings &Cfg) {
  if (!Cfg.Smoke)
    return nativeMeasurementProblem(NumDims);
  ProblemSize P;
  P.Extents.assign(static_cast<std::size_t>(NumDims), NumDims == 3 ? 16 : 64);
  P.TimeSteps = 4;
  return P;
}

/// Candidates the tuner measures: top-K 8, as `an5dc --tune` uses; a smoke
/// run measures one.
std::size_t tuneTopK(const Settings &Cfg) { return Cfg.Smoke ? 1 : 8; }

/// The timed problem of \p Class. Cache: both buffers of a stencil fit in
/// half the LLC. DRAM: each buffer holds at least one LLC (every extent a
/// multiple of 64); README "Problems" gives the reason it is not four.
/// Steps cover the largest bT the tuner may pick (16 in 2D, 8 in 3D) and
/// stay <= 64, so j2d5pt's 0.42 per-step decay cannot drive the interior
/// subnormal.
ProblemSize runProblem(ProblemClass Class, int NumDims, const Settings &Cfg) {
  if (Class == ProblemClass::Tune)
    return tuneProblem(NumDims, Cfg);
  ProblemSize P;
  long long Side = 0;
  if (Cfg.Smoke) {
    Side = NumDims == 3 ? 24 : 96;
    P.TimeSteps = 8;
  } else if (Class == ProblemClass::Cache) {
    Side = NumDims == 3 ? 192 : 3072;
    P.TimeSteps = NumDims == 3 ? 16 : 32;
  } else {
    double Cells = static_cast<double>(Cfg.Llc.Bytes) / sizeof(float);
    Side = roundUp(static_cast<long long>(std::ceil(
                       NumDims == 3 ? std::cbrt(Cells) : std::sqrt(Cells))),
                   64);
    P.TimeSteps = NumDims == 3 ? 8 : 16;
  }
  P.Extents.assign(static_cast<std::size_t>(NumDims), Side);
  return P;
}

long long paddedCells(const ProblemSize &P, int Radius) {
  long long Cells = 1;
  for (long long E : P.Extents)
    Cells *= E + 2 * Radius;
  return Cells;
}

double cellUpdates(const ProblemSize &P) {
  return static_cast<double>(P.cellCount()) * static_cast<double>(P.TimeSteps);
}

/// Counts attempted operations and failures; every failure is reported on
/// stderr and makes the process exit non-zero.
struct Ledger {
  long long Attempted = 0;
  long long Failed = 0;

  bool record(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "an5d_bench: FAILED: %s\n", What.c_str());
    }
    return Ok;
  }
};

using MetricList =
    std::vector<std::pair<std::string, std::pair<double, const char *>>>;

/// The kernels a sample round times, per stencil.
enum class Variant { Tuned, Reference, Bt1 };
constexpr int NumVariants = 3;

const char *variantName(Variant V) {
  switch (V) {
  case Variant::Tuned:
    return "tuned";
  case Variant::Reference:
    return "reference";
  case Variant::Bt1:
    return "bT=1";
  }
  return "?";
}

/// What one timed setup returned for one stencil.
struct Pick {
  BlockConfig Config;
  ScheduleIR IR;
  std::unique_ptr<NativeExecutor> Tuned;
  /// The same configuration at bT=1; built in traced runs only.
  std::unique_ptr<NativeExecutor> Bt1;
};

/// Everything the benchmark holds for one stencil of the workload.
struct StencilRun {
  const StencilSource *Source = nullptr;
  std::uint64_t FillSeed = 0;
  ProblemSize Run;
  std::unique_ptr<ReferenceKernel> Reference;

  /// The latest setup's program, pick and loaded kernel.
  std::unique_ptr<StencilProgram> Program;
  BlockConfig Tuned;
  ScheduleIR TunedIR;
  std::size_t Candidates = 0;
  std::unique_ptr<NativeExecutor> TunedKernel;

  /// One per timed setup. Round r times pick r % Picks.size(): the tuner
  /// does not pick the same configuration every time, and the result
  /// should cover what the run's tunes returned, not one draw.
  std::vector<Pick> Picks;
  const Pick &pickOfRound(int Round) const {
    return Picks[static_cast<std::size_t>(Round) % Picks.size()];
  }
  /// Sample times by Variant, one entry per round.
  std::vector<double> Seconds[NumVariants];
  std::vector<double> TriadBeforeSample; ///< DRAM: one per tuned sample.
  std::optional<std::uint64_t> OutputHash;
  double WorstSubnormalFrac = 0;

  const std::vector<double> &times(Variant V) const {
    return Seconds[static_cast<int>(V)];
  }
  /// Reference time over tuned time, per round.
  std::vector<double> speedups() const {
    std::vector<double> Ratios;
    const std::vector<double> &Ref = times(Variant::Reference);
    const std::vector<double> &Tun = times(Variant::Tuned);
    for (std::size_t I = 0; I < std::min(Ref.size(), Tun.size()); ++I)
      Ratios.push_back(Ref[I] / Tun[I]);
    return Ratios;
  }
};

using KernelRun = std::function<int(float *, float *, const long long *,
                                     long long)>;

class Bench {
public:
  Bench(const Workload &W, const Settings &Cfg)
      : W(W), Cfg(Cfg), Sources(stencilSources()) {
    // run_dram runs the 2D and 3D radius-1 stencils only; a smoke run
    // keeps to those too, for time.
    std::vector<const StencilSource *> Chosen;
    for (const StencilSource &S : Sources)
      if (S.EveryWorkload || (W.Problem != ProblemClass::Dram && !Cfg.Smoke))
        Chosen.push_back(&S);
    // The seed picks the stencil order (Fisher-Yates) and the fill seeds.
    for (std::size_t I = Chosen.size(); I > 1; --I)
      std::swap(Chosen[I - 1], Chosen[mix64(Cfg.Seed + I) % I]);
    for (const StencilSource *Source : Chosen) {
      StencilRun S;
      S.Source = Source;
      S.FillSeed = mix64(Cfg.Seed * 3 + static_cast<std::uint64_t>(
                                            Source - Sources.data()));
      Stencils.push_back(std::move(S));
    }
    WarmCacheDir = Cfg.WorkDir + "/kcache";
  }
  // Stencils point into Sources.
  Bench(const Bench &) = delete;
  Bench &operator=(const Bench &) = delete;

  /// Runs the workload; false when a step could not proceed at all.
  bool run();

  Ledger Log;
  MetricList EndToEnd;
  MetricList PerLayer;
  std::vector<std::string> Report; ///< Human-readable lines.

private:
  NativeRuntimeOptions runtimeOptions(const std::string &CacheDir) const {
    NativeRuntimeOptions O;
    O.CacheDir = CacheDir;
    O.Threads = Cfg.Cpus;
    return O;
  }

  std::string freshDir(const char *Kind) {
    return Cfg.WorkDir + "/" + Kind + "-" + std::to_string(getpid()) + "-" +
           std::to_string(FreshDirs++);
  }

  bool traced() const { return !Cfg.TraceDir.empty(); }
  bool setupStencil(StencilRun &S, const std::string &CacheDir);
  bool setupAll(const std::string &CacheDir);
  bool timedSetups(long long Capacity);
  bool verify(const StencilRun &S, const KernelRun &Kernel, const char *What);
  void allocateBuffers(long long Capacity);
  void sample(StencilRun &S, Variant V, int Round);
  void sampleRound(int Round);
  bool buildBaselines();
  void computeEndToEnd(double PeakRss);
  bool tracedPass(double UntracedSetupSeconds);
  static void add(MetricList &Into, const std::string &Name, double Value,
                  const char *Unit) {
    Into.push_back({Name, {Value, Unit}});
  }
  void reportSummary(const std::string &Name, const Summary &S,
                     const char *Unit);

  const Workload &W;
  const Settings &Cfg;
  std::vector<StencilSource> Sources;
  std::vector<StencilRun> Stencils;
  std::string WarmCacheDir;
  int FreshDirs = 0;
  std::vector<double> SetupSeconds;

  // Run buffers: owned for the tune and cache classes; for the DRAM class
  // they are the first two arrays of the triad arena.
  std::unique_ptr<TriadArena> Arena;
  std::unique_ptr<float[]> Own0, Own1;
  float *Buf0 = nullptr, *Buf1 = nullptr;

  /// False during the traced round: traced runs split into one kernel
  /// invocation per temporal block, so their times are not comparable.
  bool KeepSamples = true;
};

KernelRun nativeRun(const NativeExecutor &Kernel, int NumDims) {
  return [&Kernel, NumDims](float *B0, float *B1, const long long *Extents,
                            long long Steps) {
    return Kernel.runRaw(B0, B1, Extents, NumDims, Steps);
  };
}

/// The kernel round \p Round times as \p V for stencil \p S.
KernelRun kernelRun(const StencilRun &S, Variant V, int Round) {
  if (V == Variant::Reference) {
    const ReferenceKernel &Kernel = *S.Reference;
    return [&Kernel](float *B0, float *B1, const long long *Extents,
                     long long Steps) {
      return Kernel.run(B0, B1, Extents, Steps);
    };
  }
  const Pick &P = S.pickOfRound(Round);
  return nativeRun(V == Variant::Tuned ? *P.Tuned : *P.Bt1,
                   S.Source->NumDims);
}

/// Runs \p Kernel on the tune problem and compares its output bit for bit
/// with referenceRun.
bool Bench::verify(const StencilRun &S, const KernelRun &Kernel,
                   const char *What) {
  AN5D_TRACE_SPAN("bench.sim.verify");
  const StencilProgram &P = *S.Program;
  ProblemSize Problem = tuneProblem(P.numDims(), Cfg);
  Grid<float> Input(Problem.Extents, P.radius());
  fillCells(Input.data(), static_cast<long long>(Input.size()), S.FillSeed,
            Cfg.Cpus);
  Grid<float> Ref0 = Input, Ref1 = Input;
  referenceRun<float>(P, {&Ref0, &Ref1}, Problem.TimeSteps);
  Grid<float> Nat0 = Input, Nat1 = Input;
  int Rc = Kernel(Nat0.data(), Nat1.data(), Problem.Extents.data(),
                  Problem.TimeSteps);
  const Grid<float> &Ref = Problem.TimeSteps % 2 ? Ref1 : Ref0;
  const Grid<float> &Nat = Problem.TimeSteps % 2 ? Nat1 : Nat0;
  bool Same = Rc == 0 && std::memcmp(Ref.data(), Nat.data(),
                                     Ref.size() * sizeof(float)) == 0;
  return Log.record(Same, std::string(What) + " " + S.Source->Name +
                              " differs from referenceRun (rc " +
                              std::to_string(Rc) + ")");
}

/// The user's flow for one stencil: DSL text -> parse -> native tune ->
/// load the tuned kernel -> bitwise check against referenceRun.
bool Bench::setupStencil(StencilRun &S, const std::string &CacheDir) {
  DiagnosticEngine Diags;
  StencilExtractor Extractor(Diags);
  std::optional<ExtractionResult> Extracted;
  {
    AN5D_TRACE_SPAN("bench.frontend.extract");
    Extracted = Extractor.extractFromSource(S.Source->Text, S.Source->Name,
                                            ScalarType::Float,
                                            S.Source->Coefficients);
  }
  if (!Log.record(Extracted.has_value(),
                  "parse " + S.Source->Name + ": " + Diags.toString()))
    return false;
  S.Program = std::move(Extracted->Program);
  const StencilProgram &P = *S.Program;
  if (!Log.record(P.numDims() == S.Source->NumDims &&
                      P.radius() == S.Source->Radius &&
                      P.elemType() == ScalarType::Float,
                  "parse " + S.Source->Name +
                      ": not the float grid shape the buffers were sized for"))
    return false;

  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = tuneTopK(Cfg);
  Options.Threads = Cfg.Cpus;
  Options.Native.Runtime = runtimeOptions(CacheDir);
  Options.Native.CompileThreads = Cfg.Cpus;
  TuneOutcome Outcome;
  {
    AN5D_TRACE_SPAN("bench.tuning.tune");
    Outcome = Tuner(GpuSpec::teslaV100())
                  .tune(P, tuneProblem(P.numDims(), Cfg), Options);
  }
  // A candidate kernel that failed to build or run is a failure even when
  // another candidate won.
  Log.record(Outcome.MeasurementFailures == 0,
             "tune " + S.Source->Name + ": " +
                 std::to_string(Outcome.MeasurementFailures) +
                 " candidate kernel(s) failed to build or run");
  if (!Log.record(Outcome.Feasible,
                  "tune " + S.Source->Name + ": no feasible configuration"))
    return false;
  S.Tuned = Outcome.Best;
  S.Candidates = Outcome.TopByModel.size();
  {
    AN5D_TRACE_SPAN("bench.schedule.lower");
    S.TunedIR = lowerSchedule(P, S.Tuned);
  }
  KernelCache Cache(CacheDir);
  {
    AN5D_TRACE_SPAN("bench.runtime.load");
    S.TunedKernel = std::make_unique<NativeExecutor>(
        P, S.TunedIR, runtimeOptions(CacheDir), &Cache);
  }
  if (!Log.record(S.TunedKernel->ok(), "load " + S.Source->Name + ": " +
                                           S.TunedKernel->error()))
    return false;
  return verify(S, nativeRun(*S.TunedKernel, P.numDims()), "tuned kernel");
}

bool Bench::setupAll(const std::string &CacheDir) {
  for (StencilRun &S : Stencils)
    if (!setupStencil(S, CacheDir))
      return false;
  return true;
}

void Bench::allocateBuffers(long long Capacity) {
  if (Arena) {
    Buf0 = Arena->array(0);
    Buf1 = Arena->array(1);
  } else {
    Own0.reset(new float[static_cast<std::size_t>(Capacity)]);
    Own1.reset(new float[static_cast<std::size_t>(Capacity)]);
    Buf0 = Own0.get();
    Buf1 = Own1.get();
  }
  // First touch with the same split the kernels' thread pool uses.
  fillCells(Buf0, Capacity, Stencils.front().FillSeed, Cfg.Cpus);
  fillCells(Buf1, Capacity, Stencils.front().FillSeed, Cfg.Cpus);
}

/// The timed setups: everything before the first timed sample. The tune
/// workloads repeat for --seconds, at least MinSetups times; the run
/// workloads set up MinSetups times. A warm setup that compiles anything
/// is a failure: it would time the compiler on the workload that must not.
bool Bench::timedSetups(long long Capacity) {
  const obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  auto Builds = [&] {
    return Registry.counterValue("kernel_cache.misses") +
           Registry.counterValue("kernel_cache.failures");
  };
  auto Begin = Clock::now();
  for (int Iteration = 1;; ++Iteration) {
    std::string Dir = W.ColdCache ? freshDir("cold") : WarmCacheDir;
    long long BuildsBefore = Builds();
    auto Start = Clock::now();
    bool Ok = setupAll(Dir);
    if (Ok)
      allocateBuffers(Capacity);
    SetupSeconds.push_back(secondsSince(Start));
    if (W.ColdCache)
      fs::remove_all(Dir);
    else
      Log.record(Builds() == BuildsBefore,
                 "warm setup " + std::to_string(Iteration) + " built " +
                     std::to_string(Builds() - BuildsBefore) +
                     " kernel(s); the untimed priming pass missed them");
    if (!Ok)
      return false;
    for (StencilRun &S : Stencils)
      S.Picks.push_back({S.Tuned, S.TunedIR, std::move(S.TunedKernel), {}});
    bool Done = Cfg.Smoke ||
                (Iteration >= MinSetups &&
                 (W.Problem != ProblemClass::Tune ||
                  secondsSince(Begin) >= Cfg.Seconds));
    if (Done)
      return true;
  }
}

/// One timed kernel run from a freshly filled input, then the validity
/// checks on its output: every run of a stencil, whichever kernel, must
/// produce the same bits, with few subnormal cells.
void Bench::sample(StencilRun &S, Variant V, int Round) {
  KernelRun Kernel = kernelRun(S, V, Round);
  long long Cells = paddedCells(S.Run, S.Source->Radius);
  double Triad = Arena && V == Variant::Tuned ? Arena->triadGbs() : 0;
  fillCells(Buf0, Cells, S.FillSeed, Cfg.Cpus);
  fillCells(Buf1, Cells, S.FillSeed, Cfg.Cpus);
  double Seconds = 0;
  int Rc = 0;
  {
    AN5D_TRACE_SPAN(V == Variant::Tuned       ? "bench.runtime.run"
                    : V == Variant::Reference ? "bench.runtime.run_reference"
                                              : "bench.runtime.run_bt1");
    auto Start = Clock::now();
    Rc = Kernel(Buf0, Buf1, S.Run.Extents.data(), S.Run.TimeSteps);
    Seconds = secondsSince(Start);
  }
  OutputScan Scan =
      scanOutput(S.Run.TimeSteps % 2 ? Buf1 : Buf0, Cells, Cfg.Cpus);
  if (!S.OutputHash)
    S.OutputHash = Scan.Hash;
  double Subnormal =
      static_cast<double>(Scan.Subnormals) / static_cast<double>(Cells);
  S.WorstSubnormalFrac = std::max(S.WorstSubnormalFrac, Subnormal);
  std::string Problem;
  if (Rc != 0)
    Problem = "rejected (rc " + std::to_string(Rc) + ")";
  else if (Scan.Hash != *S.OutputHash)
    Problem = "output differs from the other runs of this stencil";
  else if (Subnormal > MaxSubnormalFrac)
    Problem = std::to_string(Subnormal * 100) + "% of cells subnormal";
  Log.record(Problem.empty(), std::string(variantName(V)) + " run of " +
                                  S.Source->Name + " at " + S.Run.toString() +
                                  ": " + Problem);
  if (!KeepSamples)
    return;
  S.Seconds[static_cast<int>(V)].push_back(Seconds);
  if (Arena && V == Variant::Tuned)
    S.TriadBeforeSample.push_back(Triad);
}

/// Each stencil runs its kernels back to back: tuned and reference, plus
/// bT=1 in a traced run. The kernel that goes first rotates from round to
/// round, so none inherits a systematically warmer or colder machine.
void Bench::sampleRound(int Round) {
  std::vector<Variant> Order = {Variant::Tuned, Variant::Reference};
  if (traced())
    Order.push_back(Variant::Bt1);
  std::rotate(Order.begin(),
              Order.begin() + Round % static_cast<int>(Order.size()),
              Order.end());
  for (StencilRun &S : Stencils)
    for (Variant V : Order)
      sample(S, V, Round);
}

void Bench::reportSummary(const std::string &Name, const Summary &S,
                          const char *Unit) {
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "  %-26s %12.6g %-8s n=%zu q1 %.6g q3 %.6g", Name.c_str(),
                S.Median, Unit, S.N, S.Q1, S.Q3);
  Report.push_back(Line);
}

/// Builds and checks the bT=1 kernel of every pick: the picked
/// configuration with bT = 1, from the same code generator. Only a traced
/// run times it (for schedule.tb_speedup_x); it is apparatus, not part of
/// the user's setup.
bool Bench::buildBaselines() {
  std::vector<std::pair<StencilRun *, Pick *>> Jobs;
  for (StencilRun &S : Stencils)
    for (Pick &P : S.Picks)
      Jobs.push_back({&S, &P});
  // Compiled like the tuner's candidates: up to one per CPU at a time.
  KernelCache Cache(WarmCacheDir);
  parallelFor(Cfg.Cpus, static_cast<long long>(Jobs.size()),
              [&](long long Begin, long long End) {
                for (long long I = Begin; I < End; ++I) {
                  auto [S, P] = Jobs[static_cast<std::size_t>(I)];
                  BlockConfig Baseline = P->Config;
                  Baseline.BT = 1;
                  P->Bt1 = std::make_unique<NativeExecutor>(
                      *S->Program, lowerSchedule(*S->Program, Baseline),
                      runtimeOptions(WarmCacheDir), &Cache);
                }
              });
  for (auto [S, P] : Jobs)
    if (!Log.record(P->Bt1->ok(), "load bT=1 " + S->Source->Name + ": " +
                                      P->Bt1->error()) ||
        !verify(*S, nativeRun(*P->Bt1, S->Source->NumDims), "bT=1 kernel"))
      return false;
  return true;
}

bool Bench::run() {
  long long Capacity = 0;
  for (StencilRun &S : Stencils) {
    int Radius = S.Source->Radius;
    S.Run = runProblem(W.Problem, S.Source->NumDims, Cfg);
    Capacity = std::max(Capacity, paddedCells(S.Run, Radius));
    if (W.Problem == ProblemClass::Cache && !Cfg.Smoke &&
        2 * paddedCells(S.Run, Radius) * 4 > Cfg.Llc.Bytes / 2) {
      std::fprintf(stderr,
                   "an5d_bench: run_cache needs both buffers of %s (%s) in "
                   "half the LLC (%lld MiB); this host's LLC is too small\n",
                   S.Source->Name.c_str(), S.Run.toString().c_str(),
                   Cfg.Llc.Bytes >> 20);
      return false;
    }
    S.Reference = std::make_unique<ReferenceKernel>(S.Source->Name, Cfg.Cpus);
    if (!Log.record(S.Reference->ok(), S.Reference->error()))
      return false;
  }

  // Warm workloads share one kernel cache. Every run primes it with one
  // untimed pass, so no timed setup compiles even after the code
  // generator changed; the cache persisting across runs only makes that
  // pass cheap. The pass also keeps every CPU busy for seconds, which
  // the cold workload, lacking it, gets from a spin (warmUpCpus).
  if (W.ColdCache)
    warmUpCpus(Cfg.Cpus, Cfg.Smoke ? 0.1 : 1.5);
  else if (!setupAll(WarmCacheDir))
    return false;

  // The DRAM class allocates the triad arena up front: three arrays of at
  // least 4 x LLC bytes each, the first two doubling as the stencil's
  // buffers.
  if (W.Problem == ProblemClass::Dram)
    Arena = std::make_unique<TriadArena>(
        std::max(Capacity, Cfg.Smoke ? (1LL << 20) : Cfg.Llc.Bytes),
        Cfg.Cpus);

  if (!timedSetups(Capacity))
    return false;
  // The reference kernels compute the same bits as referenceRun.
  for (StencilRun &S : Stencils)
    if (!verify(S, kernelRun(S, Variant::Reference, 0), "reference kernel"))
      return false;
  if (traced() && !buildBaselines())
    return false;

  // Sample rounds on the workload's problems, for --seconds (the tune
  // workloads, whose samples are short, for TuneSampleSeconds), and at
  // least two, so that no statistic rests on one sample.
  double SampleSeconds =
      W.Problem == ProblemClass::Tune ? TuneSampleSeconds : Cfg.Seconds;
  auto SampleBegin = Clock::now();
  for (int Round = 0;; ++Round) {
    sampleRound(Round);
    if (Cfg.Smoke ||
        (Round >= 1 && secondsSince(SampleBegin) >= SampleSeconds))
      break;
  }
  computeEndToEnd(peakRssMib());

  for (StencilRun &S : Stencils) {
    std::string Line = "  " + S.Source->Name + " at " + S.Run.toString() +
                       ": " +
                       std::to_string(S.times(Variant::Tuned).size()) +
                       " rounds; picks:";
    for (const Pick &P : S.Picks)
      Line += " [" + P.Config.toString() + "]";
    Report.push_back(Line);
  }

  if (traced())
    return tracedPass(summarize(SetupSeconds).Median);
  return true;
}

void Bench::computeEndToEnd(double PeakRss) {
  Summary Setup = summarize(SetupSeconds);
  reportSummary("setup_s", Setup, "s");
  add(EndToEnd, "setup_s", Setup.Median, "s");

  // Per stencil: the median over rounds of reference time / tuned time.
  // Both kernels of a round run back to back, so a slow phase of the
  // host slows both; the raw throughputs are printed for context.
  double LogSum = 0, Headline = 0;
  for (const StencilRun &S : Stencils) {
    const std::string &Name = S.Source->Name;
    Summary Speedup = summarize(S.speedups());
    reportSummary("speedup_x." + Name, Speedup, "x");
    for (Variant V : {Variant::Tuned, Variant::Reference}) {
      std::vector<double> Rates;
      for (double Seconds : S.times(V))
        Rates.push_back(cellUpdates(S.Run) / Seconds / 1e9);
      reportSummary(std::string(variantName(V)) + " gcells_s." + Name,
                    summarize(Rates), "Gcell/s");
    }
    LogSum += std::log(Speedup.Median);
    if (Name == HeadlineStencil)
      Headline = Speedup.Median;
  }
  add(EndToEnd, "speedup_x",
      std::exp(LogSum / static_cast<double>(Stencils.size())), "x");
  add(EndToEnd, std::string("speedup_x.") + HeadlineStencil, Headline, "x");
  add(EndToEnd, "peak_rss_mib", PeakRss, "MiB");
}

//===----------------------------------------------------------------------===//
// Traced pass and per-layer metrics
//===----------------------------------------------------------------------===//

/// Per-name count, total and self time over a span snapshot. Self time is
/// a span's duration minus the time its same-thread children cover (the
/// snapshot is sorted by thread, start, longest first, so a stack of open
/// spans recovers the nesting).
struct LayerTime {
  std::size_t Count = 0;
  double TotalS = 0, SelfS = 0;
};

std::map<std::string, LayerTime>
layerTimes(const std::vector<obs::SpanRecord> &Spans) {
  std::map<std::string, LayerTime> Layers;
  std::vector<std::size_t> Open;
  std::vector<long long> ChildNs(Spans.size(), 0);
  auto Close = [&](std::size_t I) {
    LayerTime &L = Layers[Spans[I].Name];
    ++L.Count;
    L.TotalS += static_cast<double>(Spans[I].DurationNs) * 1e-9;
    L.SelfS += static_cast<double>(Spans[I].DurationNs - ChildNs[I]) * 1e-9;
  };
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const obs::SpanRecord &S = Spans[I];
    while (!Open.empty()) {
      const obs::SpanRecord &Top = Spans[Open.back()];
      if (Top.ThreadId == S.ThreadId &&
          S.StartNs + S.DurationNs <= Top.StartNs + Top.DurationNs)
        break;
      Close(Open.back());
      Open.pop_back();
    }
    if (!Open.empty())
      ChildNs[Open.back()] += S.DurationNs;
    Open.push_back(I);
  }
  while (!Open.empty()) {
    Close(Open.back());
    Open.pop_back();
  }
  return Layers;
}

double spanTotal(const std::map<std::string, LayerTime> &Layers,
                 const char *Name) {
  auto It = Layers.find(Name);
  return It == Layers.end() ? 0.0 : It->second.TotalS;
}

double spanMean(const std::map<std::string, LayerTime> &Layers,
                const char *Name) {
  auto It = Layers.find(Name);
  return It == Layers.end() || It->second.Count == 0
             ? 0.0
             : It->second.TotalS / static_cast<double>(It->second.Count);
}

/// Share of the tunes' wall time during which at least one compile was in
/// flight: the union of all `cache.compile` intervals (any thread) over
/// the summed `tune` spans.
double compileShare(const std::vector<obs::SpanRecord> &Spans) {
  std::vector<std::pair<long long, long long>> Compiles;
  long long TuneNs = 0;
  for (const obs::SpanRecord &S : Spans) {
    if (S.Name == "cache.compile")
      Compiles.push_back({S.StartNs, S.StartNs + S.DurationNs});
    else if (S.Name == "tune")
      TuneNs += S.DurationNs;
  }
  std::sort(Compiles.begin(), Compiles.end());
  long long Covered = 0, End = std::numeric_limits<long long>::min();
  for (const auto &[Lo, Hi] : Compiles) {
    if (Hi <= End)
      continue;
    Covered += Hi - std::max(Lo, End);
    End = Hi;
  }
  return TuneNs > 0 ? static_cast<double>(Covered) / static_cast<double>(TuneNs)
                    : 0.0;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

/// One traced repetition of the workload's setup and of one sample round,
/// plus the layer calls a tune makes internally, each timed through its
/// public entry point: model ranking, lowering and analysis over every
/// feasible configuration, kernel codegen, a compile into an empty cache,
/// a cache hit, a load, and the measured top-K sweep that the model's
/// ranking is compared with.
bool Bench::tracedPass(double UntracedSetupSeconds) {
  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  Recorder.clear();
  Recorder.enable();

  // The sweep below measures the tuner's top-K again; it reuses the cache
  // the traced setup just filled.
  auto Start = Clock::now();
  std::string SetupDir = W.ColdCache ? freshDir("cold") : WarmCacheDir;
  bool Ok = setupAll(SetupDir);
  double TracedSetupSeconds = secondsSince(Start);
  std::vector<obs::SpanRecord> SetupSpans = Recorder.snapshot();
  if (!Ok) {
    Recorder.disable();
    return false;
  }

  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  const Tuner ModelTuner(GpuSpec::teslaV100());
  KernelCache SetupCache(SetupDir);
  NativeCompiler Compiler;
  long long Findings = 0, KernelBytes = 0;
  std::size_t Candidates = 0;
  std::map<std::string, double> RankTau;
  for (StencilRun &S : Stencils) {
    const StencilProgram &P = *S.Program;
    ProblemSize Problem = tuneProblem(P.numDims(), Cfg);
    Candidates += S.Candidates;
    std::vector<RankedConfig> Ranked;
    {
      AN5D_TRACE_SPAN("bench.model.rank");
      Ranked = ModelTuner.rankByModel(P, Problem,
                                      std::numeric_limits<std::size_t>::max());
    }
    for (const RankedConfig &Candidate : Ranked) {
      ScheduleIR IR;
      {
        AN5D_TRACE_SPAN("bench.schedule.lower");
        IR = lowerSchedule(P, Candidate.Config);
      }
      AnalysisInput Input;
      Input.Program = &P;
      Input.Schedule = &IR;
      AN5D_TRACE_SPAN("bench.analysis.run");
      Findings += static_cast<long long>(Passes.run(Input).Findings.size());
    }

    std::string Source;
    {
      AN5D_TRACE_SPAN("bench.codegen.kernel");
      Source = generateCppKernelLibrary(P, S.TunedIR);
    }
    KernelBytes += static_cast<long long>(Source.size());
    // A smoke run compiles one kernel here, in tune_cold, to stay short.
    std::string Dir = freshDir("fresh");
    if (!Cfg.Smoke || (W.ColdCache && &S == &Stencils.front())) {
      KernelCache Fresh(Dir);
      KernelArtifact Built, Hit;
      {
        AN5D_TRACE_SPAN("bench.runtime.compile");
        Built = Fresh.getOrBuild(Source, Compiler);
      }
      {
        AN5D_TRACE_SPAN("bench.runtime.cache_hit");
        Hit = Fresh.getOrBuild(Source, Compiler);
      }
      Log.record(Built.Ok && !Built.CacheHit,
                 "compile " + S.Source->Name + ": " + Built.Log);
      Log.record(Hit.Ok && Hit.CacheHit, "cache hit " + S.Source->Name);
      std::unique_ptr<NativeExecutor> Loaded;
      {
        AN5D_TRACE_SPAN("bench.runtime.load");
        Loaded = std::make_unique<NativeExecutor>(P, S.TunedIR,
                                                  runtimeOptions(Dir), &Fresh);
      }
      Log.record(Loaded->ok(), "load " + S.Source->Name + ": " +
                                   Loaded->error());
    }
    fs::remove_all(Dir);

    // Model rank vs measured rank over the tuner's top-K.
    std::vector<SweepCandidate> Sweep;
    for (const RankedConfig &Candidate : ModelTuner.rankByModel(
             P, Problem, tuneTopK(Cfg))) {
      SweepCandidate Item;
      Item.Config = Candidate.Config;
      Sweep.push_back(std::move(Item));
    }
    NativeMeasureOptions Measure;
    Measure.Runtime = runtimeOptions(SetupDir);
    Measure.CompileThreads = Cfg.Cpus;
    std::vector<MeasuredResult> Measured;
    {
      AN5D_TRACE_SPAN("bench.runtime.measured_sweep");
      Measured = nativeMeasuredSweep(P, Sweep, {Problem}, Measure, &SetupCache);
    }
    std::vector<double> Gflops;
    for (const MeasuredResult &R : Measured)
      if (Log.record(R.Feasible, "measured sweep of " + S.Source->Name +
                                     ": " + R.FailureReason))
        Gflops.push_back(R.MeasuredGflops);
    RankTau[S.Source->Name] = kendallTau(Gflops);
  }
  if (W.ColdCache)
    fs::remove_all(SetupDir);

  KeepSamples = false;
  sampleRound(0);
  KeepSamples = true;

  Recorder.disable();
  std::vector<obs::SpanRecord> Spans = Recorder.snapshot();
  std::map<std::string, LayerTime> Layers = layerTimes(Spans);
  std::map<std::string, LayerTime> SetupLayers = layerTimes(SetupSpans);

  // Machine context: the DRAM class sampled the triad before every tuned
  // run; the others probe it here.
  std::string FmaIsa;
  double FmaGflops = fmaPeakGflops(Cfg.Cpus, FmaIsa);
  std::vector<double> TriadSamples;
  if (Arena) {
    for (const StencilRun &S : Stencils)
      TriadSamples.insert(TriadSamples.end(), S.TriadBeforeSample.begin(),
                          S.TriadBeforeSample.end());
  } else {
    TriadArena Probe(Cfg.Smoke ? (1LL << 20) : Cfg.Llc.Bytes, Cfg.Cpus);
    for (int Pass = 0; Pass < 5; ++Pass)
      TriadSamples.push_back(Probe.triadGbs());
  }
  double TriadGbs = summarize(TriadSamples).Median;

  auto &M = PerLayer;
  add(M, "frontend.parse_s", spanTotal(SetupLayers, "bench.frontend.extract"),
      "s");
  add(M, "model.rank_s", spanTotal(Layers, "bench.model.rank"), "s");
  add(M, "schedule.lower_s", spanTotal(Layers, "bench.schedule.lower"), "s");
  add(M, "analysis.run_s", spanTotal(Layers, "bench.analysis.run"), "s");
  add(M, "analysis.findings", static_cast<double>(Findings), "count");
  add(M, "tuning.candidates", static_cast<double>(Candidates), "count");
  add(M, "tuning.measure_s",
      spanTotal(SetupLayers, "measure.repeat") +
          spanTotal(SetupLayers, "measure.warmup"),
      "s");
  add(M, "tuning.compile_share", compileShare(SetupSpans), "fraction");
  double Stability = 0;
  for (const StencilRun &S : Stencils) {
    std::map<std::string, int> Votes;
    int Modal = 0;
    for (const Pick &P : S.Picks)
      Modal = std::max(Modal, ++Votes[P.Config.toString()]);
    Stability += static_cast<double>(Modal) /
                 static_cast<double>(S.Picks.size()) /
                 static_cast<double>(Stencils.size());
  }
  add(M, "tuning.pick_stability", Stability, "fraction");
  add(M, "codegen.kernel_s", spanTotal(Layers, "bench.codegen.kernel"), "s");
  add(M, "codegen.kernel_bytes", static_cast<double>(KernelBytes), "bytes");
  add(M, "runtime.compile_s", spanMean(Layers, "bench.runtime.compile"), "s");
  add(M, "runtime.cache_hit_s", spanMean(Layers, "bench.runtime.cache_hit"),
      "s");
  add(M, "runtime.load_s", spanMean(Layers, "bench.runtime.load"), "s");
  const obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  double Hits = static_cast<double>(Registry.counterValue("kernel_cache.hits"));
  double Misses =
      static_cast<double>(Registry.counterValue("kernel_cache.misses"));
  add(M, "runtime.cache_hit_rate", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
      "fraction");
  add(M, "sim.verify_s", spanTotal(SetupLayers, "bench.sim.verify"), "s");
  add(M, "obs.trace_overhead_frac",
      TracedSetupSeconds / UntracedSetupSeconds - 1.0, "fraction");
  add(M, "machine.triad_gbs", TriadGbs, "GB/s");
  add(M, "machine.fma_gflops", FmaGflops, "GFLOP/s");
  add(M, "machine.llc_mib", static_cast<double>(Cfg.Llc.Bytes) / (1 << 20),
      "MiB");
  add(M, "machine.threads", Cfg.Cpus, "count");

  // Per-stencil metrics: the result line carries those of the stencils
  // every workload runs; layers.json carries all.
  MetricList AllStencils;
  std::vector<const StencilRun *> ByName;
  for (const StencilRun &S : Stencils)
    ByName.push_back(&S);
  std::sort(ByName.begin(), ByName.end(),
            [](const StencilRun *A, const StencilRun *B) {
              return A->Source->Name < B->Source->Name;
            });
  for (const StencilRun *S : ByName) {
    const std::string &Name = S->Source->Name;
    double Updates = cellUpdates(S->Run);
    double Tuned = summarize(S->times(Variant::Tuned)).Median;
    // bT=1 time over tuned time, per round, like speedup_x.
    std::vector<double> TbRatios;
    const std::vector<double> &Bt1Times = S->times(Variant::Bt1);
    for (std::size_t I = 0; I < Bt1Times.size(); ++I)
      TbRatios.push_back(Bt1Times[I] / S->times(Variant::Tuned)[I]);
    // Computed traffic and roofline share of each tuned sample, from its
    // round's pick. ResourceEstimate assumes 8-byte words; scale to the
    // real element.
    std::vector<double> Gbs, Fractions;
    const std::vector<double> &TunedTimes = S->times(Variant::Tuned);
    for (std::size_t I = 0; I < TunedTimes.size(); ++I) {
      ResourceEstimate Resources = estimateResources(
          *S->Program, S->pickOfRound(static_cast<int>(I)).IR);
      double Bytes = Resources.GmemBytesPerCell *
                     static_cast<double>(S->Program->wordSize()) / 8.0;
      double Flops = Resources.FlopsPerCell;
      double Triad = Arena ? S->TriadBeforeSample[I] : TriadGbs;
      double Attainable = std::min(FmaGflops, Triad * Flops / Bytes);
      Gbs.push_back(Bytes * Updates / TunedTimes[I] / 1e9);
      Fractions.push_back(Flops * Updates / TunedTimes[I] / 1e9 / Attainable);
    }
    MetricList &Into = S->Source->EveryWorkload ? M : AllStencils;
    add(Into, "runtime.speedup_x." + Name, summarize(S->speedups()).Median,
        "x");
    add(Into, "runtime.run_s." + Name, Tuned, "s");
    add(Into, "runtime.gflops." + Name,
        static_cast<double>(S->Program->flopsPerCell().total()) * Updates /
            Tuned / 1e9,
        "GFLOP/s");
    add(Into, "runtime.bt1_gcells_s." + Name,
        Updates / summarize(Bt1Times).Median / 1e9, "Gcell/s");
    add(Into, "schedule.tb_speedup_x." + Name, summarize(TbRatios).Median,
        "x");
    add(Into, "runtime.computed_gbs." + Name, summarize(Gbs).Median, "GB/s");
    add(Into, "runtime.roofline_frac." + Name, summarize(Fractions).Median,
        "fraction");
    add(Into, "runtime.subnormal_frac." + Name, S->WorstSubnormalFrac,
        "fraction");
    add(Into, "model.rank_tau." + Name, RankTau[Name], "tau");
  }
  AllStencils.insert(AllStencils.begin(), M.begin(), M.end());

  // trace.json loads in Perfetto; layers.json holds the span table and
  // the per-layer metrics.
  std::error_code Ec;
  fs::create_directories(Cfg.TraceDir, Ec);
  std::string Json = "{\n\"workload\":";
  obs::appendJsonString(Json, W.Name);
  char Buffer[512];
  std::snprintf(Buffer, sizeof(Buffer),
                ",\n\"seed\":%llu,\n\"machine\":{\"threads\":%d,"
                "\"llc_bytes\":%lld,\"llc_source\":\"%s\",\"triad_gbs\":%.17g,"
                "\"fma_gflops\":%.17g,\"fma_isa\":\"%s\"},\n\"spans\":{",
                static_cast<unsigned long long>(Cfg.Seed), Cfg.Cpus,
                Cfg.Llc.Bytes, Cfg.Llc.Source.c_str(), TriadGbs,
                FmaGflops, FmaIsa.c_str());
  Json += Buffer;
  bool First = true;
  for (const auto &[Name, L] : Layers) {
    Json += First ? "\n" : ",\n";
    First = false;
    obs::appendJsonString(Json, Name);
    std::snprintf(Buffer, sizeof(Buffer),
                  ":{\"count\":%zu,\"total_s\":%.9g,\"self_s\":%.9g}", L.Count,
                  L.TotalS, L.SelfS);
    Json += Buffer;
  }
  Json += "\n},\n\"metrics\":{";
  First = true;
  for (const auto &[Name, Value] : AllStencils) {
    Json += First ? "\n" : ",\n";
    First = false;
    obs::appendJsonString(Json, Name);
    std::snprintf(Buffer, sizeof(Buffer), ":{\"value\":%.17g,\"unit\":\"%s\"}",
                  Value.first, Value.second);
    Json += Buffer;
  }
  Json += "\n}\n}\n";
  bool Written = writeFile(Cfg.TraceDir + "/trace.json",
                           Recorder.toChromeTraceJson()) &&
                 writeFile(Cfg.TraceDir + "/layers.json", Json);
  return Log.record(Written, "write trace files under " + Cfg.TraceDir);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string resultJson(const Ledger &Log, const MetricList &Metrics) {
  std::string Json = "{\"correct\": ";
  Json += Log.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Log.Attempted) +
          ", \"failed\": " + std::to_string(Log.Failed) + ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    if (!First)
      Json += ", ";
    First = false;
    obs::appendJsonString(Json, Name);
    // A run that failed can leave a ratio without samples; JSON has no
    // infinity or NaN, and `correct` is false then anyway.
    char Buffer[128];
    std::snprintf(Buffer, sizeof(Buffer), ": {\"value\": %.17g, \"unit\": ",
                  std::isfinite(Value.first) ? Value.first : 0.0);
    Json += Buffer;
    obs::appendJsonString(Json, Value.second);
    Json += "}";
  }
  return Json + "}}";
}

/// The names listed under \p Key ("end_to_end" or "per_layer") of a
/// BENCHMARK.json document.
std::vector<std::string> declaredMetrics(const obs::JsonValue &Doc,
                                         const char *Key) {
  std::vector<std::string> Names;
  if (const obs::JsonValue *List = Doc.find(Key))
    for (const obs::JsonValue &Item : List->Items)
      if (const obs::JsonValue *Name = Item.find("name"))
        Names.push_back(Name->String);
  return Names;
}

/// Checks that a rendered result line parses and carries exactly the
/// declared names.
bool hasExactlyMetrics(const std::string &ResultLine,
                       const std::vector<std::string> &Names,
                       const std::string &Label) {
  std::string Error;
  std::optional<obs::JsonValue> Parsed = obs::parseJson(ResultLine, &Error);
  const obs::JsonValue *Metrics = Parsed ? Parsed->find("metrics") : nullptr;
  if (!Metrics) {
    std::fprintf(stderr, "%s: unparseable result: %s\n", Label.c_str(),
                 Error.c_str());
    return false;
  }
  bool Ok = true;
  for (const std::string &Name : Names)
    if (!Metrics->find(Name)) {
      std::fprintf(stderr, "%s: metric %s missing\n", Label.c_str(),
                   Name.c_str());
      Ok = false;
    }
  if (Metrics->Members.size() != Names.size()) {
    std::fprintf(stderr, "%s: %zu metrics, %zu declared\n", Label.c_str(),
                 Metrics->Members.size(), Names.size());
    Ok = false;
  }
  return Ok;
}

int usage(const char *Message) {
  std::fprintf(stderr,
               "an5d_bench: %s\nusage: an5d_bench --workload "
               "tune_cold|tune_warm|run_cache|run_dram|all [--seed N] "
               "[--seconds S] [--trace DIR] [--work DIR] [--smoke] "
               "[--expect BENCHMARK.json]\n",
               Message);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Settings Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (Arg == "--smoke") {
      Cfg.Smoke = true;
    } else if (!HasValue) {
      return usage(("missing value or unknown flag " + Arg).c_str());
    } else if (Arg == "--workload") {
      Cfg.Workload = Argv[++I];
    } else if (Arg == "--seed") {
      Cfg.Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--seconds") {
      Cfg.Seconds = std::strtod(Argv[++I], nullptr);
    } else if (Arg == "--trace") {
      Cfg.TraceDir = Argv[++I];
    } else if (Arg == "--work") {
      Cfg.WorkDir = Argv[++I];
    } else if (Arg == "--expect") {
      Cfg.Expect = Argv[++I];
    } else {
      return usage(("unknown flag " + Arg).c_str());
    }
  }
  if (!(Cfg.Seconds > 0 && Cfg.Seconds < 3600))
    return usage("--seconds must be in (0, 3600)");

  std::vector<const Workload *> Selected;
  for (const Workload &W : Workloads)
    if (Cfg.Workload == W.Name || Cfg.Workload == "all")
      Selected.push_back(&W);
  if (Selected.empty())
    return usage(("unknown workload '" + Cfg.Workload + "'").c_str());

  std::optional<obs::JsonValue> Declared;
  if (!Cfg.Expect.empty()) {
    std::ifstream In(Cfg.Expect);
    std::stringstream Text;
    Text << In.rdbuf();
    std::string Error;
    Declared = obs::parseJson(Text.str(), &Error);
    if (!Declared) {
      std::fprintf(stderr, "an5d_bench: cannot parse %s: %s\n",
                   Cfg.Expect.c_str(), Error.c_str());
      return 2;
    }
  }

  Cfg.Cpus = usableCpus();
  Cfg.Llc = detectLlc();
  // A smoke run starts from an empty kernel cache and leaves none behind.
  if (Cfg.Smoke)
    Cfg.WorkDir += "/smoke-" + std::to_string(getpid());
  std::error_code Ec;
  fs::create_directories(Cfg.WorkDir, Ec);
  // The compiler probe runs once per process; keep it out of every
  // timed setup.
  NativeCompiler Probe;
  if (!Probe.available()) {
    std::fprintf(stderr, "an5d_bench: host compiler '%s' is not available\n",
                 Probe.command().c_str());
    return 1;
  }

  bool AllOk = true;
  for (const Workload *W : Selected) {
    Settings Run = Cfg;
    if (!Cfg.TraceDir.empty() && Selected.size() > 1)
      Run.TraceDir = Cfg.TraceDir + "/" + W->Name;
    Bench B(*W, Run);
    bool Ok = B.run();
    std::printf("an5d_bench workload=%s seed=%llu threads=%d llc=%lldMiB(%s)%s\n",
                W->Name, static_cast<unsigned long long>(Cfg.Seed), Cfg.Cpus,
                Cfg.Llc.Bytes >> 20, Cfg.Llc.Source.c_str(),
                Cfg.Smoke ? " smoke" : "");
    for (const std::string &Line : B.Report)
      std::printf("%s\n", Line.c_str());
    if (!Ok)
      B.Log.record(false, std::string(W->Name) + " did not complete");
    std::string EndToEnd = resultJson(B.Log, B.EndToEnd);
    std::string PerLayer = resultJson(B.Log, B.PerLayer);
    if (Declared) {
      Ok = hasExactlyMetrics(EndToEnd,
                             declaredMetrics(*Declared, "end_to_end"),
                             W->Name) &&
           (Run.TraceDir.empty() ||
            hasExactlyMetrics(PerLayer, declaredMetrics(*Declared, "per_layer"),
                              W->Name)) &&
           Ok;
    }
    std::printf("%s\n", (Cfg.TraceDir.empty() ? EndToEnd : PerLayer).c_str());
    std::fflush(stdout);
    AllOk = AllOk && Ok && B.Log.Failed == 0;
  }
  if (Cfg.Smoke)
    fs::remove_all(Cfg.WorkDir, Ec);
  return AllOk ? 0 : 1;
}
