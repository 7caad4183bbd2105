//===- NativeRuntimeTest.cpp - Native runtime subsystem tests -----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises the compile/cache/load/execute pipeline of src/runtime/:
///
///  * NativeExecutor vs ReferenceExecutor bit-for-bit on **every** built-in
///    benchmark — 1D (pure streaming, chunk-parallel), 2D and 3D — the
///    acceptance contract of the native backend;
///  * KernelCache hit/miss behavior, persistence across cache objects,
///    force-recompile, a truncated library rebuilt, and failure
///    accounting;
///  * NativeCompiler detection and failure reporting, and the host target
///    (-march=native and its resolved macro set) in the kernel-cache key;
///  * the native measured sweep (compile pool + serial timing) and the
///    Tuner's Native measurement backend, which compiles one kernel per
///    stencil;
///  * the vectorized 2D/3D kernels at the production flags: bit-for-bit
///    on awkward extents and streams shorter than the pool, on the default
///    pool, on 3 threads and on one thread over rings earlier items left
///    dirty, and every `omp simd` loop vectorized;
///  * the 2D/3D stream split: chunks tile the streamed axis, at most hS
///    long and at least one per kernel thread while the extent allows;
///  * the kernel ABI: `an5d_run` takes bT, hS and bS per call, rejects a
///    missing bS and a bT its bS cannot hold without touching the
///    buffers, and is reentrant (concurrent runs of one loaded kernel);
///    the loader refuses a library of another ABI version.
///
/// Kernels build with -O1 appended (overriding the default -O2) to keep
/// the many small test builds fast; optimization level cannot change
/// results because the kernels are compiled with -ffp-contract=off and no
/// fast-math (NativeProductionFlags checks that claim at -O2). Most tests
/// share one on-disk cache directory so repeated ctest runs are
/// compile-free; tests asserting miss-then-hit transitions create private
/// directories.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"
#include "obs/Metrics.h"
#include "runtime/DynamicKernel.h"
#include "runtime/KernelCache.h"
#include "runtime/NativeCompiler.h"
#include "runtime/NativeExecutor.h"
#include "runtime/NativeMeasurement.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace an5d;

namespace {

/// The shared cache directory: stable across test processes (each ctest
/// entry is its own process) so every kernel compiles at most once per
/// source+flags version.
std::string sharedCacheDir() {
  return ::testing::TempDir() + "an5d-native-test-cache";
}

/// A directory unique to one test, for miss/hit-transition assertions.
std::string freshCacheDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "an5d-native-fresh-" + Tag;
  std::filesystem::remove_all(Dir);
  return Dir;
}

NativeRuntimeOptions fastBuildOptions(const std::string &CacheDir) {
  NativeRuntimeOptions Options;
  Options.CacheDir = CacheDir;
  Options.ExtraCompileFlags = {"-O1"};
  return Options;
}

/// A small feasible configuration for \p Program that exercises chunking
/// and a temporal degree > 1.
BlockConfig testConfig(const StencilProgram &Program) {
  int Rad = Program.radius();
  BlockConfig Config;
  Config.BT = 2;
  if (Program.numDims() == 1) {
    Config.BS.clear(); // pure streaming: no blocked dimensions
    Config.HS = 7;
  } else if (Program.numDims() == 2) {
    Config.BS = {4 * Rad + 8};
    Config.HS = 7;
  } else {
    Config.BS = {4 * Rad + 6, 4 * Rad + 4};
    Config.HS = 5;
  }
  return Config;
}

/// testConfig lowered, for the executors built from it.
ScheduleIR testSchedule(const StencilProgram &Program) {
  return lowerSchedule(Program, testConfig(Program));
}

/// Runs \p Steps on \p Extents through the reference executor and the
/// loaded native kernel and expects bitwise identical grids.
template <typename T>
void expectExecutorMatchesReference(const StencilProgram &Program,
                                    const NativeExecutor &Executor,
                                    const std::vector<long long> &Extents,
                                    long long Steps) {
  Grid<T> Ref0(Extents, Program.radius()), Ref1(Extents, Program.radius());
  fillGridDeterministic(Ref0, 33);
  copyGrid(Ref0, Ref1);
  Grid<T> Nat0 = Ref0, Nat1 = Ref0;

  referenceRun<T>(Program, {&Ref0, &Ref1}, Steps);
  Executor.run<T>({&Nat0, &Nat1}, Steps);

  const Grid<T> &Want = Steps % 2 == 0 ? Ref0 : Ref1;
  const Grid<T> &Got = Steps % 2 == 0 ? Nat0 : Nat1;
  EXPECT_EQ(Want.raw(), Got.raw())
      << Program.name() << " native result differs from the reference on "
      << ProblemSize{Extents, Steps}.toString();
}

/// Runs \p Steps through the reference executor and the native kernel and
/// expects bitwise identical grids.
template <typename T>
void expectNativeMatchesReference(const StencilProgram &Program,
                                  const BlockConfig &Config,
                                  long long Steps) {
  NativeExecutor Executor(Program, lowerSchedule(Program, Config),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();

  std::vector<long long> Extents =
      Program.numDims() == 1   ? std::vector<long long>{53}
      : Program.numDims() == 2 ? std::vector<long long>{23, 19}
                               : std::vector<long long>{13, 11, 10};
  expectExecutorMatchesReference<T>(Program, Executor, Extents, Steps);
}

/// Every built-in benchmark: the Table 3 2D/3D set plus the extra 1D
/// stencils — the C++ kernel backend supports all of them.
std::vector<std::string> nativeBackendBenchmarks() {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Name : extraStencilNames())
    Names.push_back(Name);
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bit-for-bit equivalence on every built-in benchmark
//===----------------------------------------------------------------------===//

class NativeEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(NativeEquivalence, MatchesReferenceBitwise) {
  auto Program = makeBenchmarkStencil(GetParam(), ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<float>(*Program, testConfig(*Program), 9);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, NativeEquivalence,
    ::testing::ValuesIn(nativeBackendBenchmarks()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(NativeRuntime, DoublePrecisionMatchesReference) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Double);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<double>(*Program, testConfig(*Program), 9);
  auto Program3 = makeBenchmarkStencil("star3d2r", ScalarType::Double);
  ASSERT_NE(Program3, nullptr);
  expectNativeMatchesReference<double>(*Program3, testConfig(*Program3), 8);
}

TEST(NativeRuntime, EvenStepCountEndsInBufferZero) {
  auto Program = makeBenchmarkStencil("j2d9pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<float>(*Program, testConfig(*Program), 8);
}

TEST(NativeRuntime, MathCallStencilMatches) {
  // gradient2d exercises the sqrt math-call path end to end.
  auto Program = makeBenchmarkStencil("gradient2d", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<float>(*Program, testConfig(*Program), 5);
}

TEST(NativeRuntime, StreamingDivisionVariantsMatch) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config = testConfig(*Program);
  Config.HS = 0; // single chunk spans the stream
  expectNativeMatchesReference<float>(*Program, Config, 9);
  Config.HS = 1000; // longer than the extent: also a single chunk
  expectNativeMatchesReference<float>(*Program, Config, 9);
}

TEST(NativeRuntime, HighDegreeMatches) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 5;
  Config.BS = {32};
  Config.HS = 8;
  expectNativeMatchesReference<float>(*Program, Config, 13);
}

TEST(NativeRuntime, OneDimensionalStreamingVariantsMatch) {
  // The 1D kernel parallelizes over hS chunks; hS=0 degenerates to one
  // chunk (serial), and an hS longer than the extent is also one chunk.
  auto Program = makeBenchmarkStencil("star1d2r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config = testConfig(*Program);
  Config.HS = 0;
  expectNativeMatchesReference<float>(*Program, Config, 9);
  Config.HS = 1000;
  expectNativeMatchesReference<float>(*Program, Config, 9);
}

TEST(NativeRuntime, OneDimensionalHighDegreeMatches) {
  auto Program = makeBenchmarkStencil("box1d3r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 7; // degree 7, radius 3: 21-plane lag across chunk seams
  Config.HS = 11;
  expectNativeMatchesReference<float>(*Program, Config, 13);
}

TEST(NativeRuntime, OneDimensionalDoublePrecisionMatches) {
  auto Program = makeBenchmarkStencil("j1d3pt", ScalarType::Double);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<double>(*Program, testConfig(*Program), 9);
}

//===----------------------------------------------------------------------===//
// Bit-for-bit equivalence at production flags
//===----------------------------------------------------------------------===//

namespace {

/// One kernel at the flags the tuner times (no -O1 override, so the 2D/3D
/// compute loops are the vectorized `omp simd` bodies), checked on extents
/// chosen to hit every lane-range shape of the schedule.
struct ProductionCase {
  std::string Name;
  ScalarType Type;
  BlockConfig Config;
  /// Distinguishes a second case of the same stencil and type in the
  /// test name.
  std::string Tag;
  /// Each set includes a block straddling both grid edges (blocked extent
  /// below bS), a blocked extent of 1, one of cw + 1 (a one-lane last
  /// block) and one giving compute ranges that are no multiple of 4, 8 or
  /// 16 lanes.
  std::vector<std::vector<long long>> Extents;
  /// Step counts not divisible by bT, so every run ends in a
  /// partial-degree invocation.
  std::vector<long long> Steps;
};

void PrintTo(const ProductionCase &Case, std::ostream *Out) {
  *Out << Case.Name << ' ' << scalarTypeName(Case.Type) << ' '
       << Case.Config.toString();
}

BlockConfig productionConfig(int BT, std::vector<int> BS, long long HS) {
  BlockConfig Config;
  Config.BT = BT;
  Config.BS = std::move(BS);
  Config.HS = HS;
  return Config;
}

std::vector<ProductionCase> productionCases() {
  return {
      // cw = 32 - 2*3*1 = 26.
      {"j2d5pt", ScalarType::Float, productionConfig(3, {32}, 7), "",
       {{17, 19}, {9, 1}, {12, 27}, {23, 55}, {1, 30}}, {2, 7}},
      // Radius 2: cw = 27 - 2*2*2 = 19.
      {"j2d9pt", ScalarType::Float, productionConfig(2, {27}, 5), "",
       {{13, 11}, {6, 1}, {10, 20}, {19, 41}}, {3, 5}},
      // cw = (14, 21) - 2*3*1 = (8, 15).
      {"star3d1r", ScalarType::Float, productionConfig(3, {14, 21}, 4), "",
       {{9, 5, 11}, {5, 1, 1}, {6, 9, 16}, {11, 19, 33}}, {2, 7}},
      // Box taps: d1 and d2 both non-zero. cw = (11, 19) - 4 = (7, 15).
      {"j3d27pt", ScalarType::Float, productionConfig(2, {11, 19}, 3), "",
       {{7, 5, 9}, {4, 1, 1}, {5, 8, 16}, {9, 17, 33}}, {3, 5}},
      {"j3d27pt", ScalarType::Double, productionConfig(2, {11, 19}, 3), "",
       {{7, 5, 9}, {4, 1, 1}, {5, 8, 16}, {9, 17, 33}}, {3, 5}},
      // A host-menu block of 4096 lanes, past a GPU's thread cap.
      // cw = (32, 128) - 2*4*1 = (24, 120).
      {"star3d1r", ScalarType::Float, productionConfig(4, {32, 128}, 5),
       "host_block",
       {{9, 20, 90}, {5, 1, 1}, {7, 25, 121}, {11, 30, 37}}, {3, 9}},
      // The host menu's 512-lane rows: one block spans a row of up to cw2
      // cells, and its ring rows shrink to the row and its halo (90 + 8,
      // 37 + 8, 503 + 8 lanes at degree 4). A row of cw2 + 1 = 505 cells
      // runs a second, one-lane block on full-width rows.
      // cw = (32, 512) - 2*4*1 = (24, 504).
      {"star3d1r", ScalarType::Float, productionConfig(4, {32, 512}, 5),
       "row_block",
       {{9, 20, 90}, {5, 1, 1}, {7, 25, 505}, {11, 30, 37}, {4, 3, 503}},
       {3, 9}},
      // Box taps read the row above and below at the clipped row stride.
      // cw = (16, 512) - 2*3*1 = (10, 506).
      {"j3d27pt", ScalarType::Double, productionConfig(3, {16, 512}, 3),
       "row_block",
       {{7, 5, 9}, {4, 1, 1}, {5, 11, 507}, {9, 17, 45}}, {4, 5}},
      // sqrt and division: correctly rounded in every vector ISA.
      {"gradient2d", ScalarType::Float, productionConfig(3, {32}, 7), "",
       {{17, 19}, {9, 1}, {12, 27}, {23, 55}}, {2, 7}},
      {"gradient2d", ScalarType::Double, productionConfig(3, {32}, 7), "",
       {{17, 19}, {9, 1}, {12, 27}, {23, 55}}, {2, 7}},
      // cw = 512 - 2*8*1 = 496.
      {"j2d5pt", ScalarType::Double, productionConfig(8, {512}, 7), "",
       {{9, 300}, {5, 1}, {6, 497}, {7, 1001}}, {5, 11}},
      // The 2D host menu's 1024-lane blocks: one block spans a row of up to
      // cw cells, and its ring rows shrink to the row and its halo (900 +
      // 16 lanes at degree 8). A row of cw + 1 = 1009 cells runs a second,
      // one-lane block on full-width rows.
      // cw = 1024 - 2*8*1 = 1008.
      {"j2d5pt", ScalarType::Float, productionConfig(8, {1024}, 5),
       "host_block", {{9, 900}, {5, 1}, {6, 1009}, {11, 2100}}, {3, 11}},
      // Streamed extents of 1 and 3 planes, below the pool's thread count.
      // hS = 0 sets no maximum, so the stream splits into one chunk per
      // thread, one plane each, as it does at an hS past the extent.
      // cw = 32 - 2*3*1 = 26.
      {"j2d5pt", ScalarType::Float, productionConfig(3, {32}, 0),
       "short_stream", {{1, 19}, {3, 1}, {3, 27}, {1, 55}}, {2, 7}},
      {"j2d5pt", ScalarType::Float, productionConfig(3, {32}, 16),
       "short_stream_long_hs", {{1, 19}, {3, 1}, {3, 27}, {1, 55}}, {2, 7}},
      // cw = (32, 512) - 2*4*1 = (24, 504).
      {"star3d1r", ScalarType::Float, productionConfig(4, {32, 512}, 0),
       "short_stream", {{1, 20, 90}, {3, 1, 1}, {3, 25, 505}, {1, 30, 37}},
       {3, 9}},
      // cw = (14, 21) - 2*3*1 = (8, 15).
      {"star3d1r", ScalarType::Float, productionConfig(3, {14, 21}, 9),
       "short_stream_long_hs",
       {{1, 5, 11}, {3, 1, 1}, {3, 9, 16}, {1, 19, 33}}, {2, 7}},
  };
}

} // namespace

class NativeProductionFlags
    : public ::testing::TestWithParam<ProductionCase> {
protected:
  /// Runs every extent and step count of the case through \p Executor.
  void expectCaseMatches(const StencilProgram &Program,
                         const NativeExecutor &Executor) {
    const ProductionCase &Case = GetParam();
    for (const std::vector<long long> &Extents : Case.Extents)
      for (long long Steps : Case.Steps) {
        if (Case.Type == ScalarType::Float)
          expectExecutorMatchesReference<float>(Program, Executor, Extents,
                                                Steps);
        else
          expectExecutorMatchesReference<double>(Program, Executor, Extents,
                                                 Steps);
      }
  }
};

TEST_P(NativeProductionFlags, MatchesReferenceOnAwkwardExtents) {
  const ProductionCase &Case = GetParam();
  auto Program = makeBenchmarkStencil(Case.Name, Case.Type);
  ASSERT_NE(Program, nullptr);
  NativeRuntimeOptions Options;
  Options.CacheDir = sharedCacheDir();
  // One compile serves every extent and step count below.
  NativeExecutor Executor(*Program, lowerSchedule(*Program, Case.Config),
                          Options);
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  expectCaseMatches(*Program, Executor);
}

/// The same cases on one thread. A kernel zeroes each thread's rings once,
/// not per (chunk, block) item, so one thread walks every item on rings
/// the previous item left dirty: a ring lane some tier reads before the
/// item wrote it shows up here as a mismatch.
TEST_P(NativeProductionFlags, MatchesReferenceOnOneThreadOverDirtyRings) {
  const ProductionCase &Case = GetParam();
  auto Program = makeBenchmarkStencil(Case.Name, Case.Type);
  ASSERT_NE(Program, nullptr);
  NativeRuntimeOptions Options;
  Options.CacheDir = sharedCacheDir();
  const ScheduleIR Schedule = lowerSchedule(*Program, Case.Config);
  NativeExecutor Pooled(*Program, Schedule, Options);
  Options.Threads = 1;
  NativeExecutor Single(*Program, Schedule, Options);
  ASSERT_TRUE(Pooled.ok()) << Pooled.error();
  ASSERT_TRUE(Single.ok()) << Single.error();
  EXPECT_EQ(Single.cacheKey(), Pooled.cacheKey())
      << "the thread count must not reach the kernel source";
  const int Ambient = Pooled.kernelMaxThreads();
  expectCaseMatches(*Program, Single);
  EXPECT_EQ(Single.kernelMaxThreads(), 1);
  Single.pinKernelThreads(Ambient);
}

/// The same cases on 3 threads. The stream then splits into chunks of
/// unequal length on most extents, and the dynamically handed out
/// (chunk, block) items do not deal out evenly.
TEST_P(NativeProductionFlags, MatchesReferenceOnThreeThreads) {
  const ProductionCase &Case = GetParam();
  auto Program = makeBenchmarkStencil(Case.Name, Case.Type);
  ASSERT_NE(Program, nullptr);
  NativeRuntimeOptions Options;
  Options.CacheDir = sharedCacheDir();
  Options.Threads = 3;
  NativeExecutor Three(*Program, lowerSchedule(*Program, Case.Config),
                       Options);
  ASSERT_TRUE(Three.ok()) << Three.error();
  const int Ambient = Three.kernelMaxThreads();
  expectCaseMatches(*Program, Three);
  if (Ambient > 1)
    EXPECT_EQ(Three.kernelMaxThreads(), 3);
  Three.pinKernelThreads(Ambient);
}

INSTANTIATE_TEST_SUITE_P(
    VectorizedKernels, NativeProductionFlags,
    ::testing::ValuesIn(productionCases()),
    [](const ::testing::TestParamInfo<ProductionCase> &Info) {
      return Info.param.Name +
             (Info.param.Type == ScalarType::Double ? "_double" : "") +
             (Info.param.Tag.empty() ? "" : "_" + Info.param.Tag);
    });

//===----------------------------------------------------------------------===//
// Vectorization guard
//===----------------------------------------------------------------------===//

/// Every `omp simd` loop of the 2D/3D kernels must vectorize at the
/// production flags. A regression here is silent otherwise: the kernel
/// still compiles and stays bit-exact, it just runs several times slower
/// (reading the producer through a per-lane closure is such a regression).
/// GCC's -fopt-info-vec-optimized names the source line of each loop it
/// vectorized.
TEST(NativeVectorization, EveryOmpSimdLoopVectorizes) {
  NativeCompiler Compiler;
  const std::vector<std::string> Flags = Compiler.flags();
  if (!Compiler.available() ||
      std::find(Flags.begin(), Flags.end(), "-fopenmp") == Flags.end())
    GTEST_SKIP() << "kernels build without OpenMP, so `omp simd` is inert";
  if (!NativeCompiler::sanitizerFlags().empty())
    GTEST_SKIP() << "sanitizer instrumentation blocks vectorization; the "
                    "guard covers production kernel builds";
  if (Compiler.version().find("clang") != std::string::npos)
    GTEST_SKIP() << "vectorization remarks are read in GCC's format";
  for (const char *Name : {"j2d5pt", "star3d1r"}) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr);
    const std::string Source =
        generateCppKernelLibrary(
            *Program, lowerSchedule(*Program, testConfig(*Program)));
    const std::string Dir = freshCacheDir(std::string("vec-") + Name);
    std::filesystem::create_directories(Dir);
    const std::string SourcePath = Dir + "/kernel.cpp";
    std::ofstream(SourcePath) << Source;
    CompileOutcome Outcome = Compiler.compileSharedLibrary(
        SourcePath, Dir + "/kernel.so", {"-fopt-info-vec-optimized"});
    if (!Outcome.Success &&
        Outcome.Log.find("fopt-info") != std::string::npos)
      GTEST_SKIP() << "host compiler is not GCC:\n" << Outcome.Log;
    ASSERT_TRUE(Outcome.Success) << Outcome.Log;

    // Source lines (1-based) GCC reports a vectorized loop on.
    std::set<size_t> Vectorized;
    std::istringstream Log(Outcome.Log);
    for (std::string Line; std::getline(Log, Line);) {
      const size_t At = Line.find(SourcePath + ":");
      if (At != std::string::npos &&
          Line.find("loop vectorized") != std::string::npos)
        Vectorized.insert(std::strtoul(
            Line.c_str() + At + SourcePath.size() + 1, nullptr, 10));
    }

    std::vector<std::string> Lines;
    std::istringstream Text(Source);
    for (std::string Line; std::getline(Text, Line);)
      Lines.push_back(Line.substr(std::min(Line.find_first_not_of(' '),
                                           Line.size())));
    int Pragmas = 0;
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (Lines[I] != "#pragma omp simd")
        continue;
      ++Pragmas;
      // The loop spans its `for` header (the next line that is not a
      // preprocessor directive) through its one-statement body.
      size_t For = I + 1;
      while (For < Lines.size() && Lines[For].rfind('#', 0) == 0)
        ++For;
      size_t End = For + 1;
      while (End + 1 < Lines.size() &&
             (Lines[End].empty() || Lines[End].back() != ';'))
        ++End;
      bool Hit = false;
      for (size_t L = For; L <= End; ++L)
        Hit = Hit || Vectorized.count(L + 1) != 0;
      EXPECT_TRUE(Hit) << Name << ": the omp simd loop at line " << For + 1
                       << " did not vectorize; compiler remarks:\n"
                       << Outcome.Log;
    }
    EXPECT_EQ(Pragmas, 2)
        << Name << ": expected one compute loop and one store loop";
  }
}

//===----------------------------------------------------------------------===//
// Stream split
//===----------------------------------------------------------------------===//

/// The 2D/3D kernels split the streamed axis through the library's own
/// streamChunks and chunkBounds. A harness appended to a generated library
/// lists the chunks for many extents, hS values and pool sizes: they must
/// tile [0, ns) with no gap and no overlap, differ in length by at most
/// one plane, none may be longer than hS, and there are as many as the
/// pool has threads while ns allows. Overlapping chunks store the same
/// values twice, so no bit-exactness test would see them.
TEST(NativeStreamSplit, ChunksTileTheStreamAxis) {
  NativeCompiler Compiler;
  if (!Compiler.available())
    GTEST_SKIP() << "no host compiler";
  for (const char *Name : {"j2d5pt", "star3d1r"}) {
    SCOPED_TRACE(Name);
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr);
    const std::string Source =
        generateCppKernelLibrary(
            *Program, lowerSchedule(*Program, testConfig(*Program))) +
        "extern \"C\" long long an5d_test_chunks(long long ns, long long hs,\n"
        "                                        long long *bounds) {\n"
        "  const long long n = streamChunks(ns, hs);\n"
        "  for (long long c = 0; c < n && c < 64; ++c)\n"
        "    chunkBounds(c, n, ns, &bounds[2 * c], &bounds[2 * c + 1]);\n"
        "  return n;\n"
        "}\n";
    const std::string Dir = freshCacheDir(std::string("split-") + Name);
    std::filesystem::create_directories(Dir);
    std::ofstream(Dir + "/split.cpp") << Source;
    CompileOutcome Outcome = Compiler.compileSharedLibrary(
        Dir + "/split.cpp", Dir + "/split.so", {"-O1"});
    ASSERT_TRUE(Outcome.Success) << Outcome.Log;
    std::string LoadError;
    std::unique_ptr<DynamicKernel> Library =
        DynamicKernel::load(Dir + "/split.so", &LoadError);
    ASSERT_NE(Library, nullptr) << LoadError;
    auto *Chunks = Library->fn<long long(long long, long long, long long *)>(
        "an5d_test_chunks");
    auto *SetThreads = Library->fn<void(int)>("an5d_set_threads");
    auto *MaxThreads = Library->fn<int()>("an5d_max_threads");
    ASSERT_TRUE(Chunks && SetThreads && MaxThreads);
    const int Ambient = MaxThreads();
    for (int Threads : {1, 3, 4, 7}) {
      SetThreads(Threads);
      const long long Pool = MaxThreads(); // 1 without OpenMP
      for (long long Ns = 1; Ns <= 40; ++Ns)
        for (long long Hs : {0, 1, 2, 3, 5, 16, 64}) {
          SCOPED_TRACE("pool " + std::to_string(Pool) + ", ns " +
                       std::to_string(Ns) + ", hs " + std::to_string(Hs));
          std::vector<long long> Bounds(128, -1);
          const long long N = Chunks(Ns, Hs, Bounds.data());
          ASSERT_GE(N, std::min(Ns, Pool));
          ASSERT_LE(N, Ns);
          if (Hs > 0)
            EXPECT_GE(N, (Ns + Hs - 1) / Hs);
          long long End = 0, Shortest = Ns, Longest = 0;
          for (long long C = 0; C < N; ++C) {
            const long long Length = Bounds[2 * C + 1] - Bounds[2 * C];
            EXPECT_EQ(Bounds[2 * C], End) << "chunk " << C;
            EXPECT_GE(Length, 1) << "chunk " << C;
            if (Hs > 0)
              EXPECT_LE(Length, Hs) << "chunk " << C;
            Shortest = std::min(Shortest, Length);
            Longest = std::max(Longest, Length);
            End = Bounds[2 * C + 1];
          }
          EXPECT_EQ(End, Ns);
          EXPECT_LE(Longest - Shortest, 1);
        }
    }
    SetThreads(Ambient);
  }
}

//===----------------------------------------------------------------------===//
// Executor contract
//===----------------------------------------------------------------------===//

TEST(NativeRuntime, ZeroStepsLeavesBuffersUntouched) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeExecutor Executor(*Program, testSchedule(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  Grid<float> A({9, 8}, 1), B({9, 8}, 1);
  fillGridDeterministic(A, 3);
  copyGrid(A, B);
  std::vector<float> WantA = A.raw(), WantB = B.raw();
  Executor.run<float>({&A, &B}, 0);
  EXPECT_EQ(A.raw(), WantA);
  EXPECT_EQ(B.raw(), WantB);
}

TEST(NativeRuntime, RunRawRejectsBadArguments) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeExecutor Executor(*Program, testSchedule(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  long long Extents2[2] = {9, 8};
  long long Extents3[3] = {9, 8, 7};
  std::vector<float> Buf(11 * 10, 0.0f);
  // Wrong arity is caught by the loader side.
  EXPECT_EQ(Executor.runRaw(Buf.data(), Buf.data(), Extents3, 3, 1), -1);
  // Null buffers, negative steps and degenerate extents by the kernel.
  EXPECT_NE(Executor.runRaw(nullptr, Buf.data(), Extents2, 2, 1), 0);
  EXPECT_NE(Executor.runRaw(Buf.data(), Buf.data(), Extents2, 2, -1), 0);
  long long Degenerate[2] = {0, 8};
  EXPECT_NE(Executor.runRaw(Buf.data(), Buf.data(), Degenerate, 2, 1), 0);
}

TEST(NativeRuntime, ReportsKernelMetadata) {
  auto Program = makeBenchmarkStencil("star3d1r", ScalarType::Float);
  NativeExecutor Executor(*Program, testSchedule(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  EXPECT_GE(Executor.kernelMaxThreads(), 1);
  EXPECT_EQ(Executor.cacheKey().size(), 16u);
  EXPECT_TRUE(std::filesystem::exists(Executor.libraryPath()));
}

TEST(NativeRuntime, OneDimensionalKernelReportsMetadata) {
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 2;
  Config.HS = 16;
  NativeExecutor Executor(*Program, lowerSchedule(*Program, Config),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  EXPECT_GE(Executor.kernelMaxThreads(), 1);
  // 1D extents arity is enforced like every other dimensionality.
  std::vector<float> Buf(16, 0.0f);
  long long Extents2[2] = {9, 8};
  EXPECT_EQ(Executor.runRaw(Buf.data(), Buf.data(), Extents2, 2, 1), -1);
}

TEST(NativeRuntime, RejectsInfeasibleConfiguration) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 8;
  Config.BS = {16}; // compute width 16 - 2*8*1 = 0: infeasible
  NativeExecutor Executor(*Program, lowerSchedule(*Program, Config),
                          fastBuildOptions(sharedCacheDir()));
  EXPECT_FALSE(Executor.ok());
  EXPECT_NE(Executor.error().find("infeasible"), std::string::npos);
}

TEST(NativeRuntime, ReportsMissingCompiler) {
  NativeCompiler Compiler("/nonexistent/an5d-cxx");
  EXPECT_FALSE(Compiler.available());
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeRuntimeOptions Options = fastBuildOptions(sharedCacheDir());
  Options.Compiler = "/nonexistent/an5d-cxx";
  NativeExecutor Executor(*Program, testSchedule(*Program), Options);
  EXPECT_FALSE(Executor.ok());
  EXPECT_NE(Executor.error().find("not available"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Kernel ABI: bT, hS and bS per call, reentrant, versioned
//===----------------------------------------------------------------------===//

TEST(NativeAbi, ExecutorsDifferingInBlockTimeShareOneKernelAndRunConcurrently) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Shallow = testConfig(*Program);
  BlockConfig Deep = Shallow;
  Deep.BT = 3;
  NativeRuntimeOptions Options = fastBuildOptions(sharedCacheDir());
  NativeExecutor A(*Program, lowerSchedule(*Program, Shallow), Options);
  NativeExecutor B(*Program, lowerSchedule(*Program, Deep), Options);
  ASSERT_TRUE(A.ok()) << A.error();
  ASSERT_TRUE(B.ok()) << B.error();
  EXPECT_EQ(A.cacheKey(), B.cacheKey()) << "bT must not reach the source";
  EXPECT_EQ(A.blockTime(), 2);
  EXPECT_EQ(B.blockTime(), 3);

  // Each thread runs its own grids, of its own shape, through the one
  // loaded kernel several times, so the runs overlap; any state the kernel
  // kept between calls (extents, bT, hS) would corrupt the other's result.
  constexpr long long Steps = 11; // odd: the result lands in buffer 1
  constexpr int Rounds = 4;
  struct Job {
    const NativeExecutor *Executor;
    std::vector<long long> Extents;
    std::uint64_t Seed;
    std::vector<float> Want;
    int WrongRounds = 0;
  };
  std::vector<Job> Jobs = {{&A, {61, 47}, 71, {}}, {&B, {53, 67}, 72, {}}};
  for (Job &J : Jobs) {
    Grid<float> Ref0(J.Extents, Program->radius()),
        Ref1(J.Extents, Program->radius());
    fillGridDeterministic(Ref0, J.Seed);
    copyGrid(Ref0, Ref1);
    referenceRun<float>(*Program, {&Ref0, &Ref1}, Steps);
    J.Want = Ref1.raw();
  }
  auto Drive = [&](Job &J) {
    Grid<float> G0(J.Extents, Program->radius()),
        G1(J.Extents, Program->radius());
    for (int Round = 0; Round < Rounds; ++Round) {
      fillGridDeterministic(G0, J.Seed);
      copyGrid(G0, G1);
      J.Executor->run<float>({&G0, &G1}, Steps);
      J.WrongRounds += G1.raw() != J.Want;
    }
  };
  std::thread First([&] { Drive(Jobs[0]); });
  std::thread Second([&] { Drive(Jobs[1]); });
  First.join();
  Second.join();
  for (const Job &J : Jobs)
    EXPECT_EQ(J.WrongRounds, 0)
        << "bT=" << J.Executor->blockTime() << " on "
        << ProblemSize{J.Extents, Steps}.toString()
        << " differs from referenceRun";
}

TEST(NativeAbi, RunRejectsMissingOrTooNarrowBlockSizesWithoutTouchingBuffers) {
  using RunFn = int(void *, void *, const long long *, long long, int,
                    long long, const int *);
  for (const char *Name : {"star1d1r", "j2d5pt", "star3d1r"}) {
    SCOPED_TRACE(Name);
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr);
    const BlockConfig Config = testConfig(*Program);
    NativeExecutor Executor(*Program, testSchedule(*Program),
                            fastBuildOptions(sharedCacheDir()));
    ASSERT_TRUE(Executor.ok()) << Executor.error();
    std::string Error;
    std::unique_ptr<DynamicKernel> Library =
        DynamicKernel::load(Executor.libraryPath(), &Error);
    ASSERT_NE(Library, nullptr) << Error;
    auto *Run = Library->fn<RunFn>("an5d_run");
    ASSERT_NE(Run, nullptr);

    std::vector<long long> Extents(
        static_cast<std::size_t>(Program->numDims()), 9);
    Grid<float> A(Extents, Program->radius()), B(Extents, Program->radius());
    fillGridDeterministic(A, 5);
    fillGridDeterministic(B, 6);
    const std::vector<float> WantA = A.raw(), WantB = B.raw();
    const std::size_t Bytes = WantA.size() * sizeof(float);
    const int *Bs = Config.BS.data();

    struct Call {
      int Bt;
      long long Hs;
      const int *Bs;
    };
    std::vector<Call> Rejected = {{0, Config.HS, Bs}, {Config.BT, -1, Bs}};
    // The shallowest bt whose compute width bS - 2*bt*RAD drops below 1
    // on the narrowest blocked axis. 1D has no bS to outgrow or omit.
    int TooDeep = 0;
    if (!Config.BS.empty()) {
      const int Narrowest = *std::min_element(Config.BS.begin(),
                                              Config.BS.end());
      const int Reach = 2 * Program->radius();
      TooDeep = (Narrowest + Reach - 1) / Reach;
      Rejected.push_back({TooDeep, Config.HS, Bs});
      Rejected.push_back({Config.BT, Config.HS, nullptr});
    }
    for (const Call &C : Rejected) {
      const std::string What = "bt=" + std::to_string(C.Bt) +
                               " hs=" + std::to_string(C.Hs) +
                               (C.Bs ? "" : " bs=null");
      EXPECT_NE(Run(A.data(), B.data(), Extents.data(), 3, C.Bt, C.Hs, C.Bs),
                0)
          << What;
      EXPECT_EQ(std::memcmp(A.data(), WantA.data(), Bytes), 0)
          << What << " wrote buf0";
      EXPECT_EQ(std::memcmp(B.data(), WantB.data(), Bytes), 0)
          << What << " wrote buf1";
    }
    // One step shallower fits, so the check sits exactly at the boundary.
    if (TooDeep > 1)
      EXPECT_EQ(Run(A.data(), B.data(), Extents.data(), 3, TooDeep - 1,
                    Config.HS, Bs),
                0);
    // A 1D kernel ignores bs, so it runs without one.
    if (Config.BS.empty())
      EXPECT_EQ(Run(A.data(), B.data(), Extents.data(), 3, Config.BT,
                    Config.HS, nullptr),
                0);
  }
}

TEST(NativeAbi, LoaderRefusesALibraryOfAnotherVersion) {
  // A cached library built by an older runtime: the executor's own key
  // holds a library whose an5d_abi_version reports the previous version.
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  const ScheduleIR Schedule = testSchedule(*Program);
  const std::string Source = generateCppKernelLibrary(*Program, Schedule);
  const std::string Current = "int an5d_abi_version(void) { return " +
                              std::to_string(CppKernelAbiVersion) + "; }";
  const std::size_t At = Source.find(Current);
  ASSERT_NE(At, std::string::npos);
  const int Stale = CppKernelAbiVersion - 1;
  std::string Old = Source;
  Old.replace(At, Current.size(),
              "int an5d_abi_version(void) { return " + std::to_string(Stale) +
                  "; }");

  NativeRuntimeOptions Options = fastBuildOptions(freshCacheDir("abi-skew"));
  NativeCompiler Compiler;
  ASSERT_TRUE(Compiler.available());
  KernelCache Cache(Options.CacheDir);
  KernelArtifact Built =
      Cache.getOrBuild(Old, Compiler, Options.ExtraCompileFlags);
  ASSERT_TRUE(Built.Ok) << Built.Log;
  const std::string Key = KernelCache::hashKey(
      Source, Compiler.fingerprint(Options.ExtraCompileFlags));
  std::filesystem::copy_file(Built.LibraryPath,
                             Options.CacheDir + "/an5d_" + Key + ".so");

  NativeExecutor Executor(*Program, Schedule, Options, &Cache);
  EXPECT_TRUE(Executor.cacheHit());
  EXPECT_FALSE(Executor.ok());
  EXPECT_NE(Executor.error().find("kernel ABI version " +
                                  std::to_string(Stale) +
                                  " does not match the runtime's " +
                                  std::to_string(CppKernelAbiVersion)),
            std::string::npos)
      << Executor.error();
}

//===----------------------------------------------------------------------===//
// Kernel cache
//===----------------------------------------------------------------------===//

TEST(KernelCache, HashKeyIsStableAndDiscriminating) {
  std::string KeyA = KernelCache::hashKey("source-a", "compiler-x");
  EXPECT_EQ(KeyA.size(), 16u);
  EXPECT_EQ(KeyA, KernelCache::hashKey("source-a", "compiler-x"));
  EXPECT_NE(KeyA, KernelCache::hashKey("source-b", "compiler-x"));
  EXPECT_NE(KeyA, KernelCache::hashKey("source-a", "compiler-y"));
  // The separator keeps (source, fingerprint) splits distinct.
  EXPECT_NE(KernelCache::hashKey("ab", "c"), KernelCache::hashKey("a", "bc"));
}

TEST(KernelCache, SecondBuildHitsWithoutCompiling) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::string Dir = freshCacheDir("hit");
  KernelCache Cache(Dir);
  NativeRuntimeOptions Options = fastBuildOptions(Dir);

  NativeExecutor First(*Program, testSchedule(*Program), Options, &Cache);
  ASSERT_TRUE(First.ok()) << First.error();
  EXPECT_FALSE(First.cacheHit());
  EXPECT_GT(First.compileSeconds(), 0.0);

  NativeExecutor Second(*Program, testSchedule(*Program), Options, &Cache);
  ASSERT_TRUE(Second.ok()) << Second.error();
  EXPECT_TRUE(Second.cacheHit());
  EXPECT_EQ(Second.libraryPath(), First.libraryPath());

  KernelCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Failures, 0u);
}

TEST(KernelCache, PersistsAcrossCacheObjects) {
  auto Program = makeBenchmarkStencil("j2d9pt", ScalarType::Float);
  std::string Dir = freshCacheDir("persist");
  NativeRuntimeOptions Options = fastBuildOptions(Dir);
  {
    NativeExecutor First(*Program, testSchedule(*Program), Options);
    ASSERT_TRUE(First.ok()) << First.error();
    EXPECT_FALSE(First.cacheHit());
  }
  // A brand-new cache object (fresh process in real usage) over the same
  // directory must find the artifact.
  NativeExecutor Second(*Program, testSchedule(*Program), Options);
  ASSERT_TRUE(Second.ok()) << Second.error();
  EXPECT_TRUE(Second.cacheHit());
}

TEST(KernelCache, ForceRecompileBypassesTheCache) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::string Dir = freshCacheDir("force");
  KernelCache Cache(Dir);
  NativeRuntimeOptions Options = fastBuildOptions(Dir);
  NativeExecutor First(*Program, testSchedule(*Program), Options, &Cache);
  ASSERT_TRUE(First.ok()) << First.error();
  Options.ForceRecompile = true;
  NativeExecutor Second(*Program, testSchedule(*Program), Options, &Cache);
  ASSERT_TRUE(Second.ok()) << Second.error();
  EXPECT_FALSE(Second.cacheHit());
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(KernelCache, TruncatedLibraryIsRebuiltNotLoaded) {
  // Loading a library cut short maps pages past its end, and touching one
  // kills the process (SIGBUS). A hit needs the whole file, so the next
  // executor rebuilds it and runs. The library is built but never loaded
  // here: a loaded one stays mapped, and cutting it short would kill this
  // process instead.
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::string Dir = freshCacheDir("truncated");
  NativeRuntimeOptions Options = fastBuildOptions(Dir);
  KernelArtifact Built = KernelCache(Dir).getOrBuild(
      generateCppKernelLibrary(*Program, testSchedule(*Program)),
      NativeCompiler(), Options.ExtraCompileFlags);
  ASSERT_TRUE(Built.Ok) << Built.Log;
  std::filesystem::resize_file(
      Built.LibraryPath, std::filesystem::file_size(Built.LibraryPath) / 2);

  KernelCache Cache(Dir);
  NativeExecutor Second(*Program, testSchedule(*Program), Options, &Cache);
  ASSERT_TRUE(Second.ok()) << Second.error();
  EXPECT_EQ(Second.libraryPath(), Built.LibraryPath);
  EXPECT_FALSE(Second.cacheHit());
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Hits, 0u);
  expectExecutorMatchesReference<float>(*Program, Second, {23, 19}, 5);
}

TEST(KernelCache, DifferentFlagsLandOnDifferentKeys) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::string Dir = freshCacheDir("flags");
  KernelCache Cache(Dir);
  NativeRuntimeOptions O1 = fastBuildOptions(Dir);
  NativeRuntimeOptions O2 = fastBuildOptions(Dir);
  O2.ExtraCompileFlags = {"-O0"};
  NativeExecutor A(*Program, testSchedule(*Program), O1, &Cache);
  NativeExecutor B(*Program, testSchedule(*Program), O2, &Cache);
  ASSERT_TRUE(A.ok()) << A.error();
  ASSERT_TRUE(B.ok()) << B.error();
  EXPECT_NE(A.cacheKey(), B.cacheKey());
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(KernelCache, CompileFailureIsReportedWithLog) {
  std::string Dir = freshCacheDir("fail");
  KernelCache Cache(Dir);
  NativeCompiler Compiler;
  ASSERT_TRUE(Compiler.available());
  KernelArtifact Artifact =
      Cache.getOrBuild("this is not C++ at all!", Compiler, {"-O0"});
  EXPECT_FALSE(Artifact.Ok);
  EXPECT_FALSE(Artifact.CacheHit);
  EXPECT_NE(Artifact.Log.find("compile failed"), std::string::npos);
  EXPECT_EQ(Cache.stats().Failures, 1u);
  EXPECT_FALSE(std::filesystem::exists(Artifact.LibraryPath));
}

//===----------------------------------------------------------------------===//
// Host target: -march=native and the cache key
//===----------------------------------------------------------------------===//

namespace {

/// Writes an executable shell script at \p Dir/cxx that runs \p Prelude
/// and then hands its arguments to the real host compiler.
std::string writeCompilerWrapper(const std::string &Dir,
                                 const std::string &Prelude) {
  std::filesystem::create_directories(Dir);
  const std::string Path = Dir + "/cxx";
  std::ofstream(Path) << "#!/bin/sh\n"
                      << Prelude << "exec '" << NativeCompiler::detect()
                      << "' \"$@\"\n";
  std::filesystem::permissions(Path, std::filesystem::perms::owner_all);
  return Path;
}

bool hasFlag(const NativeCompiler &Compiler, const std::string &Flag) {
  const std::vector<std::string> Flags = Compiler.flags();
  return std::find(Flags.begin(), Flags.end(), Flag) != Flags.end();
}

} // namespace

TEST(NativeCompiler, FingerprintCarriesTheResolvedHostTarget) {
  NativeCompiler Compiler;
  ASSERT_TRUE(Compiler.available());
  if (!hasFlag(Compiler, "-march=native"))
    GTEST_SKIP() << "the host compiler rejects -march=native";
  EXPECT_NE(Compiler.nativeTarget().find("#define "), std::string::npos)
      << Compiler.nativeTarget();
  EXPECT_NE(Compiler.fingerprint({}).find(Compiler.nativeTarget()),
            std::string::npos);
}

TEST(NativeCompiler, RejectedMarchNativeBuildsBaselineKernels) {
  const std::string Compiler = writeCompilerWrapper(
      freshCacheDir("no-march"),
      "for a in \"$@\"; do\n"
      "  [ \"$a\" = -march=native ] && { echo 'no -march' >&2; exit 1; }\n"
      "done\n");
  NativeCompiler Wrapped(Compiler);
  ASSERT_TRUE(Wrapped.available());
  EXPECT_FALSE(hasFlag(Wrapped, "-march=native"));
  EXPECT_TRUE(Wrapped.nativeTarget().empty());

  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeRuntimeOptions Options = fastBuildOptions(freshCacheDir("no-march-k"));
  Options.Compiler = Compiler;
  NativeExecutor Executor(*Program, testSchedule(*Program), Options);
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  expectExecutorMatchesReference<float>(*Program, Executor, {23, 19}, 7);
}

TEST(NativeCompiler, ResolvedTargetIgnoresMacroOrder) {
  // -dM lists the same macros in a different order from run to run; a
  // process that saw another order must still derive the same key.
  std::vector<std::string> Targets;
  for (const char *Order : {"echo '#define A 1'; echo '#define B 2'",
                            "echo '#define B 2'; echo '#define A 1'"}) {
    NativeCompiler Wrapped(writeCompilerWrapper(
        freshCacheDir("order-" + std::to_string(Targets.size())),
        std::string("case \" $* \" in *\" -dM \"*) ") + Order +
            "; exit 0 ;; esac\n"));
    Targets.push_back(Wrapped.nativeTarget());
  }
  EXPECT_EQ(Targets[0], "#define A 1\n#define B 2\n");
  EXPECT_EQ(Targets[0], Targets[1]);
}

TEST(KernelCache, HostTargetIsPartOfTheKey) {
  // Two compilers that differ only in the macros -march=native predefines
  // (as the same toolchain does on two hosts) must not share artifacts.
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  const std::string Source = generateCppKernelLibrary(
      *Program, lowerSchedule(*Program, productionConfig(3, {32}, 7)));
  std::vector<std::string> Keys, Identities;
  for (const char *Isa : {"AN5D_TEST_ISA_A", "AN5D_TEST_ISA_B"}) {
    const std::string Macro = std::string("#define ") + Isa + " 1";
    NativeCompiler Wrapped(writeCompilerWrapper(
        freshCacheDir(Isa), "case \" $* \" in *\" -dM \"*) echo '" + Macro +
                                "'; exit 0 ;; esac\n"));
    ASSERT_TRUE(hasFlag(Wrapped, "-march=native"));
    EXPECT_EQ(Wrapped.nativeTarget(), Macro + "\n");
    const std::string Fingerprint = Wrapped.fingerprint({});
    EXPECT_NE(Fingerprint.find(Macro), std::string::npos);
    Keys.push_back(KernelCache::hashKey(Source, Fingerprint));
    // Everything after the command line: the wrappers share the real
    // compiler's version and flags, so only the target can differ.
    Identities.push_back(Fingerprint.substr(Wrapped.command().size()));
  }
  EXPECT_NE(Keys[0], Keys[1]);
  EXPECT_NE(Identities[0], Identities[1]);
}

//===----------------------------------------------------------------------===//
// Native measurement backend
//===----------------------------------------------------------------------===//

TEST(NativeMeasurement, MeasurementProblemIsCpuSized) {
  for (int Dims : {1, 2, 3}) {
    ProblemSize Problem = nativeMeasurementProblem(Dims);
    EXPECT_EQ(static_cast<int>(Problem.Extents.size()), Dims);
    EXPECT_GT(Problem.TimeSteps, 0);
    EXPECT_LE(Problem.cellCount(), 1LL << 20)
        << "native timing problems must stay CPU-sized";
  }
}

TEST(NativeMeasurement, SweepTimesRealKernelsAndDeduplicatesCaps) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Base = testConfig(*Program);
  std::vector<SweepCandidate> Candidates;
  for (int Cap : {0, 64}) {
    SweepCandidate Item;
    Item.Config = Base;
    Item.Config.RegisterCap = Cap;
    Candidates.push_back(Item);
  }
  std::vector<ProblemSize> Problems = {nativeMeasurementProblem(2)};
  // Shrink timing further: unit tests only check plumbing.
  Problems[0].Extents = {64, 64};
  Problems[0].TimeSteps = 4;

  std::string Dir = freshCacheDir("sweep");
  KernelCache Cache(Dir);
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(Dir);
  // Parallel compile stage on purpose: same-key builds serialize inside
  // KernelCache, so even concurrent builders must produce exactly one
  // compile (miss) and one wait-then-hit.
  Options.CompileThreads = 2;
  Options.Repeats = 1;
  std::vector<MeasuredResult> Results =
      nativeMeasuredSweep(*Program, Candidates, Problems, Options, &Cache);
  ASSERT_EQ(Results.size(), Candidates.size());
  for (const MeasuredResult &Result : Results) {
    EXPECT_TRUE(Result.Feasible);
    EXPECT_GT(Result.MeasuredGflops, 0.0);
    EXPECT_GT(Result.MeasuredTimeSeconds, 0.0);
  }
  // The register cap is not part of the kernel source: one compile, one
  // cache hit.
  KernelCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
}

TEST(NativeMeasurement, TunerNativeBackendPicksAMeasuredConfig) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 2;
  Options.Native.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Native.Repeats = 1;
  ProblemSize Problem = nativeMeasurementProblem(2);
  Problem.Extents = {96, 96};
  Problem.TimeSteps = 4;
  TuneOutcome Outcome = T.tune(*Program, Problem, Options);
  ASSERT_TRUE(Outcome.Feasible);
  EXPECT_GT(Outcome.BestMeasured.MeasuredGflops, 0.0);
  EXPECT_GT(Outcome.BestMeasured.MeasuredTimeSeconds, 0.0);
  EXPECT_EQ(Outcome.Best.RegisterCap, 0)
      << "native backend collapses register caps";
}

TEST(NativeMeasurement, OneDimensionalTunesThroughRealKernels) {
  // 1D no longer falls back to the simulator: the tuner compiles and
  // times real streaming kernels, so the outcome carries a wall-clock
  // measurement and a cap-normalized configuration.
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 2;
  Options.Native.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Native.Repeats = 1;
  ProblemSize Problem = nativeMeasurementProblem(1);
  Problem.Extents = {4096};
  Problem.TimeSteps = 8;
  TuneOutcome Outcome = T.tune(*Program, Problem, Options);
  ASSERT_TRUE(Outcome.Feasible);
  EXPECT_GT(Outcome.BestMeasured.MeasuredGflops, 0.0);
  EXPECT_GT(Outcome.BestMeasured.MeasuredTimeSeconds, 0.0);
  EXPECT_EQ(Outcome.Best.RegisterCap, 0);
  EXPECT_EQ(Outcome.MeasurementFailures, 0u);
  EXPECT_TRUE(Outcome.Best.BS.empty())
      << "1D native tuning must keep the pure-streaming shape";
}

TEST(NativeMeasurement, ColdTuneCompilesOncePerStencil) {
  // A kernel depends on the stencil only, so a cold tune compiles one
  // kernel and loads it from the cache for every other candidate.
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  Tuner T(GpuSpec::teslaV100());
  for (const std::string &Name : nativeBackendBenchmarks()) {
    SCOPED_TRACE(Name);
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr);
    TuneOptions Options;
    Options.Backend = MeasurementBackend::Native;
    Options.TopK = 8;
    Options.Native.Repeats = 1;
    // Counting compiles needs no optimizer: -O0 keeps the cold builds of
    // the radius-4 box stencils short.
    Options.Native.Runtime.CacheDir = freshCacheDir("cold-" + Name);
    Options.Native.Runtime.ExtraCompileFlags = {"-O0"};
    // Plumbing only: a tiny timed problem.
    ProblemSize Problem;
    Problem.Extents.assign(static_cast<std::size_t>(Program->numDims()), 24);
    Problem.TimeSteps = 4;

    Registry.reset();
    TuneOutcome Outcome = T.tune(*Program, Problem, Options);
    ASSERT_TRUE(Outcome.Feasible);
    // The radius-4 3D stencils run out of host-menu candidates: the four
    // 512-lane shapes and the ring budget leave them six here.
    const std::size_t Timed = Outcome.TopByModel.size();
    if (Name == "star3d4r" || Name == "box3d4r")
      EXPECT_LT(Timed, Options.TopK);
    else
      ASSERT_EQ(Timed, Options.TopK);
    EXPECT_EQ(Outcome.MeasurementFailures, 0u);
    EXPECT_EQ(Outcome.AnalysisRejections, 0u);
    EXPECT_EQ(Registry.counterValue("kernel_cache.misses"), 1);
    EXPECT_EQ(Registry.counterValue("kernel_cache.hits"),
              static_cast<long long>(Timed) - 1);
  }
}

TEST(NativeMeasurement, SweepRecordsPerCandidateFailureReasons) {
  // A broken host compiler must not masquerade as "infeasible": every
  // candidate records why its kernel never ran.
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::vector<SweepCandidate> Candidates(2);
  Candidates[0].Config = testConfig(*Program);
  Candidates[1].Config = testConfig(*Program);
  Candidates[1].Config.BT = 3;
  std::vector<ProblemSize> Problems = {nativeMeasurementProblem(2)};
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(freshCacheDir("failreason"));
  Options.Runtime.Compiler = "/nonexistent/an5d-cxx";
  Options.CompileThreads = 1;
  std::vector<MeasuredResult> Results =
      nativeMeasuredSweep(*Program, Candidates, Problems, Options);
  ASSERT_EQ(Results.size(), 2u);
  for (const MeasuredResult &Result : Results) {
    EXPECT_FALSE(Result.Feasible);
    EXPECT_NE(Result.FailureReason.find("not available"),
              std::string::npos)
        << Result.FailureReason;
  }
}

TEST(NativeMeasurement, InfeasibleCandidateFailsBeforeAnyCompile) {
  // The sweep has no static check of its own: a configuration whose halo
  // eats the block fails through the build path before the compiler runs,
  // and its feasible neighbour is still measured.
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::vector<SweepCandidate> Candidates(2);
  Candidates[0].Config = testConfig(*Program);
  Candidates[1].Config.BT = 8;
  Candidates[1].Config.BS = {16}; // compute width 16 - 2*8*1 = 0
  ProblemSize Problem{{64, 64}, 4};
  std::string Dir = freshCacheDir("infeasible");
  KernelCache Cache(Dir);
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(Dir);
  std::vector<MeasuredResult> Results =
      nativeMeasuredSweep(*Program, Candidates, {Problem}, Options, &Cache);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].Feasible) << Results[0].FailureReason;
  EXPECT_EQ(Results[1].FailureKind, MeasureFailureKind::BuildFailed);
  EXPECT_NE(Results[1].FailureReason.find("infeasible"), std::string::npos)
      << Results[1].FailureReason;
  EXPECT_EQ(Cache.stats().Misses, 1u) << "only the feasible kernel compiles";
}

TEST(NativeMeasurement, SweepWarmsUpOnceAndTimesEveryRepeat) {
  // Every candidate runs the stencil's one kernel library, so a sweep
  // warms it up once, on the first candidate whose kernel runs: the
  // infeasible configuration swept first never runs and does not take
  // the warmup. Each feasible candidate still gets all of its timed
  // repeats on each problem size.
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Infeasible;
  Infeasible.BT = 8;
  Infeasible.BS = {16}; // compute width 16 - 2*8*1 = 0
  BlockConfig Deeper = testConfig(*Program);
  Deeper.BT = 3;
  std::vector<ProblemSize> Problems = {{{64, 64}, 4}, {{48, 80}, 3}};
  std::vector<SweepCandidate> Candidates;
  for (const BlockConfig &Config :
       {Infeasible, testConfig(*Program), Deeper})
    for (std::size_t P = 0; P < Problems.size(); ++P) {
      SweepCandidate Item;
      Item.Config = Config;
      Item.ProblemIndex = P;
      Candidates.push_back(Item);
    }
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Repeats = 3;
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  Registry.reset();
  std::vector<MeasuredResult> Results =
      nativeMeasuredSweep(*Program, Candidates, Problems, Options);
  ASSERT_EQ(Results.size(), 6u);
  for (std::size_t I = 0; I < Results.size(); ++I) {
    SCOPED_TRACE(I);
    if (I < 2) {
      EXPECT_FALSE(Results[I].Feasible);
      EXPECT_EQ(Results[I].FailureKind, MeasureFailureKind::BuildFailed);
    } else {
      EXPECT_TRUE(Results[I].Feasible) << Results[I].FailureReason;
      EXPECT_GT(Results[I].MeasuredGflops, 0.0);
    }
  }
  EXPECT_EQ(Registry.counterValue("measure.warmups"), 1);
  EXPECT_EQ(Registry.counterValue("measure.repeats"), 4 * Options.Repeats);
}

TEST(NativeMeasurement, TunerCountsCompileFailures) {
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 2;
  Options.Native.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Native.Runtime.Compiler = "/nonexistent/an5d-cxx";
  TuneOutcome Outcome =
      T.tune(*Program, nativeMeasurementProblem(1), Options);
  EXPECT_FALSE(Outcome.Feasible);
  EXPECT_EQ(Outcome.MeasurementFailures, Options.TopK)
      << "every candidate kernel should fail on the broken compiler";
  EXPECT_NE(Outcome.FirstFailureReason.find("not available"),
            std::string::npos)
      << Outcome.FirstFailureReason;
}

TEST(NativeMeasurement, TimingsAreClampedToResolvableDurations) {
  // A degenerate problem (4 cells, 1 step) can complete faster than the
  // clock resolves; the sweep must still report a usable positive time
  // rather than zero or infinite GFLOP/s.
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  std::vector<SweepCandidate> Candidates(1);
  Candidates[0].Config = testConfig(*Program);
  std::vector<ProblemSize> Problems(1);
  Problems[0].Extents = {4};
  Problems[0].TimeSteps = 1;
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Repeats = 1;
  std::vector<MeasuredResult> Results =
      nativeMeasuredSweep(*Program, Candidates, Problems, Options);
  ASSERT_EQ(Results.size(), 1u);
  ASSERT_TRUE(Results[0].Feasible) << Results[0].FailureReason;
  EXPECT_GE(Results[0].MeasuredTimeSeconds, 1e-7);
}
