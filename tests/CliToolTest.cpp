//===- CliToolTest.cpp - Integration tests for the an5dc driver ---------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises the installed an5dc binary end to end: stencil detection from
/// a C file, rejection diagnostics, tuning, verification and CUDA emission.
/// The binary path is injected by CMake as AN5DC_BINARY_PATH.
///
//===----------------------------------------------------------------------===//

#include "obs/JsonLite.h"
#include "runtime/NativeCompiler.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace {

/// Runs a command, captures stdout+stderr, returns (exit code, output).
std::pair<int, std::string> runCommand(const std::string &Command) {
  std::string Full = Command + " 2>&1";
  FILE *Pipe = popen(Full.c_str(), "r");
  if (!Pipe)
    return {-1, ""};
  std::string Output;
  std::array<char, 4096> Buffer;
  while (std::fgets(Buffer.data(), Buffer.size(), Pipe))
    Output += Buffer.data();
  int Status = pclose(Pipe);
  return {WEXITSTATUS(Status), Output};
}

std::string an5dc() { return AN5DC_BINARY_PATH; }

std::string writeTempStencil(const std::string &Tag,
                             const std::string &Source) {
  std::string Path = ::testing::TempDir() + "/an5dc_" + Tag + ".c";
  std::ofstream Out(Path);
  Out << Source;
  return Path;
}

const char *ValidStencil =
    "for (t = 0; t < I_T; t++)\n"
    "  for (i = 1; i <= I_S2; i++)\n"
    "    for (j = 1; j <= I_S1; j++)\n"
    "      A[(t+1)%2][i][j] = 0.25f * A[t%2][i-1][j] + 0.5f * A[t%2][i][j]\n"
    "        + 0.25f * A[t%2][i+1][j];\n";

} // namespace

TEST(CliTool, ListBenchmarks) {
  auto [Code, Output] = runCommand(an5dc() + " --list-benchmarks");
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Output.find("star2d1r"), std::string::npos);
  EXPECT_NE(Output.find("j3d27pt"), std::string::npos);
}

TEST(CliTool, PrintStencilFromFile) {
  std::string Path = writeTempStencil("valid", ValidStencil);
  auto [Code, Output] =
      runCommand(an5dc() + " --print-stencil " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Output.find("star"), std::string::npos);
  EXPECT_NE(Output.find("radius 1"), std::string::npos);
  EXPECT_NE(Output.find("FLOP/cell: 5"), std::string::npos);
}

TEST(CliTool, RejectsBadStencilWithDiagnostics) {
  std::string Path = writeTempStencil(
      "bad", "for (t = 0; t < I_T; t++)\n"
             "  for (i = 1; i <= I_S2; i++)\n"
             "    for (j = 1; j <= I_S1; j++)\n"
             "      A[(t+1)%2][i][j] = A[(t+1)%2][i-1][j];\n");
  auto [Code, Output] = runCommand(an5dc() + " " + Path);
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("error:"), std::string::npos);
  EXPECT_NE(Output.find("data independent"), std::string::npos);
}

TEST(CliTool, VerifyManualConfig) {
  std::string Path = writeTempStencil("verify", ValidStencil);
  auto [Code, Output] = runCommand(
      an5dc() + " --bt 3 --bs 64 --hs 16 --verify " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Output.find("blocked == reference (bitwise)"),
            std::string::npos);
}

TEST(CliTool, EmitCudaWritesFiles) {
  std::string Path = writeTempStencil("emit", ValidStencil);
  std::string Dir = ::testing::TempDir() + "/an5dc_out";
  auto [Code, Output] = runCommand(an5dc() + " --bt 4 --emit-cuda " + Dir +
                                   " " + Path);
  EXPECT_EQ(Code, 0);
  std::ifstream Kernel(Dir + "/an5d_an5dc_emit_bt4.cu");
  EXPECT_TRUE(Kernel.good()) << Output;
  std::string Text((std::istreambuf_iterator<char>(Kernel)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("__global__"), std::string::npos);
}

TEST(CliTool, BenchmarkTuneAndModel) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star2d1r --tune --print-model");
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Output.find("tuned: bT="), std::string::npos);
  EXPECT_NE(Output.find("simulated measurement:"), std::string::npos);
}

TEST(CliTool, ReportShowsScheduleAndRoofline) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j2d9pt --bt 6 --bs 256 --hs 512 --report");
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Output.find("AN5D schedule report"), std::string::npos);
  EXPECT_NE(Output.find("predicted bottleneck"), std::string::npos);
  EXPECT_NE(Output.find("host schedule"), std::string::npos);
}

TEST(CliTool, SimplifyReportsFoldCounts) {
  std::string Path = writeTempStencil(
      "simplify",
      "for (t = 0; t < I_T; t++)\n"
      "  for (i = 1; i <= I_S2; i++)\n"
      "    for (j = 1; j <= I_S1; j++)\n"
      "      A[(t+1)%2][i][j] = 1.0f * A[t%2][i][j] + 0.0f\n"
      "        + (0.25f + 0.25f) * A[t%2][i-1][j];\n");
  auto [Code, Output] = runCommand(
      an5dc() + " --simplify --print-stencil " + Path);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Output.find("simplify: folded"), std::string::npos);
  EXPECT_NE(Output.find("0.5"), std::string::npos)
      << "0.25+0.25 folds to 0.5";
}

TEST(CliTool, DivToMulRemovesDivision) {
  auto [Code, Output] = runCommand(
      an5dc() +
      " --benchmark j2d5pt --type double --div-to-mul --print-stencil");
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Output.find("rewrote 1 division"), std::string::npos);
  EXPECT_EQ(Output.find("/ 118"), std::string::npos)
      << "the division must be gone from the printed update";
}

TEST(CliTool, UnknownBenchmarkFails) {
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark nosuchthing");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("unknown benchmark"), std::string::npos);
}

TEST(CliTool, InfeasibleManualConfigRejected) {
  std::string Path = writeTempStencil("infeasible", ValidStencil);
  auto [Code, Output] =
      runCommand(an5dc() + " --bt 16 --bs 16 " + Path);
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("infeasible"), std::string::npos);
}

TEST(CliTool, NonNumericBtRejected) {
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark j2d5pt --bt foo");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("invalid value 'foo' for --bt"), std::string::npos);
}

TEST(CliTool, NonNumericBsEntryRejected) {
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark j3d27pt --bs 32,zebra");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("invalid value 'zebra' for --bs"),
            std::string::npos);
}

TEST(CliTool, ZeroBtRejected) {
  // atoi would have turned this into 0 and silently fallen back.
  auto [Code, Output] = runCommand(an5dc() + " --benchmark j2d5pt --bt 0");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("for --bt"), std::string::npos);
}

TEST(CliTool, NegativeHsRejected) {
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark j2d5pt --hs -3");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("invalid value '-3' for --hs"), std::string::npos);
}

TEST(CliTool, NonNumericTuneTopkRejected) {
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark j2d5pt --tune --tune-topk many");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("for --tune-topk"), std::string::npos);
}

TEST(CliTool, UnknownMeasureSourceRejected) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j2d5pt --tune --measure quantum");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("unknown measurement source"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Native runtime flags
//===----------------------------------------------------------------------===//

namespace {

/// A per-invocation-unique cache directory under the test temp dir, so
/// miss/hit assertions cannot be poisoned by earlier ctest runs.
std::string freshKernelCache(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "an5dc_cache_" + Tag;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// The cache shared by tests that only need *a* kernel (kept warm across
/// ctest runs to keep them fast).
std::string sharedKernelCache() {
  return ::testing::TempDir() + "an5dc_cache_shared";
}

} // namespace

TEST(CliTool, EmitOmpWritesKernelLibrary) {
  std::string Dir = ::testing::TempDir() + "/an5dc_omp_out";
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j2d5pt --bt 2 --bs 64 --hs 0 --emit-omp " +
      Dir);
  EXPECT_EQ(Code, 0);
  std::ifstream Kernel(Dir + "/j2d5pt_omp.cpp");
  ASSERT_TRUE(Kernel.good()) << Output;
  std::string Text((std::istreambuf_iterator<char>(Kernel)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("extern \"C\""), std::string::npos);
  EXPECT_NE(Text.find("int an5d_run("), std::string::npos);
  EXPECT_NE(Text.find("#pragma omp"), std::string::npos);
}

TEST(CliTool, VerifyNativeMatchesReference) {
  // Two problems, one line each: 2*cw+3 = 59 columns cross three blocks,
  // cw-1 = 27 fit one (cw = 32 - 2*2*1); both have 2*hS+3 rows and 2*bT+1
  // steps.
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j2d5pt --bt 2 --bs 32 --hs 8 --kernel-cache " +
      sharedKernelCache() + " --verify-native");
  EXPECT_EQ(Code, 0) << Output;
  for (const char *Problem : {"19x59 IT=5", "19x27 IT=5"})
    EXPECT_NE(Output.find(std::string("verify-native (bT=2 bS=32 hS=8, ") +
                          Problem + "): native == reference (bitwise)"),
              std::string::npos)
        << Problem << ":\n"
        << Output;
}

TEST(CliTool, VerifyNativeBlockTallerThanTheGridStaysInMemory) {
  // A ring plane holds the rows a block can touch, not bs[0] rows, and
  // the check grid is clipped to what --verify-native holds: a 2^26-row
  // block verifies under a 2 GiB address-space limit.
  if (!an5d::NativeCompiler::sanitizerFlags().empty())
    GTEST_SKIP() << "sanitizer runtimes reserve more address space than "
                    "the limit allows";
  auto [Code, Output] = runCommand(
      "ulimit -v 2097152 && " + an5dc() +
      " --benchmark star3d1r --bt 1 --bs 67108864,512 --hs 128 "
      "--measure-threads 2 --kernel-cache " +
      sharedKernelCache() + " --verify-native");
  EXPECT_EQ(Code, 0) << Output;
  for (const char *Problem : {"259x253x1023 IT=3", "259x509x509 IT=3"})
    EXPECT_NE(Output.find(std::string(Problem) +
                          "): native == reference (bitwise)"),
              std::string::npos)
        << Problem << ":\n"
        << Output;
}

TEST(CliTool, HostOnlyBlockReachesEveryCpuOutput) {
  // bS=32x128 is 4096 lanes: past a GPU's 1024-thread cap, legal for a CPU
  // kernel, and a shape a native tune picks.
  const std::string Dir = ::testing::TempDir() + "/an5dc_host_block";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star3d1r --bt 4 --bs 32,128 --hs 8 "
                "--kernel-cache " +
      sharedKernelCache() + " --run-native --verify-native --emit-omp " +
      Dir + " --emit-check " + Dir + " --analyze " + Dir + "/report.json");
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("GFLOP/s"), std::string::npos) << Output;
  EXPECT_NE(Output.find("native == reference (bitwise)"), std::string::npos)
      << Output;
  for (const char *File : {"star3d1r_omp.cpp", "star3d1r_check.cpp",
                           "report.json"})
    EXPECT_TRUE(std::filesystem::exists(Dir + "/" + File)) << File;
}

TEST(CliTool, HostOnlyBlockRefusesCudaFacingOutputs) {
  const std::string Dir = ::testing::TempDir() + "/an5dc_host_block_cuda";
  std::filesystem::remove_all(Dir);
  for (const std::string &Flag :
       {"--emit-cuda " + Dir, std::string("--print-model"),
        std::string("--report")}) {
    auto [Code, Output] = runCommand(
        an5dc() + " --benchmark star3d1r --bt 4 --bs 32,128 --hs 128 " +
        Flag);
    EXPECT_EQ(Code, 1) << Flag << ":\n" << Output;
    EXPECT_NE(Output.find("above the 1024-thread cap"), std::string::npos)
        << Flag << ":\n" << Output;
    EXPECT_EQ(std::count(Output.begin(), Output.end(), '\n'), 1)
        << Flag << ":\n" << Output;
  }
  EXPECT_FALSE(std::filesystem::exists(Dir));
}

TEST(CliTool, RunNativeSecondInvocationHitsCache) {
  std::string Cache = freshKernelCache("hit");
  auto Command = [&](const std::string &BS) {
    return an5dc() + " --benchmark j2d5pt --bt 2 --bs " + BS +
           " --hs 8 --kernel-cache " + Cache + " --run-native";
  };
  auto [Code1, Output1] = runCommand(Command("32"));
  EXPECT_EQ(Code1, 0) << Output1;
  EXPECT_NE(Output1.find("kernel cache: miss"), std::string::npos)
      << Output1;
  auto [Code2, Output2] = runCommand(Command("32"));
  EXPECT_EQ(Code2, 0) << Output2;
  EXPECT_NE(Output2.find("kernel cache: hit"), std::string::npos)
      << Output2;
  EXPECT_NE(Output2.find("GFLOP/s"), std::string::npos);
  // bS is a run argument, so another block size loads the same kernel.
  auto [Code3, Output3] = runCommand(Command("64"));
  EXPECT_EQ(Code3, 0) << Output3;
  EXPECT_NE(Output3.find("kernel cache: hit"), std::string::npos)
      << Output3;
  EXPECT_NE(Output3.find("bS=64"), std::string::npos) << Output3;
}

TEST(CliTool, TuneWithNativeMeasurement) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j2d5pt --tune --measure native --tune-topk 2 "
                "--kernel-cache " +
      sharedKernelCache() + " --verify-native");
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("tuned: bT="), std::string::npos) << Output;
  EXPECT_NE(Output.find("native"), std::string::npos);
  EXPECT_NE(Output.find("measured on host CPU"), std::string::npos);
  EXPECT_NE(Output.find("native == reference (bitwise)"), std::string::npos)
      << Output;
}

TEST(CliTool, VerifyNative1dMatchesReference) {
  // No blocked axis, so no one-block problem: a single verify-native line.
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j1d3pt --bt 3 --hs 16 --kernel-cache " +
      sharedKernelCache() + " --verify-native");
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("native == reference (bitwise)"), std::string::npos)
      << Output;
  EXPECT_EQ(Output.find("verify-native"), Output.rfind("verify-native"))
      << Output;
}

TEST(CliTool, RunNative1dReportsThroughput) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j1d3pt --bt 3 --hs 16 --kernel-cache " +
      sharedKernelCache() + " --run-native");
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("GFLOP/s"), std::string::npos) << Output;
  EXPECT_NE(Output.find("bS=-"), std::string::npos)
      << "1D configs print the pure-streaming shape";
}

TEST(CliTool, EmitOmp1dWritesKernelLibrary) {
  std::string Dir = ::testing::TempDir() + "/an5dc_omp1d_out";
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star1d1r --bt 2 --hs 32 --emit-omp " + Dir);
  EXPECT_EQ(Code, 0) << Output;
  std::ifstream Kernel(Dir + "/star1d1r_omp.cpp");
  ASSERT_TRUE(Kernel.good()) << Output;
  std::string Text((std::istreambuf_iterator<char>(Kernel)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("int an5d_run("), std::string::npos);
  EXPECT_NE(Text.find("#pragma omp"), std::string::npos);
  EXPECT_NE(Text.find("size_t pidx(long long i)"), std::string::npos)
      << "1D kernels index a single dimension";
  EXPECT_EQ(Text.find("BS1"), std::string::npos)
      << "1D kernels have no blocked dimensions";
}

TEST(CliTool, TuneWithNativeMeasurement1d) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star1d1r --tune --measure native "
                "--tune-topk 2 --measure-repeats 1 --kernel-cache " +
      sharedKernelCache() + " --verify-native");
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("tuned: bT="), std::string::npos) << Output;
  EXPECT_NE(Output.find("measured on host CPU"), std::string::npos)
      << Output;
  EXPECT_NE(Output.find("native == reference (bitwise)"), std::string::npos)
      << Output;
  EXPECT_EQ(Output.find("simulator"), std::string::npos)
      << "1D native tuning must not fall back to the simulator";
}

TEST(CliTool, BrokenCompilerSurfacesFailureCountNotInfeasible) {
  // AN5D_CXX overrides the host compiler the native runtime shells out
  // to; a broken one must produce the failure warning with a cause, not
  // a bare "no feasible config".
  auto [Code, Output] = runCommand(
      "AN5D_CXX=/nonexistent/an5d-cxx " + an5dc() +
      " --benchmark j1d3pt --tune --measure native --tune-topk 2");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("failed to compile or run"), std::string::npos)
      << Output;
  EXPECT_NE(Output.find("not available"), std::string::npos)
      << "the warning must carry the failure cause";
}

TEST(CliTool, CudaEmissionSupports1dStencils) {
  std::string Dir = ::testing::TempDir() + "/an5dc_cuda1d_out";
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star1d1r --bt 2 --hs 32 --emit-cuda " + Dir);
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("wrote"), std::string::npos) << Output;
  std::ifstream Kernel(Dir + "/an5d_star1d1r_bt2.cu");
  ASSERT_TRUE(Kernel.good());
  std::string Source((std::istreambuf_iterator<char>(Kernel)),
                     std::istreambuf_iterator<char>());
  // 1D pure streaming: thread-per-chunk, register rings only — no tile,
  // no shared memory, no synchronization.
  EXPECT_NE(Source.find("extern \"C\" __global__"), std::string::npos);
  EXPECT_NE(Source.find("int n_chunks"), std::string::npos);
  EXPECT_EQ(Source.find("__shared__"), std::string::npos);
  EXPECT_EQ(Source.find("__syncthreads"), std::string::npos);
}

TEST(CliTool, LoopTilingBaselineStillRejectedFor1dStencils) {
  std::string Dir = ::testing::TempDir() + "/an5dc_tiling1d_out";
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark star1d1r --bt 2 --hs 32 "
                           "--emit-loop-tiling " +
                 Dir);
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("loop-tiling"), std::string::npos);
}

TEST(CliTool, MeasureThreadsAppliesToRunNative) {
  // The flag is not tune-only: a standalone --run-native must pin the
  // kernel's OpenMP pool to the requested size.
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j1d3pt --bt 3 --hs 16 --measure-threads 2 "
                "--kernel-cache " +
      sharedKernelCache() + " --run-native");
  EXPECT_EQ(Code, 0) << Output;
  if (Output.find("on 1 thread(s)") != std::string::npos)
    GTEST_SKIP() << "kernel built without OpenMP (serial fallback): the "
                    "pool size cannot be observed";
  EXPECT_NE(Output.find("on 2 thread(s)"), std::string::npos) << Output;
}

TEST(CliTool, MeasureRepeatsAppliesToRunNative) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j1d3pt --bt 3 --hs 16 --measure-repeats 3 "
                "--kernel-cache " +
      sharedKernelCache() + " --run-native");
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("(best of 3)"), std::string::npos) << Output;
}

TEST(CliTool, NonNumericMeasureThreadsRejected) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j2d5pt --tune --measure native "
                "--measure-threads many");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("invalid value 'many' for --measure-threads"),
            std::string::npos);
}

TEST(CliTool, ZeroMeasureRepeatsRejected) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark j2d5pt --tune --measure native "
                "--measure-repeats 0");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Output.find("for --measure-repeats"), std::string::npos);
}

TEST(CliTool, LintReportsCleanGeneratedSources) {
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star3d1r --type double --bt 2 --bs 16,16 "
                "--hs 128 --lint");
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("lint (kernel library"), std::string::npos)
      << Output;
  EXPECT_NE(Output.find("lint (check program"), std::string::npos)
      << Output;
  EXPECT_EQ(Output.find("lint failed"), std::string::npos) << Output;
}

//===----------------------------------------------------------------------===//
// --analyze: the static analysis pass report
//===----------------------------------------------------------------------===//

namespace {

/// Extracts and parses the an5d-analysis-v1 JSON line from mixed CLI
/// output (tuning chatter may precede it when --tune rides along).
std::optional<an5d::obs::JsonValue> parseAnalysisLine(
    const std::string &Output, std::string *Error = nullptr) {
  std::istringstream Lines(Output);
  std::string Line;
  while (std::getline(Lines, Line))
    if (Line.find("an5d-analysis-v1") != std::string::npos)
      return an5d::obs::parseJson(Line, Error);
  if (Error)
    *Error = "no an5d-analysis-v1 line in output";
  return std::nullopt;
}

} // namespace

TEST(CliTool, AnalyzeEmitsSchemaJsonOnStdout) {
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark j2d5pt --analyze -");
  EXPECT_EQ(Code, 0) << Output;

  std::string Error;
  auto Parsed = an5d::obs::parseJson(Output, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error << "\n" << Output;
  ASSERT_TRUE(Parsed->isObject());
  ASSERT_NE(Parsed->find("schema"), nullptr);
  EXPECT_EQ(Parsed->find("schema")->String, "an5d-analysis-v1");
  EXPECT_EQ(Parsed->find("stencil")->String, "j2d5pt");
  EXPECT_EQ(Parsed->find("errors")->Number, 0.0);
  EXPECT_EQ(Parsed->find("warnings")->Number, 0.0);
  ASSERT_NE(Parsed->find("findings"), nullptr);
  EXPECT_TRUE(Parsed->find("findings")->isArray());
  EXPECT_TRUE(Parsed->find("findings")->Items.empty());

  const an5d::obs::JsonValue *Resources = Parsed->find("resources");
  ASSERT_NE(Resources, nullptr);
  ASSERT_TRUE(Resources->isObject());
  EXPECT_EQ(Resources->find("valid")->Number, 1.0);
  EXPECT_GT(Resources->find("registers_per_thread")->Number, 0.0);
  EXPECT_GT(Resources->find("smem_bytes_per_block")->Number, 0.0);
  EXPECT_GT(Resources->find("arithmetic_intensity")->Number, 0.0);
  EXPECT_GE(Resources->find("load_redundancy")->Number, 1.0);
}

TEST(CliTool, AnalyzeWritesReportFile) {
  std::string Path = ::testing::TempDir() + "/an5dc_analyze_report.json";
  std::remove(Path.c_str());
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star2d2r --bt 2 --bs 128 --hs 256 --analyze " +
      Path);
  EXPECT_EQ(Code, 0) << Output;
  EXPECT_NE(Output.find("report written to"), std::string::npos) << Output;

  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "report file missing: " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Error;
  auto Parsed = an5d::obs::parseJson(Buffer.str(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->find("stencil")->String, "star2d2r");
  EXPECT_EQ(Parsed->find("config")->String, "bT=2 bS=128 hS=256");
  EXPECT_EQ(Parsed->find("errors")->Number, 0.0);
}

TEST(CliTool, AnalyzeWorksOnExtractedStencilFiles) {
  std::string Path = writeTempStencil("analyze", ValidStencil);
  auto [Code, Output] =
      runCommand(an5dc() + " " + Path + " --bt 2 --bs 64 --analyze -");
  EXPECT_EQ(Code, 0) << Output;
  std::string Error;
  auto Parsed = parseAnalysisLine(Output, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error << "\n" << Output;
  EXPECT_EQ(Parsed->find("errors")->Number, 0.0);
}

TEST(CliTool, AnalyzeWorksFor1dStreaming) {
  // A manual 1D configuration carries no --bs: the prover gets the
  // pure-streaming schedule.
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star1d1r --bt 2 --hs 64 --analyze -");
  EXPECT_EQ(Code, 0) << Output;
  std::string Error;
  auto Parsed = parseAnalysisLine(Output, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error << "\n" << Output;
  EXPECT_EQ(Parsed->find("config")->String, "bT=2 bS=- hS=64");
  EXPECT_EQ(Parsed->find("errors")->Number, 0.0);
}

TEST(CliTool, AnalyzeComposesWithTuneForEveryBuiltin) {
  // Every builtin must produce a clean analysis report at its tuned
  // configuration — including star3d4r/box3d4r, whose radius the default
  // configuration cannot host (config resolution would fail without
  // --tune).
  auto [ListCode, List] = runCommand(an5dc() + " --list-benchmarks");
  ASSERT_EQ(ListCode, 0);
  std::istringstream Names(List);
  std::string Name;
  int Checked = 0;
  while (std::getline(Names, Name)) {
    if (Name.empty())
      continue;
    auto [Code, Output] =
        runCommand(an5dc() + " --benchmark " + Name + " --tune --analyze -");
    EXPECT_EQ(Code, 0) << Name << ": " << Output;
    std::string Error;
    auto Parsed = parseAnalysisLine(Output, &Error);
    ASSERT_TRUE(Parsed.has_value()) << Name << ": " << Error << "\n" << Output;
    EXPECT_EQ(Parsed->find("stencil")->String, Name);
    EXPECT_EQ(Parsed->find("errors")->Number, 0.0) << Name << ": " << Output;
    ++Checked;
  }
  EXPECT_EQ(Checked, 30) << "builtin roster changed; update this count";
}

TEST(CliTool, MissingAnalyzeValueRejected) {
  auto [Code, Output] =
      runCommand(an5dc() + " --benchmark j2d5pt --analyze");
  EXPECT_EQ(Code, 2) << Output;
  EXPECT_NE(Output.find("missing value for --analyze"), std::string::npos)
      << Output;
}

TEST(CliTool, UnwritableAnalyzePathFails) {
  auto [Code, Output] = runCommand(
      an5dc() +
      " --benchmark j2d5pt --analyze /nonexistent_an5d_dir/report.json");
  EXPECT_EQ(Code, 1) << Output;
  EXPECT_NE(Output.find("cannot write"), std::string::npos) << Output;
}

TEST(CliTool, InfeasibleConfigFailsBeforeAnalyze) {
  // Config resolution precedes analysis: the report must not be produced
  // for a configuration the block-shape feasibility check refuses.
  auto [Code, Output] = runCommand(
      an5dc() + " --benchmark star3d4r --analyze -");
  EXPECT_EQ(Code, 1) << Output;
  EXPECT_EQ(Output.find("an5d-analysis-v1"), std::string::npos) << Output;
  EXPECT_NE(Output.find("infeasible"), std::string::npos) << Output;
}
