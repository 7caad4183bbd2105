//===- EndToEndTest.cpp - Full pipeline integration tests ---------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Integration tests spanning the full pipeline: C source -> parse ->
/// extract -> (a) blocked emulation vs reference, (b) CUDA generation,
/// (c) portable C++ generation compiled with the host compiler and run.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"
#include "codegen/CudaCodegen.h"
#include "frontend/StencilExtractor.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace an5d;

TEST(EndToEnd, ParseExtractEmulateJ2d5pt) {
  DiagnosticEngine Diags;
  StencilExtractor Extractor(Diags);
  auto Result = Extractor.extractFromSource(j2d5ptSource(), "j2d5pt");
  ASSERT_TRUE(Result.has_value()) << Diags.toString();
  const StencilProgram &P = *Result->Program;

  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {32};
  Config.HS = 8;

  Grid<float> Ref0({33, 29}, 1), Ref1({33, 29}, 1);
  fillGridDeterministic(Ref0, 5);
  copyGrid(Ref0, Ref1);
  Grid<float> Blk0 = Ref0, Blk1 = Ref0;

  referenceRun<float>(P, {&Ref0, &Ref1}, 10);
  blockedRun<float>(P, Config, {&Blk0, &Blk1}, 10);
  EXPECT_EQ(Ref0.raw(), Blk0.raw());
}

TEST(EndToEnd, ParsedAndBuiltProgramsAgreeNumerically) {
  // The Fig. 4 source and the programmatic j2d5pt builder must compute
  // identical results (same expression structure).
  DiagnosticEngine Diags;
  StencilExtractor Extractor(Diags);
  auto Parsed = Extractor.extractFromSource(j2d5ptSource(), "j2d5pt");
  ASSERT_TRUE(Parsed.has_value());
  auto Built = makeJacobi2d5pt(ScalarType::Float);

  Grid<float> A0({20, 18}, 1), A1({20, 18}, 1);
  fillGridDeterministic(A0, 11);
  copyGrid(A0, A1);
  Grid<float> B0 = A0, B1 = A0;

  referenceRun<float>(*Parsed->Program, {&A0, &A1}, 6);
  referenceRun<float>(*Built, {&B0, &B1}, 6);
  EXPECT_EQ(A0.raw(), B0.raw());
}

TEST(EndToEnd, CudaGenerationForAllBenchmarks) {
  // Every Table 3 stencil must generate CUDA for its tuned configuration.
  Tuner T(GpuSpec::teslaV100());
  for (const std::string &Name : benchmarkStencilNames()) {
    auto P = makeBenchmarkStencil(Name, ScalarType::Float);
    TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(P->numDims()));
    ASSERT_TRUE(Outcome.Feasible) << Name;
    GeneratedCuda Code = generateCuda(*P, lowerSchedule(*P, Outcome.Best));
    EXPECT_FALSE(Code.KernelSource.empty()) << Name;
    EXPECT_FALSE(Code.HostSource.empty()) << Name;
    EXPECT_NE(Code.KernelSource.find("__global__"), std::string::npos)
        << Name;
  }
}

namespace {

/// Compiles and runs a generated C++ self-check program; returns true if
/// it printed AN5D-CHECK OK. Skips (returns nullopt) if no compiler.
std::optional<bool> compileAndRun(const std::string &Source,
                                  const std::string &Tag) {
  if (std::system("c++ --version > /dev/null 2>&1") != 0)
    return std::nullopt;
  std::string Dir = ::testing::TempDir();
  std::string CppPath = Dir + "/an5d_gen_" + Tag + ".cpp";
  std::string BinPath = Dir + "/an5d_gen_" + Tag;
  {
    std::ofstream Out(CppPath);
    Out << Source;
  }
  std::string Compile =
      "c++ -std=c++17 -O1 -o " + BinPath + " " + CppPath + " 2>&1";
  if (std::system(Compile.c_str()) != 0)
    return false;
  return std::system((BinPath + " > /dev/null").c_str()) == 0;
}

} // namespace

TEST(EndToEnd, GeneratedCppSelfCheck2d) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {32};
  Config.HS = 8;
  ProblemSize Problem;
  Problem.Extents = {40, 37};
  Problem.TimeSteps = 13; // exercises remainder + parity handling
  std::string Source =
      generateCppCheckProgram(*P, lowerSchedule(*P, Config), Problem);
  auto Result = compileAndRun(Source, "j2d5pt");
  if (!Result.has_value())
    GTEST_SKIP() << "no host compiler available";
  EXPECT_TRUE(*Result) << "generated program failed its self-check";
}

TEST(EndToEnd, GeneratedCppSelfCheck2dHighOrder) {
  auto P = makeStarStencil(2, 3, ScalarType::Double);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {40};
  Config.HS = 0;
  ProblemSize Problem;
  Problem.Extents = {25, 23};
  Problem.TimeSteps = 8;
  std::string Source =
      generateCppCheckProgram(*P, lowerSchedule(*P, Config), Problem);
  auto Result = compileAndRun(Source, "star2d3r");
  if (!Result.has_value())
    GTEST_SKIP() << "no host compiler available";
  EXPECT_TRUE(*Result);
}

TEST(EndToEnd, GeneratedCppSelfCheck3d) {
  auto P = makeStarStencil(3, 1, ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {12, 10};
  Config.HS = 6;
  ProblemSize Problem;
  Problem.Extents = {15, 11, 13};
  Problem.TimeSteps = 5;
  std::string Source =
      generateCppCheckProgram(*P, lowerSchedule(*P, Config), Problem);
  auto Result = compileAndRun(Source, "star3d1r");
  if (!Result.has_value())
    GTEST_SKIP() << "no host compiler available";
  EXPECT_TRUE(*Result);
}

TEST(EndToEnd, GeneratedCppSelfCheckBox3d) {
  auto P = makeJacobi3d27pt(ScalarType::Float);
  BlockConfig Config;
  Config.BT = 3;
  Config.BS = {14, 14};
  Config.HS = 0;
  ProblemSize Problem;
  Problem.Extents = {10, 9, 8};
  Problem.TimeSteps = 7;
  std::string Source =
      generateCppCheckProgram(*P, lowerSchedule(*P, Config), Problem);
  auto Result = compileAndRun(Source, "j3d27pt");
  if (!Result.has_value())
    GTEST_SKIP() << "no host compiler available";
  EXPECT_TRUE(*Result);
}
