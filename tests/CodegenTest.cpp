//===- CodegenTest.cpp - CUDA and C++ code generation -------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"
#include "codegen/CudaCodegen.h"
#include "codegen/ExprEmitter.h"
#include "codegen/LoopTilingCodegen.h"
#include "stencils/Benchmarks.h"
#include "support/StringUtils.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

using namespace an5d;

namespace {

/// Crude but effective sanity check on emitted sources.
void expectBalanced(const std::string &Source) {
  long Parens = 0, Braces = 0, Brackets = 0;
  for (char C : Source) {
    Parens += C == '(' ? 1 : C == ')' ? -1 : 0;
    Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
    Brackets += C == '[' ? 1 : C == ']' ? -1 : 0;
  }
  EXPECT_EQ(Parens, 0);
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
}

ScheduleIR lowered2d(const StencilProgram &P, int BT, int BS, int HS = 0) {
  BlockConfig C;
  C.BT = BT;
  C.BS = {BS};
  C.HS = HS;
  return lowerSchedule(P, C);
}

} // namespace

//===----------------------------------------------------------------------===//
// Expression emission
//===----------------------------------------------------------------------===//

TEST(ExprEmitter, LiteralsCarryTypeSuffix) {
  EXPECT_EQ(emitLiteral(5.1, ScalarType::Float), "5.1f");
  EXPECT_EQ(emitLiteral(118.0, ScalarType::Double), "118.0");
  EXPECT_EQ(emitLiteral(0.25, ScalarType::Double), "0.25");
}

TEST(ExprEmitter, ReadsGoThroughCallback) {
  ExprPtr E = makeAdd(makeGridRead("A", {-1, 0}), makeGridRead("A", {0, 2}));
  ExprEmitOptions Options;
  Options.Type = ScalarType::Float;
  Options.ReadEmitter = defaultReadMacro;
  EXPECT_EQ(emitExpr(*E, Options), "(READ(-1, 0) + READ(0, 2))");
}

TEST(ExprEmitter, CoefficientsInlineAsValues) {
  StencilProgram P("t", 2, ScalarType::Float, "A",
                   makeMul(makeCoefficient("c1"), makeGridRead("A", {0, 0})),
                   {{"c1", 0.5}});
  ExprEmitOptions Options;
  Options.Type = ScalarType::Float;
  Options.Program = &P;
  Options.ReadEmitter = defaultReadMacro;
  EXPECT_EQ(emitExpr(P.update(), Options), "(0.5f * READ(0, 0))");
}

TEST(ExprEmitter, MathCallsFollowElementType) {
  std::vector<ExprPtr> Args;
  Args.push_back(makeGridRead("A", {0, 0}));
  ExprPtr E = makeCall("sqrt", std::move(Args));
  ExprEmitOptions Options;
  Options.ReadEmitter = defaultReadMacro;
  Options.Type = ScalarType::Float;
  EXPECT_EQ(emitExpr(*E, Options), "sqrtf(READ(0, 0))");
  Options.Type = ScalarType::Double;
  EXPECT_EQ(emitExpr(*E, Options), "sqrt(READ(0, 0))");
}

//===----------------------------------------------------------------------===//
// CUDA backend structure
//===----------------------------------------------------------------------===//

TEST(CudaCodegen, KernelHasMacroPipeline) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  GeneratedCuda Code = generateCuda(*P, lowered2d(*P, 4, 128, 128));
  EXPECT_EQ(Code.KernelName, "an5d_j2d5pt_bt4");

  // One CALC macro per intermediate time-step; the final tier computes
  // inside STORE (Fig. 5 shows CALC1..CALC3 + STORE for bT = 4).
  for (int T = 1; T <= 3; ++T)
    EXPECT_NE(Code.KernelSource.find("#define CALC" + std::to_string(T) +
                                     "("),
              std::string::npos);
  EXPECT_EQ(Code.KernelSource.find("#define CALC4("), std::string::npos);
  EXPECT_NE(Code.KernelSource.find("#define LOAD("), std::string::npos);
  EXPECT_NE(Code.KernelSource.find("#define STORE("), std::string::npos);

  // The three phases are annotated.
  EXPECT_NE(Code.KernelSource.find("head phase"), std::string::npos);
  EXPECT_NE(Code.KernelSource.find("inner phase"), std::string::npos);
  EXPECT_NE(Code.KernelSource.find("tail phase"), std::string::npos);

  // Double-buffered shared memory, not one buffer per tier.
  EXPECT_NE(Code.KernelSource.find("__shared__ float sm[2]"),
            std::string::npos);

  // One __syncthreads per tier inside each CALC macro.
  EXPECT_GE(countOccurrences(Code.KernelSource, "__syncthreads()"), 4u);
}

TEST(CudaCodegen, FixedRegisterAllocationDeclared) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  GeneratedCuda Code = generateCuda(*P, lowered2d(*P, 4, 128, 128));
  // bT=4 tiers x (2*rad+1)=3 registers: reg_0_0 .. reg_3_2 (Fig. 5).
  for (int T = 0; T < 4; ++T)
    for (int M = 0; M < 3; ++M)
      EXPECT_NE(Code.KernelSource.find("reg_" + std::to_string(T) + "_" +
                                       std::to_string(M)),
                std::string::npos)
          << T << "," << M;
  EXPECT_EQ(Code.KernelSource.find("reg_4_0"), std::string::npos);
}

TEST(CudaCodegen, SmemWrapperEmittedAndOptional) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  GeneratedCuda WithWrapper = generateCuda(*P, lowered2d(*P, 4, 128, 128));
  EXPECT_NE(WithWrapper.KernelSource.find("__an5d_sm_load"),
            std::string::npos);

  CodegenOptions NoWrapper;
  NoWrapper.DisableVectorizedSmemAccess = false;
  GeneratedCuda Without =
      generateCuda(*P, lowered2d(*P, 4, 128, 128), NoWrapper);
  EXPECT_EQ(Without.KernelSource.find("__an5d_sm_load"), std::string::npos);
}

TEST(CudaCodegen, GeneralStencilGetsMultiPlaneSmem) {
  // Non-associative box: shared memory holds 1+2*rad sub-planes per buffer.
  ExprPtr Update = makeMul(makeGridRead("A", {1, 1}),
                           makeGridRead("A", {-1, -1}));
  for (int I = -1; I <= 1; ++I)
    for (int J = -1; J <= 1; ++J) {
      if ((I == 1 && J == 1) || (I == -1 && J == -1))
        continue;
      Update = makeAdd(std::move(Update), makeGridRead("A", {I, J}));
    }
  StencilProgram P("nonassoc", 2, ScalarType::Float, "A", std::move(Update));
  GeneratedCuda Code = generateCuda(P, lowered2d(P, 2, 64));
  EXPECT_NE(Code.KernelSource.find("sm[2][2 * RAD + 1]"),
            std::string::npos);
}

TEST(CudaCodegen, HostImplementsScheduleAndSwap) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  GeneratedCuda Code = generateCuda(*P, lowered2d(*P, 4, 128, 128));
  EXPECT_NE(Code.HostSource.find("an5d_schedule"), std::string::npos);
  EXPECT_NE(Code.HostSource.find("I_T % 2"), std::string::npos);
  EXPECT_NE(Code.HostSource.find("in ^= 1"), std::string::npos);
  EXPECT_NE(Code.HostSource.find(Code.KernelName + "<<<grid, block>>>"),
            std::string::npos);
  EXPECT_NE(Code.HostSource.find("cudaMalloc"), std::string::npos);
}

TEST(CudaCodegen, ThreeDimensionalKernel) {
  auto P = makeStarStencil(3, 1, ScalarType::Double);
  BlockConfig C;
  C.BT = 3;
  C.BS = {32, 16};
  C.HS = 128;
  GeneratedCuda Code = generateCuda(*P, lowerSchedule(*P, C));
  EXPECT_NE(Code.KernelSource.find("threadIdx.y"), std::string::npos);
  EXPECT_NE(Code.KernelSource.find("#define BS_Y 32"), std::string::npos);
  EXPECT_NE(Code.KernelSource.find("#define BS_X 16"), std::string::npos);
  EXPECT_NE(Code.KernelSource.find("__shared__ double"), std::string::npos);
}

TEST(CudaCodegen, InnerLoopRollsByRingDepth) {
  auto P = makeJacobi2d9pt(ScalarType::Float); // rad 2 -> ring depth 5
  GeneratedCuda Code = generateCuda(*P, lowered2d(*P, 2, 128, 256));
  EXPECT_NE(Code.KernelSource.find("s += 5"), std::string::npos);
}

TEST(CudaCodegen, HighDegreeBt10Generates) {
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  GeneratedCuda Code = generateCuda(*P, lowered2d(*P, 10, 256, 256));
  for (int T = 1; T <= 9; ++T)
    EXPECT_NE(Code.KernelSource.find("CALC" + std::to_string(T) + "("),
              std::string::npos);
}

TEST(CudaCodegen, DisablingDaFreeOptFallsBackToMultiPlaneSmem) {
  // With the diagonal-access-free optimization off (Section 4.3.3's
  // compile-time switch), even a star stencil must keep 1+2*rad sub-planes
  // in shared memory per buffer.
  auto P = makeJacobi2d5pt(ScalarType::Float);
  CodegenOptions Options;
  Options.EnableDiagonalAccessFreeOpt = false;
  GeneratedCuda Code = generateCuda(*P, lowered2d(*P, 4, 128, 128), Options);
  EXPECT_NE(Code.KernelSource.find("sm[2][2 * RAD + 1]"),
            std::string::npos);
}

TEST(CudaCodegen, DisablingAssociativeOptOnBoxStencil) {
  auto P = makeJacobi2d9ptGol(ScalarType::Float); // associative box
  GeneratedCuda WithOpt = generateCuda(*P, lowered2d(*P, 4, 128, 128));
  EXPECT_NE(WithOpt.KernelSource.find("partial summation"),
            std::string::npos);
  EXPECT_EQ(WithOpt.KernelSource.find("sm[2][2 * RAD + 1]"),
            std::string::npos)
      << "associative boxes use single-plane double buffers";

  CodegenOptions Options;
  Options.EnableAssociativeOpt = false;
  GeneratedCuda Without = generateCuda(*P, lowered2d(*P, 4, 128, 128), Options);
  EXPECT_EQ(Without.KernelSource.find("partial summation"),
            std::string::npos);
  EXPECT_NE(Without.KernelSource.find("sm[2][2 * RAD + 1]"),
            std::string::npos);
}

TEST(CudaCodegen, UnrollSwitchEmitsPragma) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  CodegenOptions Options;
  Options.UnrollInnerLoop = true;
  GeneratedCuda Code = generateCuda(*P, lowered2d(*P, 4, 128, 128), Options);
  EXPECT_NE(Code.KernelSource.find("#pragma unroll"), std::string::npos);
  GeneratedCuda Default = generateCuda(*P, lowered2d(*P, 4, 128, 128));
  EXPECT_EQ(Default.KernelSource.find("#pragma unroll"), std::string::npos)
      << "the paper found unrolling counterproductive; off by default";
}

//===----------------------------------------------------------------------===//
// C++ backend structure
//===----------------------------------------------------------------------===//

TEST(CppCodegen, GeneratesSelfCheckedProgram) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  ProblemSize Problem;
  Problem.Extents = {40, 37};
  Problem.TimeSteps = 12;
  std::string Source =
      generateCppCheckProgram(*P, lowered2d(*P, 4, 32, 8), Problem);
  expectBalanced(Source);
  EXPECT_NE(Source.find("AN5D-CHECK OK"), std::string::npos);
  EXPECT_NE(Source.find("referenceStep"), std::string::npos);
  EXPECT_NE(Source.find("runInvocation"), std::string::npos);
  EXPECT_NE(Source.find("schedule(IT, BT, deg)"), std::string::npos);
  EXPECT_NE(Source.find("using Real = float;"), std::string::npos);
  EXPECT_NE(Source.find("5.1f"), std::string::npos)
      << "coefficients inlined";
}

//===----------------------------------------------------------------------===//
// Loop-tiling baseline backend
//===----------------------------------------------------------------------===//

TEST(LoopTilingCodegen, TwoDimensionalBaseline) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  GeneratedLoopTiling Code = generateLoopTilingCuda(*P);
  expectBalanced(Code.Source);
  EXPECT_EQ(Code.KernelName, "looptile_j2d5pt");
  EXPECT_NE(Code.Source.find("__global__"), std::string::npos);
  // One launch per time-step and no temporal machinery.
  EXPECT_NE(Code.Source.find("for (long long t = 0; t < steps; ++t)"),
            std::string::npos);
  EXPECT_EQ(Code.Source.find("__shared__"), std::string::npos);
  EXPECT_EQ(Code.Source.find("__syncthreads"), std::string::npos);
  EXPECT_NE(Code.Source.find("5.1f"), std::string::npos);
}

TEST(LoopTilingCodegen, ThreeDimensionalBaseline) {
  auto P = makeStarStencil(3, 2, ScalarType::Double);
  GeneratedLoopTiling Code = generateLoopTilingCuda(*P, {16, 8, 8});
  expectBalanced(Code.Source);
  EXPECT_NE(Code.Source.find("#define TILE_2 8"), std::string::npos);
  EXPECT_NE(Code.Source.find("blockIdx.z"), std::string::npos);
  EXPECT_NE(Code.Source.find("#define RAD 2"), std::string::npos);
  EXPECT_NE(Code.Source.find("double"), std::string::npos);
}

TEST(LoopTilingCodegen, ReadsGoStraightToGlobalMemory) {
  auto P = makeBoxStencil(2, 1, ScalarType::Float);
  GeneratedLoopTiling Code = generateLoopTilingCuda(*P);
  // All 9 taps appear as direct global reads.
  EXPECT_GE(countOccurrences(Code.Source, "in[gidx("), 9u);
}

TEST(CppCodegen, ThreeDimensionalVariant) {
  auto P = makeStarStencil(3, 1, ScalarType::Double);
  BlockConfig C;
  C.BT = 2;
  C.BS = {12, 10};
  C.HS = 6;
  ProblemSize Problem;
  Problem.Extents = {15, 11, 13};
  Problem.TimeSteps = 5;
  std::string Source =
      generateCppCheckProgram(*P, lowerSchedule(*P, C), Problem);
  expectBalanced(Source);
  EXPECT_NE(Source.find("using Real = double;"), std::string::npos);
  EXPECT_NE(Source.find("int d2"), std::string::npos)
      << "3D read lambdas take three offsets";
  EXPECT_NE(Source.find("static const int BS[] = {12, 10};"),
            std::string::npos);
}
