//===- ModelTest.cpp - GPU spec, Table 1/2, register and roofline model ------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/GpuSpec.h"
#include "model/PerformanceModel.h"
#include "model/RegisterModel.h"
#include "model/SharedMemoryModel.h"
#include "sim/MeasuredSimulator.h"
#include "stencils/Benchmarks.h"

#include <gtest/gtest.h>

using namespace an5d;

TEST(GpuSpec, Table4Values) {
  GpuSpec V100 = GpuSpec::teslaV100();
  EXPECT_EQ(V100.PeakGflopsFloat, 15700);
  EXPECT_EQ(V100.PeakGflopsDouble, 7850);
  EXPECT_EQ(V100.MeasuredGmemGBsFloat, 791);
  EXPECT_EQ(V100.MeasuredSmemGBsDouble, 12750);
  EXPECT_EQ(V100.SmCount, 80);
  EXPECT_EQ(V100.SharedMemPerSmBytes, 96 * 1024);

  GpuSpec P100 = GpuSpec::teslaP100();
  EXPECT_EQ(P100.PeakGflopsFloat, 10600);
  EXPECT_EQ(P100.SmCount, 56);
  EXPECT_EQ(P100.SharedMemPerSmBytes, 64 * 1024);
  EXPECT_LT(P100.SmemKernelEfficiency, V100.SmemKernelEfficiency)
      << "Section 7.2: V100 has the more efficient shared memory";
}

TEST(BlockConfigTest, ThreadsAndComputeWidth) {
  BlockConfig C;
  C.BT = 10;
  C.BS = {256};
  EXPECT_EQ(C.numThreads(), 256);
  EXPECT_EQ(C.computeWidth(0, 1), 256 - 20);
  EXPECT_TRUE(C.isFeasible(1));
  EXPECT_FALSE(C.isFeasible(13)) << "2*10*13 = 260 > 256";

  BlockConfig C3;
  C3.BT = 4;
  C3.BS = {32, 32};
  EXPECT_EQ(C3.numThreads(), 1024);
  EXPECT_TRUE(C3.isFeasible(1, 1024));
  EXPECT_FALSE(C3.isFeasible(1, 512)) << "thread limit";

  // Without a cap, only legality counts: a CPU kernel takes 4096 lanes.
  C3.BS = {32, 128};
  EXPECT_TRUE(C3.isFeasible(1));
  EXPECT_FALSE(C3.isFeasible(1, 1024)) << "thread limit";
}

TEST(ProblemSizeTest, PaperDefaults) {
  ProblemSize P2 = ProblemSize::paperDefault(2);
  EXPECT_EQ(P2.Extents, (std::vector<long long>{16384, 16384}));
  EXPECT_EQ(P2.TimeSteps, 1000);
  EXPECT_EQ(P2.cellCount(), 16384LL * 16384);
  ProblemSize P3 = ProblemSize::paperDefault(3);
  EXPECT_EQ(P3.cellCount(), 512LL * 512 * 512);
}

//===----------------------------------------------------------------------===//
// Table 1
//===----------------------------------------------------------------------===//

TEST(Table1, SmemFootprintDiagonalAccessFree) {
  auto Star = makeStarStencil(2, 1, ScalarType::Float);
  // AN5D: 2 * nthr * nword regardless of bT.
  EXPECT_EQ(an5dSmemBytesPerBlock(*Star, 256), 2LL * 256 * 4);
  // STENCILGEN: nthr * bT * nword.
  EXPECT_EQ(stencilgenSmemBytesPerBlock(*Star, 256, 4), 256LL * 4 * 4);
  // AN5D wins once bT > 2.
  EXPECT_LT(an5dSmemBytesPerBlock(*Star, 256),
            stencilgenSmemBytesPerBlock(*Star, 256, 10));
}

TEST(Table1, SmemFootprintAssociative) {
  auto Gol = makeJacobi2d9ptGol(ScalarType::Double);
  EXPECT_EQ(Gol->optimizationClass(), OptimizationClass::AssociativeStencil);
  EXPECT_EQ(an5dSmemBytesPerBlock(*Gol, 128), 2LL * 128 * 8);
  EXPECT_EQ(stencilgenSmemBytesPerBlock(*Gol, 128, 6), 6LL * 128 * 8);
}

TEST(Table1, SmemFootprintOtherwise) {
  // A non-associative box-shaped stencil falls into the Otherwise row.
  ExprPtr Update = makeMul(makeGridRead("A", {1, 1}),
                           makeGridRead("A", {-1, -1}));
  // Add remaining taps of the 3x3 cube so the shape classifies as box.
  for (int I = -1; I <= 1; ++I)
    for (int J = -1; J <= 1; ++J) {
      if ((I == 1 && J == 1) || (I == -1 && J == -1))
        continue;
      Update = makeAdd(std::move(Update), makeGridRead("A", {I, J}));
    }
  StencilProgram P("nonassoc-box", 2, ScalarType::Float, "A",
                   std::move(Update));
  EXPECT_EQ(P.shape(), StencilShape::Box);
  EXPECT_FALSE(P.isAssociative());
  EXPECT_EQ(P.optimizationClass(), OptimizationClass::Otherwise);
  // 2 * nthr * (1 + 2*rad) * nword.
  EXPECT_EQ(an5dSmemBytesPerBlock(P, 100), 2LL * 100 * 3 * 4);
  EXPECT_EQ(stencilgenSmemBytesPerBlock(P, 100, 4), 4LL * 100 * 3 * 4);
  EXPECT_EQ(smemStoresPerCell(P), 3);
}

TEST(Table1, StoresPerCell) {
  EXPECT_EQ(smemStoresPerCell(*makeStarStencil(2, 3, ScalarType::Float)), 1);
  EXPECT_EQ(smemStoresPerCell(*makeBoxStencil(3, 2, ScalarType::Float)), 1)
      << "associative box stores once (partial summation)";
}

//===----------------------------------------------------------------------===//
// Table 2
//===----------------------------------------------------------------------===//

TEST(Table2, SmemReadsPerThread) {
  for (int Rad = 1; Rad <= 4; ++Rad) {
    auto S2 = makeStarStencil(2, Rad, ScalarType::Float);
    EXPECT_EQ(smemReadsPerThreadExpected(*S2), 2 * Rad);
    EXPECT_EQ(smemReadsPerThreadPractical(*S2), 2 * Rad);

    auto B2 = makeBoxStencil(2, Rad, ScalarType::Float);
    long long D = 2 * Rad + 1;
    EXPECT_EQ(smemReadsPerThreadExpected(*B2), D * D - D);
    EXPECT_EQ(smemReadsPerThreadPractical(*B2), D - 1);

    auto S3 = makeStarStencil(3, Rad, ScalarType::Float);
    EXPECT_EQ(smemReadsPerThreadExpected(*S3), 4 * Rad);

    auto B3 = makeBoxStencil(3, Rad, ScalarType::Float);
    EXPECT_EQ(smemReadsPerThreadExpected(*B3), D * D * D - D);
    EXPECT_EQ(smemReadsPerThreadPractical(*B3), D * D - 1);
  }
  EXPECT_EQ(smemWritesPerThread(), 1);
}

//===----------------------------------------------------------------------===//
// Register model
//===----------------------------------------------------------------------===//

TEST(RegisterModel, Section63Formulas) {
  auto Star1 = makeStarStencil(2, 1, ScalarType::Float);
  EXPECT_EQ(an5dRegistersPerThread(*Star1, 4), 4 * 3 + 4 + 20);
  auto Star1D = makeStarStencil(2, 1, ScalarType::Double);
  EXPECT_EQ(an5dRegistersPerThread(*Star1D, 4), 2 * 4 * 3 + 4 + 30);
}

TEST(RegisterModel, StencilGenUsesMoreRegisters) {
  for (int Rad = 1; Rad <= 2; ++Rad) {
    auto P = makeStarStencil(2, Rad, ScalarType::Float);
    EXPECT_GT(stencilgenRegistersPerThread(*P, 4),
              an5dRegistersPerThread(*P, 4))
        << "Fig. 7: the shifting allocation costs extra registers";
  }
}

TEST(RegisterModel, PruningLimits) {
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Box4 = makeBoxStencil(3, 4, ScalarType::Double);
  BlockConfig Big;
  Big.BT = 8;
  Big.BS = {32, 32};
  // 2*8*9 + 8 + 30 = 182 regs/thread, 1024 threads -> way over 65536/SM.
  EXPECT_TRUE(exceedsRegisterLimits(*Box4, Big, V100));

  auto Star1 = makeStarStencil(2, 1, ScalarType::Float);
  BlockConfig Small;
  Small.BT = 4;
  Small.BS = {256};
  EXPECT_FALSE(exceedsRegisterLimits(*Star1, Small, V100));
}

TEST(RegisterModel, PreferredCap) {
  auto Star1 = makeStarStencil(2, 1, ScalarType::Float);
  EXPECT_EQ(preferredRegisterCap(*Star1, 2), 32);  // 2*3+2+20 = 28
  EXPECT_EQ(preferredRegisterCap(*Star1, 8), 64);  // 8*3+8+20 = 52
  auto Box4D = makeBoxStencil(3, 4, ScalarType::Double);
  EXPECT_EQ(preferredRegisterCap(*Box4D, 8), 0) << "does not fit any cap";
}

//===----------------------------------------------------------------------===//
// Roofline model
//===----------------------------------------------------------------------===//

TEST(PerformanceModel, InfeasibleConfigsRejected) {
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Star = makeStarStencil(2, 4, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  BlockConfig NoComputeRegion;
  NoComputeRegion.BT = 16;
  NoComputeRegion.BS = {128};
  EXPECT_FALSE(
      evaluateModel(*Star, V100, NoComputeRegion, Problem).Feasible);
}

TEST(PerformanceModel, DimensionalityMismatchedConfigsRejected) {
  // isFeasible accepts an empty BS (the 1D streaming config) and cannot
  // see the stencil's dimensionality; the model must reject configs whose
  // blocked-dimension count does not match the program.
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Star2 = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize P2 = ProblemSize::paperDefault(2);
  BlockConfig Empty; // BS empty: valid for 1D only.
  Empty.BT = 4;
  Empty.HS = 256;
  EXPECT_FALSE(evaluateModel(*Star2, V100, Empty, P2).Feasible);
  EXPECT_FALSE(simulateMeasured(*Star2, V100, Empty, P2).Feasible);

  BlockConfig ThreeD;
  ThreeD.BT = 4;
  ThreeD.BS = {32, 32};
  EXPECT_FALSE(evaluateModel(*Star2, V100, ThreeD, P2).Feasible);

  auto Star1 = makeStarStencil(1, 1, ScalarType::Float);
  ProblemSize P1 = ProblemSize::paperDefault(1);
  BlockConfig Blocked1d;
  Blocked1d.BT = 4;
  Blocked1d.BS = {256};
  EXPECT_FALSE(evaluateModel(*Star1, V100, Blocked1d, P1).Feasible);
  EXPECT_TRUE(evaluateModel(*Star1, V100, Empty, P1).Feasible);
}

TEST(PerformanceModel, SaneOutputForPaperConfig) {
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Star = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  BlockConfig Config;
  Config.BT = 10;
  Config.BS = {256};
  Config.HS = 256;
  Config.RegisterCap = 64;
  ModelBreakdown Model = evaluateModel(*Star, V100, Config, Problem);
  ASSERT_TRUE(Model.Feasible);
  EXPECT_GT(Model.Gflops, 1000) << "multi-TFLOP/s territory expected";
  EXPECT_LT(Model.Gflops, 20000) << "below FP32 peak";
  EXPECT_GE(Model.EffAlu, 0.9);
  EXPECT_LE(Model.EffSm, 1.0);
  EXPECT_EQ(Model.Limit, Bottleneck::SharedMemory)
      << "Section 7.2: shared memory is the predicted bottleneck";
}

TEST(PerformanceModel, TemporalBlockingReducesGmemTraffic) {
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Star = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  BlockConfig Bt1, Bt8;
  Bt1.BT = 1;
  Bt1.BS = {256};
  Bt1.HS = 512;
  Bt8 = Bt1;
  Bt8.BT = 8;
  ModelBreakdown M1 = evaluateModel(*Star, V100, Bt1, Problem);
  ModelBreakdown M8 = evaluateModel(*Star, V100, Bt8, Problem);
  ASSERT_TRUE(M1.Feasible && M8.Feasible);
  EXPECT_LT(M8.TotalGmemBytes, M1.TotalGmemBytes / 4)
      << "bT=8 should cut global traffic by nearly 8x";
  EXPECT_GT(M8.Gflops, M1.Gflops);
}

TEST(PerformanceModel, SpillingCapRejected) {
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Star = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  BlockConfig Config;
  Config.BT = 10;
  Config.BS = {256};
  Config.HS = 256;
  Config.RegisterCap = 32; // needs 10*3+10+20 = 60 > 32
  EXPECT_FALSE(evaluateModel(*Star, V100, Config, Problem).Feasible);
}

TEST(PerformanceModel, DoublePrecisionSlower) {
  GpuSpec V100 = GpuSpec::teslaV100();
  ProblemSize Problem = ProblemSize::paperDefault(2);
  BlockConfig Config;
  Config.BT = 6;
  Config.BS = {256};
  Config.HS = 512;
  auto F = makeStarStencil(2, 1, ScalarType::Float);
  auto D = makeStarStencil(2, 1, ScalarType::Double);
  ModelBreakdown MF = evaluateModel(*F, V100, Config, Problem);
  ModelBreakdown MD = evaluateModel(*D, V100, Config, Problem);
  ASSERT_TRUE(MF.Feasible && MD.Feasible);
  EXPECT_GT(MF.Gflops, MD.Gflops);
}

TEST(PerformanceModel, SmUtilizationScoresTailWaveByFill) {
  // One wave = 10 blocks here. The old Floor/Ceil form scored every
  // partial second wave 0.5 — 1.9 waves (a nearly full tail) the same as
  // 1.1 — and rankings flipped at wave boundaries.
  EXPECT_NEAR(smUtilizationEfficiency(19, 1, 10), 0.95, 1e-12);
  EXPECT_NEAR(smUtilizationEfficiency(11, 1, 10), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(smUtilizationEfficiency(20, 1, 10), 1.0);
  EXPECT_NEAR(smUtilizationEfficiency(21, 1, 10), 0.7, 1e-12);
  // Less than one wave: utilization is the filled fraction.
  EXPECT_NEAR(smUtilizationEfficiency(5, 1, 10), 0.5, 1e-12);
  // Degenerate inputs.
  EXPECT_EQ(smUtilizationEfficiency(0, 1, 10), 0.0);
  EXPECT_EQ(smUtilizationEfficiency(10, 0, 10), 0.0);
}

TEST(PerformanceModel, SmUtilizationMonotoneAndContinuous) {
  // BlocksPerWave = 2 * 16 = 32. Within a wave the efficiency must rise
  // continuously (steps of at most 1/BlocksPerWave) up to exactly 1.0 at
  // full waves, and the effective time proxy Blocks/Eff — proportional to
  // Ceil(Waves) — must never decrease as blocks are added: adding work
  // can't make the predicted launch faster.
  const int BlocksPerSm = 2, SmCount = 16;
  const double BlocksPerWave = 32.0;
  double PrevEff = 0.0, PrevTimeProxy = 0.0;
  for (long long Blocks = 1; Blocks <= 10 * 32; ++Blocks) {
    double Eff = smUtilizationEfficiency(Blocks, BlocksPerSm, SmCount);
    ASSERT_GT(Eff, 0.0) << Blocks;
    ASSERT_LE(Eff, 1.0) << Blocks;
    bool NewWaveStarted = (Blocks - 1) % 32 == 0 && Blocks > 32;
    if (!NewWaveStarted) {
      EXPECT_GT(Eff, PrevEff) << Blocks << ": rising within a wave";
      EXPECT_LE(Eff - PrevEff, 1.0 / BlocksPerWave + 1e-12)
          << Blocks << ": no jumps within a wave";
    }
    if (Blocks % 32 == 0)
      EXPECT_DOUBLE_EQ(Eff, 1.0) << Blocks << ": full waves saturate";
    double TimeProxy = static_cast<double>(Blocks) / Eff;
    EXPECT_GE(TimeProxy, PrevTimeProxy - 1e-9)
        << Blocks << ": predicted time must not drop when work is added";
    PrevEff = Eff;
    PrevTimeProxy = TimeProxy;
  }
}

TEST(PerformanceModel, ResidentBlockLimitRespected) {
  // A 1D pure-streaming config has one-lane blocks; without the
  // MaxBlocksPerSm cap the occupancy term would claim thousands of
  // resident blocks per SM.
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Star = makeStarStencil(1, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(1);
  BlockConfig Config;
  Config.BT = 4;
  Config.HS = 512;
  ModelBreakdown Model = evaluateModel(*Star, V100, Config, Problem);
  ASSERT_TRUE(Model.Feasible);
  EXPECT_LE(Model.ConcurrentBlocksPerSm, V100.MaxBlocksPerSm);
  EXPECT_GT(Model.ConcurrentBlocksPerSm, 0);
}

TEST(PerformanceModel, ToStringMentionsBottleneck) {
  GpuSpec V100 = GpuSpec::teslaV100();
  auto Star = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {256};
  Config.HS = 512;
  ModelBreakdown Model = evaluateModel(*Star, V100, Config, Problem);
  ASSERT_TRUE(Model.Feasible);
  EXPECT_NE(Model.toString().find("bound="), std::string::npos);
  ModelBreakdown Bad;
  EXPECT_EQ(Bad.toString(), "infeasible");
}
