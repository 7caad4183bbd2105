//===- ScheduleIrTest.cpp - Lowering and render-equivalence of ScheduleIR ----===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule IR's contract with the rest of the system:
///
///  1. lowerSchedule never rejects: every enumerated configuration of
///     every built-in stencil lowers to a structurally faithful IR.
///     Whether the IR is legal is the access-bounds prover's verdict,
///     property-tested against BlockConfig::isFeasible in
///     AnalysisPassTest.
///  2. The IR's derived fields encode the paper's schedule (ring depth
///     2*rad+1, tier stream lag T*rad, shrinking reach, hS chunking, the
///     1D PinBoundaryOnly / >=2D CarryPreviousTier halo policies).
///  3. Rendering: the C++ kernel library depends on the stencil alone —
///     every configuration of a builtin renders one library, the golden's
///     for j2d5pt — and the CUDA renderer accepts every 1D builtin. The
///     golden suites pin the rendered bytes.
///
//===----------------------------------------------------------------------===//

#include "analysis/passes/AccessBoundsProver.h"
#include "codegen/CppCodegen.h"
#include "codegen/CudaCodegen.h"
#include "runtime/NativeMeasurement.h"
#include "schedule/ScheduleIR.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>

using namespace an5d;

namespace {

std::vector<std::string> allBuiltinStencils() {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Extra : extraStencilNames())
    Names.push_back(Extra);
  return Names;
}

std::string readGolden(const std::string &FileName) {
  std::ifstream In(std::string(AN5D_GOLDEN_DIR) + "/" + FileName);
  EXPECT_TRUE(In.good()) << "missing golden file " << FileName;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Lowering property: total and faithful, for every config
//===----------------------------------------------------------------------===//

// lowerSchedule is total: every enumerated configuration of every builtin
// lowers to an IR with one invocation per degree, feasible or not.
TEST(ScheduleIrLowering, LowersEveryEnumeratedConfig) {
  Tuner T(GpuSpec::teslaV100());
  for (const std::string &Name : allBuiltinStencils()) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr) << Name;
    for (const BlockConfig &Config : T.enumerateConfigs(*Program)) {
      ScheduleIR IR = lowerSchedule(*Program, Config);
      // Lowering is total and structurally faithful regardless of
      // feasibility.
      EXPECT_EQ(IR.StencilName, Program->name());
      EXPECT_EQ(IR.NumDims, Program->numDims());
      EXPECT_EQ(IR.Radius, Program->radius());
      EXPECT_EQ(IR.Config.toString(), Config.toString());
      ASSERT_EQ(static_cast<int>(IR.Invocations.size()), Config.BT)
          << Name << " " << Config.toString();
    }
  }
}

TEST(ScheduleIrLowering, SharedInvariantsMatchEveryInvocation) {
  auto Program = makeBenchmarkStencil("j2d9pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {128};
  Config.HS = 256;
  ScheduleIR IR = lowerSchedule(*Program, Config);
  EXPECT_EQ(IR.RingDepth, 2 * IR.Radius + 1);
  EXPECT_EQ(IR.GridHalo, IR.Radius);
  EXPECT_EQ(IR.HaloPolicy, ScheduleHaloPolicy::CarryPreviousTier);
  for (int Degree = 1; Degree <= Config.BT; ++Degree) {
    const InvocationSchedule &Inv = IR.at(Degree);
    EXPECT_EQ(Inv.Degree, Degree);
    EXPECT_EQ(Inv.RingDepth, IR.RingDepth);
    EXPECT_EQ(Inv.GridHalo, IR.GridHalo);
    EXPECT_EQ(Inv.HaloPolicy, IR.HaloPolicy);
    EXPECT_EQ(Inv.LoadSpanHalo, Degree * IR.Radius);
    EXPECT_EQ(Inv.LoadStreamReach, Degree * IR.Radius);
    ASSERT_EQ(static_cast<int>(Inv.Tiers.size()), Degree);
    for (const TierSchedule &Tier : Inv.Tiers) {
      EXPECT_EQ(Tier.StreamLag, Tier.Tier * IR.Radius);
      EXPECT_EQ(Tier.Reach, (Degree - Tier.Tier) * IR.Radius);
    }
    // Worksharing: blocks stride by exactly what they store (gap-free,
    // overlap-free by construction).
    EXPECT_EQ(Inv.BlockStride, Inv.StoreWidth);
    EXPECT_EQ(Inv.ChunkLength, Config.HS);
    EXPECT_EQ(Inv.ChunkStride, Config.HS);
  }
  EXPECT_EQ(&IR.full(), &IR.at(Config.BT));
}

TEST(ScheduleIrLowering, OneDStreamingLowersWithoutSpatialHalo) {
  auto Program = makeBenchmarkStencil("star1d2r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 3;
  Config.BS.clear(); // pure streaming
  Config.HS = 64;
  ScheduleIR IR = lowerSchedule(*Program, Config);
  EXPECT_EQ(IR.HaloPolicy, ScheduleHaloPolicy::PinBoundaryOnly);
  const InvocationSchedule &Full = IR.full();
  EXPECT_TRUE(Full.BS.empty());
  EXPECT_TRUE(Full.ComputeWidth.empty());
  EXPECT_TRUE(Full.BlockStride.empty());
  EXPECT_EQ(Full.ChunkLength, 64);
  EXPECT_EQ(Full.LoadStreamReach, 3 * 2);
  EXPECT_TRUE(proveAccessBounds(IR, Program->radius()).proven());
}

//===----------------------------------------------------------------------===//
// Render equivalence: backends are pure renderers of the one IR
//===----------------------------------------------------------------------===//

// Kernel ABI v3 takes bT, hS and bS per call, so a kernel library bakes
// in the stencil and its element type only: every configuration a tune can
// time — the model grid and the host menu — renders the same library, and
// a native tune compiles once per stencil.
TEST(ScheduleIrRender, KernelLibraryIsOnePerStencil) {
  Tuner T(GpuSpec::teslaV100());
  for (const std::string &Name : allBuiltinStencils()) {
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto P = makeBenchmarkStencil(Name, Type);
      ASSERT_NE(P, nullptr) << Name;
      std::vector<BlockConfig> Configs;
      for (const BlockConfig &C : T.enumerateConfigs(*P))
        if (C.isFeasible(P->radius()))
          Configs.push_back(C);
      for (const RankedConfig &Ranked : Tuner::rankByHostCost(
               *P, nativeMeasurementProblem(P->numDims()),
               std::numeric_limits<std::size_t>::max(), 4))
        Configs.push_back(Ranked.Config);
      ASSERT_FALSE(Configs.empty()) << Name;
      const std::string Library =
          generateCppKernelLibrary(*P, lowerSchedule(*P, Configs.front()));
      std::size_t Differing = 0;
      for (const BlockConfig &C : Configs)
        if (generateCppKernelLibrary(*P, lowerSchedule(*P, C)) != Library &&
            Differing++ == 0)
          ADD_FAILURE() << Name << " " << scalarTypeName(Type) << ": "
                        << C.toString() << " renders another library than "
                        << Configs.front().toString();
      EXPECT_EQ(Differing, 0u) << Name << " " << scalarTypeName(Type)
                               << " over " << Configs.size() << " configs";
      if (Name == "j2d5pt" && Type == ScalarType::Float)
        EXPECT_EQ(Library, readGolden("an5d_j2d5pt_omp.cpp.golden"));
    }
  }
}

TEST(ScheduleIrRender, OneDCudaRendersFromTheStreamingIr) {
  auto P = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS.clear();
  C.HS = 32;
  ScheduleIR IR = lowerSchedule(*P, C);
  GeneratedCuda FromIr = generateCuda(*P, IR);
  EXPECT_EQ(FromIr.KernelSource,
            readGolden("an5d_star1d1r_bt2.cu.golden"));
}

// Every 1D builtin renders through generateCuda — the acceptance test of
// closing the 1D CUDA hole (goldens pin the exact bytes in
// GoldenCudaTest; here the property is totality across configurations).
TEST(ScheduleIrRender, GenerateCudaAcceptsEvery1dBuiltin) {
  for (const char *Name :
       {"star1d1r", "star1d2r", "star1d3r", "star1d4r", "box1d1r",
        "box1d2r", "box1d3r", "box1d4r", "j1d3pt"}) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr) << Name;
    ASSERT_EQ(Program->numDims(), 1) << Name;
    for (int BT : {1, 2, 4}) {
      for (int HS : {0, 32}) {
        BlockConfig C;
        C.BT = BT;
        C.BS.clear();
        C.HS = HS;
        GeneratedCuda Code = generateCuda(*Program, lowerSchedule(*Program, C));
        EXPECT_NE(Code.KernelSource.find("extern \"C\" __global__"),
                  std::string::npos)
            << Name << " " << C.toString();
        EXPECT_NE(Code.HostSource.find("an5d_schedule"), std::string::npos)
            << Name << " " << C.toString();
      }
    }
  }
}
