//===- GoldenCudaTest.cpp - Golden-file regression for the CUDA backend -------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Byte-for-byte regression of representative generated CUDA translation
/// units against checked-in golden files (tests/golden/). If an intentional
/// codegen change breaks these, regenerate the goldens and review the diff
/// like any compiler change.
///
//===----------------------------------------------------------------------===//

#include "codegen/CudaCodegen.h"
#include "stencils/Benchmarks.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace an5d;

namespace {

std::string readGolden(const std::string &FileName) {
  std::ifstream In(std::string(AN5D_GOLDEN_DIR) + "/" + FileName);
  EXPECT_TRUE(In.good()) << "missing golden file " << FileName;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Reports the first differing line to make diffs actionable.
void expectEqualWithContext(const std::string &Got,
                            const std::string &Want,
                            const std::string &Tag) {
  if (Got == Want) {
    SUCCEED();
    return;
  }
  std::stringstream GotStream(Got), WantStream(Want);
  std::string GotLine, WantLine;
  int LineNo = 0;
  while (true) {
    ++LineNo;
    bool GotOk = static_cast<bool>(std::getline(GotStream, GotLine));
    bool WantOk = static_cast<bool>(std::getline(WantStream, WantLine));
    if (!GotOk && !WantOk)
      break;
    if (GotLine != WantLine || GotOk != WantOk) {
      FAIL() << Tag << ": first difference at line " << LineNo
             << "\n  golden:    " << (WantOk ? WantLine : "<eof>")
             << "\n  generated: " << (GotOk ? GotLine : "<eof>")
             << "\nIf the change is intentional, regenerate tests/golden/.";
      return;
    }
  }
  FAIL() << Tag << ": content differs (lengths " << Got.size() << " vs "
         << Want.size() << ")";
}

} // namespace

TEST(GoldenCuda, J2d5ptKernel) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {128};
  C.HS = 128;
  GeneratedCuda Code = generateCuda(*P, lowerSchedule(*P, C));
  expectEqualWithContext(Code.KernelSource,
                         readGolden("an5d_j2d5pt_bt2.cu.golden"),
                         "j2d5pt kernel");
}

TEST(GoldenCuda, J2d5ptHost) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {128};
  C.HS = 128;
  GeneratedCuda Code = generateCuda(*P, lowerSchedule(*P, C));
  expectEqualWithContext(Code.HostSource,
                         readGolden("an5d_j2d5pt_bt2_host.cpp.golden"),
                         "j2d5pt host");
}

TEST(GoldenCuda, Star3d1rDoubleKernel) {
  auto P = makeStarStencil(3, 1, ScalarType::Double);
  BlockConfig C;
  C.BT = 3;
  C.BS = {32, 16};
  C.HS = 128;
  GeneratedCuda Code = generateCuda(*P, lowerSchedule(*P, C));
  expectEqualWithContext(Code.KernelSource,
                         readGolden("an5d_star3d1r_bt3.cu.golden"),
                         "star3d1r kernel");
}

TEST(GoldenCuda, Every1dBuiltinKernel) {
  // The 1D pure-streaming schedule renders through the same ScheduleIR as
  // the blocked kernels: one golden per 1D builtin pins the thread-per-
  // chunk kernel shape (register rings only — no shared memory, no
  // __syncthreads). star1d2r is the double-precision point.
  struct OneDCase {
    const char *Name;
    ScalarType Type;
  } Cases[] = {
      {"star1d1r", ScalarType::Float}, {"star1d2r", ScalarType::Double},
      {"star1d3r", ScalarType::Float}, {"star1d4r", ScalarType::Float},
      {"box1d1r", ScalarType::Float},  {"box1d2r", ScalarType::Float},
      {"box1d3r", ScalarType::Float},  {"box1d4r", ScalarType::Float},
      {"j1d3pt", ScalarType::Float},
  };
  for (const OneDCase &Case : Cases) {
    auto P = makeBenchmarkStencil(Case.Name, Case.Type);
    ASSERT_NE(P, nullptr) << Case.Name;
    BlockConfig C;
    C.BT = 2;
    C.BS.clear(); // 1D pure streaming: no blocked dimensions
    C.HS = 32;
    GeneratedCuda Code = generateCuda(*P, lowerSchedule(*P, C));
    expectEqualWithContext(Code.KernelSource,
                           readGolden(std::string("an5d_") + Case.Name +
                                      "_bt2.cu.golden"),
                           std::string(Case.Name) + " kernel");
    EXPECT_EQ(Code.KernelSource.find("__shared__"), std::string::npos)
        << Case.Name;
    EXPECT_EQ(Code.KernelSource.find("__syncthreads"), std::string::npos)
        << Case.Name;
  }
}

TEST(GoldenCuda, Star1d1rHost) {
  auto P = makeStarStencil(1, 1, ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS.clear();
  C.HS = 32;
  GeneratedCuda Code = generateCuda(*P, lowerSchedule(*P, C));
  expectEqualWithContext(Code.HostSource,
                         readGolden("an5d_star1d1r_bt2_host.cpp.golden"),
                         "star1d1r host");
}

TEST(GoldenCuda, GenerationIsDeterministic) {
  auto P = makeJacobi2d9ptGol(ScalarType::Float);
  BlockConfig C;
  C.BT = 5;
  C.BS = {256};
  C.HS = 512;
  GeneratedCuda A = generateCuda(*P, lowerSchedule(*P, C));
  GeneratedCuda B = generateCuda(*P, lowerSchedule(*P, C));
  EXPECT_EQ(A.KernelSource, B.KernelSource);
  EXPECT_EQ(A.HostSource, B.HostSource);
}
