//===- GoldenCppTest.cpp - Golden-file regression for the C++ backend ---------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Byte-for-byte regression of representative generated C++ translation
/// units — the self-check program and the callable OpenMP kernel library —
/// against checked-in golden files (tests/golden/), pinning the portable
/// backend exactly like GoldenCudaTest pins the CUDA backend. If an
/// intentional codegen change breaks these, regenerate the goldens and
/// review the diff like any compiler change.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"
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

TEST(GoldenCpp, J2d5ptCheckProgram) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {32};
  C.HS = 8;
  ProblemSize Problem;
  Problem.Extents = {40, 37};
  Problem.TimeSteps = 11;
  expectEqualWithContext(
      generateCppCheckProgram(*P, lowerSchedule(*P, C), Problem),
      readGolden("an5d_j2d5pt_check.cpp.golden"),
      "j2d5pt check program");
}

TEST(GoldenCpp, Star3d1rDoubleCheckProgram) {
  auto P = makeStarStencil(3, 1, ScalarType::Double);
  BlockConfig C;
  C.BT = 2;
  C.BS = {12, 10};
  C.HS = 6;
  ProblemSize Problem;
  Problem.Extents = {14, 12, 11};
  Problem.TimeSteps = 11;
  expectEqualWithContext(
      generateCppCheckProgram(*P, lowerSchedule(*P, C), Problem),
      readGolden("an5d_star3d1r_check.cpp.golden"),
      "star3d1r check program");
}

TEST(GoldenCpp, Star1d1rCheckProgram) {
  auto P = makeStarStencil(1, 1, ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS.clear(); // 1D pure streaming: no blocked dimensions
  C.HS = 8;
  ProblemSize Problem;
  Problem.Extents = {95};
  Problem.TimeSteps = 11;
  expectEqualWithContext(
      generateCppCheckProgram(*P, lowerSchedule(*P, C), Problem),
      readGolden("an5d_star1d1r_check.cpp.golden"),
      "star1d1r check program");
}

TEST(GoldenCpp, Star1d1rKernelLibrary) {
  auto P = makeStarStencil(1, 1, ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS.clear();
  C.HS = 128;
  expectEqualWithContext(generateCppKernelLibrary(*P, lowerSchedule(*P, C)),
                         readGolden("an5d_star1d1r_omp.cpp.golden"),
                         "star1d1r kernel library");
}

TEST(GoldenCpp, J2d5ptKernelLibrary) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {128};
  C.HS = 128;
  expectEqualWithContext(generateCppKernelLibrary(*P, lowerSchedule(*P, C)),
                         readGolden("an5d_j2d5pt_omp.cpp.golden"),
                         "j2d5pt kernel library");
}

TEST(GoldenCpp, GenerationIsDeterministic) {
  auto P = makeJacobi3d27pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {16, 16};
  C.HS = 0;
  EXPECT_EQ(generateCppKernelLibrary(*P, lowerSchedule(*P, C)),
            generateCppKernelLibrary(*P, lowerSchedule(*P, C)));
  ProblemSize Problem;
  Problem.Extents = {10, 9, 8};
  Problem.TimeSteps = 7;
  EXPECT_EQ(generateCppCheckProgram(*P, lowerSchedule(*P, C), Problem),
            generateCppCheckProgram(*P, lowerSchedule(*P, C), Problem));
}
