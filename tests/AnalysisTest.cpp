//===- AnalysisTest.cpp - Kernel lint and kernel cache tests ------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The kernel-facing half of the static-analysis layer (schedule legality
/// lives in AnalysisPassTest.cpp, next to the pass that proves it):
///
///  * the kernel linter passes every generated and golden translation
///    unit, and each lint rule fires on a TU corrupted against it;
///  * the kernel cache's LRU size cap evicts least-recently-used
///    artifacts and reports evictions in its statistics.
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"
#include "codegen/CppCodegen.h"
#include "codegen/CudaCodegen.h"
#include "runtime/KernelCache.h"
#include "runtime/NativeCompiler.h"
#include "stencils/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace an5d;

namespace {

std::vector<std::string> allBuiltinStencils() {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Extra : extraStencilNames())
    Names.push_back(Extra);
  return Names;
}

bool hasRule(const LintReport &Report, LintRule Rule) {
  return std::any_of(Report.Findings.begin(), Report.Findings.end(),
                     [&](const LintFinding &F) { return F.Rule == Rule; });
}

const LintFinding *findRule(const LintReport &Report, LintRule Rule) {
  for (const LintFinding &F : Report.Findings)
    if (F.Rule == Rule)
      return &F;
  return nullptr;
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
// Kernel lint: every generated and golden TU is clean
//===----------------------------------------------------------------------===//

TEST(KernelLint, AllGeneratedKernelLibrariesAreClean) {
  for (const std::string &Name : allBuiltinStencils()) {
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto Program = makeBenchmarkStencil(Name, Type);
      ASSERT_NE(Program, nullptr) << Name;
      BlockConfig C;
      C.BT = 2;
      if (Program->numDims() == 2)
        C.BS = {64};
      else if (Program->numDims() == 3)
        C.BS = {16, 16};
      C.HS = 128;
      LintReport Report = lintTranslationUnit(
          generateCppKernelLibrary(*Program, lowerSchedule(*Program, C)),
          LintTarget::KernelLibrary, Type);
      EXPECT_TRUE(Report.clean())
          << Name << " "
          << (Type == ScalarType::Float ? "float" : "double") << ":\n"
          << Report.toString();
    }
  }
}

TEST(KernelLint, AllGeneratedCheckProgramsAreClean) {
  for (const std::string &Name : allBuiltinStencils()) {
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto Program = makeBenchmarkStencil(Name, Type);
      ASSERT_NE(Program, nullptr) << Name;
      BlockConfig C;
      C.BT = 2;
      int Rad = Program->radius();
      if (Program->numDims() == 2)
        C.BS = {4 * Rad + 8};
      else if (Program->numDims() == 3)
        C.BS = {4 * Rad + 8, 4 * Rad + 8};
      C.HS = 8;
      ProblemSize Problem;
      Problem.Extents = Program->numDims() == 1
                            ? std::vector<long long>{95}
                        : Program->numDims() == 2
                            ? std::vector<long long>{40, 37}
                            : std::vector<long long>{14, 12, 11};
      Problem.TimeSteps = 11;
      LintReport Report = lintTranslationUnit(
          generateCppCheckProgram(*Program, lowerSchedule(*Program, C),
                                  Problem),
          LintTarget::CheckProgram, Type);
      EXPECT_TRUE(Report.clean())
          << Name << " "
          << (Type == ScalarType::Float ? "float" : "double") << ":\n"
          << Report.toString();
    }
  }
}

TEST(KernelLint, GoldenTranslationUnitsAreClean) {
  struct GoldenCase {
    const char *File;
    LintTarget Target;
    ScalarType Type;
  } Cases[] = {
      {"an5d_j2d5pt_omp.cpp.golden", LintTarget::KernelLibrary,
       ScalarType::Float},
      {"an5d_star1d1r_omp.cpp.golden", LintTarget::KernelLibrary,
       ScalarType::Float},
      {"an5d_j2d5pt_check.cpp.golden", LintTarget::CheckProgram,
       ScalarType::Float},
      {"an5d_star1d1r_check.cpp.golden", LintTarget::CheckProgram,
       ScalarType::Float},
      {"an5d_star3d1r_check.cpp.golden", LintTarget::CheckProgram,
       ScalarType::Double},
      {"an5d_j2d5pt_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_star3d1r_bt3.cu.golden", LintTarget::CudaKernel,
       ScalarType::Double},
      // 1D pure-streaming CUDA kernels (one golden per 1D builtin;
      // star1d2r doubles as the double-precision point).
      {"an5d_star1d1r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_star1d2r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Double},
      {"an5d_star1d3r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_star1d4r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_box1d1r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_box1d2r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_box1d3r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_box1d4r_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
      {"an5d_j1d3pt_bt2.cu.golden", LintTarget::CudaKernel,
       ScalarType::Float},
  };
  for (const GoldenCase &Case : Cases) {
    LintReport Report =
        lintTranslationUnit(readGolden(Case.File), Case.Target, Case.Type);
    EXPECT_TRUE(Report.clean()) << Case.File << ":\n" << Report.toString();
  }
}

TEST(KernelLint, GeneratedCudaKernelIsClean) {
  auto P = makeJacobi3d27pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {32, 16};
  C.HS = 128;
  GeneratedCuda Cuda = generateCuda(*P, lowerSchedule(*P, C));
  LintReport Report = lintTranslationUnit(Cuda.KernelSource,
                                          LintTarget::CudaKernel,
                                          ScalarType::Float);
  EXPECT_TRUE(Report.clean()) << Report.toString();
}

//===----------------------------------------------------------------------===//
// Kernel lint: each rule fires on a TU corrupted against it
//===----------------------------------------------------------------------===//

namespace {

/// The kernel-library source the corruption tests mutate.
std::string cleanLibrarySource() {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {64};
  C.HS = 128;
  return generateCppKernelLibrary(*P, lowerSchedule(*P, C));
}

/// Replaces the first occurrence of \p From in \p Text with \p To,
/// asserting it exists (a corruption that fails to apply would silently
/// test nothing).
std::string replaceFirst(std::string Text, const std::string &From,
                         const std::string &To) {
  size_t Pos = Text.find(From);
  EXPECT_NE(Pos, std::string::npos) << "corruption target missing: " << From;
  if (Pos != std::string::npos)
    Text.replace(Pos, From.size(), To);
  return Text;
}

} // namespace

TEST(KernelLintMutation, MissingAbiSymbolIsFlagged) {
  std::string Source =
      replaceFirst(cleanLibrarySource(), "an5d_elem_size", "an5d_elem_bytes");
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  ASSERT_FALSE(Report.clean());
  EXPECT_TRUE(hasRule(Report, LintRule::MissingSymbol));
  EXPECT_EQ(Report.Findings.front().Subject, "an5d_elem_size");
}

TEST(KernelLintMutation, MissingExternCIsFlagged) {
  std::string Source = cleanLibrarySource();
  // The library may open several extern "C" regions; blank every one.
  for (size_t Pos; (Pos = Source.find("extern \"C\"")) != std::string::npos;)
    Source.replace(Pos, 10, "          ");
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  EXPECT_TRUE(hasRule(Report, LintRule::MissingExternC));
}

TEST(KernelLintMutation, WrongAbiVersionIsFlagged) {
  const std::string Version = std::to_string(CppKernelAbiVersion);
  std::string Source =
      replaceFirst(cleanLibrarySource(),
                   "an5d_abi_version(void) { return " + Version + "; }",
                   "an5d_abi_version(void) { return 7; }");
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  ASSERT_FALSE(Report.clean());
  EXPECT_TRUE(hasRule(Report, LintRule::AbiVersionMismatch));
}

TEST(KernelLintMutation, MutableFileScopeVariableIsFlagged) {
  // Extents kept in a file-scope global make concurrent runs race.
  std::string Source =
      replaceFirst(cleanLibrarySource(), "static const int RAD",
                   "static long long NS = 0;\nstatic const int RAD");
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Rule, LintRule::MutableStaticState);
  EXPECT_EQ(Report.Findings.front().Subject, "NS");
  EXPECT_GT(Report.Findings.front().Line, 0);
}

TEST(KernelLintMutation, FunctionLocalStaticIsFlagged) {
  // A function-local static is shared by every caller too.
  std::string Source = replaceFirst(
      cleanLibrarySource(), "  if (it == 0)\n",
      "  static std::mutex runMutex;\n  if (it == 0)\n");
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Rule, LintRule::MutableStaticState);
  EXPECT_EQ(Report.Findings.front().Subject, "runMutex");
}

TEST(KernelLintMutation, ConstantsAndFunctionsAreNotStaticState) {
  // File-scope constants (also behind extern "C"), declarations and
  // function definitions, and ordinary locals are all fine.
  LintReport Report = lintTranslationUnit(
      "static const int A = 1;\n"
      "static constexpr long long B = 2;\n"
      "static const char *const Name = nullptr;\n"
      "static int helper(int x);\n"
      "extern \"C\" {\n"
      "static const int C = 3;\n"
      "int f(int x) { int y = x; static const int D = 4; return y + D; }\n"
      "}\n",
      LintTarget::KernelLibrary, ScalarType::Float);
  EXPECT_FALSE(hasRule(Report, LintRule::MutableStaticState))
      << Report.toString();
  LintReport Pointer = lintTranslationUnit(
      "static const char *Name = nullptr;\n", LintTarget::KernelLibrary,
      ScalarType::Float);
  EXPECT_TRUE(hasRule(Pointer, LintRule::MutableStaticState))
      << "a pointer to const is itself writable";
}

TEST(KernelLintMutation, UnsuffixedFloatLiteralIsFlagged) {
  // The j2d5pt 5.1 coefficient rounds to float as 5.0999999f; dropping
  // the suffix makes it evaluate in double precision.
  std::string Source =
      replaceFirst(cleanLibrarySource(), "5.0999999f", "5.0999999");
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  ASSERT_FALSE(Report.clean());
  ASSERT_TRUE(hasRule(Report, LintRule::FloatLiteralPolicy));
  EXPECT_EQ(Report.Findings.front().Subject, "5.0999999");
  EXPECT_GT(Report.Findings.front().Line, 0);
}

TEST(KernelLintMutation, SuffixedLiteralInDoubleTuIsFlagged) {
  auto P = makeJacobi2d5pt(ScalarType::Double);
  BlockConfig C;
  C.BT = 2;
  C.BS = {64};
  C.HS = 128;
  std::string Source = generateCppKernelLibrary(*P, lowerSchedule(*P, C));
  ASSERT_TRUE(lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                  ScalarType::Double)
                  .clean());
  Source += "\nstatic const double an5d_lint_probe = 2.5f;\n";
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Double);
  ASSERT_FALSE(Report.clean());
  EXPECT_TRUE(hasRule(Report, LintRule::FloatLiteralPolicy));
  EXPECT_EQ(Report.Findings.front().Subject, "2.5f");
}

TEST(KernelLintMutation, BannedCallIsFlagged) {
  std::string Source = cleanLibrarySource() +
                       "\nextern \"C\" void an5d_dbg(void) { "
                       "printf(\"%d\", 1); }\n";
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  ASSERT_FALSE(Report.clean());
  EXPECT_TRUE(hasRule(Report, LintRule::BannedCall));
  EXPECT_EQ(Report.Findings.front().Subject, "printf");
}

TEST(KernelLintMutation, BannedCallAppliesToCheckProgramsToo) {
  // printf is legitimate in a check program (it reports PASS/FAIL), but
  // process control is banned in every TU flavor.
  LintReport Clean = lintTranslationUnit(
      "int main() { printf(\"ok\"); return 0; }", LintTarget::CheckProgram,
      ScalarType::Float);
  EXPECT_FALSE(hasRule(Clean, LintRule::BannedCall));
  LintReport Dirty = lintTranslationUnit(
      "int main() { system(\"rm\"); return 0; }", LintTarget::CheckProgram,
      ScalarType::Float);
  EXPECT_TRUE(hasRule(Dirty, LintRule::BannedCall));
}

TEST(KernelLintMutation, MissingRestrictIsFlagged) {
  std::string Source = cleanLibrarySource();
  // Strip every __restrict__ from the invocation's parameter list.
  size_t Pos;
  while ((Pos = Source.find("__restrict__ ")) != std::string::npos)
    Source.erase(Pos, 13);
  LintReport Report = lintTranslationUnit(Source, LintTarget::KernelLibrary,
                                          ScalarType::Float);
  ASSERT_FALSE(Report.clean());
  EXPECT_TRUE(hasRule(Report, LintRule::MissingRestrict));
  EXPECT_EQ(Report.Findings.front().Subject, "runInvocation");
}

TEST(KernelLintMutation, CudaWithoutGlobalKernelIsFlagged) {
  LintReport Report = lintTranslationUnit(
      "extern \"C\" void not_a_kernel(float *__restrict__ p) { *p = 1.0f; }",
      LintTarget::CudaKernel, ScalarType::Float);
  EXPECT_TRUE(hasRule(Report, LintRule::MissingKernelQualifier));
  EXPECT_FALSE(hasRule(Report, LintRule::MissingExternC));
  EXPECT_FALSE(hasRule(Report, LintRule::MissingRestrict));
}

TEST(KernelLintMutation, FindingRendersAsDiagnostic) {
  LintReport Report = lintTranslationUnit("float x = 1.5;",
                                          LintTarget::CheckProgram,
                                          ScalarType::Float);
  ASSERT_FALSE(Report.clean());
  DiagnosticEngine Diags;
  Report.render(Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.toString().find("float-literal-policy"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Lint internals: the comment/string stripper
//===----------------------------------------------------------------------===//

TEST(LintStripper, BlanksCommentsAndStringsPreservingLines) {
  std::string Source = "int a; // trailing 1.5\n"
                       "/* block 2.5\n"
                       "   spans lines */ int b;\n"
                       "const char *s = \"quoted 3.5 \\\" str\";\n"
                       "char c = '7';\n";
  std::string Stripped = stripCommentsAndStrings(Source);
  EXPECT_EQ(std::count(Source.begin(), Source.end(), '\n'),
            std::count(Stripped.begin(), Stripped.end(), '\n'));
  EXPECT_EQ(Source.size(), Stripped.size());
  EXPECT_EQ(Stripped.find("1.5"), std::string::npos);
  EXPECT_EQ(Stripped.find("2.5"), std::string::npos);
  EXPECT_EQ(Stripped.find("3.5"), std::string::npos);
  EXPECT_EQ(Stripped.find('7'), std::string::npos);
  EXPECT_NE(Stripped.find("int a;"), std::string::npos);
  EXPECT_NE(Stripped.find("int b;"), std::string::npos);
}

TEST(LintStripper, LiteralsInCommentsDoNotTripTheFloatPolicy) {
  // "Section 4.3.1" in a comment must not read as an unsuffixed literal.
  LintReport Report = lintTranslationUnit(
      "// Section 4.3.1 halo rule\n"
      "/* weight 0.25 documented */\n"
      "float x = 1.5f;\n",
      LintTarget::CheckProgram, ScalarType::Float);
  EXPECT_FALSE(hasRule(Report, LintRule::FloatLiteralPolicy));
}

TEST(LintStripper, ScientificAndSeparatorLiteralsAreParsed) {
  LintReport Double = lintTranslationUnit(
      "double a = 1e9; double b = 2.5E-3; double c = 1'000.5;\n"
      "int i = 0x1F; int j = 1'000'000;\n",
      LintTarget::CheckProgram, ScalarType::Double);
  EXPECT_FALSE(hasRule(Double, LintRule::FloatLiteralPolicy));
  LintReport Float = lintTranslationUnit("float a = 1e9;",
                                         LintTarget::CheckProgram,
                                         ScalarType::Float);
  EXPECT_TRUE(hasRule(Float, LintRule::FloatLiteralPolicy));
}

TEST(LintStripper, RawStringLiteralIsBlankedWhole) {
  // A raw string may contain quotes and backslashes that would desync the
  // escape-aware String state; everything up to )" must be blanked and the
  // code after it must still lint as code.
  std::string Source = "const char *r = R\"(weight 1.5 \" quote \\ slash)\";\n"
                       "float bad = 2.5;\n";
  std::string Stripped = stripCommentsAndStrings(Source);
  EXPECT_EQ(Source.size(), Stripped.size());
  EXPECT_EQ(Stripped.find("1.5"), std::string::npos);
  EXPECT_NE(Stripped.find("float bad"), std::string::npos);
  EXPECT_NE(Stripped.find("2.5"), std::string::npos);

  LintReport Report = lintTranslationUnit(Source, LintTarget::CheckProgram,
                                          ScalarType::Float);
  const LintFinding *F = findRule(Report, LintRule::FloatLiteralPolicy);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Subject, "2.5");
  EXPECT_EQ(F->Line, 2)
      << "the multi-character raw literal must not shift line accounting";
}

TEST(LintStripper, DelimitedRawStringStopsAtItsOwnTerminator) {
  // The )" inside the delimited literal is content, not a terminator.
  std::string Source =
      "const char *r = R\"an5d(inner 3.5 )\" still inside)an5d\";\n"
      "float after = 4.5f;\n";
  std::string Stripped = stripCommentsAndStrings(Source);
  EXPECT_EQ(Stripped.find("3.5"), std::string::npos);
  EXPECT_EQ(Stripped.find("still inside"), std::string::npos);
  EXPECT_NE(Stripped.find("float after = 4.5f;"), std::string::npos);
  LintReport Report = lintTranslationUnit(Source, LintTarget::CheckProgram,
                                          ScalarType::Float);
  EXPECT_FALSE(hasRule(Report, LintRule::FloatLiteralPolicy));
}

TEST(LintStripper, EncodingPrefixedRawStringsAreRecognized) {
  std::string Source = "const char *a = u8R\"(u8 raw 5.5)\";\n"
                       "const wchar_t *b = LR\"(wide raw 6.5)\";\n";
  std::string Stripped = stripCommentsAndStrings(Source);
  EXPECT_EQ(Stripped.find("5.5"), std::string::npos);
  EXPECT_EQ(Stripped.find("6.5"), std::string::npos);
  LintReport Report = lintTranslationUnit(Source, LintTarget::CheckProgram,
                                          ScalarType::Float);
  EXPECT_FALSE(hasRule(Report, LintRule::FloatLiteralPolicy));
}

TEST(LintStripper, IdentifierEndingInRIsNotARawStringPrefix) {
  // FOOR"(x)" after an identifier character is an ordinary string: it
  // closes at the next quote, so the literal after it is still code.
  std::string Source = "auto s = FOOR\"(text)\"; float bad = 7.5;\n";
  LintReport Report = lintTranslationUnit(Source, LintTarget::CheckProgram,
                                          ScalarType::Float);
  const LintFinding *F = findRule(Report, LintRule::FloatLiteralPolicy);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Subject, "7.5");
}

TEST(LintStripper, UnterminatedRawStringBlanksToEndOfFile) {
  std::string Source = "const char *r = R\"(never closed 8.5\nfloat x = 9.5;";
  std::string Stripped = stripCommentsAndStrings(Source);
  EXPECT_EQ(Stripped.find("8.5"), std::string::npos);
  EXPECT_EQ(Stripped.find("9.5"), std::string::npos);
  EXPECT_EQ(std::count(Source.begin(), Source.end(), '\n'),
            std::count(Stripped.begin(), Stripped.end(), '\n'));
}

TEST(LintStripper, BackslashContinuationExtendsLineComments) {
  // The backslash-newline splice keeps the next physical line inside the
  // // comment; the literal on it must not trip the float policy, and the
  // first genuine code line after the comment still lints.
  std::string Source = "// spliced comment \\\n"
                       "   hidden weight 1.5 continues here\n"
                       "float ok = 2.5f;\n"
                       "float bad = 3.5;\n";
  std::string Stripped = stripCommentsAndStrings(Source);
  EXPECT_EQ(Stripped.find("1.5"), std::string::npos);
  EXPECT_NE(Stripped.find("float ok = 2.5f;"), std::string::npos);
  EXPECT_EQ(std::count(Source.begin(), Source.end(), '\n'),
            std::count(Stripped.begin(), Stripped.end(), '\n'));

  LintReport Report = lintTranslationUnit(Source, LintTarget::CheckProgram,
                                          ScalarType::Float);
  const LintFinding *F = findRule(Report, LintRule::FloatLiteralPolicy);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Subject, "3.5");
  EXPECT_EQ(F->Line, 4);
}

TEST(LintStripper, CrLfContinuationAlsoSplices) {
  std::string Source = "// comment \\\r\n"
                       "   still hidden 4.5\r\n"
                       "float bad = 5.5;\r\n";
  LintReport Report = lintTranslationUnit(Source, LintTarget::CheckProgram,
                                          ScalarType::Float);
  const LintFinding *F = findRule(Report, LintRule::FloatLiteralPolicy);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Subject, "5.5");
}

//===----------------------------------------------------------------------===//
// Kernel cache: LRU size cap
//===----------------------------------------------------------------------===//

namespace {

std::string freshCacheDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "an5d-analysis-cache-" + Tag;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// A trivially compilable source whose size (and hash) varies with \p Tag.
std::string tinySource(const std::string &Tag) {
  return "extern \"C\" int an5d_tag_" + Tag + "(void) { return " +
         std::to_string(Tag.size()) + "; }\n";
}

} // namespace

TEST(KernelCacheLru, DefaultCapComesFromTheEnvironment) {
  unsetenv("AN5D_KERNEL_CACHE_MAX_MB");
  EXPECT_EQ(KernelCache::defaultMaxBytes(), 512LL << 20);
  setenv("AN5D_KERNEL_CACHE_MAX_MB", "64", 1);
  EXPECT_EQ(KernelCache::defaultMaxBytes(), 64LL << 20);
  setenv("AN5D_KERNEL_CACHE_MAX_MB", "0", 1);
  EXPECT_EQ(KernelCache::defaultMaxBytes(), 0);
  unsetenv("AN5D_KERNEL_CACHE_MAX_MB");
  KernelCache Cache(freshCacheDir("default-cap"));
  EXPECT_EQ(Cache.maxBytes(), 512LL << 20);
}

TEST(KernelCacheLru, EvictsLeastRecentlyUsedOverCap) {
  NativeCompiler Compiler;
  if (!Compiler.available())
    GTEST_SKIP() << "no host compiler";
  // A cap of one byte keeps nothing but the artifact just built.
  KernelCache Cache(freshCacheDir("evict"), 1);
  KernelArtifact A = Cache.getOrBuild(tinySource("a"), Compiler);
  ASSERT_TRUE(A.Ok) << A.Log;
  EXPECT_TRUE(std::filesystem::exists(A.LibraryPath));

  KernelArtifact B = Cache.getOrBuild(tinySource("b"), Compiler);
  ASSERT_TRUE(B.Ok) << B.Log;
  // B survives (eviction never removes the key just built); A is gone.
  EXPECT_TRUE(std::filesystem::exists(B.LibraryPath));
  EXPECT_FALSE(std::filesystem::exists(A.LibraryPath));
  EXPECT_FALSE(std::filesystem::exists(A.SourcePath));
  EXPECT_GE(Cache.stats().Evictions, 1u);

  // The evicted kernel self-heals: the next request recompiles it.
  KernelArtifact A2 = Cache.getOrBuild(tinySource("a"), Compiler);
  ASSERT_TRUE(A2.Ok) << A2.Log;
  EXPECT_FALSE(A2.CacheHit);
}

TEST(KernelCacheLru, HitRefreshesRecency) {
  NativeCompiler Compiler;
  if (!Compiler.available())
    GTEST_SKIP() << "no host compiler";
  // Generous cap first so three artifacts coexist.
  std::string Dir = freshCacheDir("touch");
  KernelArtifact A, B;
  {
    KernelCache Warm(Dir, 0);
    A = Warm.getOrBuild(tinySource("older"), Compiler);
    ASSERT_TRUE(A.Ok) << A.Log;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    B = Warm.getOrBuild(tinySource("newer"), Compiler);
    ASSERT_TRUE(B.Ok) << B.Log;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Touch A: a cache hit must refresh its recency, making B the LRU.
    KernelArtifact Hit = Warm.getOrBuild(tinySource("older"), Compiler);
    ASSERT_TRUE(Hit.Ok);
    EXPECT_TRUE(Hit.CacheHit);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Now a capped cache builds a third kernel: B (least recently used)
  // must go first; A (touched) survives alongside the new artifact.
  long long Cap = static_cast<long long>(
      std::filesystem::file_size(A.LibraryPath) +
      std::filesystem::file_size(A.SourcePath) + 4096);
  KernelCache Capped(Dir, Cap);
  KernelArtifact C = Capped.getOrBuild(tinySource("third"), Compiler);
  ASSERT_TRUE(C.Ok) << C.Log;
  EXPECT_TRUE(std::filesystem::exists(C.LibraryPath));
  EXPECT_FALSE(std::filesystem::exists(B.LibraryPath));
  EXPECT_GE(Capped.stats().Evictions, 1u);
}

TEST(KernelCacheLru, UnlimitedCacheNeverEvicts) {
  NativeCompiler Compiler;
  if (!Compiler.available())
    GTEST_SKIP() << "no host compiler";
  KernelCache Cache(freshCacheDir("unlimited"), 0);
  EXPECT_EQ(Cache.maxBytes(), 0);
  std::vector<KernelArtifact> Artifacts;
  for (const char *Tag : {"one", "two", "three"}) {
    Artifacts.push_back(Cache.getOrBuild(tinySource(Tag), Compiler));
    ASSERT_TRUE(Artifacts.back().Ok) << Artifacts.back().Log;
  }
  for (const KernelArtifact &Artifact : Artifacts)
    EXPECT_TRUE(std::filesystem::exists(Artifact.LibraryPath));
  EXPECT_EQ(Cache.stats().Evictions, 0u);
}
