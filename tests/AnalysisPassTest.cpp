//===- AnalysisPassTest.cpp - Static dataflow pass framework -----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The static analysis pipeline in three layers:
///
///  - framework: finding rendering (string / diagnostic / JSON), report
///    aggregation, pass manager wiring and its obs metrics;
///  - soundness: every builtin stencil, at every enumerated configuration,
///    lowers to a tape and schedule the passes prove exactly when the
///    feasibility model accepts the configuration;
///  - completeness: mutation tests corrupt exactly one fact of a known-good
///    tape or schedule and assert the one finding ID that must catch it,
///    plus fixed-seed fuzzing over random DSL programs and random tape
///    corruptions (never crash; structured findings or success only).
///
//===----------------------------------------------------------------------===//

#include "analysis/passes/AccessBoundsProver.h"
#include "analysis/passes/AnalysisPass.h"
#include "analysis/passes/ResourceEstimator.h"
#include "analysis/passes/TapeVerifier.h"
#include "frontend/StencilExtractor.h"
#include "model/PerformanceModel.h"
#include "model/RegisterModel.h"
#include "model/SharedMemoryModel.h"
#include "obs/JsonLite.h"
#include "obs/Metrics.h"
#include "schedule/ScheduleIR.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

using namespace an5d;

namespace {

TapeFacts factsOf(const StencilProgram &Program) {
  return TapeFacts::of(Program.plan(), Program);
}

/// A lowered builtin schedule the mutation tests corrupt one field at a
/// time; by default j2d5pt at bT=2 bS=64, the canonical known-good one.
struct GoodSchedule {
  std::unique_ptr<StencilProgram> Program;
  ScheduleIR IR;

  explicit GoodSchedule(int HS = 0) : GoodSchedule("j2d5pt", 2, {64}, HS) {}

  GoodSchedule(const char *Name, int BT, std::vector<int> BS, int HS = 0) {
    Program = makeBenchmarkStencil(Name, ScalarType::Float);
    BlockConfig Config;
    Config.BT = BT;
    Config.BS = std::move(BS);
    Config.HS = HS;
    IR = lowerSchedule(*Program, Config);
  }

  AnalysisReport prove() const {
    return proveAccessBounds(IR, Program->radius());
  }

  /// Shared invariants must change on the IR and every invocation in
  /// lockstep, or AN5D-A210 (structural disagreement) fires instead of
  /// the invariant check under test.
  template <typename Fn> void mutateShared(Fn &&Mutate) {
    Mutate(IR.GridHalo, IR.RingDepth, IR.Radius, IR.HaloPolicy);
    for (InvocationSchedule &Inv : IR.Invocations)
      Mutate(Inv.GridHalo, Inv.RingDepth, Inv.Radius, Inv.HaloPolicy);
  }

  /// Proves a copy whose invocation \p I went through \p Mutate.
  template <typename Fn>
  AnalysisReport proveWith(std::size_t I, Fn &&Mutate) const {
    ScheduleIR Copy = IR;
    Mutate(Copy.Invocations[I]);
    return proveAccessBounds(Copy, Program->radius());
  }
};

std::vector<std::string> allBuiltinNames() {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Name : extraStencilNames())
    Names.push_back(Name);
  return Names;
}

/// The mutation tests' contract: one corruption, one finding ID. Passes
/// when \p Report holds at least one finding and every finding is \p Id.
::testing::AssertionResult onlyFinding(const AnalysisReport &Report,
                                       const std::string &Id) {
  if (Report.Findings.empty())
    return ::testing::AssertionFailure() << "no finding; expected " << Id;
  for (const AnalysisFinding &F : Report.Findings)
    if (F.Id != Id)
      return ::testing::AssertionFailure()
             << "expected only " << Id << ", got:\n"
             << Report.toString();
  return ::testing::AssertionSuccess();
}

/// Every builtin at bT=3 (a middle tier has a producer and a consumer
/// tier), bS 32 per blocked axis (8 compute lanes even at radius 4) and
/// hS 64: the known-good schedules the tightness tests shave one cell off.
std::vector<GoodSchedule> everyBuiltinAtDegreeThree() {
  std::vector<GoodSchedule> Schedules;
  for (const std::string &Name : allBuiltinNames()) {
    int Dims = makeBenchmarkStencil(Name, ScalarType::Float)->numDims();
    Schedules.emplace_back(Name.c_str(), 3, std::vector<int>(Dims - 1, 32),
                           /*HS=*/64);
  }
  return Schedules;
}

} // namespace

//===----------------------------------------------------------------------===//
// Framework: findings, reports, pass manager
//===----------------------------------------------------------------------===//

TEST(AnalysisFramework, FindingRendersStably) {
  AnalysisFinding F;
  F.Id = "AN5D-A101";
  F.Severity = FindingSeverity::Error;
  F.Pass = "tape-verifier";
  F.Subject = "op 3 Add";
  F.Message = "stack underflow";
  EXPECT_EQ(F.toString(),
            "[AN5D-A101][error] tape-verifier: stack underflow (op 3 Add)");

  Diagnostic D = F.toDiagnostic();
  EXPECT_EQ(D.Kind, DiagnosticKind::Error);
  EXPECT_EQ(D.Message, "[AN5D-A101] stack underflow (op 3 Add)");

  F.Severity = FindingSeverity::Warn;
  EXPECT_EQ(F.toDiagnostic().Kind, DiagnosticKind::Warning);
  F.Severity = FindingSeverity::Info;
  EXPECT_EQ(F.toDiagnostic().Kind, DiagnosticKind::Note);
}

TEST(AnalysisFramework, SeverityNames) {
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Error), "error");
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Warn), "warn");
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Info), "info");
}

TEST(AnalysisFramework, ReportAggregates) {
  AnalysisReport Report;
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.toString(), "analysis clean\n");

  AnalysisFinding E;
  E.Id = "AN5D-A201";
  E.Severity = FindingSeverity::Error;
  Report.Findings.push_back(E);
  AnalysisFinding W = E;
  W.Id = "AN5D-A209";
  W.Severity = FindingSeverity::Warn;
  Report.Findings.push_back(W);

  EXPECT_EQ(Report.errorCount(), 1u);
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Info), 0u);
  EXPECT_FALSE(Report.proven());
  EXPECT_TRUE(Report.hasFinding("AN5D-A201"));
  EXPECT_TRUE(Report.hasFinding("AN5D-A209"));
  EXPECT_FALSE(Report.hasFinding("AN5D-A101"));

  DiagnosticEngine Diags;
  Report.render(Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.diagnostics().size(), 2u);
}

TEST(AnalysisFramework, ReportJsonRoundTrips) {
  AnalysisReport Report;
  AnalysisFinding F;
  F.Id = "AN5D-A207";
  F.Severity = FindingSeverity::Error;
  F.Pass = "access-bounds";
  F.Subject = "degree 2 tier 1 axis 0";
  F.Message = "ring lane overflow with \"quotes\" and\nnewline";
  Report.Findings.push_back(F);
  F.Id = "AN5D-A302";
  F.Severity = FindingSeverity::Info;
  Report.Findings.push_back(F);

  std::string Error;
  std::optional<obs::JsonValue> Parsed = obs::parseJson(Report.toJson(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  ASSERT_TRUE(Parsed->isArray());
  ASSERT_EQ(Parsed->Items.size(), 2u);

  const obs::JsonValue &First = Parsed->Items[0];
  ASSERT_TRUE(First.isObject());
  ASSERT_NE(First.find("id"), nullptr);
  EXPECT_EQ(First.find("id")->String, "AN5D-A207");
  EXPECT_EQ(First.find("severity")->String, "error");
  EXPECT_EQ(First.find("pass")->String, "access-bounds");
  EXPECT_EQ(First.find("subject")->String, "degree 2 tier 1 axis 0");
  EXPECT_EQ(First.find("message")->String,
            "ring lane overflow with \"quotes\" and\nnewline");
  EXPECT_EQ(Parsed->Items[1].find("severity")->String, "info");
}

TEST(AnalysisFramework, StandardPipelineRunsAllPassesWithMetrics) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {64};
  Config.HS = 0;
  ScheduleIR IR = lowerSchedule(*Program, Config);

  AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  EXPECT_EQ(Passes.numPasses(), 3u);

  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  long long RunsBefore = Registry.counterValue("analysis.pass_runs");
  long long FindingsBefore = Registry.counterValue("analysis.findings");

  AnalysisInput Input;
  Input.Program = Program.get();
  Input.Schedule = &IR;
  AnalysisReport Report = Passes.run(Input);

  EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
  EXPECT_EQ(Registry.counterValue("analysis.pass_runs") - RunsBefore, 3);
  EXPECT_EQ(Registry.counterValue("analysis.findings") - FindingsBefore, 0);
}

TEST(AnalysisFramework, StandardPipelineRefutesAnIllegalSchedule) {
  // The tuner's gate reaches the prover only through the pipeline, which
  // must hand its refutation back unproven and counted.
  GoodSchedule S;
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { RingDepth -= 1; });
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  long long FindingsBefore = Registry.counterValue("analysis.findings");
  AnalysisInput Input;
  Input.Program = S.Program.get();
  Input.Schedule = &S.IR;
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(onlyFinding(Report, "AN5D-A204"));
  EXPECT_FALSE(Report.proven());
  EXPECT_EQ(Registry.counterValue("analysis.findings") - FindingsBefore,
            static_cast<long long>(Report.Findings.size()));
}

TEST(AnalysisFramework, PlanDefaultsToProgramAndScheduleIsOptional) {
  auto Program = makeBenchmarkStencil("star2d2r", ScalarType::Float);
  AnalysisInput Input;
  Input.Program = Program.get(); // no Plan, no Schedule
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
}

//===----------------------------------------------------------------------===//
// Soundness: every builtin, every enumerated configuration
//===----------------------------------------------------------------------===//

TEST(AnalysisSoundness, EveryBuiltinTapeVerifies) {
  for (const std::string &Name : allBuiltinNames())
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto Program = makeBenchmarkStencil(Name, Type);
      ASSERT_NE(Program, nullptr) << Name;
      AnalysisReport Report = verifyTape(factsOf(*Program));
      EXPECT_TRUE(Report.Findings.empty())
          << Name << ": " << Report.toString();
    }
}

// The schedule-legality property the tuner's gate relies on: lowering is
// total, and the standard pipeline proves the lowered IR of every
// enumerated configuration of every builtin exactly when
// BlockConfig::isFeasible accepts it once the thread cap (a hardware
// limit, not a schedule property) is lifted. An infeasible configuration
// is refuted by AN5D-A213 alone.
TEST(AnalysisSoundness, ProvenIffFeasibleOnEveryEnumeratedConfig) {
  Tuner T(GpuSpec::teslaV100());
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  std::size_t Proven = 0;
  for (const std::string &Name : allBuiltinNames()) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr) << Name;
    for (const BlockConfig &Config : T.enumerateConfigs(*Program)) {
      ScheduleIR IR = lowerSchedule(*Program, Config);
      AnalysisInput Input;
      Input.Program = Program.get();
      Input.Schedule = &IR;
      AnalysisReport Report = Passes.run(Input);
      const bool Feasible = Config.isFeasible(
          Program->radius(), std::numeric_limits<int>::max());
      EXPECT_EQ(Report.proven(), Feasible)
          << Name << " " << Config.toString() << ": " << Report.toString();
      if (Feasible) {
        ++Proven;
        continue;
      }
      EXPECT_TRUE(Report.hasFinding("AN5D-A213"))
          << Name << " " << Config.toString() << ": " << Report.toString();
      for (const AnalysisFinding &F : Report.Findings)
        if (F.Severity == FindingSeverity::Error)
          EXPECT_EQ(F.Id, "AN5D-A213")
              << Name << " " << Config.toString() << ": " << F.toString();
    }
  }
  // The grid is supposed to be dense; an accidentally empty sweep would
  // vacuously pass everything above.
  EXPECT_GT(Proven, 1000u);
}

// hS is the longest stream chunk: the C++ renderer's 2D/3D kernels split
// the stream more finely, into near-equal chunks, to give every kernel
// thread one. The prover must cover every split they may run, so at each
// 2D/3D builtin's host-ranked configurations the IR proves clean with
// chunks of 1, 2, 3 and hS - 1 planes.
TEST(AnalysisSoundness, EveryFinerStreamSplitProvesClean) {
  std::size_t Checked = 0;
  for (const std::string &Name : allBuiltinNames()) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr) << Name;
    if (Program->numDims() < 2)
      continue;
    for (const RankedConfig &Ranked : Tuner::rankByHostCost(
             *Program, nativeMeasurementProblem(Program->numDims()), 8, 4)) {
      const BlockConfig &Config = Ranked.Config;
      ASSERT_GT(Config.HS, 4) << Name << " " << Config.toString();
      for (long long Length : {1LL, 2LL, 3LL, Config.HS - 1LL}) {
        ScheduleIR IR = lowerSchedule(*Program, Config);
        for (InvocationSchedule &Inv : IR.Invocations)
          Inv.ChunkLength = Inv.ChunkStride = Length;
        EXPECT_EQ(proveAccessBounds(IR, Program->radius()).toString(),
                  "analysis clean\n")
            << Name << " " << Config.toString() << " in chunks of "
            << Length;
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 500u);
}

//===----------------------------------------------------------------------===//
// Tape mutations: one corrupted fact, one finding ID
//===----------------------------------------------------------------------===//

TEST(TapeMutation, A101StackUnderflow) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.insert(Facts.Ops.begin(), TapeOp{TapeOpKind::Add, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A101")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A102StackResidue) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::PushConst, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A102")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A103DepthDeclaredTooSmallIsError) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.MaxStackDepth -= 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A103")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A103DepthDeclaredTooLargeIsWarn) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.MaxStackDepth += 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A103")) << Report.toString();
  EXPECT_TRUE(Report.proven()) << "loose declaration must stay advisory";
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A104ConstantIndexOutOfRange) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  bool Mutated = false;
  for (TapeOp &Op : Facts.Ops)
    if (!Mutated && Op.Kind == TapeOpKind::PushConst) {
      Op.Arg = static_cast<std::uint16_t>(Facts.Constants.size());
      Mutated = true;
    }
  ASSERT_TRUE(Mutated) << "expected at least one PushConst in j2d5pt";
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A104")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A105TapIndexOutOfRange) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  bool Mutated = false;
  for (TapeOp &Op : Facts.Ops)
    if (!Mutated && Op.Kind == TapeOpKind::LoadTap) {
      Op.Arg = static_cast<std::uint16_t>(Facts.Taps.size());
      Mutated = true;
    }
  ASSERT_TRUE(Mutated) << "expected at least one LoadTap in j2d5pt";
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A105")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A106MathSelectorOutsideEnum) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::MathCall, 17});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A106")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A107FusedOpInBasePlan) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::MacConstTap, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A107")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A108TapArityMismatch) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Taps.empty());
  Facts.Taps[0].pop_back();
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A108")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A109TapOffsetBeyondRadius) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Taps.empty());
  Facts.Taps[0] = {0, Facts.Radius + 1};
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A109")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A110NonFiniteConstant) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Constants.empty());
  Facts.Constants[0] = std::numeric_limits<double>::quiet_NaN();
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A110")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A111DivisionByConstantZero) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::LoadTap, 0}, TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::Div, 0}};
  Facts.Constants = {0.0};
  Facts.Taps = {{0, 0}};
  Facts.MaxStackDepth = 2;
  Facts.HasConstantDivision = true;
  Facts.NumDims = 2;
  Facts.Radius = 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A111")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A112PredicateFalseNegativeIsError) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::LoadTap, 0}, TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::Div, 0}};
  Facts.Constants = {2.0};
  Facts.Taps = {{0, 0}};
  Facts.MaxStackDepth = 2;
  Facts.HasConstantDivision = false; // the lie under test
  Facts.NumDims = 2;
  Facts.Radius = 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A112")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A112StalePredicateIsWarn) {
  auto P = makeBenchmarkStencil("star2d1r", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.HasConstantDivision)
      << "star2d1r is expected to be division-free";
  Facts.HasConstantDivision = true;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A112")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A113UnusedConstantIsInfo) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Constants.push_back(42.0);
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A113")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Info), 1u);
}

TEST(TapeMutation, A114UnusedTapIsWarn) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Taps.push_back({1, 1});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A114")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A115NonFiniteConstantFold) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::MathCall,
                      static_cast<std::uint16_t>(MathFn::Sqrt)}};
  Facts.Constants = {-1.0}; // sqrt(-1) folds to NaN at CompiledTape build
  Facts.MaxStackDepth = 1;
  Facts.NumDims = 1;
  Facts.Radius = 0;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A115")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

//===----------------------------------------------------------------------===//
// Schedule mutations: one corrupted invariant, one finding ID
//===----------------------------------------------------------------------===//

TEST(ScheduleMutation, BaselineIsClean) {
  GoodSchedule S;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
}

TEST(ScheduleMutation, OneDStreamBaselineIsClean) {
  // The other schedule shape: no blocked axis, hS-chunked stream.
  GoodSchedule S("star1d1r", 3, {}, /*HS=*/8);
  EXPECT_EQ(S.prove().toString(), "analysis clean\n");
}

TEST(ScheduleMutation, A201StreamLoadsPastAllocation) {
  GoodSchedule S;
  S.mutateShared([](long long &GridHalo, long long &, int &,
                    ScheduleHaloPolicy &) { GridHalo += 1; });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A201")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A202BlockedLoadsPastAllocation) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &, int &Radius,
                    ScheduleHaloPolicy &) { Radius += 1; });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A202")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A203GridHaloBelowStreamTaps) {
  GoodSchedule S;
  S.mutateShared([](long long &GridHalo, long long &, int &,
                    ScheduleHaloPolicy &) { GridHalo = 0; });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A203")) << Report.toString();
  EXPECT_FALSE(Report.hasFinding("AN5D-A201"))
      << "shrunk halo stays inside the allocation";
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A204RingTooShallowForLifetime) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { RingDepth -= 1; });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A204")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A205ConsumerOutrunsProducer) {
  GoodSchedule S;
  ASSERT_GE(S.IR.Invocations.size(), 2u);
  S.IR.Invocations[1].Tiers[0].StreamLag = 0;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A205")) << Report.toString();
  EXPECT_FALSE(Report.proven());

  // Same lags, but tier 1 now runs after tier 2 within a streaming step,
  // so tier 2's same-step read of its producer's newest plane breaks.
  GoodSchedule Swapped;
  std::vector<TierSchedule> &Tiers = Swapped.IR.Invocations[1].Tiers;
  std::swap(Tiers[0].OrderPosition, Tiers[1].OrderPosition);
  EXPECT_TRUE(onlyFinding(Swapped.prove(), "AN5D-A205"));
}

TEST(ScheduleMutation, A205TierRunsAheadOfItsProducerInTheStream) {
  // Same order, swapped lags: tier 2 reads planes tier 1 has not written
  // (A205), and tier 1, now two radii behind the load, reads planes a
  // whole ring depth old (A204).
  AnalysisReport Report = GoodSchedule().proveWith(1, [](auto &Inv) {
    std::swap(Inv.Tiers[0].StreamLag, Inv.Tiers[1].StreamLag);
  });
  ASSERT_EQ(Report.Findings.size(), 2u) << Report.toString();
  EXPECT_EQ(Report.Findings[0].Id, "AN5D-A204");
  EXPECT_EQ(Report.Findings[0].Subject, "degree 2 tier 1");
  EXPECT_EQ(Report.Findings[1].Id, "AN5D-A205");
  EXPECT_EQ(Report.Findings[1].Subject, "degree 2 tier 2");
}

TEST(ScheduleMutation, A206RingLaneUnderflow) {
  GoodSchedule S;
  ASSERT_GE(S.IR.Invocations.size(), 2u);
  S.IR.Invocations[1].LoadSpanHalo -= 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A206")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A207RingLaneOverflow) {
  GoodSchedule S;
  ASSERT_GE(S.IR.Invocations.size(), 2u);
  // Tier 1 needs exactly BS lanes (halo + compute + reach + tap), so any
  // shrink of the loaded span overflows the span's last lanes.
  S.IR.Invocations[1].BS[0] -= 2;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A207")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A208StoreWiderThanCompute) {
  GoodSchedule S;
  S.IR.Invocations[0].StoreWidth[0] += 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A208")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A209ChunkStrideGapIsError) {
  GoodSchedule S(/*HS=*/128);
  ASSERT_GT(S.IR.Invocations[0].ChunkLength, 0);
  S.IR.Invocations[0].ChunkStride += 16;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(onlyFinding(Report, "AN5D-A209"));
  EXPECT_FALSE(Report.proven()) << "a tiling gap leaves cells unwritten";
}

TEST(ScheduleMutation, A209BlockStrideOverlapAndGapAreErrors) {
  // -1: adjacent blocks store one cell twice (a race); +1: one cell
  // between them is never stored.
  for (long long Delta : {-1, 1}) {
    GoodSchedule S;
    S.IR.Invocations[1].BlockStride[0] += Delta;
    AnalysisReport Report = S.prove();
    EXPECT_TRUE(onlyFinding(Report, "AN5D-A209")) << "delta " << Delta;
    EXPECT_FALSE(Report.proven()) << "delta " << Delta;
  }
}

TEST(ScheduleMutation, A209OneDChunkStrideOverlapAndGapAreErrors) {
  for (long long Delta : {-1, 1}) {
    GoodSchedule S("star1d1r", 2, {}, /*HS=*/8);
    S.IR.Invocations[1].ChunkStride += Delta;
    AnalysisReport Report = S.prove();
    EXPECT_TRUE(onlyFinding(Report, "AN5D-A209")) << "delta " << Delta;
    EXPECT_FALSE(Report.proven()) << "delta " << Delta;
  }
}

TEST(ScheduleMutation, A209ChecksEveryBlockedAxis) {
  // A 3D block tiles two axes; an overlap on either is named by its axis.
  GoodSchedule S("j3d27pt", 2, {32, 32});
  for (std::size_t Axis : {0u, 1u}) {
    AnalysisReport Report =
        S.proveWith(1, [Axis](auto &Inv) { --Inv.BlockStride[Axis]; });
    ASSERT_TRUE(onlyFinding(Report, "AN5D-A209")) << "axis " << Axis;
    EXPECT_EQ(Report.Findings[0].Subject,
              "degree 2 axis " + std::to_string(Axis));
  }
}

TEST(ScheduleMutation, A210StructurallyMalformed) {
  {
    GoodSchedule S;
    S.IR.Invocations.clear();
    AnalysisReport Report = S.prove();
    EXPECT_TRUE(Report.hasFinding("AN5D-A210")) << Report.toString();
    EXPECT_FALSE(Report.proven());
  }
  {
    GoodSchedule S;
    S.IR.Invocations[1].Tiers.pop_back();
    AnalysisReport Report = S.prove();
    EXPECT_TRUE(Report.hasFinding("AN5D-A210")) << Report.toString();
    EXPECT_FALSE(Report.proven());
  }
}

TEST(ScheduleMutation, A210BlockSizeArityMustMatchDimensionality) {
  // A 2D stencil lowered without its bS entry: only the 1D stream may
  // carry an empty bS.
  GoodSchedule NoBlock("j2d5pt", 2, {});
  EXPECT_TRUE(onlyFinding(NoBlock.prove(), "AN5D-A210"));
  // A 1D stream given a blocked axis it does not have.
  GoodSchedule ExtraBlock("star1d1r", 2, {64});
  EXPECT_TRUE(onlyFinding(ExtraBlock.prove(), "AN5D-A210"));
}

TEST(ScheduleMutation, A210ThreeDBlockSizeArityMustMatch) {
  // A 3D stencil blocks exactly two axes.
  for (std::vector<int> BS : {std::vector<int>{32}, {32, 32, 32}})
    EXPECT_TRUE(onlyFinding(GoodSchedule("star3d1r", 2, BS).prove(),
                            "AN5D-A210"))
        << BS.size() << " bS entries";
}

TEST(ScheduleMutation, A210ZeroDegreeLowersToNoInvocations) {
  // Lowering is total: a bT < 1 configuration reaches the prover as a
  // schedule with no invocation to prove.
  for (int BT : {0, -1})
    EXPECT_TRUE(onlyFinding(GoodSchedule("j2d5pt", BT, {64}).prove(),
                            "AN5D-A210"))
        << "bT " << BT;
}

TEST(ScheduleMutation, A210NonPositiveStrideIsMalformed) {
  // A zero stride is a malformed schedule, not a tiling gap: the
  // structural check stops the invocation before A209 compares widths.
  EXPECT_TRUE(onlyFinding(
      GoodSchedule().proveWith(1, [](auto &Inv) { Inv.BlockStride[0] = 0; }),
      "AN5D-A210"));
}

TEST(ScheduleMutation, A211HaloPolicyContradictsShape) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &, int &,
                    ScheduleHaloPolicy &Policy) {
    Policy = ScheduleHaloPolicy::PinBoundaryOnly;
  });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(Report.hasFinding("AN5D-A211")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A212TierReadsPastProducerOnBlockedAxis) {
  GoodSchedule S; // degree 2: tier 1 is valid one cell past the compute
                  // region, exactly what tier 2's radius-1 taps read.
  S.IR.Invocations[1].Tiers[0].Reach -= 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(onlyFinding(Report, "AN5D-A212"));
  EXPECT_NE(Report.toString().find("(degree 2 tier 2 axis 0)"),
            std::string::npos)
      << Report.toString();
}

TEST(ScheduleMutation, A212TierReadsPastProducerOnStreamAxis) {
  GoodSchedule S("star3d1r", 3, {32, 32});
  S.IR.Invocations[2].Tiers[0].Reach -= 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(onlyFinding(Report, "AN5D-A212"));
  EXPECT_NE(Report.toString().find("(degree 3 tier 2 stream axis)"),
            std::string::npos)
      << Report.toString();
}

TEST(ScheduleMutation, A212TierOneReadsPastLoadedPlanes) {
  GoodSchedule S;
  S.IR.Invocations[1].LoadStreamReach -= 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(onlyFinding(Report, "AN5D-A212"));
  EXPECT_NE(Report.toString().find("(degree 2 tier 1 stream axis)"),
            std::string::npos)
      << Report.toString();
}

TEST(ScheduleMutation, A213HaloConsumesTheBlock) {
  // bS 8 at radius 1: degree 4 needs 8 halo lanes and leaves no compute
  // region; degree 3 still computes 2 lanes, so only degree 4 is flagged.
  GoodSchedule S("j2d5pt", 4, {8});
  AnalysisReport Report = S.prove();
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings[0].Id, "AN5D-A213");
  EXPECT_EQ(Report.Findings[0].Subject, "degree 4 axis 0");
  EXPECT_FALSE(Report.proven());
}

TEST(ScheduleMutation, A213SparesASingleComputeLane) {
  // The boundary of bS >= 2*degree*radius + 1: one compute lane proves
  // clean, and one lane fewer is refuted at that degree only.
  EXPECT_EQ(GoodSchedule("star2d2r", 2, {9}).prove().toString(),
            "analysis clean\n");
  EXPECT_EQ(GoodSchedule("star3d1r", 3, {7, 7}).prove().toString(),
            "analysis clean\n");
  AnalysisReport Report = GoodSchedule("star2d2r", 2, {8}).prove();
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings[0].Id, "AN5D-A213");
  EXPECT_EQ(Report.Findings[0].Subject, "degree 2 axis 0");
}

TEST(ScheduleMutation, A213NamesOnlyTheExhaustedAxis) {
  // star3d1r bT=4 bS=64x8: at degree 4 axis 1 has no compute lane
  // (8 - 2*4*1 = 0) while axis 0 keeps 56; degree 3 keeps lanes on both.
  AnalysisReport Report = GoodSchedule("star3d1r", 4, {64, 8}).prove();
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings[0].Id, "AN5D-A213");
  EXPECT_EQ(Report.Findings[0].Subject, "degree 4 axis 1");
}

//===----------------------------------------------------------------------===//
// Tightness: the lowered schedules carry no slack the prover would miss
//===----------------------------------------------------------------------===//

// Every non-final tier computes exactly the cells its consumer reads, and
// the load stage exactly what tier 1 reads on the stream axis: one cell
// less anywhere in the reach chain is refuted by AN5D-A212 alone.
TEST(ScheduleMutation, A212ReachChainIsTightOnEveryBuiltin) {
  for (const GoodSchedule &S : everyBuiltinAtDegreeThree()) {
    ASSERT_EQ(S.prove().toString(), "analysis clean\n") << S.IR.StencilName;
    for (std::size_t I = 0; I < S.IR.Invocations.size(); ++I) {
      EXPECT_TRUE(onlyFinding(
          S.proveWith(I, [](auto &Inv) { --Inv.LoadStreamReach; }),
          "AN5D-A212"))
          << S.IR.StencilName << " degree " << I + 1 << " load stage";
      for (std::size_t T = 0; T + 1 < S.IR.Invocations[I].Tiers.size(); ++T)
        EXPECT_TRUE(onlyFinding(
            S.proveWith(I, [T](auto &Inv) { --Inv.Tiers[T].Reach; }),
            "AN5D-A212"))
            << S.IR.StencilName << " degree " << I + 1 << " tier " << T + 1;
    }
  }
}

// Each tier trails its producer by exactly one radius of planes: moving
// it and every later tier one plane earlier (so only that one distance
// shrinks) is refuted by AN5D-A205 alone.
TEST(ScheduleMutation, A205StreamLagIsTightOnEveryBuiltin) {
  for (const GoodSchedule &S : everyBuiltinAtDegreeThree())
    for (std::size_t I = 0; I < S.IR.Invocations.size(); ++I)
      for (std::size_t T = 0; T < S.IR.Invocations[I].Tiers.size(); ++T) {
        auto Earlier = [T](InvocationSchedule &Inv) {
          for (std::size_t L = T; L < Inv.Tiers.size(); ++L)
            --Inv.Tiers[L].StreamLag;
        };
        EXPECT_TRUE(onlyFinding(S.proveWith(I, Earlier), "AN5D-A205"))
            << S.IR.StencilName << " degree " << I + 1 << " tier " << T + 1;
      }
}

// The 2*radius+1 register ring is the shallowest that holds a sub-plane
// from production to its last read: one plane less is refuted by
// AN5D-A204 alone.
TEST(ScheduleMutation, A204RingDepthIsTightOnEveryBuiltin) {
  for (GoodSchedule &S : everyBuiltinAtDegreeThree()) {
    S.mutateShared([](long long &, long long &RingDepth, int &,
                      ScheduleHaloPolicy &) { RingDepth -= 1; });
    EXPECT_TRUE(onlyFinding(S.prove(), "AN5D-A204")) << S.IR.StencilName;
  }
}

// The load span's halo is exactly what tier 1 reads left of the compute
// region on a blocked axis: one lane less is refuted by AN5D-A206 alone.
TEST(ScheduleMutation, A206LoadSpanHaloIsTightOnEveryBlockedBuiltin) {
  for (const GoodSchedule &S : everyBuiltinAtDegreeThree()) {
    if (S.IR.NumDims == 1)
      continue; // the 1D stream loads no span
    for (std::size_t I = 0; I < S.IR.Invocations.size(); ++I)
      EXPECT_TRUE(onlyFinding(
          S.proveWith(I, [](auto &Inv) { --Inv.LoadSpanHalo; }), "AN5D-A206"))
          << S.IR.StencilName << " degree " << I + 1;
  }
}

TEST(SymBoundProof, AffineComparisonNeedsBothTerms) {
  // E - 3 <= E for all E >= 1: coefficient diff 0, offset diff 3.
  EXPECT_TRUE(provedLE(SymBound{1, -3}, SymBound{1, 0}, 1));
  // E <= 5 is unprovable for unbounded E even though it holds at E = 1.
  EXPECT_FALSE(provedLE(SymBound{1, 0}, SymBound{0, 5}, 1));
  // 2E - 8 <= E holds at the minimum extent 1 but fails for large E.
  EXPECT_FALSE(provedLE(SymBound{2, -8}, SymBound{1, 0}, 1));
  // 0 <= E - 4 only once the schedule's minimum extent reaches 4.
  EXPECT_FALSE(provedLE(SymBound{0, 0}, SymBound{1, -4}, 1));
  EXPECT_TRUE(provedLE(SymBound{0, 0}, SymBound{1, -4}, 4));
  EXPECT_EQ((SymBound{2, -3}).value(10), 17);
}

//===----------------------------------------------------------------------===//
// Resource estimation: features and grading
//===----------------------------------------------------------------------===//

TEST(ResourceEstimation, MatchesOccupancyModels) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {128};
  Config.HS = 0;
  ResourceEstimate E = estimateResources(*P, lowerSchedule(*P, Config));
  ASSERT_TRUE(E.Valid);
  EXPECT_EQ(E.RegistersPerThread, an5dRegistersPerThread(*P, Config.BT));
  EXPECT_EQ(E.SmemBytesPerBlock,
            an5dSmemBytesPerBlock(*P, Config.numThreads()));
  // bT=4 tiers x RingDepth 3 x 8-byte words.
  EXPECT_EQ(E.RingBytesPerThread, 96);
  EXPECT_EQ(E.RingBytesPerBlock, 96 * Config.numThreads());
  EXPECT_GT(E.TapeFlops, 0);
  EXPECT_GT(E.ArithmeticIntensity, 0.0);
  EXPECT_GE(E.LoadRedundancy, 1.0);
}

TEST(ResourceEstimation, OccupancySliceAgreesWithFullEstimate) {
  auto P = makeBenchmarkStencil("star3d2r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {32, 32};
  Config.HS = 0;
  ResourceEstimate Full = estimateResources(*P, lowerSchedule(*P, Config));
  ResourceEstimate Occ = estimateOccupancy(*P, Config);
  ASSERT_TRUE(Full.Valid);
  ASSERT_TRUE(Occ.Valid);
  EXPECT_EQ(Occ.RegistersPerThread, Full.RegistersPerThread);
  EXPECT_EQ(Occ.SmemBytesPerBlock, Full.SmemBytesPerBlock);
  EXPECT_EQ(Occ.RingBytesPerThread, Full.RingBytesPerThread);
  EXPECT_EQ(Occ.RingBytesPerBlock, Full.RingBytesPerBlock);
}

TEST(ResourceEstimation, ModelBreakdownCarriesTheEstimate) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {256};
  Config.HS = 0;
  ModelBreakdown Out = evaluateModel(*P, GpuSpec::teslaV100(), Config,
                                     ProblemSize::paperDefault(2));
  ASSERT_TRUE(Out.Feasible);
  ASSERT_TRUE(Out.Resources.Valid);
  EXPECT_EQ(Out.Resources.RegistersPerThread,
            an5dRegistersPerThread(*P, Config.BT));
  EXPECT_EQ(Out.Resources.SmemBytesPerBlock,
            an5dSmemBytesPerBlock(*P, Config.numThreads()));
}

TEST(ResourceEstimation, A301FiresOnRegisterOverflow) {
  // Double-precision star2d4r at bT=16: 2*16*9 + 16 + 30 = 334 registers
  // per thread, far past the 255-register ISA encoding bound.
  auto P = makeBenchmarkStencil("star2d4r", ScalarType::Double);
  BlockConfig Config;
  Config.BT = 16;
  Config.BS = {512};
  Config.HS = 0;
  ASSERT_TRUE(Config.isFeasible(P->radius()));
  ASSERT_GT(an5dRegistersPerThread(*P, Config.BT), 255);
  ScheduleIR IR = lowerSchedule(*P, Config);
  AnalysisInput Input;
  Input.Program = P.get();
  Input.Schedule = &IR;
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.hasFinding("AN5D-A301")) << Report.toString();
  EXPECT_TRUE(Report.proven()) << "register pressure is advisory for the "
                                  "tuner (the model prunes it)";
}

TEST(ResourceEstimation, A302FiresOnLowArithmeticIntensity) {
  // star1d1r at bT=1: ~5 FLOP against 16 amortized gmem bytes per cell.
  auto P = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 1;
  Config.BS = {};
  Config.HS = 0;
  ScheduleIR IR = lowerSchedule(*P, Config);
  ResourceEstimate E = estimateResources(*P, IR);
  ASSERT_TRUE(E.Valid);
  ASSERT_LT(E.ArithmeticIntensity, 1.0);
  AnalysisInput Input;
  Input.Program = P.get();
  Input.Schedule = &IR;
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.hasFinding("AN5D-A302")) << Report.toString();
  EXPECT_TRUE(Report.proven());
}

TEST(ResourceEstimation, InvalidOnDegenerateSchedule) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 0; // lowers to an empty invocation list
  Config.BS = {64};
  ScheduleIR IR = lowerSchedule(*P, Config);
  ResourceEstimate E = estimateResources(*P, IR);
  EXPECT_FALSE(E.Valid);
}

//===----------------------------------------------------------------------===//
// Tuner integration: the pipeline gates candidates pre-JIT
//===----------------------------------------------------------------------===//

TEST(AnalysisTunerGate, EnumeratedCandidatesAreNeverRejected) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  EXPECT_TRUE(Outcome.Feasible);
  EXPECT_EQ(Outcome.AnalysisRejections, 0u) << Outcome.FirstAnalysisRejection;
  EXPECT_TRUE(Outcome.FirstAnalysisRejection.empty());
}

TEST(AnalysisTunerGate, EveryBuiltinTunesWithoutARejection) {
  // The gate passes every candidate the model ranks, for 1D streams, 3D
  // blocks and high radii alike.
  Tuner T(GpuSpec::teslaV100());
  for (const std::string &Name : allBuiltinNames()) {
    auto P = makeBenchmarkStencil(Name, ScalarType::Float);
    TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(P->numDims()));
    EXPECT_TRUE(Outcome.Feasible) << Name;
    EXPECT_EQ(Outcome.AnalysisRejections, 0u)
        << Name << ": " << Outcome.FirstAnalysisRejection;
  }
}

TEST(AnalysisTunerGate, SweepCandidatesCarryResourceFeatures) {
  auto P = makeBenchmarkStencil("star2d2r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  ASSERT_TRUE(Outcome.Feasible);
  ASSERT_FALSE(Outcome.TopByModel.empty());
  // Every surviving model-ranked candidate was re-estimated from its
  // lowered schedule on the way into the measured sweep.
  const RankedConfig &Best = Outcome.TopByModel.front();
  EXPECT_TRUE(Best.Model.Resources.Valid);
  EXPECT_EQ(Best.Model.Resources.RegistersPerThread,
            an5dRegistersPerThread(*P, Best.Config.BT));
}

//===----------------------------------------------------------------------===//
// Fixed-seed fuzzing: DSL programs and tape corruptions
//===----------------------------------------------------------------------===//

namespace {

/// Deliberate corruptions with known-graceful failure modes (each trips a
/// parser or extractor diagnostic, never an assert).
enum class SourceCorruption {
  None,
  DropSemicolon,
  UnbalanceParen,
  TimeVarInValue,
  LoopVarAsCoefficient,
  ModuloInValue,
  Count,
};

std::string makeRandomStencilSource(std::mt19937 &Rng,
                                    SourceCorruption Corruption) {
  std::uniform_int_distribution<int> DimDist(1, 3);
  std::uniform_int_distribution<int> RadiusDist(1, 2);
  const int Dims = DimDist(Rng);
  const int Radius = RadiusDist(Rng);
  const char *Vars[] = {"i", "j", "k"};

  std::string Src = "for (t = 0; t < I_T; t++)\n";
  for (int D = 0; D < Dims; ++D) {
    Src += std::string(2 * (D + 1), ' ') + "for (" + Vars[D] + " = 1; " +
           Vars[D] + " <= I_S" + std::to_string(Dims - D) + "; " + Vars[D] +
           "++)\n";
  }

  auto Subscript = [&](const std::vector<int> &Offsets) {
    std::string Ref = "A[t%2]";
    for (int D = 0; D < Dims; ++D) {
      Ref += "[" + std::string(Vars[D]);
      if (Offsets[D] > 0)
        Ref += "+" + std::to_string(Offsets[D]);
      else if (Offsets[D] < 0)
        Ref += std::to_string(Offsets[D]);
      Ref += "]";
    }
    return Ref;
  };

  std::string Lhs = "A[(t+1)%2]";
  for (int D = 0; D < Dims; ++D)
    Lhs += "[" + std::string(Vars[D]) + "]";

  std::uniform_int_distribution<int> TermDist(1, 6);
  std::uniform_int_distribution<int> OffsetDist(-Radius, Radius);
  std::uniform_int_distribution<int> CoefDist(1, 99);
  const int Terms = TermDist(Rng);
  std::string Rhs;
  for (int T = 0; T < Terms; ++T) {
    std::vector<int> Offsets(Dims, 0);
    // Star-style taps keep one axis active so the extractor's shape
    // classification stays within supported territory.
    Offsets[static_cast<std::size_t>(T) % Dims] = OffsetDist(Rng);
    if (T > 0)
      Rhs += (Rng() % 2 ? " + " : " - ");
    Rhs += "0." + std::to_string(CoefDist(Rng)) + "f * " + Subscript(Offsets);
  }
  // Ensure at least one tap reads the center cell (keeps the program
  // non-degenerate whatever the offsets rolled above).
  Rhs += " + 0.5f * " + Subscript(std::vector<int>(Dims, 0));

  switch (Corruption) {
  case SourceCorruption::TimeVarInValue:
    Rhs += " + t";
    break;
  case SourceCorruption::LoopVarAsCoefficient:
    Rhs += " + " + std::string(Vars[0]);
    break;
  case SourceCorruption::ModuloInValue:
    Rhs += " % 2";
    break;
  default:
    break;
  }

  Src += std::string(2 * (Dims + 1), ' ') + Lhs + " = " + Rhs +
         (Corruption == SourceCorruption::DropSemicolon ? "\n" : ";\n");
  if (Corruption == SourceCorruption::UnbalanceParen) {
    std::size_t Paren = Src.find('(');
    Src[Paren] = ' ';
  }
  return Src;
}

} // namespace

TEST(AnalysisFuzz, RandomDslProgramsNeverCrashTheFrontend) {
  std::mt19937 Rng(0xA5D51u); // fixed seed: reproducible corpus
  int Extracted = 0, Rejected = 0;
  for (int Iter = 0; Iter < 300; ++Iter) {
    // Half the corpus stays uncorrupted so both outcomes get coverage.
    SourceCorruption Corruption =
        (Rng() % 2) ? SourceCorruption::None
                    : static_cast<SourceCorruption>(
                          1 + Rng() % (static_cast<unsigned>(
                                           SourceCorruption::Count) -
                                       1));
    std::string Src = makeRandomStencilSource(Rng, Corruption);

    DiagnosticEngine Diags;
    StencilExtractor Extractor(Diags);
    auto Result =
        Extractor.extractFromSource(Src, "fuzz" + std::to_string(Iter));

    if (Result) {
      // Success implies a TapeVerifier-clean plan (extraction re-verifies
      // at lowering time and refuses anything the interpreter refutes).
      AnalysisReport Report = verifyTape(factsOf(*Result->Program));
      EXPECT_EQ(Report.errorCount(), 0u)
          << "iteration " << Iter << "\n"
          << Src << Report.toString();
      ++Extracted;
    } else {
      EXPECT_TRUE(Diags.hasErrors())
          << "iteration " << Iter
          << ": rejection without a structured diagnostic\n"
          << Src;
      ++Rejected;
    }
    if (Corruption == SourceCorruption::None)
      EXPECT_TRUE(Result.has_value())
          << "iteration " << Iter << ": uncorrupted program rejected\n"
          << Src << Diags.toString();
  }
  // The corpus must exercise both outcomes or the loop proves nothing.
  EXPECT_GT(Extracted, 50);
  EXPECT_GT(Rejected, 50);
}

TEST(AnalysisFuzz, RandomTapeCorruptionsNeverCrashTheVerifier) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  const TapeFacts Pristine = factsOf(*P);
  std::mt19937 Rng(0xA5D52u); // fixed seed: reproducible corpus
  for (int Iter = 0; Iter < 500; ++Iter) {
    TapeFacts Facts = Pristine;
    std::uniform_int_distribution<int> MutationCount(1, 3);
    for (int M = MutationCount(Rng); M > 0; --M) {
      switch (Rng() % 8) {
      case 0:
        if (!Facts.Ops.empty())
          Facts.Ops[Rng() % Facts.Ops.size()].Kind =
              static_cast<TapeOpKind>(Rng() % 17);
        break;
      case 1:
        if (!Facts.Ops.empty())
          Facts.Ops[Rng() % Facts.Ops.size()].Arg =
              static_cast<std::uint16_t>(Rng() % 1000);
        break;
      case 2:
        if (!Facts.Ops.empty())
          Facts.Ops.erase(Facts.Ops.begin() +
                          static_cast<long>(Rng() % Facts.Ops.size()));
        break;
      case 3:
        Facts.Ops.push_back(TapeOp{static_cast<TapeOpKind>(Rng() % 17),
                                   static_cast<std::uint16_t>(Rng() % 64)});
        break;
      case 4:
        Facts.MaxStackDepth += static_cast<int>(Rng() % 7) - 3;
        break;
      case 5:
        if (!Facts.Constants.empty())
          Facts.Constants[Rng() % Facts.Constants.size()] =
              (Rng() % 2) ? std::numeric_limits<double>::infinity() : -1.0;
        break;
      case 6:
        if (!Facts.Taps.empty()) {
          std::vector<int> &Tap = Facts.Taps[Rng() % Facts.Taps.size()];
          if (Rng() % 2 && !Tap.empty())
            Tap.pop_back();
          else
            Tap.push_back(static_cast<int>(Rng() % 9) - 4);
        }
        break;
      default:
        Facts.HasConstantDivision = !Facts.HasConstantDivision;
        break;
      }
    }
    // Whatever the corruption, the verifier must terminate with a
    // well-formed, JSON-renderable report — never crash or hang.
    AnalysisReport Report = verifyTape(Facts);
    std::string Rendered = Report.toString();
    EXPECT_FALSE(Rendered.empty());
    std::string Error;
    EXPECT_TRUE(obs::parseJson(Report.toJson(), &Error).has_value())
        << Error << " in iteration " << Iter;
  }
}
