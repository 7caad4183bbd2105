//===- AnalysisPass.h - Static dataflow pass framework ----------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small pass framework for static analyses over the lowered pipeline
/// state: typed passes run over (StencilProgram, ExprPlan, ScheduleIR) and
/// emit structured findings with stable IDs (`AN5D-A###`), one severity
/// each, and both human and JSON renderings. The passes prove tape
/// well-formedness and schedule legality — buffer-access bounds and the
/// Section 4 halo, ring, wavefront and tiling invariants, the one
/// authority on whether a schedule is legal — and compute static resource
/// features for the tuner's cost model.
///
/// Finding IDs are append-only and never reused — tests, the `--analyze`
/// JSON report and the README glossary all key on them:
///
///   AN5D-A1xx  TapeVerifier       (analysis/passes/TapeVerifier.h)
///   AN5D-A2xx  AccessBoundsProver (analysis/passes/AccessBoundsProver.h)
///   AN5D-A3xx  ResourceEstimator  (analysis/passes/ResourceEstimator.h)
///
/// The AnalysisPassManager wraps each pass run in an "analysis.pass" obs
/// span (attributed with the pass name) and counts pass runs and emitted
/// findings in the metrics registry.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_ANALYSIS_PASSES_ANALYSISPASS_H
#define AN5D_ANALYSIS_PASSES_ANALYSISPASS_H

#include "support/Diagnostic.h"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace an5d {

class StencilProgram;
class ExprPlan;
struct ScheduleIR;

/// Severity of one analysis finding. Error findings gate the tuner's
/// pre-JIT pipeline and make `an5dc --analyze` exit non-zero; Warn and
/// Info findings are advisory.
enum class FindingSeverity { Error, Warn, Info };

/// Stable lowercase name of \p Severity ("error" / "warn" / "info").
const char *findingSeverityName(FindingSeverity Severity);

/// One structured finding emitted by an analysis pass.
struct AnalysisFinding {
  std::string Id;   ///< Stable identifier, e.g. "AN5D-A101".
  FindingSeverity Severity = FindingSeverity::Error;
  std::string Pass;    ///< Emitting pass name, e.g. "tape-verifier".
  std::string Subject; ///< What the finding is about (op, tier, axis...).
  std::string Message; ///< LLVM style: lowercase start, no trailing period.

  /// Renders as "[AN5D-A101][error] tape-verifier: message (subject)".
  std::string toString() const;

  /// Maps onto the shared diagnostic model (Error -> Error, Warn ->
  /// Warning, Info -> Note) so frontends can report findings through
  /// their DiagnosticEngine.
  Diagnostic toDiagnostic() const;

  /// Appends this finding as one JSON object to \p Out.
  void appendJson(std::string &Out) const;
};

/// The aggregated result of one pipeline run.
struct AnalysisReport {
  std::vector<AnalysisFinding> Findings;

  std::size_t errorCount() const;
  std::size_t countBySeverity(FindingSeverity Severity) const;

  /// True when no Error-severity finding was emitted (Warn/Info allowed).
  bool proven() const { return errorCount() == 0; }

  /// True when \p Id appears among the findings (mutation-test helper).
  bool hasFinding(const std::string &Id) const;

  /// One finding per line; "analysis clean" when empty.
  std::string toString() const;

  /// The findings as a JSON array (stable member order, self-parseable
  /// through obs/JsonLite.h).
  std::string toJson() const;

  /// Reports every finding into \p Diags via AnalysisFinding::toDiagnostic.
  void render(DiagnosticEngine &Diags) const;
};

/// The state one pipeline run analyzes. Program is mandatory; Plan
/// defaults to Program->plan() when null; Schedule may be null, in which
/// case schedule-level passes have nothing to check and stay silent.
struct AnalysisInput {
  const StencilProgram *Program = nullptr;
  const ExprPlan *Plan = nullptr;
  const ScheduleIR *Schedule = nullptr;
};

/// One typed static analysis. Passes are stateless: run() derives every
/// fact from the input and appends findings to the report.
class AnalysisPass {
public:
  virtual ~AnalysisPass() = default;

  /// Stable pass name used in findings, span attributes and the report.
  virtual const char *name() const = 0;

  virtual void run(const AnalysisInput &Input,
                   AnalysisReport &Report) const = 0;
};

/// Runs an ordered list of passes over one input, with per-pass obs spans
/// and metrics.
class AnalysisPassManager {
public:
  AnalysisPassManager() = default;
  AnalysisPassManager(AnalysisPassManager &&) = default;
  AnalysisPassManager &operator=(AnalysisPassManager &&) = default;

  AnalysisPassManager &add(std::unique_ptr<AnalysisPass> Pass);

  std::size_t numPasses() const { return Passes.size(); }

  /// The shipped pipeline: tape-verifier, access-bounds, then
  /// resource-estimator — the order an5dc --analyze and the tuner's
  /// pre-JIT gate both run.
  static AnalysisPassManager standardPipeline();

  AnalysisReport run(const AnalysisInput &Input) const;

private:
  std::vector<std::unique_ptr<AnalysisPass>> Passes;
};

} // namespace an5d

#endif // AN5D_ANALYSIS_PASSES_ANALYSISPASS_H
