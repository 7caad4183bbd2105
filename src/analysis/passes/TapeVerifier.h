//===- TapeVerifier.h - ExprPlan tape abstract interpretation ---*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract interpretation of the flat postfix ExprPlan tape — the
/// emulator's correctness oracle, which until now was itself unverified.
/// The verifier simulates the operand stack with constant-ness tracking
/// and proves, per tape:
///
///   AN5D-A101  stack underflow (an op pops more operands than pushed)
///   AN5D-A102  stack residue (tape does not end with exactly one value)
///   AN5D-A103  declared MaxStackDepth vs simulated peak (Error when the
///              declaration is too small — CompiledTape would size its
///              batch stack short; Warn when merely loose)
///   AN5D-A104  PushConst index outside the constant pool
///   AN5D-A105  LoadTap index outside the tap table
///   AN5D-A106  MathCall selector outside the MathFn enum
///   AN5D-A107  fused superinstruction in a base plan (fused ops exist
///              only inside CompiledTape's peephole output)
///   AN5D-A108  tap arity != NumDims
///   AN5D-A109  tap offset beyond the declared radius
///   AN5D-A110  non-finite constant in the pool
///   AN5D-A111  division by a known constant zero
///   AN5D-A112  hasConstantDivision predicate inconsistent with the tape
///   AN5D-A113  constant never referenced (Info)
///   AN5D-A114  tap never referenced (Warn)
///   AN5D-A115  constant fold produces a non-finite value (what
///              CompiledTape's construction-time folding would compute)
///
/// ExprPlan's members are private and its compiler is trusted to emit
/// well-formed tapes, so the verifier runs over a plain mutable TapeFacts
/// snapshot instead — the same idiom as ScheduleIR's deliberately-mutable
/// fields: tests corrupt exactly one fact and assert the one finding ID
/// that must catch it.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_ANALYSIS_PASSES_TAPEVERIFIER_H
#define AN5D_ANALYSIS_PASSES_TAPEVERIFIER_H

#include "analysis/passes/AnalysisPass.h"
#include "ir/ExprPlan.h"

#include <vector>

namespace an5d {

/// A mutable snapshot of everything the tape verifier reasons about.
struct TapeFacts {
  std::vector<TapeOp> Ops;
  std::vector<double> Constants;
  std::vector<std::vector<int>> Taps;
  int MaxStackDepth = 0;
  bool HasConstantDivision = false;
  int NumDims = 0; ///< Declared dimensionality every tap must match.
  int Radius = 0;  ///< Declared radius bounding every tap component.

  /// Snapshots \p Plan against \p Program's declared shape.
  static TapeFacts of(const ExprPlan &Plan, const StencilProgram &Program);

  /// Snapshots \p Plan against an explicit shape (extractor-time callers
  /// that have no StencilProgram yet).
  static TapeFacts of(const ExprPlan &Plan, int NumDims, int Radius);
};

/// Runs every A1xx check over \p Facts, appending findings to \p Report.
void verifyTape(const TapeFacts &Facts, AnalysisReport &Report);

/// Convenience wrapper returning a fresh report.
AnalysisReport verifyTape(const TapeFacts &Facts);

/// The pass adapter: verifies Input.Plan (or Program->plan()) against
/// Program's declared shape. Silent when the input has no plan.
class TapeVerifierPass : public AnalysisPass {
public:
  const char *name() const override { return "tape-verifier"; }
  void run(const AnalysisInput &Input, AnalysisReport &Report) const override;
};

} // namespace an5d

#endif // AN5D_ANALYSIS_PASSES_TAPEVERIFIER_H
