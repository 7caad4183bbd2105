//===- TapeVerifier.cpp - ExprPlan tape abstract interpretation -----------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/passes/TapeVerifier.h"

#include "ir/ExprEval.h"
#include "ir/StencilProgram.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

namespace an5d {

namespace {

const char *tapeOpKindName(TapeOpKind Kind) {
  switch (Kind) {
  case TapeOpKind::PushConst:
    return "PushConst";
  case TapeOpKind::LoadTap:
    return "LoadTap";
  case TapeOpKind::Neg:
    return "Neg";
  case TapeOpKind::Add:
    return "Add";
  case TapeOpKind::Sub:
    return "Sub";
  case TapeOpKind::Mul:
    return "Mul";
  case TapeOpKind::Div:
    return "Div";
  case TapeOpKind::MathCall:
    return "MathCall";
  case TapeOpKind::MulConstTap:
    return "MulConstTap";
  case TapeOpKind::MacConstTap:
    return "MacConstTap";
  case TapeOpKind::AddTap:
    return "AddTap";
  case TapeOpKind::SubTap:
    return "SubTap";
  case TapeOpKind::MulTap:
    return "MulTap";
  case TapeOpKind::AddConst:
    return "AddConst";
  case TapeOpKind::SubConst:
    return "SubConst";
  case TapeOpKind::MulConst:
    return "MulConst";
  case TapeOpKind::DivConst:
    return "DivConst";
  }
  return "<unknown>";
}

/// One abstract operand: either a known compile-time constant (the value
/// CompiledTape's construction-time folding would have computed) or an
/// unknown grid-dependent value.
struct AbsVal {
  bool IsConst = false;
  double Value = 0.0;
};

std::string opSubject(std::size_t Index, TapeOpKind Kind) {
  return "op " + std::to_string(Index) + " " + tapeOpKindName(Kind);
}

void finding(AnalysisReport &Report, const char *Id, FindingSeverity Severity,
             std::string Subject, std::string Message) {
  AnalysisFinding F;
  F.Id = Id;
  F.Severity = Severity;
  F.Pass = "tape-verifier";
  F.Subject = std::move(Subject);
  F.Message = std::move(Message);
  Report.Findings.push_back(std::move(F));
}

} // namespace

TapeFacts TapeFacts::of(const ExprPlan &Plan, const StencilProgram &Program) {
  return of(Plan, Program.numDims(), Program.radius());
}

TapeFacts TapeFacts::of(const ExprPlan &Plan, int NumDims, int Radius) {
  TapeFacts Facts;
  Facts.Ops = Plan.ops();
  Facts.Constants = Plan.constants();
  Facts.Taps = Plan.taps();
  Facts.MaxStackDepth = Plan.maxStackDepth();
  Facts.HasConstantDivision = Plan.hasConstantDivision();
  Facts.NumDims = NumDims;
  Facts.Radius = Radius;
  return Facts;
}

void verifyTape(const TapeFacts &Facts, AnalysisReport &Report) {
  // Pool- and table-level checks run regardless of whether the stack
  // simulation survives: a corrupted tape must not mask a bad constant.
  for (std::size_t I = 0; I < Facts.Constants.size(); ++I) {
    if (!std::isfinite(Facts.Constants[I]))
      finding(Report, "AN5D-A110", FindingSeverity::Error,
              "constant " + std::to_string(I),
              "constant pool holds a non-finite value");
  }
  for (std::size_t I = 0; I < Facts.Taps.size(); ++I) {
    const std::vector<int> &Tap = Facts.Taps[I];
    if (static_cast<int>(Tap.size()) != Facts.NumDims) {
      finding(Report, "AN5D-A108", FindingSeverity::Error,
              "tap " + std::to_string(I),
              "tap has " + std::to_string(Tap.size()) +
                  " components, expected NumDims = " +
                  std::to_string(Facts.NumDims));
      continue;
    }
    for (std::size_t D = 0; D < Tap.size(); ++D) {
      if (std::abs(Tap[D]) > Facts.Radius)
        finding(Report, "AN5D-A109", FindingSeverity::Error,
                "tap " + std::to_string(I) + " axis " + std::to_string(D),
                "tap offset " + std::to_string(Tap[D]) +
                    " exceeds declared radius " +
                    std::to_string(Facts.Radius));
    }
  }

  // Abstract interpretation of the stack machine, tracking constant-ness
  // so constant folds are checked exactly as CompiledTape would compute
  // them. A structural break (underflow) aborts the simulation — every
  // later stack-derived fact would be noise.
  std::vector<AbsVal> Stack;
  std::vector<bool> ConstUsed(Facts.Constants.size(), false);
  std::vector<bool> TapUsed(Facts.Taps.size(), false);
  int Peak = 0;
  bool SawConstDivision = false;
  bool Bailed = false;

  auto Pop = [&Stack]() {
    AbsVal V = Stack.back();
    Stack.pop_back();
    return V;
  };
  auto Push = [&Stack, &Peak](AbsVal V) {
    Stack.push_back(V);
    Peak = std::max(Peak, static_cast<int>(Stack.size()));
  };
  auto CheckFold = [&Report](double Value, std::size_t Index,
                             TapeOpKind Kind) {
    if (!std::isfinite(Value))
      finding(Report, "AN5D-A115", FindingSeverity::Error,
              opSubject(Index, Kind),
              "constant fold produces a non-finite value");
  };

  for (std::size_t I = 0; I < Facts.Ops.size() && !Bailed; ++I) {
    const TapeOp &Op = Facts.Ops[I];
    if (Op.Kind > TapeOpKind::MathCall) {
      finding(Report, "AN5D-A107", FindingSeverity::Error,
              opSubject(I, Op.Kind),
              "fused superinstruction in a base plan (fused ops exist only "
              "inside CompiledTape)");
      Bailed = true;
      break;
    }
    int Need = 0;
    switch (Op.Kind) {
    case TapeOpKind::PushConst:
    case TapeOpKind::LoadTap:
      Need = 0;
      break;
    case TapeOpKind::Neg:
    case TapeOpKind::MathCall:
      Need = 1;
      break;
    default:
      Need = 2;
      break;
    }
    if (static_cast<int>(Stack.size()) < Need) {
      finding(Report, "AN5D-A101", FindingSeverity::Error,
              opSubject(I, Op.Kind),
              "stack underflow: op pops " + std::to_string(Need) +
                  " operands but only " + std::to_string(Stack.size()) +
                  " are on the stack");
      Bailed = true;
      break;
    }

    switch (Op.Kind) {
    case TapeOpKind::PushConst:
      if (Op.Arg >= Facts.Constants.size()) {
        finding(Report, "AN5D-A104", FindingSeverity::Error,
                opSubject(I, Op.Kind),
                "constant index " + std::to_string(Op.Arg) +
                    " outside pool of size " +
                    std::to_string(Facts.Constants.size()));
        Push({});
      } else {
        ConstUsed[Op.Arg] = true;
        Push({true, Facts.Constants[Op.Arg]});
      }
      break;
    case TapeOpKind::LoadTap:
      if (Op.Arg >= Facts.Taps.size()) {
        finding(Report, "AN5D-A105", FindingSeverity::Error,
                opSubject(I, Op.Kind),
                "tap index " + std::to_string(Op.Arg) +
                    " outside table of size " +
                    std::to_string(Facts.Taps.size()));
      } else {
        TapUsed[Op.Arg] = true;
      }
      Push({});
      break;
    case TapeOpKind::Neg: {
      AbsVal V = Pop();
      Push({V.IsConst, -V.Value});
      break;
    }
    case TapeOpKind::MathCall: {
      AbsVal V = Pop();
      if (Op.Arg > static_cast<std::uint16_t>(MathFn::Cos)) {
        finding(Report, "AN5D-A106", FindingSeverity::Error,
                opSubject(I, Op.Kind),
                "math-function selector " + std::to_string(Op.Arg) +
                    " outside the MathFn enum");
        Push({});
        break;
      }
      if (V.IsConst) {
        double Folded =
            applyMathFn<double>(static_cast<MathFn>(Op.Arg), V.Value);
        CheckFold(Folded, I, Op.Kind);
        Push({true, Folded});
      } else {
        Push({});
      }
      break;
    }
    case TapeOpKind::Add:
    case TapeOpKind::Sub:
    case TapeOpKind::Mul:
    case TapeOpKind::Div: {
      AbsVal Rhs = Pop();
      AbsVal Lhs = Pop();
      if (Op.Kind == TapeOpKind::Div && Rhs.IsConst) {
        SawConstDivision = true;
        if (Rhs.Value == 0.0) {
          finding(Report, "AN5D-A111", FindingSeverity::Error,
                  opSubject(I, Op.Kind),
                  "division by a constant zero");
          Push({});
          break;
        }
      }
      if (Lhs.IsConst && Rhs.IsConst) {
        double Folded = 0.0;
        switch (Op.Kind) {
        case TapeOpKind::Add:
          Folded = Lhs.Value + Rhs.Value;
          break;
        case TapeOpKind::Sub:
          Folded = Lhs.Value - Rhs.Value;
          break;
        case TapeOpKind::Mul:
          Folded = Lhs.Value * Rhs.Value;
          break;
        default:
          Folded = Lhs.Value / Rhs.Value;
          break;
        }
        CheckFold(Folded, I, Op.Kind);
        Push({true, Folded});
      } else {
        Push({});
      }
      break;
    }
    default:
      break; // Fused kinds handled above.
    }
  }

  if (Bailed)
    return;

  if (Stack.size() != 1)
    finding(Report, "AN5D-A102", FindingSeverity::Error, "end of tape",
            "tape leaves " + std::to_string(Stack.size()) +
                " values on the stack, expected exactly 1");

  if (Facts.MaxStackDepth < Peak)
    finding(Report, "AN5D-A103", FindingSeverity::Error, "MaxStackDepth",
            "declared stack depth " + std::to_string(Facts.MaxStackDepth) +
                " is smaller than the simulated peak " + std::to_string(Peak) +
                " (CompiledTape would size its batch stack short)");
  else if (Facts.MaxStackDepth > Peak)
    finding(Report, "AN5D-A103", FindingSeverity::Warn, "MaxStackDepth",
            "declared stack depth " + std::to_string(Facts.MaxStackDepth) +
                " exceeds the simulated peak " + std::to_string(Peak));

  if (SawConstDivision && !Facts.HasConstantDivision)
    finding(Report, "AN5D-A112", FindingSeverity::Error,
            "hasConstantDivision",
            "tape divides by a compile-time constant but the plan predicate "
            "says it does not (div-to-mul rewrites would be skipped)");
  else if (!SawConstDivision && Facts.HasConstantDivision)
    finding(Report, "AN5D-A112", FindingSeverity::Warn, "hasConstantDivision",
            "plan predicate claims a constant division the tape never "
            "performs");

  for (std::size_t I = 0; I < ConstUsed.size(); ++I)
    if (!ConstUsed[I])
      finding(Report, "AN5D-A113", FindingSeverity::Info,
              "constant " + std::to_string(I),
              "constant pool entry is never referenced");
  for (std::size_t I = 0; I < TapUsed.size(); ++I)
    if (!TapUsed[I])
      finding(Report, "AN5D-A114", FindingSeverity::Warn,
              "tap " + std::to_string(I), "tap table entry is never loaded");
}

AnalysisReport verifyTape(const TapeFacts &Facts) {
  AnalysisReport Report;
  verifyTape(Facts, Report);
  return Report;
}

void TapeVerifierPass::run(const AnalysisInput &Input,
                           AnalysisReport &Report) const {
  const ExprPlan *Plan = Input.Plan;
  if (!Plan && Input.Program)
    Plan = &Input.Program->plan();
  if (!Plan || !Input.Program)
    return;
  verifyTape(TapeFacts::of(*Plan, *Input.Program), Report);
}

} // namespace an5d
