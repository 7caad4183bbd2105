//===- ExprPlan.h - Compiled flat-tape stencil evaluation -------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiled evaluation of stencil update expressions. A StencilProgram is
/// lowered ONCE into an ExprPlan — a flat postfix tape whose operands are
/// already resolved: coefficient names become immediate values, math-call
/// names become MathFn opcodes, and grid reads become indices into a
/// deduplicated tap table. The executors then specialize the plan per
/// element type into a CompiledTape<T>, which additionally folds
/// constant-only subtrees in T precision, and evaluate it over rows of
/// cells with CompiledTape::evalRange: no recursion, no string
/// comparisons, no per-cell heap allocation.
///
/// Addressing is left to the caller: evaluation takes a base pointer (the
/// first cell of a Grid row, or the first lane of a BlockedExecutor ring
/// segment) plus one pre-linearized flat offset per tap. This lets both
/// executors hoist all coordinate arithmetic out of their innermost loops.
///
/// evalRange interprets the tape a vector at a time, as MonetDB/X100 does
/// (Boncz, Zukowski and Nes, CIDR 2005): it walks the tape once per batch
/// of up to 64 consecutive cells and runs each op as one loop over the
/// batch, so the dispatch of an op is spread over the batch instead of
/// paid per cell.
///
/// Because folding and evaluation perform exactly the operations of the
/// recursive evalExpr walk, in the same order and the same type, the tape
/// result matches the tree walk bit for bit — tests/ExprPlanTest.cpp
/// enforces this over every benchmark stencil. The tree walk stays
/// available to referenceRun behind EvalStrategy::TreeWalk as the oracle.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_IR_EXPRPLAN_H
#define AN5D_IR_EXPRPLAN_H

#include "ir/ExprEval.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace an5d {

/// Selects the evaluation engine referenceRun runs cells through.
enum class EvalStrategy {
  /// The flat postfix tape of ExprPlan (default; fast path).
  CompiledTape,
  /// The recursive evalExpr tree walk (bit-for-bit oracle).
  TreeWalk,
};

/// One instruction of the flat evaluation tape. ExprPlan::compile emits
/// only the base ops; the fused superinstructions below the marker are
/// introduced by CompiledTape's peephole pass and halve-to-quarter the
/// dispatch count of typical weighted-sum stencils.
enum class TapeOpKind : std::uint8_t {
  PushConst, ///< Push constant \c Arg of the constant table.
  LoadTap,   ///< Push the grid value of tap \c Arg.
  Neg,       ///< Negate the top of stack.
  Add,       ///< Pop two, push sum.
  Sub,       ///< Pop two, push difference.
  Mul,       ///< Pop two, push product.
  Div,       ///< Pop two, push quotient.
  MathCall,  ///< Apply MathFn(\c Arg) to the top of stack.

  // Fused superinstructions (CompiledTape only; \c Value holds the
  // constant where one participates).
  MulConstTap, ///< Push Value * tap[Arg].
  MacConstTap, ///< top = top + Value * tap[Arg].
  AddTap,      ///< top = top + tap[Arg].
  SubTap,      ///< top = top - tap[Arg].
  MulTap,      ///< top = top * tap[Arg].
  AddConst,    ///< top = top + Value.
  SubConst,    ///< top = top - Value.
  MulConst,    ///< top = top * Value.
  DivConst,    ///< top = top / Value.
};

struct TapeOp {
  TapeOpKind Kind;
  std::uint16_t Arg = 0;
};

/// The type-neutral compiled form of one stencil update expression.
class ExprPlan {
public:
  /// Lowers \p Update into a plan. Coefficient names are resolved against
  /// \p Coefficients (missing bindings assert, as in
  /// StencilProgram::coefficientValue); math callees are resolved to
  /// MathFn opcodes (unknown callees raise the fatal diagnostic of
  /// reportUnknownMathCall).
  static ExprPlan compile(const StencilExpr &Update,
                          const std::map<std::string, double> &Coefficients);

  /// The postfix instruction sequence.
  const std::vector<TapeOp> &ops() const { return Ops; }

  /// Constant pool referenced by PushConst (numbers and resolved
  /// coefficients, deduplicated).
  const std::vector<double> &constants() const { return Constants; }

  /// Distinct spatial taps referenced by LoadTap, in first-use order.
  /// Duplicate reads of one tap in the source expression share one entry.
  const std::vector<std::vector<int>> &taps() const { return Taps; }

  int numTaps() const { return static_cast<int>(Taps.size()); }

  /// Peak operand-stack depth needed to evaluate the tape.
  int maxStackDepth() const { return MaxStackDepth; }

  /// True if the update divides by a compile-time constant (literal or
  /// named coefficient) — mirrors containsConstantDivision over the tree,
  /// pre-computed so per-configuration model evaluation never re-walks the
  /// expression.
  bool hasConstantDivision() const { return HasConstantDivision; }

private:
  std::vector<TapeOp> Ops;
  std::vector<double> Constants;
  std::vector<std::vector<int>> Taps;
  int MaxStackDepth = 0;
  bool HasConstantDivision = false;
};

/// An ExprPlan specialized to element type \p T: constants are narrowed to
/// T once, and any subtree whose operands are all constants is folded at
/// construction — in T precision and post-order, i.e. exactly the
/// operations the tree walk would have performed on it.
template <typename T> class CompiledTape {
public:
  explicit CompiledTape(const ExprPlan &Plan) : Taps(Plan.taps()) {
    const std::vector<double> &Pool = Plan.constants();
    // Indices of the op that starts each operand currently on the build
    // stack; an operand is a folded constant iff it spans exactly one
    // PushConst op.
    std::vector<std::size_t> Starts;
    auto IsConstFrom = [&](std::size_t Start, std::size_t End) {
      return End == Start + 1 && Ops[Start].Kind == TapeOpKind::PushConst;
    };
    for (const TapeOp &Op : Plan.ops()) {
      switch (Op.Kind) {
      case TapeOpKind::PushConst:
        Starts.push_back(Ops.size());
        Ops.push_back({Op.Kind, Op.Arg, static_cast<T>(Pool[Op.Arg])});
        break;
      case TapeOpKind::LoadTap:
        Starts.push_back(Ops.size());
        Ops.push_back({Op.Kind, Op.Arg, T(0)});
        break;
      case TapeOpKind::Neg:
        if (IsConstFrom(Starts.back(), Ops.size()))
          Ops.back().Value = -Ops.back().Value;
        else
          Ops.push_back({Op.Kind, 0, T(0)});
        break;
      case TapeOpKind::MathCall:
        if (IsConstFrom(Starts.back(), Ops.size()))
          Ops.back().Value =
              applyMathFn<T>(static_cast<MathFn>(Op.Arg), Ops.back().Value);
        else
          Ops.push_back({Op.Kind, Op.Arg, T(0)});
        break;
      case TapeOpKind::Add:
      case TapeOpKind::Sub:
      case TapeOpKind::Mul:
      case TapeOpKind::Div: {
        std::size_t RhsStart = Starts.back();
        Starts.pop_back();
        std::size_t LhsStart = Starts.back();
        if (IsConstFrom(LhsStart, RhsStart) &&
            IsConstFrom(RhsStart, Ops.size())) {
          T Folded = applyBinary(Op.Kind, Ops[LhsStart].Value,
                                 Ops[RhsStart].Value);
          Ops.resize(LhsStart);
          Ops.push_back({TapeOpKind::PushConst, 0, Folded});
        } else {
          Ops.push_back({Op.Kind, 0, T(0)});
        }
        break;
      }
      }
    }
    assert(Starts.size() == 1 && "malformed evaluation tape");
    fuseSuperinstructions();
    Stack.assign(static_cast<std::size_t>(Plan.maxStackDepth()) *
                     static_cast<std::size_t>(BatchCells),
                 T(0));
  }

  /// The tap table evaluation reads through (shared with the plan).
  const std::vector<std::vector<int>> &taps() const { return Taps; }
  int numTaps() const { return static_cast<int>(Taps.size()); }

  /// Instructions remaining after folding (folding diagnostics / tests).
  int numOps() const { return static_cast<int>(Ops.size()); }

  /// Cells per batch of evalRange: enough to spread each op's dispatch
  /// over many cells, few enough that the stack rows stay in L1 (a row of
  /// doubles is 512 bytes).
  static constexpr long long BatchCells = 64;

  /// Interior cells one referenceRun step needs before it splits its rows
  /// over the OpenMP pool. Smaller steps, where starting a team costs more
  /// than the rows it would share out, stay on the calling thread.
  static constexpr long long ParallelCells = 1LL << 16;

  /// Evaluates the tape for the \p N consecutive cells starting at
  /// \p Cell: Out[I] receives the result of cell Cell + I, whose tap \c K
  /// reads Cell[I + TapOffsets[K]]. The caller pre-linearizes the offsets
  /// against its own storage (grid strides, or ring slot*lane arithmetic),
  /// so each tap of a batch is one contiguous run of memory.
  ///
  /// The tape is walked once per batch of up to BatchCells cells, and each
  /// op runs as one branch-free loop over the batch on a stack of
  /// maxStackDepth() batch rows. Every cell sees exactly the op sequence
  /// of the tree walk, in the same order and type, so the results match it
  /// bit for bit. \p Out must not overlap any cell the taps read.
  void evalRange(const T *Cell, const long long *TapOffsets, T *Out,
                 long long N) {
    T *Rows = Stack.data();
    auto Row = [Rows](int I) { return Rows + I * BatchCells; };
    for (long long First = 0; First < N; First += BatchCells) {
      const long long Lanes = std::min(BatchCells, N - First);
      auto Tap = [&](const TypedOp &Op) {
        return Cell + (First + TapOffsets[Op.Arg]);
      };
      int SP = 0;
      for (const TypedOp &Op : Ops) {
        const T V = Op.Value;
        switch (Op.Kind) {
        case TapeOpKind::PushConst:
          std::fill_n(Row(SP++), Lanes, V);
          break;
        case TapeOpKind::LoadTap:
          std::copy_n(Tap(Op), Lanes, Row(SP++));
          break;
        case TapeOpKind::Neg:
          update(Row(SP - 1), Lanes, [](T A) { return -A; });
          break;
        case TapeOpKind::Add:
          combine(Row(SP - 2), Row(SP - 1), Lanes,
                  [](T A, T B) { return A + B; });
          --SP;
          break;
        case TapeOpKind::Sub:
          combine(Row(SP - 2), Row(SP - 1), Lanes,
                  [](T A, T B) { return A - B; });
          --SP;
          break;
        case TapeOpKind::Mul:
          combine(Row(SP - 2), Row(SP - 1), Lanes,
                  [](T A, T B) { return A * B; });
          --SP;
          break;
        case TapeOpKind::Div:
          combine(Row(SP - 2), Row(SP - 1), Lanes,
                  [](T A, T B) { return A / B; });
          --SP;
          break;
        case TapeOpKind::MathCall: {
          const MathFn Fn = static_cast<MathFn>(Op.Arg);
          update(Row(SP - 1), Lanes,
                 [Fn](T A) { return applyMathFn<T>(Fn, A); });
          break;
        }
        case TapeOpKind::MulConstTap:
          push(Row(SP++), Tap(Op), Lanes, [V](T X) { return V * X; });
          break;
        case TapeOpKind::MacConstTap:
          // Two distinct IEEE operations, exactly as the tree walk
          // performs them. A compiler must not contract them into an FMA
          // — that would break the bit-for-bit oracle contract that
          // tests/ExprPlanTest.cpp enforces; the root CMakeLists passes
          // -ffp-contract=off project-wide to guarantee it.
          combine(Row(SP - 1), Tap(Op), Lanes, [V](T A, T X) {
            T Product = V * X;
            return A + Product;
          });
          break;
        case TapeOpKind::AddTap:
          combine(Row(SP - 1), Tap(Op), Lanes,
                  [](T A, T X) { return A + X; });
          break;
        case TapeOpKind::SubTap:
          combine(Row(SP - 1), Tap(Op), Lanes,
                  [](T A, T X) { return A - X; });
          break;
        case TapeOpKind::MulTap:
          combine(Row(SP - 1), Tap(Op), Lanes,
                  [](T A, T X) { return A * X; });
          break;
        case TapeOpKind::AddConst:
          update(Row(SP - 1), Lanes, [V](T A) { return A + V; });
          break;
        case TapeOpKind::SubConst:
          update(Row(SP - 1), Lanes, [V](T A) { return A - V; });
          break;
        case TapeOpKind::MulConst:
          update(Row(SP - 1), Lanes, [V](T A) { return A * V; });
          break;
        case TapeOpKind::DivConst:
          update(Row(SP - 1), Lanes, [V](T A) { return A / V; });
          break;
        }
      }
      std::copy_n(Row(0), Lanes, Out + First);
    }
  }

private:
  struct TypedOp {
    TapeOpKind Kind;
    std::uint16_t Arg;
    T Value; ///< Immediate for PushConst; unused otherwise.
  };

  /// Peephole pass over the folded postfix tape: an op that consumes the
  /// value(s) the immediately preceding single-push op(s) produced can
  /// absorb them. This is always sound in postfix form — adjacency means
  /// "top of stack" — and it turns the dominant weighted-sum shape
  /// (c*A[tap] accumulation chains) into one dispatch per tap.
  /// Swapping LoadTap/PushConst multiplication operands is bitwise safe:
  /// IEEE multiplication of the finite constant and the loaded value is
  /// commutative.
  void fuseSuperinstructions() {
    std::vector<TypedOp> Fused;
    Fused.reserve(Ops.size());
    auto Last = [&]() -> TypedOp & { return Fused.back(); };
    auto LastIs = [&](TapeOpKind Kind, std::size_t Back = 1) {
      return Fused.size() >= Back &&
             Fused[Fused.size() - Back].Kind == Kind;
    };
    for (const TypedOp &Op : Ops) {
      switch (Op.Kind) {
      case TapeOpKind::Mul:
        if (LastIs(TapeOpKind::LoadTap) && LastIs(TapeOpKind::PushConst, 2)) {
          std::uint16_t Tap = Last().Arg;
          Fused.pop_back();
          Last() = {TapeOpKind::MulConstTap, Tap, Last().Value};
          continue;
        }
        if (LastIs(TapeOpKind::PushConst) && LastIs(TapeOpKind::LoadTap, 2)) {
          T Weight = Last().Value;
          Fused.pop_back();
          Last() = {TapeOpKind::MulConstTap, Last().Arg, Weight};
          continue;
        }
        if (LastIs(TapeOpKind::LoadTap)) {
          Last().Kind = TapeOpKind::MulTap;
          continue;
        }
        if (LastIs(TapeOpKind::PushConst)) {
          Last().Kind = TapeOpKind::MulConst;
          continue;
        }
        break;
      case TapeOpKind::Add:
        if (LastIs(TapeOpKind::MulConstTap)) {
          Last().Kind = TapeOpKind::MacConstTap;
          continue;
        }
        if (LastIs(TapeOpKind::LoadTap)) {
          Last().Kind = TapeOpKind::AddTap;
          continue;
        }
        if (LastIs(TapeOpKind::PushConst)) {
          Last().Kind = TapeOpKind::AddConst;
          continue;
        }
        break;
      case TapeOpKind::Sub:
        if (LastIs(TapeOpKind::LoadTap)) {
          Last().Kind = TapeOpKind::SubTap;
          continue;
        }
        if (LastIs(TapeOpKind::PushConst)) {
          Last().Kind = TapeOpKind::SubConst;
          continue;
        }
        break;
      case TapeOpKind::Div:
        if (LastIs(TapeOpKind::PushConst)) {
          Last().Kind = TapeOpKind::DivConst;
          continue;
        }
        break;
      default:
        break;
      }
      Fused.push_back(Op);
    }
    Ops = std::move(Fused);
  }

  /// Dst[L] = F(Src[L]) over the lanes of one batch.
  template <typename Fn>
  static void push(T *__restrict Dst, const T *__restrict Src, long long Lanes,
                   Fn F) {
    for (long long L = 0; L < Lanes; ++L)
      Dst[L] = F(Src[L]);
  }

  /// Dst[L] = F(Dst[L]) over the lanes of one batch.
  template <typename Fn> static void update(T *Dst, long long Lanes, Fn F) {
    for (long long L = 0; L < Lanes; ++L)
      Dst[L] = F(Dst[L]);
  }

  /// Dst[L] = F(Dst[L], Src[L]) over the lanes of one batch.
  template <typename Fn>
  static void combine(T *__restrict Dst, const T *__restrict Src,
                      long long Lanes, Fn F) {
    for (long long L = 0; L < Lanes; ++L)
      Dst[L] = F(Dst[L], Src[L]);
  }

  static T applyBinary(TapeOpKind Kind, T L, T R) {
    switch (Kind) {
    case TapeOpKind::Add:
      return L + R;
    case TapeOpKind::Sub:
      return L - R;
    case TapeOpKind::Mul:
      return L * R;
    case TapeOpKind::Div:
      return L / R;
    default:
      assert(false && "applyBinary on non-binary op");
      return L;
    }
  }

  std::vector<TypedOp> Ops;
  std::vector<std::vector<int>> Taps;
  /// maxStackDepth() rows of BatchCells lanes; row I is stack slot I.
  std::vector<T> Stack;
};

} // namespace an5d

#endif // AN5D_IR_EXPRPLAN_H
