//===- ReferenceExecutor.h - Naive stencil execution ------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The naive, trivially correct stencil executor: the literal semantics of
/// the input C loop nest (Fig. 4). It alternates between two buffers per
/// time-step and updates every interior cell from the previous buffer.
/// This is the oracle the blocked N.5D emulator is compared against.
///
/// Two evaluation engines are available (EvalStrategy in ir/ExprPlan.h):
///
///  * CompiledTape (default): the update expression is lowered once to the
///    flat tape of ExprPlan; each tap's coordinate arithmetic collapses to
///    one pre-linearized flat offset against the grid's strides, and each
///    interior row along the innermost dimension is one
///    CompiledTape::evalRange call, which runs every tape op over up to 64
///    cells at a time — no recursion, name lookups or allocation per cell.
///  * TreeWalk: the recursive evalExpr walk, kept as the bit-for-bit
///    oracle the tape — and through it the blocked emulator — is tested
///    against (tests/ExprPlanTest.cpp). It is the project's only tree-walk
///    executor.
///
/// Both engines perform identical arithmetic in identical order, so their
/// results — and therefore the blocked emulator's — match bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_SIM_REFERENCEEXECUTOR_H
#define AN5D_SIM_REFERENCEEXECUTOR_H

#include "ir/ExprEval.h"
#include "ir/ExprPlan.h"
#include "ir/StencilProgram.h"
#include "sim/Grid.h"

#include <algorithm>
#include <array>

namespace an5d {

/// Updates one interior cell of the grid at \p Coords from \p In through
/// the recursive tree walk (the oracle path; the hot path goes through
/// CompiledTape instead).
template <typename T>
T evalStencilCell(const StencilProgram &Program, const Grid<T> &In,
                  const std::vector<long long> &Coords) {
  std::vector<long long> Neighbor(Coords.size());
  auto Read = [&](const GridReadExpr &R) -> T {
    for (std::size_t D = 0; D < Coords.size(); ++D)
      Neighbor[D] = Coords[D] + R.offsets()[D];
    return In.at(Neighbor);
  };
  auto Coef = [&](const std::string &Name) -> T {
    return static_cast<T>(Program.coefficientValue(Name));
  };
  return evalExpr<T>(Program.update(), Read, Coef);
}

/// Pre-linearizes the plan's taps against \p G's strides: the flat-index
/// delta of each tap relative to the current cell.
template <typename T>
std::vector<long long> linearizeTaps(const ExprPlan &Plan, const Grid<T> &G) {
  std::vector<long long> Offsets(static_cast<std::size_t>(Plan.numTaps()), 0);
  const std::vector<std::vector<int>> &Taps = Plan.taps();
  for (std::size_t K = 0; K < Taps.size(); ++K)
    for (std::size_t D = 0; D < Taps[K].size(); ++D)
      Offsets[K] += static_cast<long long>(Taps[K][D]) *
                    G.stride(static_cast<int>(D));
  return Offsets;
}

/// Advances \p NumSteps time-steps naively. \p Buffers[0] holds the input
/// at t=0; on return the result of step NumSteps is in
/// Buffers[NumSteps % 2]. Boundary cells are expected to hold identical
/// (constant) values in both buffers and are never written.
template <typename T>
void referenceRun(const StencilProgram &Program,
                  std::array<Grid<T> *, 2> Buffers, long long NumSteps,
                  EvalStrategy Strategy = EvalStrategy::CompiledTape) {
  const std::vector<long long> &Extents = Buffers[0]->extents();
  int NumDims = Buffers[0]->numDims();
  std::vector<long long> Coords(static_cast<std::size_t>(NumDims), 0);

  if (Strategy == EvalStrategy::CompiledTape) {
    // Tap offsets and row bases are linearized once against Buffers[0],
    // so the tape path needs both buffers to share one padded layout.
    assert(Buffers[1]->halo() == Buffers[0]->halo() &&
           Buffers[1]->extents() == Extents &&
           "tape evaluation requires identically laid out buffers");
    const ExprPlan &Plan = Program.plan();
    CompiledTape<T> Tape(Plan);
    std::vector<long long> TapOffsets = linearizeTaps(Plan, *Buffers[0]);
    long long RowLength = Extents[static_cast<std::size_t>(NumDims) - 1];

    for (long long Step = 0; Step < NumSteps; ++Step) {
      const Grid<T> &In = *Buffers[Step % 2];
      Grid<T> &Out = *Buffers[(Step + 1) % 2];
      const T *InData = In.data();
      T *OutData = Out.data();

      // Odometer over the outer dimensions; each row of the innermost
      // dimension is one batched tape evaluation.
      std::fill(Coords.begin(), Coords.end(), 0);
      while (true) {
        std::size_t Base = In.flattenBase(Coords);
        Tape.evalRange(InData + Base, TapOffsets.data(), OutData + Base,
                       RowLength);

        int D = NumDims - 2;
        while (D >= 0) {
          if (++Coords[static_cast<std::size_t>(D)] <
              Extents[static_cast<std::size_t>(D)])
            break;
          Coords[static_cast<std::size_t>(D)] = 0;
          --D;
        }
        if (D < 0)
          break;
      }
    }
    return;
  }

  for (long long Step = 0; Step < NumSteps; ++Step) {
    const Grid<T> &In = *Buffers[Step % 2];
    Grid<T> &Out = *Buffers[(Step + 1) % 2];

    // Odometer walk over the interior cells.
    std::fill(Coords.begin(), Coords.end(), 0);
    while (true) {
      Out.at(Coords) = evalStencilCell(Program, In, Coords);
      int D = NumDims - 1;
      while (D >= 0) {
        if (++Coords[static_cast<std::size_t>(D)] <
            Extents[static_cast<std::size_t>(D)])
          break;
        Coords[static_cast<std::size_t>(D)] = 0;
        --D;
      }
      if (D < 0)
        break;
    }
  }
}

} // namespace an5d

#endif // AN5D_SIM_REFERENCEEXECUTOR_H
