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
///    A step of at least CompiledTape::ParallelCells cells over more than
///    one row shares its rows out over the OpenMP pool the native kernels
///    run on (one parallel region per call, one `omp for` per step); each
///    thread evaluates on its own tape, so every cell still runs the same
///    ops on the same inputs and the bits do not depend on the team size.
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
#include "obs/Trace.h"
#include "sim/Grid.h"

#include <algorithm>
#include <array>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

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

/// Runs \p NumSteps time-steps of \p Plan's tape over the \p NumRows
/// interior rows of the buffers (row-major over every dimension but the
/// innermost). Called by each thread of a parallel region, every step is
/// one `omp for schedule(static)` over the rows, whose implicit barrier
/// separates the steps; called outside one, it is a serial loop. Each
/// caller builds its own tape, because the tape's stack is scratch space.
template <typename T>
void referenceTapeSteps(const ExprPlan &Plan, std::array<Grid<T> *, 2> Buffers,
                        long long NumSteps, const long long *TapOffsets,
                        long long NumRows) {
  CompiledTape<T> Tape(Plan);
  const std::vector<long long> &Extents = Buffers[0]->extents();
  const int NumDims = Buffers[0]->numDims();
  const long long RowLength = Extents.back();
  std::vector<long long> Coords(static_cast<std::size_t>(NumDims), 0);
  for (long long Step = 0; Step < NumSteps; ++Step) {
    const Grid<T> &In = *Buffers[Step % 2];
    const T *InData = In.data();
    T *OutData = Buffers[(Step + 1) % 2]->data();
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (long long Row = 0; Row < NumRows; ++Row) {
      // The row's outer coordinates come from its index alone, so any
      // thread can start at any row.
      long long Rest = Row;
      for (int D = NumDims - 2; D >= 0; --D) {
        const long long Extent = Extents[static_cast<std::size_t>(D)];
        Coords[static_cast<std::size_t>(D)] = Rest % Extent;
        Rest /= Extent;
      }
      std::size_t Base = In.flattenBase(Coords);
      Tape.evalRange(InData + Base, TapOffsets, OutData + Base, RowLength);
    }
  }
}

/// Advances \p NumSteps time-steps naively. \p Buffers[0] holds the input
/// at t=0; on return the result of step NumSteps is in
/// Buffers[NumSteps % 2]. Boundary cells are expected to hold identical
/// (constant) values in both buffers and are never written. Records a
/// `sim.reference` span with the steps, the cells updated and the number
/// of threads that updated them.
template <typename T>
void referenceRun(const StencilProgram &Program,
                  std::array<Grid<T> *, 2> Buffers, long long NumSteps,
                  EvalStrategy Strategy = EvalStrategy::CompiledTape) {
  obs::TraceSpan Span("sim.reference");
  const std::vector<long long> &Extents = Buffers[0]->extents();
  int NumDims = Buffers[0]->numDims();
  long long Cells = 1;
  for (long long Extent : Extents)
    Cells *= Extent;
  int Threads = 1;

  if (Strategy == EvalStrategy::CompiledTape) {
    // Tap offsets and row bases are linearized once against Buffers[0],
    // so the tape path needs both buffers to share one padded layout.
    assert(Buffers[1]->halo() == Buffers[0]->halo() &&
           Buffers[1]->extents() == Extents &&
           "tape evaluation requires identically laid out buffers");
    const ExprPlan &Plan = Program.plan();
    std::vector<long long> TapOffsets = linearizeTaps(Plan, *Buffers[0]);
    const long long NumRows = Cells / Extents.back();
    if (NumRows > 1 && Cells >= CompiledTape<T>::ParallelCells) {
#ifdef _OPENMP
#pragma omp parallel
#endif
      {
        referenceTapeSteps(Plan, Buffers, NumSteps, TapOffsets.data(),
                           NumRows);
#ifdef _OPENMP
        if (omp_get_thread_num() == 0)
          Threads = omp_get_num_threads();
#endif
      }
    } else {
      referenceTapeSteps(Plan, Buffers, NumSteps, TapOffsets.data(), NumRows);
    }
  } else {
    std::vector<long long> Coords(static_cast<std::size_t>(NumDims), 0);
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

  if (Span.active()) {
    Span.attr("steps", std::to_string(NumSteps));
    Span.attr("cells", std::to_string(Cells * NumSteps));
    Span.attr("threads", std::to_string(Threads));
  }
}

} // namespace an5d

#endif // AN5D_SIM_REFERENCEEXECUTOR_H
