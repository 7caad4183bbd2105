//===- BlockedExecutor.h - Functional N.5D blocking emulation ---*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CPU emulation of the exact execution model AN5D's generated CUDA
/// kernels implement (Section 4.1), rendered from the lowered
/// schedule/ScheduleIR — the executor consumes the same schedule object
/// the codegen backends print and the access-bounds prover proves:
///
///  * one thread-block per spatial block of bS lanes (compute region
///    bS - 2*bT*rad plus halo), streaming over dimension 0;
///  * bT computational streams (tiers); tier T at streaming step s
///    processes sub-plane s - T*rad, so each tier lags its producer by one
///    stencil radius;
///  * per tier, a ring of 2*rad+1 sub-planes (the register-held window);
///  * halo lanes overwrite with the previous tier's value (the paper's
///    "original values" rule that avoids branching);
///  * boundary sub-planes and boundary lanes stay pinned to the input's
///    boundary conditions (the spare-register trick of Section 4.1);
///  * optional division of the streaming dimension into hSN-long chunks
///    with redundant leading/trailing planes (Section 4.2.3);
///  * host-side temporal block scheduling with the parity adjustment of
///    Section 4.3.1.
///
/// Cell evaluation runs through the compiled flat tape of ir/ExprPlan.h:
/// each tap collapses to one flat ring offset
/// (slot(plane + tap_stream_offset) * laneCount + tap_lane_offset),
/// re-linearized once per sub-plane and shared by every lane, and each
/// lane span is decomposed into contiguous exists/interior/valid segments.
/// Every valid segment and every final-tier store row is one
/// CompiledTape::evalRange call, which runs each tape op over up to 64
/// lanes at a time, so the lane loops do no recursion, name resolution,
/// allocation or per-lane predicate. The tape is the emulator's only
/// engine; the recursive evalExpr walk lives on in referenceRun
/// (EvalStrategy::TreeWalk) as the bit-for-bit oracle the emulator is
/// tested against. A correct schedule reproduces the naive reference
/// result bit for bit — this is the correctness oracle for the whole
/// framework.
///
/// The PoisonHalos option writes quiet NaNs instead of the halo-overwrite
/// values; since halo values must never feed a valid computation, results
/// must still match the reference exactly (failure injection for tests).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_SIM_BLOCKEDEXECUTOR_H
#define AN5D_SIM_BLOCKEDEXECUTOR_H

#include "ir/ExprPlan.h"
#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "schedule/ScheduleIR.h"
#include "sim/Grid.h"
#include "sim/TimeBlockScheduler.h"
#include "support/Support.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace an5d {

/// Operation counters filled by the emulator when requested; comparable
/// one-to-one with the analytic ThreadCensus of the performance model
/// (the cross-check lives in tests/CensusCrossCheckTest.cpp).
struct BlockedExecStats {
  long long GmReadOps = 0;  ///< Loads of existing (interior+boundary) cells.
  long long GmWriteOps = 0; ///< Compute-region stores.
  long long ComputeOps = 0; ///< Stencil evaluations, redundancy included.
};

/// Behavioral switches for the blocked emulation.
struct BlockedExecOptions {
  /// Write NaN canaries into halo lanes and out-of-bound loads instead of
  /// the halo-overwrite values. Valid outputs must stay NaN-free.
  bool PoisonHalos = false;

  /// When set, the emulator accumulates operation counts here.
  BlockedExecStats *Stats = nullptr;
};

/// Emulates AN5D's blocked execution of one stencil.
template <typename T> class BlockedExecutor {
public:
  /// Renders a pre-lowered schedule (callers that already lowered — the
  /// tuner, the sweep — hand the IR down instead of re-lowering).
  BlockedExecutor(const StencilProgram &Program, ScheduleIR Schedule,
                  BlockedExecOptions Options = {})
      : IR(std::move(Schedule)), Options(Options), Radius(IR.Radius),
        RingDepth(static_cast<int>(IR.RingDepth)), Tape(Program.plan()) {
    const BlockConfig &Config = IR.Config;
    assert(Config.isFeasible(Radius) && "infeasible block configuration");
    assert(static_cast<int>(Config.BS.size()) == Program.numDims() - 1 &&
           "one block size per non-streaming dimension required");

    // Lane strides depend only on the configured block sizes, so each
    // tap's lane-offset component linearizes once here; only the
    // stream-dimension ring slot varies at run time (per sub-plane).
    int NumBlockedDims = static_cast<int>(Config.BS.size());
    LaneStride.assign(static_cast<std::size_t>(NumBlockedDims), 1);
    {
      long long Stride = 1;
      for (int D = NumBlockedDims - 1; D >= 0; --D) {
        LaneStride[static_cast<std::size_t>(D)] = Stride;
        Stride *= Config.BS[static_cast<std::size_t>(D)];
      }
    }
    const std::vector<std::vector<int>> &Taps = Program.plan().taps();
    TapLane.assign(Taps.size(), 0);
    for (std::size_t K = 0; K < Taps.size(); ++K)
      for (int D = 0; D < NumBlockedDims; ++D)
        TapLane[K] += static_cast<long long>(
                          Taps[K][static_cast<std::size_t>(D) + 1]) *
                      LaneStride[static_cast<std::size_t>(D)];
    TapOffsets.assign(Taps.size(), 0);
  }

  /// Lowers (\p Program, \p Config) through the shared lowerSchedule
  /// entry point and renders the resulting IR.
  BlockedExecutor(const StencilProgram &Program, const BlockConfig &Config,
                  BlockedExecOptions Options = {})
      : BlockedExecutor(Program, lowerSchedule(Program, Config), Options) {}

  /// The lowered schedule this executor renders.
  const ScheduleIR &schedule() const { return IR; }

  /// Advances \p TimeSteps steps. \p Buffers[0] holds the input at t=0; on
  /// return the result is in Buffers[TimeSteps % 2], exactly as the
  /// original double-buffered loop would leave it.
  void run(std::array<Grid<T> *, 2> Buffers, long long TimeSteps) {
    int InputIndex = 0;
    for (int Degree : scheduleTimeBlocks(TimeSteps, IR.Config.BT)) {
      runInvocation(*Buffers[InputIndex], *Buffers[1 - InputIndex], Degree);
      InputIndex = 1 - InputIndex;
    }
  }

  /// Runs exactly one kernel call of \p Degree combined steps (bypasses
  /// the host-side scheduler); used by the census cross-check tests.
  void runKernelOnce(const Grid<T> &In, Grid<T> &Out, int Degree) {
    runInvocation(In, Out, Degree);
  }

private:
  /// The lowered schedule; every structural quantity the executor uses
  /// (ring depth, compute widths, chunking, tier lags and reaches) is
  /// read from here, never re-derived.
  ScheduleIR IR;
  BlockedExecOptions Options;
  int Radius;
  int RingDepth;
  CompiledTape<T> Tape;
  std::vector<long long> LaneStride;
  /// Per-tap lane-offset component (constant per configuration).
  std::vector<long long> TapLane;
  /// Per-tap flat ring offsets, re-linearized per sub-plane.
  std::vector<long long> TapOffsets;
  /// Per-tier ring buffers, reused (re-zeroed) across blocks.
  std::vector<std::vector<T>> Rings;

  static T poisonValue() {
    return std::numeric_limits<T>::quiet_NaN();
  }

  /// One kernel call: one temporal block of \p Degree steps over the whole
  /// grid, reading \p In and writing \p Out. The per-degree plan —
  /// compute widths, block strides, chunk decomposition — comes straight
  /// from the lowered IR.
  void runInvocation(const Grid<T> &In, Grid<T> &Out, int Degree) {
    const InvocationSchedule &Inv = IR.at(Degree);
    const std::vector<long long> &Extents = In.extents();
    long long StreamExtent = Extents[0];
    int NumBlockedDims = static_cast<int>(Inv.BS.size());

    std::vector<long long> NumBlocks(NumBlockedDims);
    for (int D = 0; D < NumBlockedDims; ++D) {
      assert(Inv.ComputeWidth[static_cast<std::size_t>(D)] >= 1 &&
             "degree too large for block size");
      NumBlocks[D] =
          ceilDiv(Extents[static_cast<std::size_t>(D) + 1],
                  Inv.BlockStride[static_cast<std::size_t>(D)]);
    }

    long long ChunkLength =
        Inv.ChunkLength > 0 ? Inv.ChunkLength : StreamExtent;
    long long ChunkStride =
        Inv.ChunkStride > 0 ? Inv.ChunkStride : StreamExtent;
    long long NumChunks = ceilDiv(StreamExtent, ChunkStride);

    Rings.resize(static_cast<std::size_t>(Degree));

    // Iterate the worksharing decomposition the IR describes: all
    // (chunk, block-tuple) pairs; blocks are independent.
    std::vector<long long> BlockIndex(static_cast<std::size_t>(NumBlockedDims),
                                      0);
    for (long long Chunk = 0; Chunk < NumChunks; ++Chunk) {
      long long ChunkLo = Chunk * ChunkStride;
      long long ChunkHi = std::min(ChunkLo + ChunkLength, StreamExtent);
      std::fill(BlockIndex.begin(), BlockIndex.end(), 0);
      while (true) {
        std::vector<long long> Origins(static_cast<std::size_t>(
            NumBlockedDims));
        for (int D = 0; D < NumBlockedDims; ++D)
          Origins[static_cast<std::size_t>(D)] =
              BlockIndex[static_cast<std::size_t>(D)] *
              Inv.BlockStride[static_cast<std::size_t>(D)];
        runBlock(In, Out, Inv, ChunkLo, ChunkHi, Origins);

        int D = NumBlockedDims - 1;
        while (D >= 0) {
          if (++BlockIndex[static_cast<std::size_t>(D)] < NumBlocks[D])
            break;
          BlockIndex[static_cast<std::size_t>(D)] = 0;
          --D;
        }
        if (D < 0)
          break;
      }
    }
  }

  /// A maximal run of span positions of one blocked dimension over which
  /// the lane classification (exists / interior / tier-valid) is constant.
  /// Decomposing each dimension into such segments once per block lets the
  /// emulator run branch-free inner loops — no per-lane coordinate
  /// decode, no per-lane predicates.
  struct LaneSeg {
    long long Lo, Hi;
    bool Exists, Interior, Valid;
  };

  /// Classifies span positions [0, \p BS) of a blocked dimension whose
  /// span starts at coordinate \p SpanLo, for a tier with halo reach
  /// \p Reach. \p Extent is the grid's interior extent of that dimension;
  /// [\p OriginLo, OriginLo + Width) its compute region.
  std::vector<LaneSeg> classifySpan(long long BS, long long SpanLo,
                                    long long Extent, long long OriginLo,
                                    long long Width, long long Reach) const {
    auto ToSpan = [&](long long X) {
      return clampTo(X - SpanLo, 0LL, BS);
    };
    long long ExLo = ToSpan(-Radius), ExHi = ToSpan(Extent + Radius);
    long long InLo = ToSpan(0), InHi = ToSpan(Extent);
    long long VaLo = ToSpan(OriginLo - Reach);
    long long VaHi = ToSpan(OriginLo + Width + Reach);
    long long Cuts[8] = {0, BS, ExLo, ExHi, InLo, InHi, VaLo, VaHi};
    std::sort(std::begin(Cuts), std::end(Cuts));
    std::vector<LaneSeg> Segs;
    for (int I = 0; I + 1 < 8; ++I) {
      long long Lo = Cuts[I], Hi = Cuts[I + 1];
      if (Lo >= Hi)
        continue;
      Segs.push_back({Lo, Hi, Lo >= ExLo && Lo < ExHi,
                      Lo >= InLo && Lo < InHi, Lo >= VaLo && Lo < VaHi});
    }
    return Segs;
  }

  /// Streams one thread-block through one chunk, segment by segment: all
  /// per-lane work beyond the tape evaluation itself is hoisted, so
  /// loads/carries become contiguous row copies and evaluations run over
  /// precomputed lane ranges.
  void runBlock(const Grid<T> &In, Grid<T> &Out,
                const InvocationSchedule &Inv, long long ChunkLo,
                long long ChunkHi, const std::vector<long long> &Origins) {
    const int Degree = Inv.Degree;
    const std::vector<long long> &ComputeWidth = Inv.ComputeWidth;
    const std::vector<long long> &Extents = In.extents();
    long long StreamExtent = Extents[0];
    int NumBlockedDims = static_cast<int>(Inv.BS.size());
    int Halo = In.halo();
    const T *GridIn = In.data();
    T *GridOut = Out.data();
    const T Fill = Options.PoisonHalos ? poisonValue() : T(0);

    long long LaneCount = 1;
    for (long long B : Inv.BS)
      LaneCount *= B;

    // Normalize to exactly two loop dimensions (outer, inner). Missing
    // blocked dimensions become synthetic size-1 dims whose span is the
    // whole interior, so classifySpan marks them exists/interior/valid
    // everywhere and the loop structure stays uniform. Grid strides are 0
    // for synthetic dims (their only position is 0).
    struct LoopDim {
      long long BS = 1, SpanLo = 0, Extent = 1, Origin = 0, Width = 1;
      long long LaneStrideD = 1, GridStrideD = 0;
    };
    LoopDim Outer, Inner;
    auto BindDim = [&](LoopDim &LD, int BD) {
      LD.BS = Inv.BS[static_cast<std::size_t>(BD)];
      LD.SpanLo = Origins[static_cast<std::size_t>(BD)] - Inv.LoadSpanHalo;
      LD.Extent = Extents[static_cast<std::size_t>(BD) + 1];
      LD.Origin = Origins[static_cast<std::size_t>(BD)];
      LD.Width = ComputeWidth[static_cast<std::size_t>(BD)];
      LD.LaneStrideD = LaneStride[static_cast<std::size_t>(BD)];
      LD.GridStrideD = In.stride(BD + 1);
    };
    if (NumBlockedDims >= 1)
      BindDim(NumBlockedDims == 1 ? Inner : Outer, 0);
    if (NumBlockedDims == 2)
      BindDim(Inner, 1);

    // Per-tier span classification (tier 0 only consumes Exists).
    std::vector<std::vector<LaneSeg>> OuterSegs(
        static_cast<std::size_t>(Degree) + 1);
    std::vector<std::vector<LaneSeg>> InnerSegs(
        static_cast<std::size_t>(Degree) + 1);
    for (int Tier = 0; Tier <= Degree; ++Tier) {
      long long Reach = Tier == 0
                            ? Inv.LoadSpanHalo
                            : Inv.Tiers[static_cast<std::size_t>(Tier) - 1]
                                  .Reach;
      OuterSegs[static_cast<std::size_t>(Tier)] =
          classifySpan(Outer.BS, Outer.SpanLo, Outer.Extent, Outer.Origin,
                       Outer.Width, Reach);
      InnerSegs[static_cast<std::size_t>(Tier)] =
          classifySpan(Inner.BS, Inner.SpanLo, Inner.Extent, Inner.Origin,
                       Inner.Width, Reach);
    }

    // Final-tier store window: interior ∩ compute region, per dimension.
    auto StoreRange = [](const LoopDim &LD) {
      long long Lo = clampTo(std::max(0LL, LD.Origin) - LD.SpanLo, 0LL,
                             LD.BS);
      long long Hi = clampTo(std::min(LD.Extent, LD.Origin + LD.Width) -
                                 LD.SpanLo,
                             0LL, LD.BS);
      return std::pair<long long, long long>(Lo, std::max(Lo, Hi));
    };
    auto [StoreLoOut, StoreHiOut] = StoreRange(Outer);
    auto [StoreLoIn, StoreHiIn] = StoreRange(Inner);

    // Flat-index base of span position (0, 0) in the grid's padded
    // layout, per plane: PlaneBase(P) = (P + Halo) * stride(0) + SpanBase.
    long long SpanBase = (Outer.SpanLo + Halo) * Outer.GridStrideD +
                         (Inner.SpanLo + Halo) * Inner.GridStrideD;
    long long StreamStride = In.stride(0);

    for (auto &Ring : Rings)
      Ring.assign(static_cast<std::size_t>(RingDepth) *
                      static_cast<std::size_t>(LaneCount),
                  T(0));
    auto RingSlot = [&](long long Plane) {
      long long M = Plane % RingDepth;
      return static_cast<std::size_t>(M < 0 ? M + RingDepth : M);
    };
    const std::vector<std::vector<int>> &Taps = Tape.taps();
    auto LinearizeTaps = [&](long long Plane) {
      for (std::size_t K = 0; K < Taps.size(); ++K)
        TapOffsets[K] =
            static_cast<long long>(RingSlot(Plane + Taps[K][0])) * LaneCount +
            TapLane[K];
    };

    long long Tier0Lo = std::max(ChunkLo - Inv.LoadStreamReach,
                                 -static_cast<long long>(Inv.GridHalo));
    long long Tier0Hi = std::min(ChunkHi - 1 + Inv.LoadStreamReach,
                                 StreamExtent - 1 + Inv.GridHalo);

    // Streaming schedule: at step s, tier T processes plane
    // s - StreamLag_T (the IR's per-tier lags). The window opens early
    // enough for the tier-0 preload and closes once the final tier has
    // drained its lag.
    long long SBegin = ChunkLo - Inv.LoadStreamReach;
    long long SEnd = ChunkHi - 1 + Inv.Tiers.back().StreamLag;
    for (long long S = SBegin; S <= SEnd; ++S) {
      // Tier 0: load plane S from global memory into the tier-0 ring.
      if (S >= Tier0Lo && S <= Tier0Hi && Degree >= 1) {
        T *DstRow = Rings[0].data() + RingSlot(S) * LaneCount;
        long long PlaneBase = (S + Halo) * StreamStride + SpanBase;
        for (const LaneSeg &O : OuterSegs[0])
          for (long long P1 = O.Lo; P1 < O.Hi; ++P1) {
            T *Row = DstRow + P1 * Outer.LaneStrideD;
            long long RowBase = PlaneBase + P1 * Outer.GridStrideD;
            for (const LaneSeg &I : InnerSegs[0]) {
              if (O.Exists && I.Exists) {
                for (long long P2 = I.Lo; P2 < I.Hi; ++P2)
                  Row[P2] = GridIn[RowBase + P2];
                if (Options.Stats)
                  Options.Stats->GmReadOps += I.Hi - I.Lo;
              } else {
                std::fill(Row + I.Lo, Row + I.Hi, Fill);
              }
            }
          }
      }

      // Tiers 1..Degree, each with the lag and reach the IR assigns.
      for (const TierSchedule &TS : Inv.Tiers) {
        const int Tier = TS.Tier;
        long long Plane = S - TS.StreamLag;
        long long Reach = TS.Reach;
        long long NeedLo = std::max(ChunkLo - Reach, -Inv.GridHalo);
        long long NeedHi =
            std::min(ChunkHi - 1 + Reach, StreamExtent - 1 + Inv.GridHalo);
        if (Plane < NeedLo || Plane > NeedHi)
          continue;

        std::vector<T> &PrevRing =
            Rings[static_cast<std::size_t>(Tier) - 1];
        const T *PrevData = PrevRing.data();
        bool IsInteriorPlane = Plane >= 0 && Plane < StreamExtent;
        LinearizeTaps(Plane);
        long long PlaneBase = (Plane + Halo) * StreamStride + SpanBase;

        if (Tier < Degree) {
          std::vector<T> &DstRing = Rings[static_cast<std::size_t>(Tier)];
          T *DstRow = DstRing.data() + RingSlot(Plane) * LaneCount;
          const T *CarryRow = PrevData + RingSlot(Plane) * LaneCount;
          for (const LaneSeg &O : OuterSegs[static_cast<std::size_t>(Tier)])
            for (long long P1 = O.Lo; P1 < O.Hi; ++P1) {
              long long RowOff = P1 * Outer.LaneStrideD;
              long long RowBase = PlaneBase + P1 * Outer.GridStrideD;
              for (const LaneSeg &I :
                   InnerSegs[static_cast<std::size_t>(Tier)]) {
                long long Len = I.Hi - I.Lo;
                if (!IsInteriorPlane || !(O.Interior && I.Interior)) {
                  // Boundary sub-planes / boundary lanes stay pinned to
                  // the input's boundary conditions; lanes past the
                  // padded grid are out-of-bound threads. (These refreshes
                  // are not GmReadOps: the census charges boundary values
                  // to the tier-0 load, matching the spare-register trick
                  // of Section 4.1.)
                  if (O.Exists && I.Exists) {
                    for (long long P2 = I.Lo; P2 < I.Hi; ++P2)
                      DstRow[RowOff + P2] = GridIn[RowBase + P2];
                  } else {
                    std::fill(DstRow + RowOff + I.Lo, DstRow + RowOff + I.Hi,
                              Fill);
                  }
                } else if (O.Valid && I.Valid) {
                  Tape.evalRange(PrevData + RowOff + I.Lo, TapOffsets.data(),
                                 DstRow + RowOff + I.Lo, Len);
                  if (Options.Stats)
                    Options.Stats->ComputeOps += Len;
                } else if (Options.PoisonHalos) {
                  std::fill(DstRow + RowOff + I.Lo, DstRow + RowOff + I.Hi,
                            poisonValue());
                } else {
                  // Halo overwrite (Section 4.1): carry the previous
                  // tier's value forward.
                  for (long long P2 = I.Lo; P2 < I.Hi; ++P2)
                    DstRow[RowOff + P2] = CarryRow[RowOff + P2];
                }
              }
            }
        } else {
          // Final tier: store the compute region of the chunk's own
          // interior planes straight to global memory.
          if (!IsInteriorPlane || Plane < ChunkLo || Plane >= ChunkHi)
            continue;
          for (long long P1 = StoreLoOut; P1 < StoreHiOut; ++P1) {
            long long RowOff = P1 * Outer.LaneStrideD;
            long long RowBase = PlaneBase + P1 * Outer.GridStrideD;
            Tape.evalRange(PrevData + RowOff + StoreLoIn, TapOffsets.data(),
                           GridOut + RowBase + StoreLoIn,
                           StoreHiIn - StoreLoIn);
            if (Options.Stats) {
              Options.Stats->ComputeOps += StoreHiIn - StoreLoIn;
              Options.Stats->GmWriteOps += StoreHiIn - StoreLoIn;
            }
          }
        }
      }
    }
  }
};

/// Convenience wrapper: construct an executor and run it.
template <typename T>
void blockedRun(const StencilProgram &Program, const BlockConfig &Config,
                std::array<Grid<T> *, 2> Buffers, long long TimeSteps,
                BlockedExecOptions Options = {}) {
  BlockedExecutor<T> Executor(Program, Config, Options);
  Executor.run(Buffers, TimeSteps);
}

/// True if any interior cell of \p G is NaN (poison-leak detector).
template <typename T> bool interiorHasNaN(const Grid<T> &G) {
  std::vector<long long> Coords(static_cast<std::size_t>(G.numDims()), 0);
  const std::vector<long long> &Extents = G.extents();
  while (true) {
    if (std::isnan(static_cast<double>(G.at(Coords))))
      return true;
    int D = G.numDims() - 1;
    while (D >= 0) {
      if (++Coords[static_cast<std::size_t>(D)] <
          Extents[static_cast<std::size_t>(D)])
        break;
      Coords[static_cast<std::size_t>(D)] = 0;
      --D;
    }
    if (D < 0)
      return false;
  }
}

} // namespace an5d

#endif // AN5D_SIM_BLOCKEDEXECUTOR_H
