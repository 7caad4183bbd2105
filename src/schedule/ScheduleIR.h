//===- ScheduleIR.h - Backend-neutral N.5D schedule IR ----------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit schedule intermediate representation of the N.5D execution
/// model: a backend-neutral description of one temporal-block invocation,
/// produced once by lowerSchedule(StencilProgram, BlockConfig) and then
/// *rendered* — never re-derived — by every consumer:
///
///   - sim/BlockedExecutor executes it cell-by-cell (tape and tree modes),
///   - codegen/CppCodegen prints it as the OpenMP self-check program and
///     the `an5d_run` kernel library,
///   - codegen/CudaCodegen prints it as the register-ring CUDA kernel and
///     its host driver, and
///   - analysis/passes/AccessBoundsProver proves its invariants
///     statically — the one authority on whether a schedule is legal.
///
/// The IR captures, per invocation degree d in [1, bT]:
///
///   - the ring-buffer plan: RingDepth sub-planes per tier, rotation by
///     streaming step, and each tier's stream lag (tier T at streaming
///     step s processes sub-plane s - T*radius, so a sub-plane's lifetime
///     spans RingDepth steps between production and slot reuse);
///   - the halo rules: the loaded block span per blocked axis (lanes
///     [-LoadSpanHalo, bS_i - LoadSpanHalo)), the tier-0 stream reach
///     beyond the chunk bounds, each tier's shrinking valid region
///     (reach (d - T)*radius), and the overwrite policy — blocked
///     dimensions carry the previous tier's value across the halo
///     (ScheduleHaloPolicy::CarryPreviousTier), while the 1D pure
///     streaming schedule has no spatial halo at all and only pins
///     boundary planes to the input (ScheduleHaloPolicy::PinBoundaryOnly);
///   - the worksharing decomposition: the hS division of the streaming
///     axis into chunks (Section 4.2.3) and the block grid over the
///     blocked axes (origin stride = stored width), whose cross product
///     is the concurrent work-item set of the emitted `omp for` /
///     CUDA grid.
///
/// Every field is a plain mutable value so tests can corrupt single
/// invariants (shrink a halo, swap a wave, overlap two lanes) and assert
/// the prover flags exactly that corruption with one AN5D-A2xx ID.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_SCHEDULE_SCHEDULEIR_H
#define AN5D_SCHEDULE_SCHEDULEIR_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"

#include <string>
#include <vector>

namespace an5d {

/// How a tier treats lanes outside its valid region (the halo-overwrite
/// rule of Section 4.2.2). Boundary planes along the streaming axis are
/// pinned to the input under both policies.
enum class ScheduleHaloPolicy {
  /// Blocked dimensions exist (>= 2D): a tier evaluating a halo lane
  /// carries the previous tier's value for that cell instead of
  /// computing, so the register pipeline stays dense across the block
  /// span. A renderer may skip the carries AN5D-A212 proves dead: a tier
  /// reads only its producer's valid region, so no tier reads a carried
  /// lane. The C++ renderer skips them and pins only the grid-halo
  /// strips; the emulator and the CUDA renderer keep them, which costs
  /// the CUDA kernel nothing in registers.
  CarryPreviousTier,
  /// 1D pure streaming (empty bS): each lane is its own compute region,
  /// there is no spatial halo to overwrite, and only stream-boundary
  /// pinning applies.
  PinBoundaryOnly,
};

/// Stable lowercase name of \p Policy (e.g. "carry-previous-tier").
const char *scheduleHaloPolicyName(ScheduleHaloPolicy Policy);

/// One computing tier of the pipeline (tiers 1..degree; the tier-0 load
/// stage is modeled by the Load* fields of InvocationSchedule).
struct TierSchedule {
  int Tier = 1;
  /// Execution position within one streaming step. The load stage runs at
  /// LoadOrderPosition; a consumer may read a producer's same-step write
  /// only if the producer's position is smaller.
  int OrderPosition = 1;
  /// Tier T processes sub-plane s - StreamLag at streaming step s.
  long long StreamLag = 0;
  /// Half-width of the tier's valid region beyond the compute region, in
  /// cells, on every axis: (degree - T) * radius by construction.
  long long Reach = 0;
};

/// Explicit schedule of one temporal-block invocation at a fixed degree.
/// lowerSchedule derives it from (program, config); every field is a
/// plain value so tests can corrupt single invariants.
struct InvocationSchedule {
  std::string Name; ///< "<stencil> <config> degree <d>" for messages.
  int NumDims = 1;  ///< Spatial dimensions (streaming dim included).
  int Radius = 1;
  int Degree = 1;

  /// Halo cells allocated per side of every axis of the global padded
  /// buffers (Grid layout: radius).
  long long GridHalo = 0;

  /// Sub-planes per tier ring (2*radius + 1 by construction).
  long long RingDepth = 0;

  /// Loaded block span per blocked axis (bS_i), and the span's left halo:
  /// lanes [-LoadSpanHalo, BS_i - LoadSpanHalo) relative to the block
  /// origin (degree * radius by construction).
  std::vector<long long> BS;
  long long LoadSpanHalo = 0;

  /// Stream-direction reach of the tier-0 load beyond the chunk bounds
  /// (degree * radius by construction).
  long long LoadStreamReach = 0;

  /// Execution position of the tier-0 load within one streaming step.
  int LoadOrderPosition = 0;

  /// Compute-region width per blocked axis (bS_i - 2*degree*radius).
  std::vector<long long> ComputeWidth;

  /// Origin stride between adjacent blocks per blocked axis (compute
  /// width by construction: block b owns [b*Stride, b*Stride + Store)).
  std::vector<long long> BlockStride;

  /// Cells the final tier stores per blocked axis from each block
  /// (compute width by construction).
  std::vector<long long> StoreWidth;

  /// Stream-chunk length and the stride between adjacent chunk starts
  /// (hS and hS; 0 disables chunking — one chunk spans the extent and
  /// the streaming axis carries no concurrency). hS is the longest chunk:
  /// a renderer may split the stream axis more finely, since every chunk
  /// loads its own stream halo and the prover's checks hold at any chunk
  /// length. The C++ renderer's 2D/3D kernels do, into near-equal chunks
  /// of at most hS planes (0: no maximum) and at least one per kernel
  /// thread while the extent allows; the emulator, the CUDA renderer and
  /// the 1D kernel run hS chunks.
  long long ChunkLength = 0;
  long long ChunkStride = 0;

  /// Deduplicated tap offsets (streaming component first).
  std::vector<std::vector<int>> Taps;

  /// Computing tiers 1..degree in pipeline order.
  std::vector<TierSchedule> Tiers;

  /// The halo-overwrite rule this invocation's tiers apply outside their
  /// valid regions (PinBoundaryOnly iff no blocked dimensions exist).
  ScheduleHaloPolicy HaloPolicy = ScheduleHaloPolicy::CarryPreviousTier;
};

/// The complete lowered schedule of one (stencil, config) pair: the
/// invocation plan for every degree the Section 4.3.1 host schedule can
/// issue, plus the invariants shared across degrees. This is the single
/// schedule object the emulator, the C++ and CUDA backends, and the
/// access-bounds prover all consume.
struct ScheduleIR {
  std::string StencilName;
  int NumDims = 1;
  int Radius = 1;

  /// The originating configuration point (bT, bS_i, hS, register cap).
  BlockConfig Config;

  /// Halo cells per side of the padded global buffers (= radius).
  long long GridHalo = 0;

  /// Sub-planes per tier ring, shared by every degree (2*radius + 1).
  long long RingDepth = 0;

  /// The halo-overwrite rule (PinBoundaryOnly iff the stencil is 1D).
  ScheduleHaloPolicy HaloPolicy = ScheduleHaloPolicy::CarryPreviousTier;

  /// Invocation plans for degrees 1..Config.BT in order (empty when
  /// Config.BT < 1 — lowering never rejects; the prover does).
  std::vector<InvocationSchedule> Invocations;

  /// The plan for invocation degree \p Degree (1 <= Degree <=
  /// Config.BT). Asserts on out-of-range degrees.
  const InvocationSchedule &at(int Degree) const;

  /// The full-degree (bT) plan every complete temporal block runs.
  /// Asserts when Invocations is empty.
  const InvocationSchedule &full() const;
};

/// The single lowering entry point: derives the complete ScheduleIR the
/// emulator, both codegen backends, and the prover share for
/// (\p Program, \p Config). Never rejects — infeasible configurations
/// lower to an IR the prover refutes, so callers decide policy.
ScheduleIR lowerSchedule(const StencilProgram &Program,
                         const BlockConfig &Config);

} // namespace an5d

#endif // AN5D_SCHEDULE_SCHEDULEIR_H
