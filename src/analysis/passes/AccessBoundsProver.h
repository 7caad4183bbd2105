//===- AccessBoundsProver.h - Symbolic buffer-access bounds -----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one authority on whether a lowered schedule is legal. A symbolic
/// interval analysis over ScheduleIR proves every global-buffer load/store
/// and every register-ring access of the emitted kernels in-bounds for ALL
/// problem extents above the schedule's minimum — statically, instead of
/// waiting for one unlucky extent to trip ASan — together with the
/// Section 4 invariants the blocked code relies on: the bT x radius halo
/// chain from tier to tier, the 2*radius+1 register ring, wavefront order,
/// and a gap- and overlap-free work-item tiling. Every invocation degree
/// the host schedule can issue is its own proof obligation. The tuner's
/// pre-JIT gate and `an5dc --analyze` run it through the standard
/// pipeline.
///
/// Bounds are affine in the per-axis extent E: `Coeff*E + Offset`
/// (SymBound). An inequality `a <= b` is proven for every E >= MinExtent
/// iff the difference has a non-negative extent coefficient AND is
/// non-negative at E = MinExtent — so one check covers the whole extent
/// family, which is exactly what a clamp such as
/// `min(ChunkHi-1+LoadStreamReach, E-1+GridHalo)` needs.
///
/// The access model is the one BlockedExecutor executes and both codegen
/// backends render: tier-0 stream loads clamped to
/// [-GridHalo, E-1+GridHalo]; blocked-axis loads clipped by the Exists
/// region [-Radius, E+Radius); ring lanes (X + tap - SpanLo) in [0, BS);
/// sub-plane lifetimes of RingDepth steps between production and slot
/// reuse; final-tier stores clamped to the interior. Findings:
///
///   AN5D-A201  stream-axis load outside the allocated halo
///   AN5D-A202  blocked-axis load outside the allocated halo
///   AN5D-A203  grid halo smaller than the widest stream tap
///   AN5D-A204  ring too shallow for a consumed sub-plane's lifetime
///   AN5D-A205  tier consumes a sub-plane its producer has not written
///   AN5D-A206  ring lane underflow (load-span halo too small)
///   AN5D-A207  ring lane overflow (span exceeds the loaded block)
///   AN5D-A208  store width exceeds the computed width
///   AN5D-A209  block/chunk stride differs from the stored width (gap or
///              overlap between concurrent work items)
///   AN5D-A210  schedule structurally malformed (bS arity included)
///   AN5D-A211  halo policy inconsistent with the blocked-axis set
///   AN5D-A212  tier reads outside its producer's valid region
///   AN5D-A213  compute width < 1: the halo consumes the block
///
/// Every finding is an Error.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_ANALYSIS_PASSES_ACCESSBOUNDSPROVER_H
#define AN5D_ANALYSIS_PASSES_ACCESSBOUNDSPROVER_H

#include "analysis/passes/AnalysisPass.h"

namespace an5d {

struct ScheduleIR;

/// An affine bound in one axis extent E: value(E) = ExtentCoeff*E + Offset.
struct SymBound {
  long long ExtentCoeff = 0;
  long long Offset = 0;

  long long value(long long Extent) const {
    return ExtentCoeff * Extent + Offset;
  }
};

/// True iff A <= B for every extent E >= MinExtent: the difference B - A
/// must grow (or stay flat) with E and already hold at the minimum.
inline bool provedLE(SymBound A, SymBound B, long long MinExtent) {
  long long DCoeff = B.ExtentCoeff - A.ExtentCoeff;
  long long DAtMin = B.value(MinExtent) - A.value(MinExtent);
  return DCoeff >= 0 && DAtMin >= 0;
}

/// Runs every A2xx check over \p IR against buffers allocated with
/// \p AllocHalo cells per side (the Grid layout allocates radius), for
/// every per-axis extent >= \p MinExtent.
void proveAccessBounds(const ScheduleIR &IR, long long AllocHalo,
                       AnalysisReport &Report, long long MinExtent = 1);

/// Convenience wrapper returning a fresh report.
AnalysisReport proveAccessBounds(const ScheduleIR &IR, long long AllocHalo);

/// The pass adapter: proves Input.Schedule against an allocation halo of
/// Program->radius(). Silent when the input carries no schedule.
class AccessBoundsProverPass : public AnalysisPass {
public:
  const char *name() const override { return "access-bounds"; }
  void run(const AnalysisInput &Input, AnalysisReport &Report) const override;
};

} // namespace an5d

#endif // AN5D_ANALYSIS_PASSES_ACCESSBOUNDSPROVER_H
