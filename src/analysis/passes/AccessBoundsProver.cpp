//===- AccessBoundsProver.cpp - Symbolic buffer-access bounds -------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/passes/AccessBoundsProver.h"

#include "ir/StencilProgram.h"
#include "schedule/ScheduleIR.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace an5d {

namespace {

void finding(AnalysisReport &Report, const char *Id, FindingSeverity Severity,
             std::string Subject, std::string Message) {
  AnalysisFinding F;
  F.Id = Id;
  F.Severity = Severity;
  F.Pass = "access-bounds";
  F.Subject = std::move(Subject);
  F.Message = std::move(Message);
  Report.Findings.push_back(std::move(F));
}

std::string degreeSubject(const InvocationSchedule &Inv) {
  return "degree " + std::to_string(Inv.Degree);
}

/// Structural sanity (AN5D-A210) and a positive compute width (AN5D-A213).
/// Returns false when the invocation is too malformed for the bounds checks
/// to index into safely, or has no compute region for them to bound.
bool checkStructure(const ScheduleIR &IR, const InvocationSchedule &Inv,
                    AnalysisReport &Report) {
  const std::string Subject = degreeSubject(Inv);
  auto Malformed = [&](std::string Message) {
    finding(Report, "AN5D-A210", FindingSeverity::Error, Subject,
            std::move(Message));
  };

  bool Ok = true;
  if (Inv.NumDims < 1 || Inv.Radius < 1 || Inv.Degree < 1) {
    Malformed("non-positive NumDims, Radius or Degree");
    Ok = false;
  }
  if (Inv.NumDims != IR.NumDims || Inv.Radius != IR.Radius ||
      Inv.GridHalo != IR.GridHalo || Inv.RingDepth != IR.RingDepth ||
      Inv.HaloPolicy != IR.HaloPolicy) {
    Malformed("invocation disagrees with the shared ScheduleIR invariants");
    Ok = false;
  }
  if (Inv.RingDepth < 1) {
    Malformed("ring depth must be at least 1");
    Ok = false;
  }
  if (Inv.GridHalo < 0 || Inv.LoadSpanHalo < 0 || Inv.LoadStreamReach < 0 ||
      Inv.ChunkLength < 0 || Inv.ChunkStride < 0) {
    Malformed("negative halo, reach or chunk field");
    Ok = false;
  }

  // bS carries exactly one entry per non-streaming dimension: an empty bS
  // is the 1D pure-streaming schedule only.
  const std::size_t Blocked =
      Inv.NumDims >= 1 ? static_cast<std::size_t>(Inv.NumDims - 1) : 0;
  if (Inv.BS.size() != Blocked) {
    Malformed("bS carries " + std::to_string(Inv.BS.size()) +
              " entries but the stencil has " + std::to_string(Blocked) +
              " non-streaming dimensions");
    return false;
  }
  if (Inv.ComputeWidth.size() != Blocked ||
      Inv.BlockStride.size() != Blocked || Inv.StoreWidth.size() != Blocked) {
    Malformed("blocked-axis vectors disagree in size");
    return false;
  }
  for (std::size_t D = 0; D < Blocked; ++D) {
    // AN5D-A213: the bS >= 2*degree*radius + 1 rule. The per-tier regions
    // are meaningless on an axis without a compute region.
    if (Inv.ComputeWidth[D] < 1) {
      finding(Report, "AN5D-A213", FindingSeverity::Error,
              Subject + " axis " + std::to_string(D),
              "compute width " + std::to_string(Inv.ComputeWidth[D]) +
                  " is not positive: bS " + std::to_string(Inv.BS[D]) +
                  " cannot hold 2*" + std::to_string(Inv.Degree) + "*" +
                  std::to_string(Inv.Radius) + " halo cells");
      Ok = false;
    } else if (Inv.BS[D] < 1 || Inv.BlockStride[D] < 1 ||
               Inv.StoreWidth[D] < 1) {
      Malformed("non-positive block span, stride or store width on axis " +
                std::to_string(D));
      Ok = false;
    }
  }

  if (Inv.Tiers.size() != static_cast<std::size_t>(std::max(Inv.Degree, 0))) {
    Malformed("tier count " + std::to_string(Inv.Tiers.size()) +
              " does not match degree " + std::to_string(Inv.Degree));
    return false;
  }
  for (std::size_t T = 0; T < Inv.Tiers.size(); ++T) {
    if (Inv.Tiers[T].Tier != static_cast<int>(T) + 1) {
      Malformed("tier numbering broken at position " + std::to_string(T));
      Ok = false;
    }
    if (Inv.Tiers[T].StreamLag < 0 || Inv.Tiers[T].Reach < 0) {
      Malformed("negative stream lag or reach at tier " +
                std::to_string(T + 1));
      Ok = false;
    }
  }

  for (std::size_t K = 0; K < Inv.Taps.size(); ++K) {
    if (static_cast<int>(Inv.Taps[K].size()) != Inv.NumDims) {
      Malformed("tap " + std::to_string(K) + " arity does not match NumDims");
      return false;
    }
  }
  return Ok;
}

void checkInvocation(const ScheduleIR &IR, const InvocationSchedule &Inv,
                     long long AllocHalo, long long MinExtent,
                     AnalysisReport &Report) {
  if (!checkStructure(IR, Inv, Report))
    return;
  const std::string Subject = degreeSubject(Inv);

  // AN5D-A211: the 1D pure-streaming schedule (no blocked axes) is the
  // only shape without a spatial halo to carry.
  const bool WantsPin = Inv.BS.empty();
  const bool IsPin = Inv.HaloPolicy == ScheduleHaloPolicy::PinBoundaryOnly;
  if (WantsPin != IsPin)
    finding(Report, "AN5D-A211", FindingSeverity::Error, Subject,
            std::string("halo policy ") + scheduleHaloPolicyName(Inv.HaloPolicy) +
                (WantsPin ? " on a schedule with no blocked axes"
                          : " on a schedule with blocked axes"));

  // AN5D-A201: tier-0 stream loads are clamped to
  // [-GridHalo, E-1+GridHalo]; the buffers allocate AllocHalo per side.
  {
    SymBound AccessLo{0, -Inv.GridHalo};
    SymBound AccessHi{1, Inv.GridHalo - 1};
    SymBound AllocLo{0, -AllocHalo};
    SymBound AllocHi{1, AllocHalo - 1};
    if (!provedLE(AllocLo, AccessLo, MinExtent) ||
        !provedLE(AccessHi, AllocHi, MinExtent))
      finding(Report, "AN5D-A201", FindingSeverity::Error,
              Subject + " stream axis",
              "stream-axis loads reach " + std::to_string(Inv.GridHalo) +
                  " cells past the edge but only " +
                  std::to_string(AllocHalo) + " are allocated");
  }

  // AN5D-A203: boundary pinning reads the input at plane P+tap for every
  // stream tap, so the halo must cover the widest stream offset.
  long long MaxAbsStreamTap = 0;
  long long MinTap0 = 0, MaxTap0 = 0;
  for (const std::vector<int> &Tap : Inv.Taps) {
    MaxAbsStreamTap = std::max(MaxAbsStreamTap,
                               static_cast<long long>(std::abs(Tap[0])));
    MinTap0 = std::min(MinTap0, static_cast<long long>(Tap[0]));
    MaxTap0 = std::max(MaxTap0, static_cast<long long>(Tap[0]));
  }
  if (Inv.GridHalo < MaxAbsStreamTap)
    finding(Report, "AN5D-A203", FindingSeverity::Error,
            Subject + " stream axis",
            "grid halo " + std::to_string(Inv.GridHalo) +
                " is smaller than the widest stream tap offset " +
                std::to_string(MaxAbsStreamTap));

  // AN5D-A202: blocked-axis loads are clipped by the Exists region
  // [-Radius, E+Radius) before touching the buffers.
  for (std::size_t D = 0; D < Inv.BS.size(); ++D) {
    SymBound AccessLo{0, -static_cast<long long>(Inv.Radius)};
    SymBound AccessHi{1, static_cast<long long>(Inv.Radius) - 1};
    SymBound AllocLo{0, -AllocHalo};
    SymBound AllocHi{1, AllocHalo - 1};
    if (!provedLE(AllocLo, AccessLo, MinExtent) ||
        !provedLE(AccessHi, AllocHi, MinExtent))
      finding(Report, "AN5D-A202", FindingSeverity::Error,
              Subject + " axis " + std::to_string(D),
              "blocked-axis loads reach " + std::to_string(Inv.Radius) +
                  " cells past the edge but only " +
                  std::to_string(AllocHalo) + " are allocated");
  }

  // Per-tier pipeline checks. The producer of tier T is tier T-1; tier 1
  // consumes the tier-0 load stage (lag 0, position LoadOrderPosition).
  for (std::size_t T = 0; T < Inv.Tiers.size(); ++T) {
    const TierSchedule &Tier = Inv.Tiers[T];
    const long long PrevLag = T == 0 ? 0 : Inv.Tiers[T - 1].StreamLag;
    const int PrevPos =
        T == 0 ? Inv.LoadOrderPosition : Inv.Tiers[T - 1].OrderPosition;
    const long long LagDiff = Tier.StreamLag - PrevLag;
    const std::string TierSubject =
        Subject + " tier " + std::to_string(Tier.Tier);

    // AN5D-A212: a tier evaluates Reach cells beyond the compute region and
    // reads tap offsets past that, which its producer must have computed.
    // On the stream axis tier 1's producer is the load stage, valid
    // LoadStreamReach planes beyond the chunk; on a blocked axis it is the
    // loaded span, which A206/A207 bound.
    // The subject is assembled only when the check fails.
    auto CheckProducerReach = [&](const std::string &Where,
                                  const char *AxisSuffix,
                                  long long ProducerReach, long long MinTap,
                                  long long MaxTap) {
      const long long Needed = Tier.Reach + std::max(-MinTap, MaxTap);
      if (Needed > ProducerReach)
        finding(Report, "AN5D-A212", FindingSeverity::Error,
                Where + AxisSuffix,
                "tier reads " + std::to_string(Needed) +
                    " cells beyond the compute region but its producer is "
                    "valid only " +
                    std::to_string(ProducerReach) + " cells beyond it");
    };
    CheckProducerReach(TierSubject, " stream axis",
                       T == 0 ? Inv.LoadStreamReach : Inv.Tiers[T - 1].Reach,
                       MinTap0, MaxTap0);

    // AN5D-A205: at step s the consumer reads the producer's sub-plane
    // s - StreamLag + MaxTap0. Same-step availability requires the
    // producer to run earlier in the step; otherwise only step s-1 is
    // written.
    const long long Newest =
        PrevPos < Tier.OrderPosition ? LagDiff : LagDiff - 1;
    if (Newest < MaxTap0)
      finding(Report, "AN5D-A205", FindingSeverity::Error, TierSubject,
              "tier consumes sub-plane lag " + std::to_string(LagDiff) +
                  " + tap " + std::to_string(MaxTap0) +
                  " before its producer has written it");

    // AN5D-A204: the oldest consumed sub-plane s - StreamLag + MinTap0 is
    // overwritten (slot reuse) RingDepth planes after production; it must
    // survive until the consumer's read. Equality is tolerable only when
    // the consumer runs before the producer within the step.
    const long long LifetimeNeed = LagDiff - MinTap0;
    const bool RingOk =
        Inv.RingDepth > LifetimeNeed ||
        (Inv.RingDepth == LifetimeNeed && Tier.OrderPosition < PrevPos);
    if (!RingOk)
      finding(Report, "AN5D-A204", FindingSeverity::Error, TierSubject,
              "ring depth " + std::to_string(Inv.RingDepth) +
                  " cannot hold a sub-plane for the " +
                  std::to_string(LifetimeNeed) +
                  " steps between production and last read");

    // Ring lane bounds: a tier evaluates lanes across its valid region
    // (reach beyond the compute region) and reads lane X + tap - SpanLo
    // with SpanLo = Origin - LoadSpanHalo; the ring rows hold BS lanes.
    for (std::size_t D = 0; D < Inv.BS.size(); ++D) {
      long long MinTapD = 0, MaxTapD = 0;
      for (const std::vector<int> &Tap : Inv.Taps) {
        MinTapD = std::min(MinTapD, static_cast<long long>(Tap[D + 1]));
        MaxTapD = std::max(MaxTapD, static_cast<long long>(Tap[D + 1]));
      }
      const std::string AxisSubject =
          TierSubject + " axis " + std::to_string(D);
      if (T > 0)
        CheckProducerReach(AxisSubject, "", Inv.Tiers[T - 1].Reach, MinTapD,
                           MaxTapD);
      const long long MinLane = Inv.LoadSpanHalo - Tier.Reach + MinTapD;
      if (MinLane < 0)
        finding(Report, "AN5D-A206", FindingSeverity::Error, AxisSubject,
                "ring lane underflow: load-span halo " +
                    std::to_string(Inv.LoadSpanHalo) +
                    " does not cover reach " + std::to_string(Tier.Reach) +
                    " plus tap " + std::to_string(MinTapD));
      const long long MaxLaneEnd = Inv.LoadSpanHalo + Inv.ComputeWidth[D] +
                                   Tier.Reach + MaxTapD;
      if (MaxLaneEnd > Inv.BS[D])
        finding(Report, "AN5D-A207", FindingSeverity::Error, AxisSubject,
                "ring lane overflow: span needs " +
                    std::to_string(MaxLaneEnd) + " lanes but the block loads " +
                    std::to_string(Inv.BS[D]));
    }
  }

  // AN5D-A208 / AN5D-A209: store and tiling coverage per blocked axis.
  for (std::size_t D = 0; D < Inv.BS.size(); ++D) {
    if (Inv.StoreWidth[D] > Inv.ComputeWidth[D])
      finding(Report, "AN5D-A208", FindingSeverity::Error,
              Subject + " axis " + std::to_string(D),
              "store width " + std::to_string(Inv.StoreWidth[D]) +
                  " exceeds computed width " +
                  std::to_string(Inv.ComputeWidth[D]));
    if (Inv.BlockStride[D] != Inv.StoreWidth[D])
      finding(Report, "AN5D-A209", FindingSeverity::Error,
              Subject + " axis " + std::to_string(D),
              "block stride " + std::to_string(Inv.BlockStride[D]) +
                  " differs from store width " +
                  std::to_string(Inv.StoreWidth[D]) +
                  " (tiling gaps or double stores)");
  }
  if (Inv.ChunkLength > 0 && Inv.ChunkStride != Inv.ChunkLength)
    finding(Report, "AN5D-A209", FindingSeverity::Error,
            Subject + " stream axis",
            "chunk stride " + std::to_string(Inv.ChunkStride) +
                " differs from chunk length " +
                std::to_string(Inv.ChunkLength) +
                " (streaming gaps or double stores)");
}

} // namespace

void proveAccessBounds(const ScheduleIR &IR, long long AllocHalo,
                       AnalysisReport &Report, long long MinExtent) {
  if (IR.Invocations.empty()) {
    finding(Report, "AN5D-A210", FindingSeverity::Error, IR.StencilName,
            "schedule lowered no invocations (bT = " +
                std::to_string(IR.Config.BT) + ")");
    return;
  }
  for (const InvocationSchedule &Inv : IR.Invocations)
    checkInvocation(IR, Inv, AllocHalo, MinExtent, Report);
}

AnalysisReport proveAccessBounds(const ScheduleIR &IR, long long AllocHalo) {
  AnalysisReport Report;
  proveAccessBounds(IR, AllocHalo, Report);
  return Report;
}

void AccessBoundsProverPass::run(const AnalysisInput &Input,
                                 AnalysisReport &Report) const {
  if (!Input.Schedule || !Input.Program)
    return;
  proveAccessBounds(*Input.Schedule, Input.Program->radius(), Report);
}

} // namespace an5d
