//===- ResourceEstimator.cpp - Static per-candidate resource facts --------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/passes/ResourceEstimator.h"

#include "ir/ExprPlan.h"
#include "ir/StencilProgram.h"
#include "model/RegisterModel.h"
#include "model/SharedMemoryModel.h"
#include "schedule/ScheduleIR.h"

#include <cstdio>
#include <string>

namespace an5d {

namespace {

constexpr long long WordBytes = 8; // Double-precision grids throughout.

void appendJsonNumber(std::string &Out, const char *Key, double Value,
                      bool First = false) {
  if (!First)
    Out += ",";
  Out += "\"";
  Out += Key;
  Out += "\":";
  // Integral values print without a fraction so the report stays stable.
  if (Value == static_cast<double>(static_cast<long long>(Value))) {
    Out += std::to_string(static_cast<long long>(Value));
  } else {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
    Out += Buf;
  }
}

} // namespace

ResourceEstimate estimateResources(const StencilProgram &Program,
                                   const ScheduleIR &IR) {
  ResourceEstimate E;
  if (IR.Invocations.empty() || IR.Config.BT < 1)
    return E;
  const InvocationSchedule &Full = IR.full();
  const long long Threads = IR.Config.numThreads();
  if (Threads < 1 || Full.RingDepth < 1)
    return E;

  E.Valid = true;

  // Occupancy inputs: exactly the figures concurrentBlocksPerSm feeds
  // into the register-file and shared-memory limits, so the model's
  // consumption of this estimate is bit-identical to computing them
  // in place.
  E.RegistersPerThread = an5dRegistersPerThread(Program, IR.Config.BT);
  E.SmemBytesPerBlock = an5dSmemBytesPerBlock(Program, Threads);

  // Register rings: every tier keeps RingDepth sub-plane values per
  // thread in registers.
  E.RingBytesPerThread = static_cast<long long>(IR.Config.BT) *
                         Full.RingDepth * WordBytes;
  E.RingBytesPerBlock = E.RingBytesPerThread * Threads;

  // Working sets: one ring row spans the loaded block (all lanes of every
  // blocked axis; a 1D schedule streams single cells).
  long long LanesPerPlane = 1;
  for (long long Span : Full.BS)
    LanesPerPlane *= Span;
  E.TierWorkingSetBytes = Full.RingDepth * LanesPerPlane * WordBytes;
  // The load stage keeps its own ring of loaded planes ahead of tier 1.
  E.BlockWorkingSetBytes =
      (static_cast<long long>(IR.Config.BT) + 1) * E.TierWorkingSetBytes;
  const long long ChunkPlanes =
      (Full.ChunkLength > 0 ? Full.ChunkLength : 1) +
      2 * Full.LoadStreamReach;
  E.ChunkWorkingSetBytes = ChunkPlanes * LanesPerPlane * WordBytes;

  // Tape census: what one tier application spends per cell.
  for (const TapeOp &Op : Program.plan().ops()) {
    switch (Op.Kind) {
    case TapeOpKind::Add:
    case TapeOpKind::Sub:
    case TapeOpKind::Neg:
      ++E.TapeAdds;
      break;
    case TapeOpKind::Mul:
      ++E.TapeMuls;
      break;
    case TapeOpKind::Div:
      ++E.TapeDivs;
      break;
    case TapeOpKind::MathCall:
      ++E.TapeMathCalls;
      break;
    default:
      break; // Pushes and loads are not FLOPs.
    }
  }
  E.TapeFlops = E.TapeAdds + E.TapeMuls + E.TapeDivs + E.TapeMathCalls;

  // A full-degree temporal block advances bT time-steps while running bT
  // tier applications per cell and touching global memory once each way,
  // so per cell per step the FLOPs stay at the tape cost and the traffic
  // shrinks by bT (the whole point of temporal blocking) — inflated by
  // the overlapped-tiling redundancy on the load side.
  long long LoadedCells = LanesPerPlane;
  long long StoredCells = 1;
  for (long long Width : Full.StoreWidth)
    StoredCells *= Width;
  double Redundancy =
      StoredCells > 0
          ? static_cast<double>(LoadedCells) / static_cast<double>(StoredCells)
          : 1.0;
  if (Full.ChunkLength > 0)
    Redundancy *= static_cast<double>(Full.ChunkLength +
                                      2 * Full.LoadStreamReach) /
                  static_cast<double>(Full.ChunkLength);
  E.LoadRedundancy = Redundancy;

  E.FlopsPerCell = static_cast<double>(E.TapeFlops);
  E.GmemBytesPerCell = static_cast<double>(WordBytes) * (Redundancy + 1.0) /
                       static_cast<double>(IR.Config.BT);
  E.ArithmeticIntensity =
      E.GmemBytesPerCell > 0 ? E.FlopsPerCell / E.GmemBytesPerCell : 0.0;
  return E;
}

ResourceEstimate estimateOccupancy(const StencilProgram &Program,
                                   const BlockConfig &Config) {
  ResourceEstimate E;
  const long long Threads = Config.numThreads();
  if (Config.BT < 1 || Threads < 1)
    return E;
  E.Valid = true;
  E.RegistersPerThread = an5dRegistersPerThread(Program, Config.BT);
  E.SmemBytesPerBlock = an5dSmemBytesPerBlock(Program, Threads);
  const long long RingDepth = 2LL * Program.radius() + 1;
  E.RingBytesPerThread =
      static_cast<long long>(Config.BT) * RingDepth * WordBytes;
  E.RingBytesPerBlock = E.RingBytesPerThread * Threads;
  return E;
}

void appendResourceJson(std::string &Out, const ResourceEstimate &Estimate) {
  Out += "{";
  appendJsonNumber(Out, "valid", Estimate.Valid ? 1 : 0, /*First=*/true);
  appendJsonNumber(Out, "registers_per_thread", Estimate.RegistersPerThread);
  appendJsonNumber(Out, "smem_bytes_per_block",
                   static_cast<double>(Estimate.SmemBytesPerBlock));
  appendJsonNumber(Out, "ring_bytes_per_thread",
                   static_cast<double>(Estimate.RingBytesPerThread));
  appendJsonNumber(Out, "ring_bytes_per_block",
                   static_cast<double>(Estimate.RingBytesPerBlock));
  appendJsonNumber(Out, "tier_working_set_bytes",
                   static_cast<double>(Estimate.TierWorkingSetBytes));
  appendJsonNumber(Out, "block_working_set_bytes",
                   static_cast<double>(Estimate.BlockWorkingSetBytes));
  appendJsonNumber(Out, "chunk_working_set_bytes",
                   static_cast<double>(Estimate.ChunkWorkingSetBytes));
  appendJsonNumber(Out, "tape_adds", static_cast<double>(Estimate.TapeAdds));
  appendJsonNumber(Out, "tape_muls", static_cast<double>(Estimate.TapeMuls));
  appendJsonNumber(Out, "tape_divs", static_cast<double>(Estimate.TapeDivs));
  appendJsonNumber(Out, "tape_math_calls",
                   static_cast<double>(Estimate.TapeMathCalls));
  appendJsonNumber(Out, "tape_flops",
                   static_cast<double>(Estimate.TapeFlops));
  appendJsonNumber(Out, "flops_per_cell", Estimate.FlopsPerCell);
  appendJsonNumber(Out, "gmem_bytes_per_cell", Estimate.GmemBytesPerCell);
  appendJsonNumber(Out, "load_redundancy", Estimate.LoadRedundancy);
  appendJsonNumber(Out, "arithmetic_intensity", Estimate.ArithmeticIntensity);
  Out += "}";
}

void ResourceEstimatorPass::run(const AnalysisInput &Input,
                                AnalysisReport &Report) const {
  if (!Input.Schedule || !Input.Program)
    return;
  ResourceEstimate E = estimateResources(*Input.Program, *Input.Schedule);
  if (!E.Valid)
    return;

  auto Grade = [&Report](const char *Id, FindingSeverity Severity,
                         std::string Subject, std::string Message) {
    AnalysisFinding F;
    F.Id = Id;
    F.Severity = Severity;
    F.Pass = "resource-estimator";
    F.Subject = std::move(Subject);
    F.Message = std::move(Message);
    Report.Findings.push_back(std::move(F));
  };

  if (E.RegistersPerThread > 255)
    Grade("AN5D-A301", FindingSeverity::Warn, "registers",
          "estimated register demand " +
              std::to_string(E.RegistersPerThread) +
              " per thread exceeds the 255-register ISA bound (spills "
              "certain at any cap)");
  if (E.ArithmeticIntensity < 1.0)
    Grade("AN5D-A302", FindingSeverity::Info, "arithmetic intensity",
          "estimated arithmetic intensity below 1 FLOP/byte; the candidate "
          "is firmly bandwidth-bound");
}

} // namespace an5d
