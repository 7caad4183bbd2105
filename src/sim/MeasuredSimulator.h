//===- MeasuredSimulator.h - Calibrated measured-performance stand-in -*-C++-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// This environment has no physical V100/P100, so the "measured" columns of
/// the paper's evaluation are regenerated by a calibrated simulator layered
/// on the Section 5 model. The calibration encodes exactly the effects the
/// paper identifies when comparing Model to Tuned (Section 7.2):
///
///  * shared-memory kernels achieve only a fraction of the gpumembench
///    bandwidth — 76% on V100 and 52% on P100 (GpuSpec's
///    SmemKernelEfficiency);
///  * NVCC generates inefficient code for double-precision division by a
///    constant (the j* stencils), capping them well below the model;
///  * very high register pressure (high-order 3D box stencils) degrades
///    achievable throughput beyond what the model sees.
///
/// README "Deviations from the paper" lists what stands in for hardware.
///
/// This simulator models hardware we do not have. For measurements on
/// hardware we *do* have, the native runtime (runtime/NativeMeasurement.h)
/// JIT-compiles the generated OpenMP kernels and times them on the host
/// CPU — `an5dc --tune --measure native` swaps the tuner's second stage
/// over to it (MeasurementBackend::Native). The two backends share the
/// MeasuredResult shape below but live on different GFLOP/s scales.
///
/// This runs once per candidate configuration inside the tuner's search
/// loop, so expression-derived predicates (constant division etc.) come
/// from the program's pre-compiled ExprPlan rather than per-call tree
/// walks.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_SIM_MEASUREDSIMULATOR_H
#define AN5D_SIM_MEASUREDSIMULATOR_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "model/GpuSpec.h"
#include "model/PerformanceModel.h"

#include <string>

namespace an5d {

/// The normalized failure taxonomy of a measured candidate. Backends used
/// to communicate failures through free-form FailureReason strings only,
/// which downstream consumers (an5dc warnings, the metrics counters) had
/// to re-parse; the kind is the machine-readable classification, the
/// string stays the human-readable detail (compiler log, run status).
enum class MeasureFailureKind {
  None,        ///< No failure (or model-infeasible: silently pruned).
  BuildFailed, ///< Kernel generation, compilation or loading failed.
  NeverBuilt,  ///< The compile stage never produced this kernel.
  RunRejected, ///< The compiled kernel returned a non-zero status.
};

/// Short lowercase label for a failure kind ("build_failed", ...;
/// empty for None) — the vocabulary shared by an5dc's warning text and
/// the metric names.
const char *measureFailureKindLabel(MeasureFailureKind Kind);

/// The metrics-registry counter name for a failure kind
/// ("measure.failures.<label>"; empty for None).
std::string measureFailureMetricName(MeasureFailureKind Kind);

/// Model prediction plus the simulated measurement for one configuration.
struct MeasuredResult {
  bool Feasible = false;
  double MeasuredGflops = 0;
  double MeasuredTimeSeconds = 0;
  ModelBreakdown Model;

  /// Why an infeasible candidate failed, when the backend can tell:
  /// the native backend records compile/load errors ("kernel build
  /// failed: ...") and rejected runs here, so a broken toolchain is
  /// distinguishable from a genuinely infeasible configuration. Empty
  /// for model-infeasible candidates and for the simulated backend.
  std::string FailureReason;

  /// The normalized classification of FailureReason; None whenever
  /// FailureReason is empty.
  MeasureFailureKind FailureKind = MeasureFailureKind::None;

  /// Tuned/Model ratio, the paper's model-accuracy metric.
  double modelAccuracy() const {
    return Model.Gflops > 0 ? MeasuredGflops / Model.Gflops : 0;
  }
};

/// Simulates a run of AN5D's kernel for (stencil, device, config, problem).
MeasuredResult simulateMeasured(const StencilProgram &Program,
                                const GpuSpec &Spec,
                                const BlockConfig &Config,
                                const ProblemSize &Problem);

} // namespace an5d

#endif // AN5D_SIM_MEASUREDSIMULATOR_H
