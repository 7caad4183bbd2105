//===- bench_table4_gpu_specs.cpp - Regenerates Table 4 ----------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Table 4 of the paper: the evaluation GPUs (float | double columns).
/// These values parameterize the whole performance model; without a GPU
/// they are constants rather than measurements (README "Deviations from
/// the paper").
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "model/GpuSpec.h"

using namespace an5d;
using namespace an5d::bench;

int main() {
  printBanner("Table 4: GPU Specifications (Float | Double)");

  Table T({"GPU", "Perf (GFLOP/s)", "Peak gmem (GB/s)",
           "Measured gmem (GB/s)", "Measured smem (GB/s)", "SMs",
           "smem/SM (KiB)"});
  for (const GpuSpec &Spec : {GpuSpec::teslaP100(), GpuSpec::teslaV100()}) {
    T.addRow({Spec.Name,
              formatDouble(Spec.PeakGflopsFloat, 0) + " | " +
                  formatDouble(Spec.PeakGflopsDouble, 0),
              formatDouble(Spec.PeakGmemGBs, 0) + " | " +
                  formatDouble(Spec.PeakGmemGBs, 0),
              formatDouble(Spec.MeasuredGmemGBsFloat, 0) + " | " +
                  formatDouble(Spec.MeasuredGmemGBsDouble, 0),
              formatDouble(Spec.MeasuredSmemGBsFloat, 0) + " | " +
                  formatDouble(Spec.MeasuredSmemGBsDouble, 0),
              std::to_string(Spec.SmCount),
              std::to_string(Spec.SharedMemPerSmBytes / 1024)});
  }
  T.print();

  std::printf("Calibration used by the measured-performance simulator:\n"
              "  shared-memory kernel efficiency: V100 %.0f%%, P100 %.0f%% "
              "(Section 7.2 accuracy bands)\n",
              GpuSpec::teslaV100().SmemKernelEfficiency * 100,
              GpuSpec::teslaP100().SmemKernelEfficiency * 100);
  return 0;
}
