//===- quickstart.cpp - AN5D reproduction quickstart --------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 5-minute tour: feed the framework the exact C code of Fig. 4 of the
/// paper (j2d5pt), watch it detect the stencil, generate CUDA, and verify
/// the blocked N.5D schedule against the naive reference on the CPU.
///
//===----------------------------------------------------------------------===//

#include "codegen/CudaCodegen.h"
#include "frontend/StencilExtractor.h"
#include "model/PerformanceModel.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <cstdio>

using namespace an5d;

int main() {
  // 1. The input: unoptimized double-buffered C (Fig. 4 of the paper).
  std::string Source = j2d5ptSource();
  std::printf("== input C code ==\n%s\n", Source.c_str());

  // 2. Detect the stencil (Section 4.3.3 rules).
  DiagnosticEngine Diags;
  StencilExtractor Extractor(Diags);
  auto Result = Extractor.extractFromSource(Source, "j2d5pt");
  if (!Result) {
    std::fprintf(stderr, "stencil detection failed:\n%s",
                 Diags.toString().c_str());
    return 1;
  }
  const StencilProgram &Program = *Result->Program;
  std::printf("== detected stencil ==\n%s\n\n", Program.toString().c_str());

  // 3. Tune for a Tesla V100 with the Section 5 performance model.
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(Program, ProblemSize::paperDefault(2));
  if (!Outcome.Feasible) {
    std::fprintf(stderr, "tuning failed\n");
    return 1;
  }
  std::printf("== tuned configuration (V100) ==\n%s\n  model: %s\n"
              "  simulated measurement: %.0f GFLOP/s\n\n",
              Outcome.Best.toString().c_str(),
              Outcome.BestMeasured.Model.toString().c_str(),
              Outcome.BestMeasured.MeasuredGflops);

  // 4. Generate the CUDA pair.
  GeneratedCuda Cuda =
      generateCuda(Program, lowerSchedule(Program, Outcome.Best));
  std::printf("== generated CUDA ==\n  kernel %s: %zu bytes of kernel "
              "source, %zu bytes of host source\n\n",
              Cuda.KernelName.c_str(), Cuda.KernelSource.size(),
              Cuda.HostSource.size());

  // 5. Verify the blocked schedule bit-for-bit against the reference on a
  //    small grid (no GPU required).
  BlockConfig Small;
  Small.BT = Outcome.Best.BT;
  Small.BS = {64};
  Small.HS = 16;
  Grid<float> Ref0({60, 57}, 1), Ref1({60, 57}, 1);
  fillGridDeterministic(Ref0, 2026);
  copyGrid(Ref0, Ref1);
  Grid<float> Blk0 = Ref0, Blk1 = Ref0;
  long long Steps = 25;
  referenceRun<float>(Program, {&Ref0, &Ref1}, Steps);
  blockedRun<float>(Program, Small, {&Blk0, &Blk1}, Steps);
  const Grid<float> &Want = Steps % 2 == 0 ? Ref0 : Ref1;
  const Grid<float> &Got = Steps % 2 == 0 ? Blk0 : Blk1;
  bool Match = Want.raw() == Got.raw();
  std::printf("== emulation check ==\n  %lld time-steps, bT=%d: %s\n", Steps,
              Small.BT,
              Match ? "blocked result matches reference bit-for-bit"
                    : "MISMATCH (bug!)");
  return Match ? 0 : 1;
}
