//===- BlockConfig.h - N.5D blocking configuration --------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tunable parameters of AN5D's execution model (Section 4.1): the
/// temporal blocking degree bT, the spatial block sizes bSi of the
/// non-streaming dimensions, the stream-chunk length hSN of Section 4.2.3,
/// and the per-thread register cap of Section 6.3 — plus the problem size.
///
/// Dimension convention used throughout the project: spatial dimension 0 is
/// the streaming dimension (the loop directly after the time loop);
/// dimensions 1..N-1 are blocked and map to the thread-block axes.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_MODEL_BLOCKCONFIG_H
#define AN5D_MODEL_BLOCKCONFIG_H

#include "ir/StencilProgram.h"

#include <string>
#include <vector>

namespace an5d {

/// Grid extents (streaming dimension first) and time-step count.
struct ProblemSize {
  std::vector<long long> Extents;
  long long TimeSteps = 0;

  /// Total number of grid cells.
  long long cellCount() const;

  /// Canonical evaluation sizes of Section 6.1: 16384^2 for 2D, 512^3 for
  /// 3D, with 1000 iterations.
  static ProblemSize paperDefault(int NumDims);

  std::string toString() const;
};

/// One point in AN5D's configuration space.
struct BlockConfig {
  /// Temporal blocking degree (combined time-steps per kernel call).
  int BT = 1;

  /// Spatial block sizes of the blocked dimensions (spatial dims 1..N-1);
  /// one entry for 2D stencils, two entries for 3D, and empty for 1D
  /// stencils (pure streaming: dimension 0 streams, one lane per block,
  /// parallelism from the hS division of Section 4.2.3).
  std::vector<int> BS;

  /// Stream-chunk length hSN; 0 disables the division of the streaming
  /// dimension (one chunk spans the whole extent).
  int HS = 0;

  /// NVCC-style -maxrregcount cap; 0 means uncapped.
  int RegisterCap = 0;

  /// Threads per block (the paper's nthr = prod bSi).
  long long numThreads() const;

  /// Per-dimension compute-region width: bSi - 2*bT*rad (the non-halo part
  /// that stores results).
  long long computeWidth(int BlockedDim, int Radius) const;

  /// True if bT >= 1 and every blocked dimension retains a positive
  /// compute region: the legality every backend needs, and all a CPU
  /// kernel needs. This cannot check that BS has one entry per
  /// non-streaming dimension (the config does not know the stencil's
  /// dimensionality); evaluateModel enforces that arity contract for the
  /// model/tuner stack, and the access-bounds prover for the lowered
  /// schedule (AN5D-A210).
  bool isFeasible(int Radius) const;

  /// isFeasible(Radius) and at most \p MaxThreadsPerBlock threads per
  /// block: a GPU launch limit, so the device callers (the performance
  /// model, the simulated tuner, the report, the baselines and CUDA
  /// emission) pass GpuSpec::MaxThreadsPerBlock themselves.
  bool isFeasible(int Radius, int MaxThreadsPerBlock) const;

  std::string toString() const;
};

} // namespace an5d

#endif // AN5D_MODEL_BLOCKCONFIG_H
