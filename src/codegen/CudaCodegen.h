//===- CudaCodegen.h - CUDA host + kernel generation ------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the CUDA host and kernel code of Section 4.3 from a lowered
/// schedule/ScheduleIR:
///
///  * a kernel built from LOAD / CALC1..CALCbT / STORE macro invocations,
///    statically unrolled head and tail phases and a rolled inner loop of
///    2*rad+1 rotations encoding the fixed register allocation as macro
///    argument sequences (Fig. 5);
///  * double-buffered shared memory with one __syncthreads() per tier
///    (2D/3D; the 1D pure-streaming schedule needs neither — each chunk
///    is one independent thread holding only its register rings);
///  * a __device__ wrapper around shared-memory loads to suppress NVCC's
///    vectorization (Section 4.3.2);
///  * host code issuing one kernel call per temporal block, with the
///    statically generated remainder/parity branches of Section 4.3.1.
///
/// The output targets nvcc; on this GPU-less machine it is validated
/// structurally (tests, KernelLint, goldens) and semantically via the
/// equivalent portable C++ backend (CppCodegen), which compiles and runs
/// the same schedule IR.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_CODEGEN_CUDACODEGEN_H
#define AN5D_CODEGEN_CUDACODEGEN_H

#include "ir/StencilProgram.h"
#include "schedule/ScheduleIR.h"

#include <string>

namespace an5d {

/// Switches mirroring AN5D's compile-time options (Section 4.3.3).
struct CodegenOptions {
  /// Star stencils: keep upper/lower sub-planes in registers only.
  bool EnableDiagonalAccessFreeOpt = true;
  /// Associative box stencils: partial summation over sub-planes.
  bool EnableAssociativeOpt = true;
  /// Route shared-memory loads through a device function so NVCC does not
  /// vectorize them (reduces register pressure, Section 4.3.2).
  bool DisableVectorizedSmemAccess = true;
  /// Unroll the inner streaming loop (off by default; the paper found it
  /// counterproductive due to instruction fetch latency).
  bool UnrollInnerLoop = false;
};

/// A generated translation-unit pair.
struct GeneratedCuda {
  std::string KernelName;
  std::string KernelSource; ///< .cu with macros + __global__ kernels.
  std::string HostSource;   ///< host driver with the time-block loop.
};

/// Renders CUDA for \p Program from a lowered schedule.
GeneratedCuda generateCuda(const StencilProgram &Program,
                           const ScheduleIR &Schedule,
                           const CodegenOptions &Options = {});

} // namespace an5d

#endif // AN5D_CODEGEN_CUDACODEGEN_H
