//===- CppCodegen.h - Portable C++ backend ----------------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates portable C++ translations of the blocked N.5D schedule —
/// 1D (pure streaming: empty bS, one lane per hS chunk, OpenMP
/// worksharing over chunks), 2D and 3D — in two modes sharing one
/// blocked-invocation body (tier pipeline, halo overwrite, boundary
/// pinning, stream division) and one host-side temporal scheduler. 2D
/// and 3D render from one template over blocked rows of contiguous lanes:
/// a 2D stencil is the 3D kernel with one row per block (row block 1, no
/// row halo, a grid of one row).
///
///  * **Self-check program** (generateCppCheckProgram): a standalone `main`
///    with a naive reference and a bitwise self-check, baking the problem
///    size and the whole configuration into the program. `main` exits 0
///    printing "AN5D-CHECK OK" only if the blocked result matches the
///    reference bit for bit. An integration test compiles and runs it
///    with the host compiler.
///
///  * **Kernel library** (generateCppKernelLibrary): a shared-library
///    translation unit exporting the `extern "C"` entry point
///    `an5d_run(buf0, buf1, extents, timeSteps, bt, hs, bs)` plus metadata
///    query symbols (see runtime/NativeExecutor.h for the ABI contract).
///    Only the stencil and its element type are baked in; extents, step
///    count, bT, hS and bS are run-time arguments, so every configuration
///    of a stencil renders the same source and compiles once. The library
///    keeps no file-scope state (calls are reentrant)
///    and includes only <cstddef>, <cstring> and <omp.h>, plus <cmath>
///    when the update calls a math function. The (chunk x block) item
///    loop is an OpenMP worksharing loop when compiled with -fopenmp.
///    This is what the native runtime (src/runtime/) compiles, caches and
///    loads.
///
/// Both modes emit exactly the per-cell arithmetic of the in-process
/// evaluators (same expression tree, float literals round-tripped through
/// float precision in kernel mode), so a kernel compiled with
/// -ffp-contract=off reproduces ReferenceExecutor bit for bit. In 2D and
/// 3D each tier computes its in-grid, in-reach lane range of each row as
/// one branch-free `omp simd` loop reading restrict ring rows, with the
/// update expression inlined; vectorizing across cells leaves each cell's
/// operations and their order unchanged, so the contract holds there too.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_CODEGEN_CPPCODEGEN_H
#define AN5D_CODEGEN_CPPCODEGEN_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "schedule/ScheduleIR.h"

#include <string>

namespace an5d {

/// Renders the self-checking C++ program from a lowered schedule.
/// \p Problem fixes the grid extents and time-step count baked into the
/// program.
std::string generateCppCheckProgram(const StencilProgram &Program,
                                    const ScheduleIR &Schedule,
                                    const ProblemSize &Problem);

/// Renders the callable OpenMP kernel library from a lowered schedule:
/// the translation unit the native runtime compiles into a shared
/// object. It depends on the schedule's stencil only: extents,
/// time-steps, bT, hS and bS are parameters of the exported `an5d_run`.
std::string generateCppKernelLibrary(const StencilProgram &Program,
                                     const ScheduleIR &Schedule);

/// The current `an5d_*` ABI version emitted into kernel libraries and
/// checked by the loader before calling into one.
constexpr int CppKernelAbiVersion = 3;

} // namespace an5d

#endif // AN5D_CODEGEN_CPPCODEGEN_H
