//===- codegen_dump.cpp - Emit generated CUDA and C++ to files ----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits, for a chosen benchmark (argv[1], default j2d5pt), the full
/// generated artifacts into ./an5d_generated/: the CUDA kernel (.cu), the
/// CUDA host driver (.cpp), and the portable self-checking C++ program.
/// This is what the AN5D tool would hand to nvcc.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"
#include "codegen/CudaCodegen.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace an5d;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "j2d5pt";
  auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
  if (!Program) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", Name.c_str());
    return 1;
  }

  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome =
      T.tune(*Program, ProblemSize::paperDefault(Program->numDims()));
  if (!Outcome.Feasible) {
    std::fprintf(stderr, "no feasible configuration\n");
    return 1;
  }

  std::filesystem::create_directories("an5d_generated");
  GeneratedCuda Cuda =
      generateCuda(*Program, lowerSchedule(*Program, Outcome.Best));

  std::string Base = "an5d_generated/" + Cuda.KernelName;
  {
    std::ofstream Out(Base + ".cu");
    Out << Cuda.KernelSource;
  }
  {
    std::ofstream Out(Base + "_host.cpp");
    Out << Cuda.HostSource;
  }

  // Portable self-check at an emulation-friendly size.
  ProblemSize Small;
  if (Program->numDims() == 2) {
    Small.Extents = {48, 45};
    BlockConfig C;
    C.BT = std::min(Outcome.Best.BT, 4);
    C.BS = {32};
    C.HS = 12;
    if (!C.isFeasible(Program->radius()))
      C.BT = 1;
    Small.TimeSteps = 11;
    std::ofstream Out(Base + "_check.cpp");
    Out << generateCppCheckProgram(*Program, lowerSchedule(*Program, C), Small);
  } else {
    Small.Extents = {14, 12, 12};
    BlockConfig C;
    C.BT = 2;
    C.BS = {10 + 4 * Program->radius(), 10 + 4 * Program->radius()};
    C.HS = 0;
    if (!C.isFeasible(Program->radius()))
      C.BT = 1;
    Small.TimeSteps = 7;
    std::ofstream Out(Base + "_check.cpp");
    Out << generateCppCheckProgram(*Program, lowerSchedule(*Program, C), Small);
  }

  std::printf("wrote:\n  %s.cu\n  %s_host.cpp\n  %s_check.cpp\n"
              "config: %s\n"
              "compile the check with: c++ -O2 %s_check.cpp && ./a.out\n",
              Base.c_str(), Base.c_str(), Base.c_str(),
              Outcome.Best.toString().c_str(), Base.c_str());
  return 0;
}
