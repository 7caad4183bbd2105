//===- BlockConfig.cpp - N.5D blocking configuration ------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/BlockConfig.h"

#include "support/Support.h"

namespace an5d {

long long ProblemSize::cellCount() const {
  long long Cells = 1;
  for (long long E : Extents)
    Cells *= E;
  return Cells;
}

ProblemSize ProblemSize::paperDefault(int NumDims) {
  ProblemSize Size;
  if (NumDims == 2)
    Size.Extents = {16384, 16384};
  else if (NumDims == 3)
    Size.Extents = {512, 512, 512};
  else
    Size.Extents = {1 << 20};
  Size.TimeSteps = 1000;
  return Size;
}

std::string ProblemSize::toString() const {
  std::string Out;
  for (std::size_t I = 0; I < Extents.size(); ++I) {
    if (I != 0)
      Out += 'x';
    Out += std::to_string(Extents[I]);
  }
  Out += " IT=" + std::to_string(TimeSteps);
  return Out;
}

long long BlockConfig::numThreads() const {
  long long Threads = 1;
  for (int B : BS)
    Threads *= B;
  return Threads;
}

long long BlockConfig::computeWidth(int BlockedDim, int Radius) const {
  assert(BlockedDim >= 0 && BlockedDim < static_cast<int>(BS.size()) &&
         "blocked dimension out of range");
  return static_cast<long long>(BS[BlockedDim]) -
         2LL * static_cast<long long>(BT) * Radius;
}

bool BlockConfig::isFeasible(int Radius, int MaxThreadsPerBlock) const {
  if (BT < 1)
    return false;
  // An empty BS is the 1D pure-streaming configuration: no blocked
  // dimensions, one lane per block, parallelism from the hS division of
  // the streaming dimension. Every per-dimension check below is vacuous.
  if (numThreads() > MaxThreadsPerBlock)
    return false;
  for (std::size_t D = 0; D < BS.size(); ++D)
    if (computeWidth(static_cast<int>(D), Radius) < 1)
      return false;
  return true;
}

std::string BlockConfig::toString() const {
  std::string Out = "bT=" + std::to_string(BT) + " bS=";
  if (BS.empty())
    Out += '-'; // 1D pure streaming: no blocked dimensions.
  for (std::size_t I = 0; I < BS.size(); ++I) {
    if (I != 0)
      Out += 'x';
    Out += std::to_string(BS[I]);
  }
  Out += " hS=" + (HS > 0 ? std::to_string(HS) : std::string("off"));
  if (RegisterCap > 0)
    Out += " regs<=" + std::to_string(RegisterCap);
  return Out;
}

} // namespace an5d
