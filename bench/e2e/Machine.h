//===- Machine.h - Host probes for the end-to-end benchmark -----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the end-to-end benchmark needs to know about the host: the usable
/// core count, the last-level cache size (from sysfs), a STREAM-triad
/// bandwidth probe (McCalpin) and an FMA-throughput probe. Bandwidth and
/// peak FLOP/s together form the measured roofline (Williams, Waterman and
/// Patterson, CACM 2009) that kernel results are compared against.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_BENCH_E2E_MACHINE_H
#define AN5D_BENCH_E2E_MACHINE_H

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace an5d {
namespace bench {

/// CPUs this process may run on (what `nproc` prints); at least 1.
int usableCpus();

/// LLC size assumed when sysfs reports no cache data. 32 MiB is a typical
/// server-socket L3; the record marks results taken with it.
constexpr long long FallbackLlcBytes = 32LL << 20;

struct LlcInfo {
  long long Bytes = FallbackLlcBytes;
  /// "sysfs" or "fallback".
  std::string Source = "fallback";
};

/// The largest cache of the highest level listed under
/// /sys/devices/system/cpu/cpu0/cache/index*/.
LlcInfo detectLlc();

/// Runs Body(Begin, End) over a static split of [0, N) on \p Threads
/// threads (the calling thread takes the first slice). The split depends
/// only on N and Threads, so first-touch placement and later passes agree.
template <typename Fn> void parallelFor(int Threads, long long N, Fn Body) {
  if (Threads < 1)
    Threads = 1;
  auto Slice = [&](int I) {
    Body(N * I / Threads, N * (I + 1) / Threads);
  };
  std::vector<std::thread> Helpers;
  for (int I = 1; I < Threads; ++I)
    Helpers.emplace_back(Slice, I);
  Slice(0);
  for (std::thread &Helper : Helpers)
    Helper.join();
}

/// Three float arrays for the STREAM triad a[i] = b[i] + q * c[i] on
/// \p Threads threads. Pages are first-touched with parallelFor's split.
/// The benchmark places the DRAM-resident stencil buffers at the start of
/// arrays 0 and 1, so the probe costs no memory beyond its own arrays.
class TriadArena {
public:
  TriadArena(long long ElemsPerArray, int Threads);

  float *array(int I) { return Arrays[I].get(); }

  /// One timed triad pass; returns GB/s counting 12 bytes per element
  /// (two loads and one store, STREAM's convention).
  double triadGbs();

private:
  long long Elems;
  int Threads;
  std::unique_ptr<float[]> Arrays[3];
};

/// Float FMA throughput of \p Threads threads in GFLOP/s (an FMA counts as
/// two FLOPs), using the widest FMA the CPU supports; \p Isa receives its
/// name ("avx512", "avx2-fma" or "scalar").
double fmaPeakGflops(int Threads, std::string &Isa);

/// Keeps \p Threads threads busy for \p Seconds. On virtual machines whose
/// host idles vCPUs down, throughput after a few idle seconds starts at a
/// fraction of its sustained level and needs about a second of load to
/// recover; running this first keeps that ramp out of every timed step.
void warmUpCpus(int Threads, double Seconds);

/// getrusage high-water resident set of this process, in MiB.
double peakRssMib();

} // namespace bench
} // namespace an5d

#endif // AN5D_BENCH_E2E_MACHINE_H
