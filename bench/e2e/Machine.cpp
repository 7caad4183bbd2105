//===- Machine.cpp - Host probes for the end-to-end benchmark ---------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Machine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace an5d {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  return Values[Values.size() / 2];
}

/// Iterations of one probe pass: long enough (tens of milliseconds) that
/// thread start-up is noise, short enough to repeat.
constexpr long long FmaIterations = 20'000'000;

// Each loop keeps eight independent accumulator chains in flight, enough
// to cover FMA latency on two pipes; A = A * M + C converges to 1, so no
// value goes subnormal or infinite.

#if defined(__x86_64__)
__attribute__((target("avx512f"))) float fmaLoopAvx512(long long Iters) {
  const __m512 M = _mm512_set1_ps(0.999f), C = _mm512_set1_ps(0.001f);
  __m512 A[8];
  for (int K = 0; K < 8; ++K)
    A[K] = _mm512_set1_ps(static_cast<float>(K));
  for (long long I = 0; I < Iters; ++I)
    for (int K = 0; K < 8; ++K)
      A[K] = _mm512_fmadd_ps(A[K], M, C);
  __m512 Sum = A[0];
  for (int K = 1; K < 8; ++K)
    Sum = _mm512_add_ps(Sum, A[K]);
  return _mm512_reduce_add_ps(Sum);
}

__attribute__((target("avx2,fma"))) float fmaLoopAvx2(long long Iters) {
  const __m256 M = _mm256_set1_ps(0.999f), C = _mm256_set1_ps(0.001f);
  __m256 A[8];
  for (int K = 0; K < 8; ++K)
    A[K] = _mm256_set1_ps(static_cast<float>(K));
  for (long long I = 0; I < Iters; ++I)
    for (int K = 0; K < 8; ++K)
      A[K] = _mm256_fmadd_ps(A[K], M, C);
  float Lanes[8];
  __m256 Sum = A[0];
  for (int K = 1; K < 8; ++K)
    Sum = _mm256_add_ps(Sum, A[K]);
  _mm256_storeu_ps(Lanes, Sum);
  float Total = 0;
  for (float Lane : Lanes)
    Total += Lane;
  return Total;
}
#endif

float fmaLoopScalar(long long Iters) {
  float A[8];
  for (int K = 0; K < 8; ++K)
    A[K] = static_cast<float>(K);
  for (long long I = 0; I < Iters; ++I)
    for (int K = 0; K < 8; ++K)
      A[K] = A[K] * 0.999f + 0.001f;
  float Total = 0;
  for (float Value : A)
    Total += Value;
  return Total;
}

} // namespace

int usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return CPU_COUNT(&Set);
  return std::max(1u, std::thread::hardware_concurrency());
}

LlcInfo detectLlc() {
  LlcInfo Info;
  int BestLevel = 0;
  for (int Index = 0; Index < 16; ++Index) {
    std::string Dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                      std::to_string(Index) + "/";
    std::ifstream LevelFile(Dir + "level"), SizeFile(Dir + "size");
    int Level = 0;
    std::string Size;
    if (!(LevelFile >> Level) || !(SizeFile >> Size) || Size.empty())
      continue;
    // sysfs writes sizes as "<n>K" (occasionally "M" or bare bytes).
    char *End = nullptr;
    long long Bytes = std::strtoll(Size.c_str(), &End, 10);
    if (*End == 'K')
      Bytes <<= 10;
    else if (*End == 'M')
      Bytes <<= 20;
    if (Bytes <= 0)
      continue;
    if (Level > BestLevel || (Level == BestLevel && Bytes > Info.Bytes)) {
      BestLevel = Level;
      Info.Bytes = Bytes;
      Info.Source = "sysfs";
    }
  }
  return Info;
}

TriadArena::TriadArena(long long ElemsPerArray, int Threads)
    : Elems(ElemsPerArray), Threads(Threads) {
  for (std::unique_ptr<float[]> &Array : Arrays)
    Array.reset(new float[static_cast<std::size_t>(Elems)]);
  parallelFor(Threads, Elems, [this](long long Begin, long long End) {
    for (long long I = Begin; I < End; ++I) {
      Arrays[0][I] = 0.0f;
      Arrays[1][I] = 1.0f;
      Arrays[2][I] = 2.0f;
    }
  });
}

double TriadArena::triadGbs() {
  float *A = Arrays[0].get();
  const float *B = Arrays[1].get();
  const float *C = Arrays[2].get();
  auto Start = Clock::now();
  parallelFor(Threads, Elems, [=](long long Begin, long long End) {
    for (long long I = Begin; I < End; ++I)
      A[I] = B[I] + 3.0f * C[I];
  });
  double Seconds = secondsSince(Start);
  return 12.0 * static_cast<double>(Elems) / Seconds / 1e9;
}

double fmaPeakGflops(int Threads, std::string &Isa) {
  float (*Loop)(long long) = fmaLoopScalar;
  double FlopsPerIteration = 8 * 2;
  Isa = "scalar";
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    Loop = fmaLoopAvx512;
    FlopsPerIteration = 8 * 16 * 2;
    Isa = "avx512";
  } else if (__builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma")) {
    Loop = fmaLoopAvx2;
    FlopsPerIteration = 8 * 8 * 2;
    Isa = "avx2-fma";
  }
#endif
  std::vector<double> Passes;
  for (int Pass = 0; Pass < 3; ++Pass) {
    std::vector<float> Sinks(static_cast<std::size_t>(Threads));
    auto Start = Clock::now();
    parallelFor(Threads, Threads, [&](long long Begin, long long End) {
      for (long long T = Begin; T < End; ++T)
        Sinks[static_cast<std::size_t>(T)] = Loop(FmaIterations);
    });
    double Seconds = secondsSince(Start);
    // Consume the results so the loops cannot be discarded.
    if (Sinks[0] < 0)
      return 0;
    Passes.push_back(FlopsPerIteration * static_cast<double>(FmaIterations) *
                     Threads / Seconds / 1e9);
  }
  return median(Passes);
}

void warmUpCpus(int Threads, double Seconds) {
  auto Start = Clock::now();
  parallelFor(Threads, Threads, [&](long long, long long) {
    float Sink = 0;
    while (secondsSince(Start) < Seconds)
      Sink += fmaLoopScalar(100'000);
    if (Sink < 0)
      std::abort(); // keeps the loop from being discarded
  });
}

double peakRssMib() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // Linux: KiB
}

} // namespace bench
} // namespace an5d
