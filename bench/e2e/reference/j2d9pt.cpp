// Generated by the AN5D reproduction framework: native OpenMP kernel library.
// stencil j2d9pt, bT=1 bS=512 hS=256
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>
#include <mutex>
#ifdef _OPENMP
#include <omp.h>
#endif

using Real = float;
static const int RAD = 2;
static const int BT = 1;
static const int BS1 = 512;
static const long long HS = 256;
// Grid extents (streaming dimension first); set per an5d_run call.
static long long NS = 0;
static long long N1 = 0;

static inline size_t pidx(long long i, long long j) {
  return (size_t)((i + RAD) * (N1 + 2 * RAD) + (j + RAD));
}

// The stencil update; READ(ds, d1) supplies the previous time-step.
template <typename ReadFn>
static inline Real evalCell(const ReadFn &READ) {
  return ((((((((((0.107777774f * READ(-2, 0)) + (0.108888887f * READ(-1, 0))) + (0.109999999f * READ(0, -2))) + (0.111111112f * READ(0, -1))) + (0.112222224f * READ(0, 0))) + (0.113333337f * READ(0, 1))) + (0.114444442f * READ(0, 2))) + (0.107777774f * READ(1, 0))) + (0.108888887f * READ(2, 0))) / 1.03999996f);
}

// Host-side temporal block schedule (Section 4.3.1): degrees sum
// to `it` and the call count matches `it` mod 2.
static int schedule(long long it, int bt, int *deg) {
  int n = 0;
  for (long long done = 0; done + bt <= it; done += bt) deg[n++] = bt;
  int rem = (int)(it % bt);
  if (rem > 0) deg[n++] = rem;
  if ((n % 2) != (int)(it % 2)) {
    for (int i = 0; i < n; ++i) {
      if (deg[i] >= 2) {
        int high = deg[i] - deg[i] / 2, low = deg[i] / 2;
        for (int j = n; j > i + 1; --j) deg[j] = deg[j - 1];
        deg[i] = high; deg[i + 1] = low; ++n;
        break;
      }
    }
  }
  return n;
}

// One kernel call: a temporal block of `degree` steps (Section 4.1).
// Every (chunk, block) pair reads only `in` plus its own rings and writes
// a disjoint region of `out`, so the pair loop is an OpenMP worksharing
// loop when compiled with -fopenmp (rings are per-thread).
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree) {
  const long long cw = BS1 - 2LL * degree * RAD; // compute-region width
  const long long nblocks = (N1 + cw - 1) / cw;
  const long long chunkLen = HS > 0 ? HS : NS;
  const long long nchunks = (NS + chunkLen - 1) / chunkLen;
  const int ringDepth = 2 * RAD + 1;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    std::vector<std::vector<Real>> rings((size_t)degree,
                                         std::vector<Real>((size_t)(ringDepth * BS1), (Real)0));
    auto slot = [&](long long p) {
      long long m = p % ringDepth;
      return (size_t)(m < 0 ? m + ringDepth : m);
    };
#ifdef _OPENMP
#pragma omp for collapse(2) schedule(static)
#endif
    for (long long chunk = 0; chunk < nchunks; ++chunk)
      for (long long b = 0; b < nblocks; ++b) {
        const long long c0 = chunk * chunkLen;
        const long long c1 = std::min(c0 + chunkLen, NS);
        const long long origin = b * cw;
        const long long spanLo = origin - (long long)degree * RAD;
        for (auto &r : rings)
          std::fill(r.begin(), r.end(), (Real)0);
        const long long sBegin = c0 - (long long)degree * RAD;
        const long long sEnd = c1 - 1 + (long long)degree * RAD;
        for (long long s = sBegin; s <= sEnd; ++s) {
          // Tier 0: load one sub-plane from "global memory".
          {
            const long long lo = std::max(c0 - (long long)degree * RAD, (long long)-RAD);
            const long long hi = std::min(c1 - 1 + (long long)degree * RAD, NS - 1 + RAD);
            if (s >= lo && s <= hi)
              for (long long lane = 0; lane < BS1; ++lane) {
                const long long x = spanLo + lane;
                rings[0][slot(s) * BS1 + (size_t)lane] =
                    (x >= -RAD && x < N1 + RAD) ? in[pidx(s, x)] : (Real)0;
              }
          }
          // Tiers 1..degree: each lags its producer by one radius.
          for (int tier = 1; tier <= degree; ++tier) {
            const long long p = s - (long long)tier * RAD;
            const long long reach = (long long)(degree - tier) * RAD;
            const long long lo = std::max(c0 - reach, (long long)-RAD);
            const long long hi = std::min(c1 - 1 + reach, NS - 1 + RAD);
            if (p < lo || p > hi)
              continue;
            std::vector<Real> &prev = rings[(size_t)tier - 1];
            const bool interiorPlane = p >= 0 && p < NS;
            if (tier < degree) {
              std::vector<Real> &dst = rings[(size_t)tier];
              for (long long lane = 0; lane < BS1; ++lane) {
                const long long x = spanLo + lane;
                Real v;
                const bool interiorLane = x >= 0 && x < N1;
                if (!interiorPlane || !interiorLane) {
                  // Boundary sub-planes / lanes pinned to the input.
                  v = (x >= -RAD && x < N1 + RAD) ? in[pidx(p, x)] : (Real)0;
                } else if (x >= origin - reach && x < origin + cw + reach) {
                  v = evalCell([&](int ds, int d1) {
                    return prev[slot(p + ds) * BS1 + (size_t)(lane + d1)];
                  });
                } else {
                  // Halo overwrite: carry the previous tier's value forward.
                  v = prev[slot(p) * BS1 + (size_t)lane];
                }
                dst[slot(p) * BS1 + (size_t)lane] = v;
              }
            } else {
              if (!interiorPlane || p < c0 || p >= c1)
                continue;
              for (long long lane = 0; lane < BS1; ++lane) {
                const long long x = spanLo + lane;
                if (x < origin || x >= origin + cw || x < 0 || x >= N1)
                  continue;
                out[pidx(p, x)] = evalCell([&](int ds, int d1) {
                  return prev[slot(p + ds) * BS1 + (size_t)(lane + d1)];
                });
              }
            }
          }
        }
      }
  }
}

extern "C" {

int an5d_abi_version(void) { return 1; }
const char *an5d_stencil_name(void) { return "j2d9pt"; }
const char *an5d_config(void) { return "bT=1 bS=512 hS=256"; }
int an5d_num_dims(void) { return 2; }
int an5d_radius(void) { return RAD; }
int an5d_elem_size(void) { return (int)sizeof(Real); }
int an5d_block_time(void) { return BT; }

int an5d_max_threads(void) {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void an5d_set_threads(int n) {
#ifdef _OPENMP
  if (n > 0) omp_set_num_threads(n);
#else
  (void)n;
#endif
}

// Runs `it` time-steps of the blocked N.5D schedule. buf0 holds
// the input at t=0; both buffers use the padded row-major layout
// with a halo of RAD cells per side of every dimension in
// `extents` (streaming dimension first). The result of step `it`
// ends in buf{it % 2}, exactly as the double-buffered input loop
// would leave it. The buffers must be distinct (runInvocation
// declares them __restrict__). Returns 0 on success, non-zero
// on bad arguments.
int an5d_run(void *buf0, void *buf1, const long long *extents,
             long long it) {
  if (!buf0 || !buf1 || buf0 == buf1 || !extents || it < 0)
    return 1;
  // One in-flight run per loaded kernel: the extents below are
  // file-scope globals shared by every caller of this library
  // (parallelism lives inside runInvocation, so serializing
  // entry costs nothing).
  static std::mutex runMutex;
  std::lock_guard<std::mutex> lock(runMutex);
  NS = extents[0];
  N1 = extents[1];
  if (NS < 1 || N1 < 1)
    return 1;
  if (it == 0)
    return 0;
  Real *bufs[2] = {(Real *)buf0, (Real *)buf1};
  std::vector<int> deg((size_t)(it / BT) + 2, 0);
  const int calls = schedule(it, BT, deg.data());
  int in = 0;
  for (int c = 0; c < calls; ++c) {
    runInvocation(bufs[in], bufs[in ^ 1], deg[c]);
    in ^= 1;
  }
  return in == (int)(it % 2) ? 0 : 2;
}

} // extern "C"
