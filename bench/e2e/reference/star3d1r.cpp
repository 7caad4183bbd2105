// Generated by the AN5D reproduction framework: native OpenMP kernel library.
// stencil star3d1r, bT=1 bS=64x16 hS=128
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
static const int RAD = 1;
static const int BT = 1;
static const int BS1 = 64;
static const int BS2 = 16;
static const long long HS = 128;
// Grid extents (streaming dimension first); set per an5d_run call.
static long long NS = 0;
static long long N1 = 0;
static long long N2 = 0;

static inline size_t pidx(long long i, long long j, long long k) {
  return (size_t)(((i + RAD) * (N1 + 2 * RAD) + (j + RAD)) * (N2 + 2 * RAD) + (k + RAD));
}

// The stencil update; READ(ds, d1, d2) supplies the previous time-step.
template <typename ReadFn>
static inline Real evalCell(const ReadFn &READ) {
  return (((((((0.125f * READ(-1, 0, 0)) + (0.125f * READ(1, 0, 0))) + (0.125f * READ(0, -1, 0))) + (0.125f * READ(0, 1, 0))) + (0.125f * READ(0, 0, -1))) + (0.125f * READ(0, 0, 1))) + (0.25f * READ(0, 0, 0)));
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
// Every (chunk, block) triple reads only `in` plus its own rings and
// writes a disjoint region of `out`, so the triple loop is an OpenMP
// worksharing loop when compiled with -fopenmp (rings are per-thread).
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree) {
  const long long cw1 = BS1 - 2LL * degree * RAD;
  const long long cw2 = BS2 - 2LL * degree * RAD;
  const long long nb1 = (N1 + cw1 - 1) / cw1;
  const long long nb2 = (N2 + cw2 - 1) / cw2;
  const long long chunkLen = HS > 0 ? HS : NS;
  const long long nchunks = (NS + chunkLen - 1) / chunkLen;
  const int ringDepth = 2 * RAD + 1;
  const long long LANES = (long long)BS1 * BS2;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    std::vector<std::vector<Real>> rings((size_t)degree,
                                         std::vector<Real>((size_t)(ringDepth * LANES), (Real)0));
    auto slot = [&](long long p) {
      long long m = p % ringDepth;
      return (size_t)(m < 0 ? m + ringDepth : m);
    };
#ifdef _OPENMP
#pragma omp for collapse(3) schedule(static)
#endif
    for (long long chunk = 0; chunk < nchunks; ++chunk)
      for (long long b1 = 0; b1 < nb1; ++b1)
        for (long long b2 = 0; b2 < nb2; ++b2) {
          const long long c0 = chunk * chunkLen;
          const long long c1 = std::min(c0 + chunkLen, NS);
          const long long o1 = b1 * cw1, o2 = b2 * cw2;
          const long long lo1 = o1 - (long long)degree * RAD;
          const long long lo2 = o2 - (long long)degree * RAD;
          for (auto &r : rings)
            std::fill(r.begin(), r.end(), (Real)0);
          const long long sBegin = c0 - (long long)degree * RAD;
          const long long sEnd = c1 - 1 + (long long)degree * RAD;
          for (long long s = sBegin; s <= sEnd; ++s) {
            {
              const long long lo = std::max(c0 - (long long)degree * RAD, (long long)-RAD);
              const long long hi = std::min(c1 - 1 + (long long)degree * RAD, NS - 1 + RAD);
              if (s >= lo && s <= hi)
                for (long long lane = 0; lane < LANES; ++lane) {
                  const long long x1 = lo1 + lane / BS2, x2 = lo2 + lane % BS2;
                  const bool exists = x1 >= -RAD && x1 < N1 + RAD && x2 >= -RAD && x2 < N2 + RAD;
                  rings[0][slot(s) * LANES + (size_t)lane] =
                      exists ? in[pidx(s, x1, x2)] : (Real)0;
                }
            }
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
                for (long long lane = 0; lane < LANES; ++lane) {
                  const long long x1 = lo1 + lane / BS2, x2 = lo2 + lane % BS2;
                  Real v;
                  const bool interiorLane = x1 >= 0 && x1 < N1 && x2 >= 0 && x2 < N2;
                  const bool exists = x1 >= -RAD && x1 < N1 + RAD && x2 >= -RAD && x2 < N2 + RAD;
                  const bool valid = x1 >= o1 - reach && x1 < o1 + cw1 + reach &&
                                     x2 >= o2 - reach && x2 < o2 + cw2 + reach;
                  if (!interiorPlane || !interiorLane) {
                    v = exists ? in[pidx(p, x1, x2)] : (Real)0;
                  } else if (valid) {
                    v = evalCell([&](int ds, int d1, int d2) {
                      return prev[slot(p + ds) * LANES +
                                  (size_t)(lane + (long long)d1 * BS2 + d2)];
                    });
                  } else {
                    v = prev[slot(p) * LANES + (size_t)lane];
                  }
                  dst[slot(p) * LANES + (size_t)lane] = v;
                }
              } else {
                if (!interiorPlane || p < c0 || p >= c1)
                  continue;
                for (long long lane = 0; lane < LANES; ++lane) {
                  const long long x1 = lo1 + lane / BS2, x2 = lo2 + lane % BS2;
                  if (x1 < o1 || x1 >= o1 + cw1 || x2 < o2 || x2 >= o2 + cw2 ||
                      x1 < 0 || x1 >= N1 || x2 < 0 || x2 >= N2)
                    continue;
                  out[pidx(p, x1, x2)] = evalCell([&](int ds, int d1, int d2) {
                    return prev[slot(p + ds) * LANES +
                                (size_t)(lane + (long long)d1 * BS2 + d2)];
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
const char *an5d_stencil_name(void) { return "star3d1r"; }
const char *an5d_config(void) { return "bT=1 bS=64x16 hS=128"; }
int an5d_num_dims(void) { return 3; }
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
  N2 = extents[2];
  if (NS < 1 || N1 < 1 || N2 < 1)
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
