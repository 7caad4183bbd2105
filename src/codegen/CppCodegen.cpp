//===- CppCodegen.cpp - Portable C++ backend ---------------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"

#include "codegen/ExprEmitter.h"
#include "ir/ExprAnalysis.h"

#include <cassert>
#include <functional>

namespace an5d {

namespace {

/// Which translation unit is being generated; the blocked invocation body
/// is shared, the surrounding scaffolding differs.
enum class CppEmitMode { CheckProgram, KernelLibrary };

} // namespace

/// Emits the update expression with grid reads rendered by \p Read.
/// Kernel libraries round float literals through float precision so the
/// compiled arithmetic matches the in-process evaluators bit for bit.
static std::string
emitUpdateExpr(const StencilProgram &Program, CppEmitMode Mode,
               std::function<std::string(const GridReadExpr &)> Read) {
  ExprEmitOptions Options;
  Options.Type = Program.elemType();
  Options.Program = &Program;
  Options.ReadEmitter = std::move(Read);
  Options.ExactFloatLiterals = Mode == CppEmitMode::KernelLibrary;
  return emitExpr(Program.update(), Options);
}

/// Renders " + N * Unit" / " - Unit" for a lane offset of \p Count units.
static std::string laneOffset(int Count, const std::string &Unit) {
  if (Count == 0)
    return "";
  std::string Out = Count > 0 ? " + " : " - ";
  int Magnitude = Count > 0 ? Count : -Count;
  if (Unit.empty())
    return Out + std::to_string(Magnitude);
  return Out + (Magnitude == 1 ? "" : std::to_string(Magnitude) + " * ") +
         Unit;
}

/// The update expression of the 2D/3D compute loops: the read of plane
/// p+ds indexes the restrict ring row row<ds+RAD> at `lane` plus its last
/// offset, and a middle (3D row) offset d1 adds d1 rows of W2 lanes, so
/// the loop body is one inlinable expression (no per-lane closure the
/// vectorizer must spill).
static std::string emitLaneUpdate(const StencilProgram &Program, int Rad,
                                  CppEmitMode Mode) {
  return emitUpdateExpr(Program, Mode, [Rad](const GridReadExpr &Read) {
    const std::vector<int> &Off = Read.offsets();
    std::string Out = "row" + std::to_string(Off[0] + Rad) + "[lane";
    for (size_t D = 1; D + 1 < Off.size(); ++D)
      Out += laneOffset(Off[D], "W2");
    return Out + laneOffset(Off.back(), "") + "]";
  });
}

/// Declares the 2*RAD+1 restrict row pointers a tier reads its producer
/// through, once per plane: row<K> is plane p + K - RAD of tier - 1.
static std::string emitRingRows(int Radius) {
  std::string Out;
  for (int K = 0; K <= 2 * Radius; ++K)
    Out += "              const Real *__restrict__ row" + std::to_string(K) +
           " = ring(tier - 1, p" + laneOffset(K - Radius, "") + ");\n";
  return Out;
}

/// READ(...) of evalCell. A 2D read renders through the one-row view the
/// blocked invocation takes, as a 3D read with no row offset, so 2D and
/// 3D share one reference.
static std::string emitViewRead(const GridReadExpr &Read) {
  const std::vector<int> &Off = Read.offsets();
  if (Off.size() != 2)
    return defaultReadMacro(Read);
  return "READ(" + std::to_string(Off[0]) + ", 0, " + std::to_string(Off[1]) +
         ")";
}

/// "a, b, c" for an array initializer.
template <typename T>
static std::string joinValues(const std::vector<T> &Values) {
  std::string Out;
  for (const T &Value : Values)
    Out += (Out.empty() ? "" : ", ") + std::to_string(Value);
  return Out;
}

/// Common prelude: includes, constants, indexing, helpers, evalCell,
/// schedule. Every schedule constant is read off the lowered IR, never
/// re-derived. A kernel library bakes in only the stencil and its element
/// type — extents, bT, bS and hS are an5d_run arguments — so every
/// candidate of a tune shares one source and one compile; it keeps no
/// file-scope state, and includes only the headers it uses (each standard
/// header is parse time on every JIT compile).
static std::string emitPrelude(const StencilProgram &Program,
                               const ScheduleIR &IR,
                               const ProblemSize *Problem, CppEmitMode Mode) {
  int NumDims = IR.NumDims;
  const bool Check = Mode == CppEmitMode::CheckProgram;
  std::string Out;
  if (Check)
    Out += "// Generated by the AN5D reproduction framework: blocked-vs-"
           "reference self check.\n"
           "// stencil " +
           IR.StencilName + ", " + IR.Config.toString() + "\n";
  else
    Out += "// Generated by the AN5D reproduction framework: native OpenMP "
           "kernel library.\n"
           "// stencil " +
           IR.StencilName + "; the schedule is an an5d_run argument\n";
  if (containsMathCall(Program.update()))
    Out += "#include <cmath>\n";
  Out += "#include <cstddef>\n";
  if (Check)
    Out += "#include <cstdint>\n#include <cstdio>\n";
  Out += "#include <cstring>\n";
  if (Check)
    Out += "#include <vector>\n";
  // The 1D kernel library sizes its pool through omp.h; every 2D/3D TU
  // splits its stream axis by the pool size.
  if (!Check || NumDims >= 2)
    Out += "#ifdef _OPENMP\n#include <omp.h>\n#endif\n";
  Out += "\n";
  Out += "using Real = " + std::string(scalarTypeName(Program.elemType())) +
         ";\n";
  Out += "static const int RAD = " + std::to_string(IR.Radius) + ";\n";
  if (Check)
    Out += "static const int BT = " + std::to_string(IR.Config.BT) + ";\n";
  if (NumDims >= 2) {
    Out += "// The blocked axes: rows (axis 1) with a halo of RAD1, and lanes\n"
           "// (the last axis). A 2D grid is one row.\n";
    Out += "static const int DIMS = " + std::to_string(NumDims) + ";\n";
    Out += "static const int RAD1 = " +
           std::string(NumDims == 3 ? "RAD" : "0") + ";\n";
  }

  if (Check) {
    assert(Problem && "check programs bake the problem size in");
    Out += "static const long long HS = " + std::to_string(IR.Config.HS) +
           ";\n";
    if (NumDims == 1) {
      Out += "static const long long NS = " +
             std::to_string(Problem->Extents[0]) + ";\n";
    } else {
      Out += "// The grid (streaming axis first) and the block sizes as "
             "an5d_run takes\n"
             "// them, and the one-row view of the grid: NS planes of N1 "
             "rows of N2 lanes.\n";
      Out += "static const long long EXT[] = {" +
             joinValues(Problem->Extents) + "};\n";
      Out += "static const int BS[] = {" + joinValues(IR.Config.BS) + "};\n";
      Out += "static const long long NS = EXT[0], N1 = DIMS == 3 ? EXT[1] : "
             "1, N2 = EXT[DIMS - 1];\n";
    }
    Out += "static const long long IT = " +
           std::to_string(Problem->TimeSteps) + ";\n";
  }
  Out += "\n";

  // The padded row-major index. Only the 1D one is extent-free, so the
  // 2D/3D kernel libraries index through their run's extents instead.
  if (NumDims == 1)
    Out += "static inline size_t pidx(long long i) {\n"
           "  return (size_t)(i + RAD);\n"
           "}\n";
  if (Check) {
    if (NumDims == 1)
      Out += "static const size_t TOTAL = (size_t)(NS + 2 * RAD);\n";
    else
      Out += "static inline size_t pidx(long long i, long long j, long long "
             "k) {\n"
             "  return (size_t)(((i + RAD) * (N1 + 2 * RAD1) + (j + RAD1)) * "
             "(N2 + 2 * RAD) + (k + RAD));\n"
             "}\n"
             "static const size_t TOTAL = (size_t)((NS + 2 * RAD) * (N1 + 2 "
             "* RAD1) * (N2 + 2 * RAD));\n";
  }
  Out += "\n";

  Out += "static inline long long lmin(long long a, long long b) { return a < "
         "b ? a : b; }\n"
         "static inline long long lmax(long long a, long long b) { return a > "
         "b ? a : b; }\n"
         "// Zero or copy n lanes; n <= 0 is a no-op.\n"
         "static inline void zeroN(Real *dst, long long n) {\n"
         "  if (n > 0) std::memset(dst, 0, (size_t)n * sizeof(Real));\n"
         "}\n"
         "static inline void copyN(Real *dst, const Real *src, long long n) "
         "{\n"
         "  if (n > 0) std::memcpy(dst, src, (size_t)n * sizeof(Real));\n"
         "}\n\n";
  if (NumDims >= 2)
    Out += "// How many stream chunks a call splits ns planes into: enough "
           "that none\n"
           "// is longer than hs (0: no maximum) and, while ns allows, one "
           "per kernel\n"
           "// thread, so every thread has an item from the start.\n"
           "static inline long long streamChunks(long long ns, long long hs) "
           "{\n"
           "#ifdef _OPENMP\n"
           "  const long long threads = omp_get_max_threads();\n"
           "#else\n"
           "  const long long threads = 1;\n"
           "#endif\n"
           "  return lmin(ns, lmax(hs > 0 ? (ns + hs - 1) / hs : 1, "
           "threads));\n"
           "}\n"
           "// Chunk c of n holds planes c0 <= p < c1: the chunks cover the "
           "ns planes\n"
           "// in order, without a gap or an overlap, and their lengths "
           "differ by at\n"
           "// most one plane.\n"
           "static inline void chunkBounds(long long c, long long n, long "
           "long ns,\n"
           "                               long long *c0, long long *c1) {\n"
           "  *c0 = c * ns / n;\n"
           "  *c1 = (c + 1) * ns / n;\n"
           "}\n\n";

  // 2D/3D kernel libraries inline the update into their compute loops;
  // the check program's reference and the 1D kernel evaluate it here.
  if (Check || NumDims == 1) {
    Out += "// The stencil update; READ(" +
           std::string(NumDims == 1 ? "ds" : "ds, d1, d2") +
           ") supplies the previous time-step.\n";
    Out += "template <typename ReadFn>\n"
           "static inline Real evalCell(const ReadFn &READ) {\n";
    Out += "  return " + emitUpdateExpr(Program, Mode, emitViewRead) +
           ";\n}\n\n";
  }

  if (Check)
    Out += "static void fillDeterministic(std::vector<Real> &a, uint64_t "
           "seed) {\n"
           "  uint64_t s = seed * 6364136223846793005ULL + "
           "1442695040888963407ULL;\n"
           "  for (Real &c : a) {\n"
           "    s = s * 6364136223846793005ULL + 1442695040888963407ULL;\n"
           "    c = (Real)((double)((s >> 11) + 1) / (double)((1ULL << 53) + "
           "2));\n"
           "  }\n"
           "}\n\n";

  Out += "// Host-side temporal block schedule (Section 4.3.1): degrees sum\n"
         "// to `it` and the call count matches `it` mod 2.\n"
         "static int schedule(long long it, int bt, int *deg) {\n"
         "  int n = 0;\n"
         "  for (long long done = 0; done + bt <= it; done += bt) deg[n++] = "
         "bt;\n"
         "  int rem = (int)(it % bt);\n"
         "  if (rem > 0) deg[n++] = rem;\n"
         "  if ((n % 2) != (int)(it % 2)) {\n"
         "    for (int i = 0; i < n; ++i) {\n"
         "      if (deg[i] >= 2) {\n"
         "        int high = deg[i] - deg[i] / 2, low = deg[i] / 2;\n"
         "        for (int j = n; j > i + 1; --j) deg[j] = deg[j - 1];\n"
         "        deg[i] = high; deg[i + 1] = low; ++n;\n"
         "        break;\n"
         "      }\n"
         "    }\n"
         "  }\n"
         "  return n;\n"
         "}\n\n";
  return Out;
}

/// The naive reference step; 2D and 3D share the one-row view.
static std::string emitReference(int NumDims) {
  if (NumDims == 1)
    return "static void referenceStep(const Real *in, Real *out) {\n"
           "  for (long long i = 0; i < NS; ++i)\n"
           "    out[pidx(i)] = evalCell([&](int ds) {\n"
           "      return in[pidx(i + ds)];\n"
           "    });\n"
           "}\n\n";
  return "static void referenceStep(const Real *in, Real *out) {\n"
         "  for (long long i = 0; i < NS; ++i)\n"
         "    for (long long j = 0; j < N1; ++j)\n"
         "      for (long long k = 0; k < N2; ++k)\n"
         "        out[pidx(i, j, k)] = evalCell([&](int ds, int d1, int d2) "
         "{\n"
         "          return in[pidx(i + ds, j + d1, k + d2)];\n"
         "        });\n"
         "}\n\n";
}

/// The blocked invocation for 1D stencils: the pure-streaming schedule.
/// There are no blocked dimensions — each "thread block" is a single lane
/// streaming its chunk of the only dimension, so all parallelism comes
/// from the hS division of Section 4.2.3 (hS=0 degenerates to one chunk
/// and serial execution, exactly like the emulator).
static std::string emitBlocked1d() {
  return R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1)
// over the grid `ext` with stream chunk `hs`. Every chunk reads only `in`
// plus its own rings and writes a disjoint [c0, c1) range of `out`, so the
// chunk loop is an OpenMP worksharing loop when compiled with -fopenmp
// (rings are per-thread). The single lane is its own compute region, so
// the 2D/3D halo-overwrite rule has no 1D counterpart: interior planes
// always evaluate, boundary planes stay pinned to the input.
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, const long long *ext, int degree, long long hs) {
  const long long ns = ext[0];
  const long long chunkLen = hs > 0 ? hs : ns;
  const long long nchunks = (ns + chunkLen - 1) / chunkLen;
  const int ringDepth = 2 * RAD + 1;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    // Every tier's ring in one allocation.
    Real *rings = new Real[(size_t)degree * ringDepth];
    auto ring = [&](int tier, long long p) -> Real & {
      long long m = p % ringDepth;
      return rings[(size_t)tier * ringDepth + (size_t)(m < 0 ? m + ringDepth : m)];
    };
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (long long chunk = 0; chunk < nchunks; ++chunk) {
      const long long c0 = chunk * chunkLen;
      const long long c1 = lmin(c0 + chunkLen, ns);
      zeroN(rings, (long long)degree * ringDepth);
      const long long sBegin = c0 - (long long)degree * RAD;
      const long long sEnd = c1 - 1 + (long long)degree * RAD;
      for (long long s = sBegin; s <= sEnd; ++s) {
        // Tier 0: load one stream cell from "global memory".
        {
          const long long lo = lmax(c0 - (long long)degree * RAD, -RAD);
          const long long hi = lmin(c1 - 1 + (long long)degree * RAD, ns - 1 + RAD);
          if (s >= lo && s <= hi)
            ring(0, s) = in[pidx(s)];
        }
        // Tiers 1..degree: each lags its producer by one radius.
        for (int tier = 1; tier <= degree; ++tier) {
          const long long p = s - (long long)tier * RAD;
          const long long reach = (long long)(degree - tier) * RAD;
          const long long lo = lmax(c0 - reach, -RAD);
          const long long hi = lmin(c1 - 1 + reach, ns - 1 + RAD);
          if (p < lo || p > hi)
            continue;
          const bool interiorPlane = p >= 0 && p < ns;
          if (tier < degree) {
            // Boundary sub-planes pinned to the input's boundary values.
            ring(tier, p) =
                interiorPlane ? evalCell([&](int ds) {
                  return ring(tier - 1, p + ds);
                })
                              : in[pidx(p)];
          } else {
            if (!interiorPlane || p < c0 || p >= c1)
              continue;
            out[pidx(p)] = evalCell([&](int ds) {
              return ring(tier - 1, p + ds);
            });
          }
        }
      }
    }
    delete[] rings;
  }
}

)cpp";
}

/// The blocked invocation for 2D and 3D stencils: spatial blocking over
/// the non-streamed axes (Section 4). Lanes are row-major over the blocked
/// axes, so the compute loops run per blocked row over the contiguous lane
/// axis; a ring row is W2 lanes long and a ring plane W1 rows tall, BS2
/// and BS1 clipped to the lanes and rows a block of the run can touch (a
/// tier reads only its producer's valid region, AN5D-A212, so nothing
/// past the grid halo is read). A 2D stencil is the 3D kernel with one
/// row per block: the invocation views its grid as one row and its
/// blocks as one row tall (BS1 = 1) with no row halo (RAD1 = 0), so the
/// row loop runs once, no halo row is pinned and W1 is 1. Shared verbatim
/// between the check program and the kernel library; the OpenMP pragmas
/// are inert without -fopenmp. \p Rows declares the producer's ring rows
/// and \p Update is the inline update expression over them.
static std::string emitBlockedRows(const std::string &Rows,
                                   const std::string &Update) {
  return R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1)
// over the grid `ext` in blocks of `bs` lanes per blocked axis, with
// stream chunks of at most `hs` planes. Every (chunk, block) triple reads
// only `in` plus its own rings and writes a disjoint region of `out`, so
// the triple loop is an OpenMP worksharing loop when compiled with
// -fopenmp (rings are per-thread); it hands the triples out dynamically,
// so a thread that finishes a short one takes the next. Each tier of an
// interior sub-plane computes one branch-free lane range per blocked row
// as an `omp simd` loop and pins the grid-halo rows and lanes around it
// to the input. Nothing else is written: a tier reads only its producer's
// valid region (AN5D-A212), so no value is carried across the halo and no
// lane or row past the grid halo is ever read.
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, const long long *ext, int degree, long long hs, const int *bs) {
  const long long ns = ext[0], n1 = DIMS == 3 ? ext[1] : 1, n2 = ext[DIMS - 1];
  const int BS1 = DIMS == 3 ? bs[0] : 1, BS2 = bs[DIMS - 2];
  // Offset of cell (i, j, k) in the padded row-major grid.
  auto idx = [n1, n2](long long i, long long j, long long k) {
    return (size_t)(((i + RAD) * (n1 + 2 * RAD1) + (j + RAD1)) * (n2 + 2 * RAD) + (k + RAD));
  };
  const long long cw1 = BS1 - 2LL * degree * RAD1;
  const long long cw2 = BS2 - 2LL * degree * RAD;
  const long long nb1 = (n1 + cw1 - 1) / cw1;
  const long long nb2 = (n2 + cw2 - 1) / cw2;
  const long long nchunks = streamChunks(ns, hs);
  const int ringDepth = 2 * RAD + 1;
  // A ring row holds the lanes of a blocked row that a block can touch:
  // BS2, or the n2 + 2*degree*RAD lanes of a block that spans the row.
  // A ring plane likewise holds W1 rows: BS1, or the n1 + 2*degree*RAD1
  // rows of a block that spans the axis. No tier reads or writes a lane
  // or row past the grid halo, so a shorter row or plane drops only
  // storage the kernel never used.
  const long long W1 = lmin(BS1, n1 + 2LL * degree * RAD1);
  const long long W2 = lmin(BS2, n2 + 2LL * degree * RAD);
  const long long LANES = W1 * W2;
  const size_t tierSize = (size_t)(ringDepth * LANES);
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    // Every tier's ring in one allocation; a plane holds one sub-plane.
    // Zeroed once so no lane is indeterminate; each item writes every
    // lane it reads before reading it, so items need no reset.
    Real *rings = new Real[(size_t)degree * tierSize];
    zeroN(rings, (long long)(degree * tierSize));
    auto ring = [&](int tier, long long p) {
      long long m = p % ringDepth;
      return rings + (size_t)tier * tierSize + (size_t)(m < 0 ? m + ringDepth : m) * LANES;
    };
#ifdef _OPENMP
#pragma omp for collapse(3) schedule(dynamic)
#endif
    for (long long chunk = 0; chunk < nchunks; ++chunk)
      for (long long b1 = 0; b1 < nb1; ++b1)
        for (long long b2 = 0; b2 < nb2; ++b2) {
          long long c0, c1;
          chunkBounds(chunk, nchunks, ns, &c0, &c1);
          const long long o1 = b1 * cw1, o2 = b2 * cw2;
          const long long lo1 = o1 - (long long)degree * RAD1;
          const long long lo2 = o2 - (long long)degree * RAD;
          // Per blocked axis, lanes from in*Lo up to in*Hi lie inside the
          // grid and from ex*Lo up to ex*Hi inside the grid or its halo.
          const long long in1Lo = lmax(-lo1, 0), in1Hi = lmin(n1 - lo1, BS1);
          const long long in2Lo = lmax(-lo2, 0), in2Hi = lmin(n2 - lo2, BS2);
          const long long ex1Lo = lmax(-RAD1 - lo1, 0), ex1Hi = lmin(n1 + RAD1 - lo1, BS1);
          const long long ex2Lo = lmax(-RAD - lo2, 0), ex2Hi = lmin(n2 + RAD - lo2, BS2);
          // Pins lanes lo <= k < hi of blocked rows r0 <= r < r1 of
          // sub-plane p to the input.
          auto pin = [&](Real *dst, long long p, long long r0, long long r1, long long lo, long long hi) {
            if (lo >= hi)
              return;
            for (long long r = r0; r < r1; ++r)
              copyN(dst + r * W2 + lo, in + idx(p, lo1 + r, lo2 + lo), hi - lo);
          };
          const long long sBegin = c0 - (long long)degree * RAD;
          const long long sEnd = c1 - 1 + (long long)degree * RAD;
          for (long long s = sBegin; s <= sEnd; ++s) {
            {
              const long long lo = lmax(c0 - (long long)degree * RAD, -RAD);
              const long long hi = lmin(c1 - 1 + (long long)degree * RAD, ns - 1 + RAD);
              if (s >= lo && s <= hi)
                pin(ring(0, s), s, ex1Lo, ex1Hi, ex2Lo, ex2Hi);
            }
            for (int tier = 1; tier <= degree; ++tier) {
              const long long p = s - (long long)tier * RAD;
              const long long reach = (long long)(degree - tier) * RAD;
              const long long lo = lmax(c0 - reach, -RAD);
              const long long hi = lmin(c1 - 1 + reach, ns - 1 + RAD);
              if (p < lo || p > hi)
                continue;
              const bool interiorPlane = p >= 0 && p < ns;
              if (tier < degree && !interiorPlane) {
                pin(ring(tier, p), p, ex1Lo, ex1Hi, ex2Lo, ex2Hi);
                continue;
              }
              if (tier == degree && (!interiorPlane || p < c0 || p >= c1))
                continue;
              // The compute range: interior rows rlo <= r < rhi and lanes
              // klo <= k < khi within the tier's reach.
              const long long rlo = lmax(in1Lo, (long long)tier * RAD1);
              const long long rhi = lmin(in1Hi, BS1 - (long long)tier * RAD1);
              const long long klo = lmax(in2Lo, (long long)tier * RAD);
              const long long khi = lmin(in2Hi, BS2 - (long long)tier * RAD);
)cpp" + Rows +
         R"cpp(              if (tier < degree) {
                Real *__restrict__ dst = ring(tier, p);
                // The grid-halo strips: the halo rows, then the halo lanes
                // of the interior rows. The next tier reads no other lane
                // outside the compute range.
                pin(dst, p, ex1Lo, in1Lo, ex2Lo, ex2Hi);
                pin(dst, p, in1Hi, ex1Hi, ex2Lo, ex2Hi);
                pin(dst, p, in1Lo, in1Hi, ex2Lo, in2Lo);
                pin(dst, p, in1Lo, in1Hi, in2Hi, ex2Hi);
                for (long long r = rlo; r < rhi; ++r) {
                  const long long base = r * W2;
#ifdef _OPENMP
#pragma omp simd
#endif
                  for (long long lane = base + klo; lane < base + khi; ++lane)
                    dst[lane] = )cpp" +
         Update + R"cpp(;
                }
              } else {
                for (long long r = rlo; r < rhi; ++r) {
                  const long long base = r * W2;
                  Real *__restrict__ dst = out + idx(p, lo1 + r, 0);
#ifdef _OPENMP
#pragma omp simd
#endif
                  for (long long lane = base + klo; lane < base + khi; ++lane)
                    dst[lo2 - base + lane] = )cpp" +
         Update + R"cpp(;
                }
              }
            }
          }
        }
    delete[] rings;
  }
}

)cpp";
}

/// The check's main. 1D passes its one extent; 2D and 3D pass the
/// prelude's EXT and BS, laid out as an5d_run takes them.
static std::string emitMain(int NumDims) {
  const bool OneD = NumDims == 1;
  return R"cpp(int main() {
  std::vector<Real> refBuf[2] = {std::vector<Real>(TOTAL), std::vector<Real>(TOTAL)};
  fillDeterministic(refBuf[0], 42);
  refBuf[1] = refBuf[0];
  std::vector<Real> blkBuf[2] = {refBuf[0], refBuf[0]};

  for (long long t = 0; t < IT; ++t)
    referenceStep(refBuf[t % 2].data(), refBuf[(t + 1) % 2].data());

  static int deg[1 << 16];
)cpp" + std::string(OneD ? "  const long long ext[] = {NS};\n" : "") +
         R"cpp(  const int calls = schedule(IT, BT, deg);
  int in = 0;
  for (int c = 0; c < calls; ++c) {
    runInvocation(blkBuf[in].data(), blkBuf[in ^ 1].data(), )cpp" +
         (OneD ? "ext, deg[c], HS" : "EXT, deg[c], HS, BS") + R"cpp();
    in ^= 1;
  }
  if (in != (int)(IT % 2)) {
    std::printf("AN5D-CHECK FAIL: buffer parity (%d vs %lld)\n", in, IT % 2);
    return 1;
  }

  const std::vector<Real> &want = refBuf[IT % 2];
  const std::vector<Real> &got = blkBuf[in];
  size_t mismatches = 0;
  for (size_t i = 0; i < TOTAL; ++i)
    if (!(want[i] == got[i]))
      ++mismatches;
  if (mismatches != 0) {
    std::printf("AN5D-CHECK FAIL: %zu of %zu cells differ\n", mismatches,
                TOTAL);
    return 1;
  }
  std::printf("AN5D-CHECK OK\n");
  return 0;
}
)cpp";
}

/// The extern "C" surface of a kernel library; see runtime/NativeExecutor.h
/// for the loader-side contract. Only the stencil is baked in, so the
/// run-time bT is checked against the run-time block sizes here.
static std::string emitKernelApi(const StencilProgram &Program) {
  int NumDims = Program.numDims();
  std::string Out;
  Out += "extern \"C\" {\n\n";
  Out += "int an5d_abi_version(void) { return " +
         std::to_string(CppKernelAbiVersion) + "; }\n";
  Out += "const char *an5d_stencil_name(void) { return \"" + Program.name() +
         "\"; }\n";
  Out += "int an5d_num_dims(void) { return " + std::to_string(NumDims) +
         "; }\n";
  Out += "int an5d_radius(void) { return RAD; }\n";
  Out += "int an5d_elem_size(void) { return (int)sizeof(Real); }\n\n";
  Out += "int an5d_max_threads(void) {\n"
         "#ifdef _OPENMP\n"
         "  return omp_get_max_threads();\n"
         "#else\n"
         "  return 1;\n"
         "#endif\n"
         "}\n\n";
  Out += "void an5d_set_threads(int n) {\n"
         "#ifdef _OPENMP\n"
         "  if (n > 0) omp_set_num_threads(n);\n"
         "#else\n"
         "  (void)n;\n"
         "#endif\n"
         "}\n\n";
  Out += "// Runs `it` time-steps of the blocked N.5D schedule in temporal\n";
  if (NumDims == 1)
    Out += "// blocks of `bt` steps and stream chunks of `hs` planes (0: one\n"
           "// chunk); a 1D grid has no blocked axis, so `bs` is ignored.\n";
  else
    Out += "// blocks of `bt` steps, spatial blocks of `bs` lanes per blocked\n"
           "// axis (axis 1 first) and stream chunks of at most `hs` planes (0: no\n"
           "// maximum), at least one per kernel thread while the streamed extent\n"
           "// allows.\n";
  Out += "// buf0 holds the input at t=0; both buffers use the padded row-major\n"
         "// layout with a halo of RAD cells per side of every dimension in\n"
         "// `extents` (streaming dimension first). The result of step `it` ends\n"
         "// in buf{it % 2}, exactly as the double-buffered input loop would leave\n"
         "// it. The buffers must be distinct (runInvocation declares them\n"
         "// __restrict__). The library keeps no state between calls, so\n"
         "// concurrent calls are safe. Returns 0 on success and non-zero, before\n"
         "// touching either buffer, on bad arguments";
  Out += NumDims == 1 ? ".\n"
                      : ", including a null `bs` and a bt\n"
                        "// that `bs` cannot hold.\n";
  Out += "int an5d_run(void *buf0, void *buf1, const long long *extents,\n"
         "             long long it, int bt, long long hs, const int *bs) {\n"
         "  if (!buf0 || !buf1 || buf0 == buf1 || !extents || it < 0)\n"
         "    return 1;\n"
         "  if (bt < 1 || hs < 0)\n"
         "    return 1;\n";
  if (NumDims == 1)
    Out += "  (void)bs;\n"
           "  if (extents[0] < 1)\n"
           "    return 1;\n";
  else
    Out += "  // Every blocked axis keeps a compute width bs - 2*bt*RAD of at "
           "least one.\n"
           "  if (!bs || bs[0] - 2LL * bt * RAD < 1 || bs[DIMS - 2] - 2LL * bt "
           "* RAD < 1)\n"
           "    return 1;\n"
           "  if (extents[0] < 1 || extents[1] < 1 || extents[DIMS - 1] < 1)\n"
           "    return 1;\n";
  Out += "  if (it == 0)\n"
         "    return 0;\n"
         "  Real *bufs[2] = {(Real *)buf0, (Real *)buf1};\n"
         "  int *deg = new int[(size_t)(it / bt) + 2];\n"
         "  const int calls = schedule(it, bt, deg);\n"
         "  int in = 0;\n"
         "  for (int c = 0; c < calls; ++c) {\n"
         "    runInvocation(bufs[in], bufs[in ^ 1], extents, deg[c], hs" +
         std::string(NumDims == 1 ? "" : ", bs") +
         ");\n"
         "    in ^= 1;\n"
         "  }\n"
         "  delete[] deg;\n"
         "  return in == (int)(it % 2) ? 0 : 2;\n"
         "}\n\n";
  Out += "} // extern \"C\"\n";
  return Out;
}

/// The blocked invocation for the schedule's 1, 2 or 3 dimensions.
static std::string emitBlocked(const StencilProgram &Program,
                               const ScheduleIR &IR, CppEmitMode Mode) {
  if (IR.NumDims == 1)
    return emitBlocked1d();
  return emitBlockedRows(emitRingRows(IR.Radius),
                         emitLaneUpdate(Program, IR.Radius, Mode));
}

std::string generateCppCheckProgram(const StencilProgram &Program,
                                    const ScheduleIR &Schedule,
                                    const ProblemSize &Problem) {
  assert(Schedule.NumDims >= 1 && Schedule.NumDims <= 3 &&
         "C++ backend supports 1D, 2D and 3D stencils");
  assert(Schedule.Config.isFeasible(Schedule.Radius) &&
         "codegen requires a feasible configuration");
  assert(static_cast<int>(Schedule.Config.BS.size()) ==
             Schedule.NumDims - 1 &&
         "one block size per non-streaming dimension required");
  std::string Out =
      emitPrelude(Program, Schedule, &Problem, CppEmitMode::CheckProgram);
  Out += emitReference(Schedule.NumDims);
  Out += emitBlocked(Program, Schedule, CppEmitMode::CheckProgram);
  Out += emitMain(Schedule.NumDims);
  return Out;
}

std::string generateCppKernelLibrary(const StencilProgram &Program,
                                     const ScheduleIR &Schedule) {
  assert(Schedule.NumDims >= 1 && Schedule.NumDims <= 3 &&
         "C++ backend supports 1D, 2D and 3D stencils");
  assert(Schedule.Config.isFeasible(Schedule.Radius) &&
         "codegen requires a feasible configuration");
  assert(static_cast<int>(Schedule.Config.BS.size()) ==
             Schedule.NumDims - 1 &&
         "one block size per non-streaming dimension required");
  std::string Out =
      emitPrelude(Program, Schedule, nullptr, CppEmitMode::KernelLibrary);
  Out += emitBlocked(Program, Schedule, CppEmitMode::KernelLibrary);
  Out += emitKernelApi(Program);
  return Out;
}

} // namespace an5d
