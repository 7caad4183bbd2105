//===- CudaCodegen.cpp - CUDA host + kernel generation ----------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaCodegen.h"

#include "codegen/ExprEmitter.h"
#include "model/GpuSpec.h"
#include "support/StringUtils.h"

#include <cassert>

namespace an5d {

namespace {

/// Shared state for one kernel-generation run: a renderer over the
/// lowered ScheduleIR (ring depth, halo policy, compute widths and chunk
/// plan all come from the IR, never re-derived here).
struct CudaEmitter {
  const StencilProgram &Program;
  const ScheduleIR &IR;
  const BlockConfig &Config; ///< IR.Config, for the tunable knobs.
  const CodegenOptions &Options;

  int Rad;
  int RingDepth;       ///< IR.RingDepth register planes per tier.
  int NumBlockedDims;  ///< 0 (1D pure streaming), 1 (2D) or 2 (3D).
  bool UseDaFree;      ///< Star optimization active.
  bool UseAssociative; ///< Partial-summation optimization active.
  std::string RealT;
  std::string KernelName;

  CudaEmitter(const StencilProgram &Program, const ScheduleIR &IR,
              const CodegenOptions &Options)
      : Program(Program), IR(IR), Config(IR.Config), Options(Options),
        Rad(IR.Radius), RingDepth(static_cast<int>(IR.RingDepth)),
        NumBlockedDims(IR.NumDims - 1),
        UseDaFree(Options.EnableDiagonalAccessFreeOpt &&
                  Program.shape() == StencilShape::Star),
        UseAssociative(Options.EnableAssociativeOpt &&
                       Program.shape() != StencilShape::Star &&
                       Program.isAssociative()),
        RealT(scalarTypeName(Program.elemType())),
        KernelName("an5d_" + sanitize(IR.StencilName) + "_bt" +
                   std::to_string(IR.Config.BT)) {}

  static std::string sanitize(std::string Name) {
    for (char &C : Name)
      if (C == '-')
        C = '_';
    return Name;
  }

  std::string regName(int Tier, int Slot) const {
    return "reg_" + std::to_string(Tier) + "_" + std::to_string(Slot);
  }

  /// Shared-memory read through the anti-vectorization wrapper
  /// (Section 4.3.2).
  std::string smRead(const std::string &Buffer, int PlaneOffset,
                     const std::vector<int> &LaneOffsets) const {
    std::string Index;
    if (!UseDaFree && !UseAssociative)
      Index += "[" + std::to_string(PlaneOffset + Rad) + "]";
    if (NumBlockedDims == 2)
      Index += "[ty + (" + std::to_string(LaneOffsets[0]) + ")]";
    std::string Inner = NumBlockedDims == 2 ? std::to_string(LaneOffsets[1])
                                            : std::to_string(LaneOffsets[0]);
    Index += "[tx + (" + Inner + ")]";
    std::string Access = "sm[" + Buffer + "]" + Index;
    if (Options.DisableVectorizedSmemAccess)
      return "__an5d_sm_load(&" + Access + ")";
    return Access;
  }

  /// The per-cell update expression with reads routed to the fixed source
  /// registers (streaming axis) and shared memory (in-plane); \p BufferExpr
  /// names the shared-memory buffer to read.
  std::string calcExpression(const std::string &BufferExpr) const {
    ExprEmitOptions Emit;
    Emit.Type = Program.elemType();
    Emit.Program = &Program;
    Emit.ReadEmitter = [this,
                        &BufferExpr](const GridReadExpr &R) -> std::string {
      int StreamOffset = R.offsets()[0];
      std::vector<int> LaneOffsets(R.offsets().begin() + 1,
                                   R.offsets().end());
      bool InPlaneCenter = true;
      for (int O : LaneOffsets)
        if (O != 0)
          InPlaneCenter = false;
      // The thread's own streaming column lives in the fixed registers of
      // the previous tier (Section 4.2.1).
      if (InPlaneCenter)
        return "(s" + std::to_string(StreamOffset + Rad) + ")";
      // Star stencils never mix a streaming offset with an in-plane one;
      // for box stencils the off-column planes come from shared memory.
      return smRead(BufferExpr, StreamOffset, LaneOffsets);
    };
    return emitExpr(Program.update(), Emit);
  }

  /// Register parameter list s0..s{2rad} of a CALC macro. The 1D
  /// pure-streaming schedule has no shared memory, so no read-buffer
  /// selector either.
  std::string calcParams() const {
    std::vector<std::string> Params = {"dst"};
    if (NumBlockedDims > 0)
      Params.push_back("sb");
    Params.push_back("s_idx");
    for (int M = 0; M < RingDepth; ++M)
      Params.push_back("s" + std::to_string(M));
    return join(Params, ", ");
  }

  /// Macro argument sequence encoding the fixed register allocation for
  /// tier \p Tier at rotation \p Rotation (Fig. 3b / Fig. 5). Tier T reads
  /// the shared-memory buffer its producer staged ((T+1)%2) and stages the
  /// other one.
  std::string calcArgs(int Tier, int Rotation,
                       const std::string &StreamIdx) const {
    std::vector<std::string> Args;
    Args.push_back(regName(Tier, Rotation % RingDepth));
    if (NumBlockedDims > 0)
      Args.push_back(std::to_string((Tier + 1) % 2)); // read-buffer selector
    Args.push_back(StreamIdx);
    for (int M = 0; M < RingDepth; ++M)
      Args.push_back(regName(Tier - 1, (Rotation + 1 + M) % RingDepth));
    return join(Args, ", ");
  }

  std::string loadArgs(int Rotation, const std::string &StreamIdx) const {
    return regName(0, Rotation % RingDepth) + ", " + StreamIdx;
  }

  std::string storeArgs(int Rotation, const std::string &StreamIdx) const {
    std::vector<std::string> Args = {StreamIdx};
    for (int M = 0; M < RingDepth; ++M)
      Args.push_back(
          regName(Config.BT - 1, (Rotation + 1 + M) % RingDepth));
    return join(Args, ", ");
  }

  std::string emitKernelSource() const;
  std::string emitHostSource() const;
  std::string emitMacros() const;
  std::string emitMainKernel() const;
  std::string emitGenericKernel() const;
};

std::string CudaEmitter::emitMacros() const {
  std::string Out;
  Out += "// ---- generated macros: one sub-plane of one time-step each ----\n";

  // Global-memory indexing.
  if (NumBlockedDims == 0) {
    Out += "#define GIDX(s) ((long long)(s) + RAD)\n";
  } else if (NumBlockedDims == 1) {
    Out += "#define GIDX(s, x) ((long long)(s) * (I_S1 + 2 * RAD) + (x))\n";
  } else {
    Out += "#define GIDX(s, y, x) (((long long)(s) * (I_S2 + 2 * RAD) + "
           "(y)) * (I_S1 + 2 * RAD) + (x))\n";
  }

  // LOAD: tier-0 global read, plus shared staging when a spatial tile
  // exists (2D/3D).
  Out += "#define LOAD(dst, s_idx) do { \\\n";
  Out += "    if (InsideInput(s_idx)) { \\\n";
  if (NumBlockedDims == 0)
    Out += "      (dst) = input[GIDX(s_idx)]; \\\n";
  else if (NumBlockedDims == 1)
    Out += "      (dst) = input[GIDX((s_idx) + RAD, gx)]; \\\n";
  else
    Out += "      (dst) = input[GIDX((s_idx) + RAD, gy, gx)]; \\\n";
  Out += "    } \\\n";
  if (NumBlockedDims > 0)
    Out += "    SM_STAGE(0, dst); \\\n";
  Out += "  } while (0)\n\n";

  // SM_STAGE: every thread stores, out-of-bound threads included, to avoid
  // divergent branches (Section 4.1). The 1D schedule has no tile and
  // therefore no shared memory.
  if (NumBlockedDims == 1)
    Out += "#define SM_STAGE(sb, v) (sm[sb][tx] = (v))\n\n";
  else if (NumBlockedDims == 2)
    Out += "#define SM_STAGE(sb, v) (sm[sb][ty][tx] = (v))\n\n";

  // CALC tiers 1..bT-1: compute one sub-plane, keep it in the fixed
  // destination register and stage it for the next tier (Fig. 5 generates
  // CALC1..CALC3 for bT = 4; the final tier lives in STORE).
  const bool PinBoundary =
      IR.HaloPolicy == ScheduleHaloPolicy::PinBoundaryOnly;
  std::string Expr = calcExpression("sb");
  for (int Tier = 1; Tier < Config.BT; ++Tier) {
    Out += "#define CALC" + std::to_string(Tier) + "(" + calcParams() +
           ") do { \\\n";
    if (NumBlockedDims > 0)
      Out += "    __syncthreads(); \\\n";
    Out += "    if (InsideBlockT" + std::to_string(Tier) +
           "(s_idx)) { \\\n";
    if (UseAssociative) {
      Out += "      /* associative stencil: partial summation, one "
             "sub-plane per step */ \\\n";
    }
    Out += "      " + RealT + " __r = " + Expr + "; \\\n";
    Out += "      (dst) = __r; \\\n";
    if (NumBlockedDims > 0)
      Out += "      SM_STAGE((sb) ^ 1, __r); \\\n";
    Out += "    } else { \\\n";
    if (PinBoundary) {
      Out += "      /* boundary pinning: outside the input the sub-plane "
             "keeps input values */ \\\n";
      Out += "      (dst) = input[GIDX(s_idx)]; \\\n";
    } else {
      Out += "      /* halo overwrite: carry the previous tier's value "
             "forward */ \\\n";
      Out += "      (dst) = (s" + std::to_string(Rad) + "); \\\n";
      Out += "      SM_STAGE((sb) ^ 1, (dst)); \\\n";
    }
    Out += "    } \\\n";
    Out += "  } while (0)\n\n";
  }

  // STORE: the final tier computes from the bT-1 registers and writes the
  // compute region straight to global memory (Fig. 5's STORE(s, reg_3_*)).
  std::string StoreBuffer = std::to_string((Config.BT - 1) % 2);
  std::string StoreExpr = calcExpression(StoreBuffer);
  Out += "#define STORE(s_idx";
  for (int M = 0; M < RingDepth; ++M)
    Out += ", s" + std::to_string(M);
  Out += ") do { \\\n";
  if (NumBlockedDims > 0)
    Out += "    __syncthreads(); \\\n";
  Out += "    if (InsideComputeRegion(s_idx)) { \\\n";
  Out += "      " + RealT + " __r = " + StoreExpr + "; \\\n";
  if (NumBlockedDims == 0)
    Out += "      output[GIDX(s_idx)] = __r; \\\n";
  else if (NumBlockedDims == 1)
    Out += "      output[GIDX((s_idx) + RAD, gx)] = __r; \\\n";
  else
    Out += "      output[GIDX((s_idx) + RAD, gy, gx)] = __r; \\\n";
  Out += "    } \\\n";
  Out += "  } while (0)\n\n";
  return Out;
}

std::string CudaEmitter::emitMainKernel() const {
  std::string Out;
  int BT = Config.BT;

  // Signature.
  Out += "extern \"C\" __global__ void " + KernelName + "(\n";
  Out += "    const " + RealT + " *__restrict__ input, " + RealT +
         " *__restrict__ output,\n";
  if (NumBlockedDims == 0)
    Out += "    int I_S1, int n_chunks, int chunk_len) {\n";
  else if (NumBlockedDims == 1)
    Out += "    int I_S2, int I_S1, int stream_lo, int stream_hi) {\n";
  else
    Out += "    int I_S3, int I_S2, int I_S1, int stream_lo, "
           "int stream_hi) {\n";

  if (NumBlockedDims == 0) {
    // 1D pure streaming: no spatial tile, so each stream chunk of the
    // hS division (Section 4.2.3) is one fully independent thread that
    // holds only its register rings.
    Out += "  const int cid = blockIdx.x * blockDim.x + threadIdx.x;\n";
    Out += "  if (cid >= n_chunks) return;\n";
    Out += "  const long long c0 = (long long)cid * chunk_len;\n";
    Out += "  const long long c1 = c0 + chunk_len < I_S1 ? c0 + chunk_len "
           ": I_S1;\n";
  } else {
    // Thread/block coordinates.
    Out += "  const int tx = threadIdx.x;\n";
    if (NumBlockedDims == 2)
      Out += "  const int ty = threadIdx.y;\n";
    Out += "  const int gx = blockIdx.x * (BS_X - 2 * BT * RAD) + tx;\n";
    if (NumBlockedDims == 2)
      Out += "  const int gy = blockIdx.y * (BS_Y - 2 * BT * RAD) + ty;\n";

    // Shared memory: double buffered (Section 4.2.2); general stencils
    // hold 1+2*rad sub-planes per buffer (Table 1).
    std::string SmDims;
    if (!UseDaFree && !UseAssociative)
      SmDims += "[2 * RAD + 1]";
    if (NumBlockedDims == 2)
      SmDims += "[BS_Y]";
    SmDims += "[BS_X]";
    Out += "  __shared__ " + RealT + " sm[2]" + SmDims + ";\n";
  }

  // Fixed register sets: RingDepth registers per tier (Fig. 3b).
  for (int Tier = 0; Tier < BT; ++Tier) {
    Out += "  " + RealT + " ";
    for (int M = 0; M < RingDepth; ++M) {
      if (M != 0)
        Out += ", ";
      Out += regName(Tier, M) + " = (" + RealT + ")0";
    }
    Out += ";\n";
  }
  Out += "\n  // ---- head phase (statically generated; loops would raise "
         "register pressure) ----\n";
  if (NumBlockedDims == 0)
    Out += "  long long s = c0 - BT * RAD;\n";
  else
    Out += "  int s = stream_lo - BT * RAD;\n";
  // Head: fill the pipeline. Step k performs LOAD + the CALCs whose inputs
  // are ready, mirroring the Lowermost_Block sequence of Fig. 5. The
  // pipeline depth in planes is twice the full invocation's stream reach.
  int HeadSteps = 2 * static_cast<int>(IR.full().LoadStreamReach);
  for (int K = 0; K < HeadSteps; ++K) {
    Out += "  LOAD(" + loadArgs(K, "s") + ");";
    for (int Tier = 1; Tier < BT; ++Tier) {
      // Tier T starts once 2*rad planes of tier T-1 exist: step >= 2*rad*T.
      if (K >= 2 * Rad * Tier)
        Out += " CALC" + std::to_string(Tier) + "(" +
               calcArgs(Tier, K, "s - " + std::to_string(Tier) + " * RAD") +
               ");";
    }
    Out += " ++s;\n";
  }

  std::string StreamHi = NumBlockedDims == 0 ? "c1" : "stream_hi";
  Out += "\n  // ---- inner phase (rolled; unrolling hurts instruction "
         "fetch) ----\n";
  if (Options.UnrollInnerLoop)
    Out += "#pragma unroll\n";
  Out += "  for (; s + " + std::to_string(RingDepth) + " <= " + StreamHi +
         " + BT * RAD; s += " + std::to_string(RingDepth) + ") {\n";
  for (int R = 0; R < RingDepth; ++R) {
    std::string Si = "s + " + std::to_string(R);
    Out += "    LOAD(" + loadArgs(HeadSteps + R, Si) + ");";
    for (int Tier = 1; Tier < BT; ++Tier)
      Out += " CALC" + std::to_string(Tier) + "(" +
             calcArgs(Tier, HeadSteps + R,
                      Si + " - " + std::to_string(Tier) + " * RAD") +
             ");";
    Out += "\n    STORE(" + storeArgs(HeadSteps + R, Si + " - BT * RAD") +
           ");\n";
  }
  Out += "  }\n";

  Out += "\n  // ---- tail phase (statically generated) ----\n";
  for (int K = 0; K < RingDepth; ++K) {
    Out += "  if (s > " + StreamHi + " + BT * RAD) return;\n";
    std::string Si = "s";
    Out += "  LOAD(" + loadArgs(HeadSteps + K, Si) + ");";
    for (int Tier = 1; Tier < BT; ++Tier)
      Out += " CALC" + std::to_string(Tier) + "(" +
             calcArgs(Tier, HeadSteps + K,
                      Si + " - " + std::to_string(Tier) + " * RAD") +
             ");";
    Out += "\n  STORE(" + storeArgs(HeadSteps + K, Si + " - BT * RAD") +
           "); ++s;\n";
  }
  Out += "}\n";
  return Out;
}

std::string CudaEmitter::emitGenericKernel() const {
  // Remainder temporal blocks (degree < BT) run through a degree-templated
  // kernel; the host instantiates the static branch chain of Section 4.3.1.
  std::string Out;
  Out += "// Remainder kernel for the final (adjusted) temporal blocks.\n";
  Out += "template <int DEGREE>\n";
  Out += "__global__ void " + KernelName + "_rem(\n";
  Out += "    const " + RealT + " *__restrict__ input, " + RealT +
         " *__restrict__ output,\n";
  std::string SizeSig, SizeInts;
  if (NumBlockedDims == 0) {
    SizeSig = "    int I_S1, int n_chunks, int chunk_len);\n";
    SizeInts = "int, int, int";
  } else if (NumBlockedDims == 1) {
    SizeSig = "    int I_S2, int I_S1, int stream_lo, int stream_hi);\n";
    SizeInts = "int, int, int, int";
  } else {
    SizeSig = "    int I_S3, int I_S2, int I_S1, int stream_lo, "
              "int stream_hi);\n";
    SizeInts = "int, int, int, int, int";
  }
  Out += SizeSig;
  for (int D = 1; D < Config.BT; ++D)
    Out += "template __global__ void " + KernelName + "_rem<" +
           std::to_string(D) + ">(const " + RealT + " *__restrict__, " +
           RealT + " *__restrict__, " + SizeInts + ");\n";
  return Out;
}

std::string CudaEmitter::emitKernelSource() const {
  std::string Out;
  Out += "// " + std::string(74, '-') + "\n";
  Out += "// CUDA kernel generated by the AN5D reproduction framework\n";
  Out += "// stencil: " + Program.name() + " (" +
         stencilShapeName(Program.shape()) + ", radius " +
         std::to_string(Rad) + ", " +
         optimizationClassName(Program.optimizationClass()) + ")\n";
  Out += "// config:  " + Config.toString() + "\n";
  Out += "// " + std::string(74, '-') + "\n\n";
  Out += "#include <cuda_runtime.h>\n\n";

  Out += "#define RAD " + std::to_string(Rad) + "\n";
  Out += "#define BT " + std::to_string(Config.BT) + "\n";
  if (NumBlockedDims > 0) {
    Out += "#define BS_X " +
           std::to_string(Config.BS[NumBlockedDims == 2 ? 1 : 0]) + "\n";
    if (NumBlockedDims == 2)
      Out += "#define BS_Y " + std::to_string(Config.BS[0]) + "\n";
  }
  Out += "\n";

  if (NumBlockedDims > 0 && Options.DisableVectorizedSmemAccess) {
    Out += "// Shared-memory loads go through a device function so nvcc "
           "does not\n// vectorize them (saves registers, Section 4.3.2).\n";
    Out += "static __device__ __forceinline__ " + RealT +
           " __an5d_sm_load(const volatile " + RealT +
           " *addr) { return *addr; }\n\n";
  }

  // Guard predicates; left as macros so the generated code stays legible.
  // The 1D pure-streaming kernel guards on the chunk bounds instead of the
  // spatial tile coordinates.
  std::string InputArgs =
      NumBlockedDims == 0
          ? "c0, c1"
          : "gx" + std::string(NumBlockedDims == 2 ? ", gy" : "");
  std::string TileArgs =
      NumBlockedDims == 0
          ? "c0, c1"
          : "tx" + std::string(NumBlockedDims == 2 ? ", ty" : "");
  Out += "#define InsideInput(s_idx) an5d_inside_input(s_idx, " + InputArgs +
         ")\n";
  for (int Tier = 1; Tier < Config.BT; ++Tier)
    Out += "#define InsideBlockT" + std::to_string(Tier) +
           "(s_idx) an5d_inside_tier(" + std::to_string(Tier) +
           ", s_idx, " + TileArgs + ")\n";
  Out += "#define InsideComputeRegion(s_idx) an5d_inside_store(s_idx, " +
         TileArgs + ")\n\n";

  Out += emitMacros();
  Out += emitMainKernel();
  Out += "\n";
  Out += emitGenericKernel();
  return Out;
}

std::string CudaEmitter::emitHostSource() const {
  std::string Out;
  int BT = Config.BT;
  Out += "// Host driver generated by the AN5D reproduction framework for " +
         Program.name() + ".\n";
  Out += "// Issues one kernel call per temporal block; the remainder and\n";
  Out += "// buffer-parity adjustment follows Section 4.3.1.\n\n";
  Out += "#include <cuda_runtime.h>\n#include <cstdio>\n\n";
  Out += "#define BT_DEGREE " + std::to_string(BT) + "\n\n";

  std::string SizeInts = NumBlockedDims == 0   ? "int, int, int"
                         : NumBlockedDims == 1 ? "int, int, int, int"
                                               : "int, int, int, int, int";
  Out += "extern \"C\" __global__ void " + KernelName + "(const " + RealT +
         " *, " + RealT + " *, " + SizeInts + ");\n\n";

  Out += "// Temporal block schedule: degrees sum to I_T and the call count\n"
         "// is congruent to I_T mod 2 so the result lands in buffer "
         "I_T%2.\n";
  Out += "static int an5d_schedule(long long I_T, int *degrees) {\n";
  Out += "  int n = 0;\n";
  Out += "  for (long long done = 0; done + BT_DEGREE <= I_T; done += "
         "BT_DEGREE)\n";
  Out += "    degrees[n++] = BT_DEGREE;\n";
  Out += "  int rem = (int)(I_T % BT_DEGREE);\n";
  Out += "  if (rem > 0) degrees[n++] = rem;\n";
  Out += "  if ((n % 2) != (int)(I_T % 2)) {\n";
  Out += "    // split one block of degree >= 2 to fix the buffer parity\n";
  Out += "    for (int i = 0; i < n; ++i) {\n";
  Out += "      if (degrees[i] >= 2) {\n";
  Out += "        int high = degrees[i] - degrees[i] / 2;\n";
  Out += "        int low = degrees[i] / 2;\n";
  Out += "        for (int j = n; j > i + 1; --j) degrees[j] = "
         "degrees[j - 1];\n";
  Out += "        degrees[i] = high; degrees[i + 1] = low; ++n;\n";
  Out += "        break;\n";
  Out += "      }\n";
  Out += "    }\n";
  Out += "  }\n";
  Out += "  return n;\n";
  Out += "}\n\n";

  std::string SizeParams = NumBlockedDims == 0
                               ? "long long I_S1"
                           : NumBlockedDims == 1
                               ? "long long I_S2, long long I_S1"
                               : "long long I_S3, long long I_S2, "
                                 "long long I_S1";
  Out += "extern \"C\" void an5d_" + CudaEmitter::sanitize(IR.StencilName) +
         "_run(" + RealT + " *host_a0, " + RealT + " *host_a1, " +
         SizeParams + ", long long I_T) {\n";
  Out += "  " + RealT + " *dev[2];\n";
  std::string CellCount =
      NumBlockedDims == 0
          ? "(I_S1 + 2 * " + std::to_string(Rad) + ")"
      : NumBlockedDims == 1
          ? "(I_S2 + 2 * " + std::to_string(Rad) + ") * (I_S1 + 2 * " +
                std::to_string(Rad) + ")"
          : "(I_S3 + 2 * " + std::to_string(Rad) + ") * (I_S2 + 2 * " +
                std::to_string(Rad) + ") * (I_S1 + 2 * " +
                std::to_string(Rad) + ")";
  Out += "  size_t bytes = sizeof(" + RealT + ") * (size_t)(" + CellCount +
         ");\n";
  Out += "  cudaMalloc(&dev[0], bytes);\n  cudaMalloc(&dev[1], bytes);\n";
  Out += "  cudaMemcpy(dev[0], host_a0, bytes, cudaMemcpyHostToDevice);\n";
  Out += "  cudaMemcpy(dev[1], host_a1, bytes, cudaMemcpyHostToDevice);\n";
  Out += "  static int degrees[1 << 20];\n";
  Out += "  int calls = an5d_schedule(I_T, degrees);\n";
  Out += "  int in = 0;\n";

  const InvocationSchedule &Full = IR.full();
  if (NumBlockedDims == 0) {
    // 1D pure streaming: one thread per hS chunk, one launch per temporal
    // block — the chunk division (Section 4.2.3) IS the parallel axis.
    std::string ChunkLen =
        Full.ChunkLength > 0 ? std::to_string(Full.ChunkLength) : "I_S1";
    Out += "  // division of the streaming dimension (Section 4.2.3):\n";
    Out += "  // each chunk runs as one independent CUDA thread\n";
    Out += "  const long long chunk = " + ChunkLen + ";\n";
    Out += "  const long long nchunks = (I_S1 + chunk - 1) / chunk;\n";
    Out += "  dim3 block(256, 1, 1);\n";
    Out += "  dim3 grid((unsigned)((nchunks + 255) / 256), 1, 1);\n";
    Out += "  for (int c = 0; c < calls; ++c) {\n";
    Out += "    if (degrees[c] == BT_DEGREE)\n";
    Out += "      " + KernelName + "<<<grid, block>>>(dev[in], "
           "dev[in ^ 1], (int)I_S1, (int)nchunks, (int)chunk);\n";
    Out += "    else\n";
    Out += "      /* statically generated remainder branch chain */\n";
    Out += "      an5d_launch_remainder(degrees[c], dev[in], dev[in ^ 1], "
           "(int)I_S1, (int)nchunks, (int)chunk);\n";
    Out += "    in ^= 1;\n";
    Out += "  }\n";
  } else {
    std::string Grid;
    if (NumBlockedDims == 1)
      Grid = "dim3 grid((unsigned)((I_S1 + CW - 1) / CW), 1, 1);\n"
             "  dim3 block(BS, 1, 1);\n";
    else
      Grid = "dim3 grid((unsigned)((I_S1 + CWX - 1) / CWX), "
             "(unsigned)((I_S2 + CWY - 1) / CWY), 1);\n"
             "  dim3 block(BSX, BSY, 1);\n";
    long long CwInner = Full.ComputeWidth[NumBlockedDims == 2 ? 1 : 0];
    if (NumBlockedDims == 1) {
      Out += "  const long long CW = " + std::to_string(CwInner) + ";\n";
      Out += "  const int BS = " + std::to_string(Config.BS[0]) + ";\n";
    } else {
      Out += "  const long long CWX = " + std::to_string(CwInner) + ";\n";
      Out += "  const long long CWY = " +
             std::to_string(Full.ComputeWidth[0]) + ";\n";
      Out += "  const int BSX = " + std::to_string(Config.BS[1]) +
             ", BSY = " + std::to_string(Config.BS[0]) + ";\n";
    }
    Out += "  " + Grid;

    std::string StreamExtent = NumBlockedDims == 1 ? "I_S2" : "I_S3";
    std::string ChunkLen = Full.ChunkLength > 0
                               ? std::to_string(Full.ChunkLength)
                               : StreamExtent;
    Out += "  const long long chunk = " + ChunkLen + ";\n";
    Out += "  for (int c = 0; c < calls; ++c) {\n";
    Out += "    // division of the streaming dimension (Section 4.2.3)\n";
    Out += "    for (long long lo = 0; lo < " + StreamExtent +
           "; lo += chunk) {\n";
    Out += "      long long hi = lo + chunk < " + StreamExtent +
           " ? lo + chunk : " + StreamExtent + ";\n";
    Out += "      if (degrees[c] == BT_DEGREE)\n";
    std::string SizeArgs = NumBlockedDims == 1 ? "(int)I_S2, (int)I_S1"
                                               : "(int)I_S3, (int)I_S2, "
                                                 "(int)I_S1";
    Out += "        " + KernelName + "<<<grid, block>>>(dev[in], "
           "dev[in ^ 1], " + SizeArgs + ", (int)lo, (int)hi);\n";
    Out += "      else\n";
    Out += "        /* statically generated remainder branch chain */\n";
    Out += "        an5d_launch_remainder(degrees[c], dev[in], "
           "dev[in ^ 1], " + SizeArgs + ", (int)lo, (int)hi);\n";
    Out += "    }\n";
    Out += "    in ^= 1;\n";
    Out += "  }\n";
  }
  Out += "  cudaMemcpy(host_a0, dev[I_T % 2 == 0 ? in : in ^ 1], bytes, "
         "cudaMemcpyDeviceToHost);\n";
  Out += "  cudaMemcpy(host_a1, dev[I_T % 2 == 0 ? in ^ 1 : in], bytes, "
         "cudaMemcpyDeviceToHost);\n";
  Out += "  cudaFree(dev[0]);\n  cudaFree(dev[1]);\n";
  Out += "}\n";
  return Out;
}

} // namespace

GeneratedCuda generateCuda(const StencilProgram &Program,
                           const ScheduleIR &Schedule,
                           const CodegenOptions &Options) {
  assert(Schedule.NumDims == Program.numDims() &&
         "schedule was lowered from a different program");
  assert(Schedule.Config.isFeasible(Schedule.Radius,
                                    GpuSpec().MaxThreadsPerBlock) &&
         "CUDA codegen requires a feasible, launchable configuration");
  assert(!Schedule.Invocations.empty() &&
         "codegen requires a schedule with bT >= 1");
  CudaEmitter Emitter(Program, Schedule, Options);
  GeneratedCuda Out;
  Out.KernelName = Emitter.KernelName;
  Out.KernelSource = Emitter.emitKernelSource();
  Out.HostSource = Emitter.emitHostSource();
  return Out;
}

} // namespace an5d
