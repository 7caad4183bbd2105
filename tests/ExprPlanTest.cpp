//===- ExprPlanTest.cpp - Compiled-tape vs tree-walk equivalence ------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The contract of ir/ExprPlan.h: the compiled tape reproduces the
/// recursive evalExpr walk BIT FOR BIT — over randomized expression trees,
/// over every Table 3 benchmark stencil in both scalar types, across the
/// batch seams of CompiledTape::evalRange, through both executors, and
/// under poisoned-halo runs. The blocked emulator runs only the tape, so
/// it is checked against referenceRun's tree walk. referenceRun's tape
/// splits large steps' rows over the OpenMP pool, so its bits are also
/// checked to be the same at every thread count.
///
//===----------------------------------------------------------------------===//

#include "ir/ExprEval.h"
#include "ir/ExprPlan.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace an5d;

namespace {

/// Bitwise equality (NaN-safe, unlike operator==).
template <typename T> bool bitEqual(T A, T B) {
  return std::memcmp(&A, &B, sizeof(T)) == 0;
}

template <typename T>
std::size_t countBitMismatches(const Grid<T> &A, const Grid<T> &B) {
  std::size_t Mismatches = 0;
  for (std::size_t I = 0; I < A.raw().size(); ++I)
    if (!bitEqual(A.raw()[I], B.raw()[I]))
      ++Mismatches;
  return Mismatches;
}

/// Small interior extents per dimensionality — deliberately non-round and
/// non-equal so stride bugs can't cancel out.
std::vector<long long> testExtents(int NumDims) {
  if (NumDims == 1)
    return {23};
  if (NumDims == 2)
    return {17, 13};
  return {9, 8, 7};
}

/// A blocked configuration feasible for every benchmark order (radius<=4)
/// at degree 2: BS covers 2*BT*rad halo lanes plus a compute region.
BlockConfig testConfig(const StencilProgram &Program, int HS = 0) {
  BlockConfig Config;
  Config.BT = 2;
  Config.BS.assign(static_cast<std::size_t>(Program.numDims()) - 1, 24);
  Config.HS = HS;
  return Config;
}

//===----------------------------------------------------------------------===//
// Randomized expression equivalence
//===----------------------------------------------------------------------===//

/// Generates a random expression tree over a fixed 2D tap vocabulary.
class RandomExprGen {
public:
  RandomExprGen(std::mt19937 &Rng, std::map<std::string, double> &Coefficients)
      : Rng(Rng), Coefficients(Coefficients) {}

  ExprPtr gen(int Depth) {
    std::uniform_int_distribution<int> Pick(0, Depth <= 0 ? 2 : 9);
    switch (Pick(Rng)) {
    case 0:
      return makeNumber(value());
    case 1: {
      std::string Name = "c" + std::to_string(Coefficients.size());
      Coefficients[Name] = value();
      return makeCoefficient(Name);
    }
    case 2: {
      std::uniform_int_distribution<int> Off(-2, 2);
      return makeGridRead("A", {Off(Rng), Off(Rng)});
    }
    case 3:
      return makeNeg(gen(Depth - 1));
    case 4: {
      // sqrt/log draw from positive leaves, but subtraction can still feed
      // them negative inputs — equivalence must then hold on the NaNs too.
      static const char *Callees[] = {"sqrt", "fabs", "exp",  "log",
                                      "sin",  "cos",  "sqrtf", "logf"};
      std::uniform_int_distribution<int> C(0, 7);
      std::vector<ExprPtr> Args;
      Args.push_back(gen(Depth - 1));
      return makeCall(Callees[C(Rng)], std::move(Args));
    }
    default: {
      std::uniform_int_distribution<int> Op(0, 3);
      return makeBinary(static_cast<BinaryOpKind>(Op(Rng)), gen(Depth - 1),
                        gen(Depth - 1));
    }
    }
  }

private:
  double value() {
    std::uniform_real_distribution<double> Dist(0.25, 2.0);
    return Dist(Rng);
  }

  std::mt19937 &Rng;
  std::map<std::string, double> &Coefficients;
};

/// Lanes per random tape evaluation: two full batches and a 2-lane tail.
constexpr long long RandomTapeLanes = 130;

template <typename T>
void checkRandomExprEquivalence(std::uint32_t Seed, int Trees) {
  std::mt19937 Rng(Seed);
  for (int Tree = 0; Tree < Trees; ++Tree) {
    std::map<std::string, double> Coefficients;
    RandomExprGen Gen(Rng, Coefficients);
    ExprPtr E = Gen.gen(5);

    ExprPlan Plan = ExprPlan::compile(*E, Coefficients);
    CompiledTape<T> Tape(Plan);
    ASSERT_GT(Plan.maxStackDepth(), 0);

    // Random values per distinct tap and lane: tap K of lane I lives at
    // TapValues[K * Lanes + I], so TapOffsets[K] = K * Lanes. The tree walk
    // resolves offsets to the same values through a table lookup.
    std::uniform_real_distribution<double> Dist(0.25, 2.0);
    const long long Lanes = RandomTapeLanes;
    std::vector<T> TapValues(static_cast<std::size_t>(Plan.numTaps() * Lanes));
    for (T &V : TapValues)
      V = static_cast<T>(Dist(Rng));
    std::vector<long long> TapOffsets(static_cast<std::size_t>(Plan.numTaps()));
    for (std::size_t K = 0; K < TapOffsets.size(); ++K)
      TapOffsets[K] = static_cast<long long>(K) * Lanes;
    std::vector<T> Out(static_cast<std::size_t>(Lanes));
    Tape.evalRange(TapValues.data(), TapOffsets.data(), Out.data(), Lanes);

    for (long long Lane = 0; Lane < Lanes; ++Lane) {
      auto Read = [&](const GridReadExpr &R) -> T {
        const std::vector<std::vector<int>> &Taps = Plan.taps();
        for (std::size_t K = 0; K < Taps.size(); ++K)
          if (Taps[K] == R.offsets())
            return TapValues[static_cast<std::size_t>(TapOffsets[K] + Lane)];
        ADD_FAILURE() << "grid read missing from the plan's tap table";
        return T(0);
      };
      auto Coef = [&](const std::string &Name) -> T {
        return static_cast<T>(Coefficients.at(Name));
      };

      T Want = evalExpr<T>(*E, Read, Coef);
      T Got = Out[static_cast<std::size_t>(Lane)];
      EXPECT_TRUE(bitEqual(Want, Got))
          << "tree " << Tree << " lane " << Lane << ": tree-walk " << Want
          << " vs tape " << Got << " for " << E->toString();
    }
  }
}

} // namespace

TEST(ExprPlan, RandomizedEquivalenceFloat) {
  checkRandomExprEquivalence<float>(20260730, 300);
}

TEST(ExprPlan, RandomizedEquivalenceDouble) {
  checkRandomExprEquivalence<double>(987654321, 300);
}

//===----------------------------------------------------------------------===//
// Plan structure
//===----------------------------------------------------------------------===//

TEST(ExprPlan, J2d5ptPlanShape) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  const ExprPlan &Plan = P->plan();
  EXPECT_EQ(Plan.numTaps(), 5);
  EXPECT_TRUE(Plan.hasConstantDivision());
  EXPECT_GE(Plan.maxStackDepth(), 2);
  // 5 coefficients + the /118 divisor, all distinct.
  EXPECT_EQ(Plan.constants().size(), 6u);
  // Postfix length: 5 loads + 5 consts + 5 muls + 4 adds + 1 const + 1 div.
  EXPECT_EQ(Plan.ops().size(), 21u);
}

TEST(ExprPlan, DeduplicatesRepeatedTaps) {
  // gradient2d reads some taps more than once; the tap table holds each
  // distinct offset exactly once (same dedup rule as StencilProgram).
  auto P = makeGradient2d(ScalarType::Double);
  EXPECT_EQ(static_cast<std::size_t>(P->plan().numTaps()), P->taps().size());
}

TEST(ExprPlan, StarPlanHasNoDivision) {
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  EXPECT_FALSE(P->plan().hasConstantDivision());
}

TEST(CompiledTape, FoldsConstantSubtreesInElementType) {
  // (2 + 3) * A[0,0] + sqrt(16): the constant subexpressions fold away at
  // specialization, in the element type.
  std::vector<ExprPtr> Args;
  Args.push_back(makeNumber(16.0));
  ExprPtr E = makeAdd(
      makeMul(makeAdd(makeNumber(2.0), makeNumber(3.0)),
              makeGridRead("A", {0, 0})),
      makeCall("sqrt", std::move(Args)));
  ExprPlan Plan = ExprPlan::compile(*E, {});
  CompiledTape<float> Tape(Plan);
  // Folded and fused tape: MulConstTap(5, A[0,0]), AddConst(4).
  EXPECT_EQ(Tape.numOps(), 2);
  float Center = 1.5f;
  long long Index = 0;
  float Got = 0.0f;
  Tape.evalRange(&Center, &Index, &Got, 1);
  EXPECT_EQ(Got, 5.0f * 1.5f + 4.0f);
}

//===----------------------------------------------------------------------===//
// Batch seams of CompiledTape::evalRange
//===----------------------------------------------------------------------===//

namespace {

/// Bitwise equality, except that any two NaNs match: C++ fixes no NaN
/// payload, so a NaN result is checked by NaN-ness only.
template <typename T> bool sameResult(T A, T B) {
  if (std::isnan(A) && std::isnan(B))
    return true;
  return bitEqual(A, B);
}

/// Row lengths around evalRange's 64-cell batches: one cell, a short
/// batch, one full batch, one more cell, and two full batches plus one.
constexpr long long SeamLengths[] = {1, 63, 64, 65, 129};

/// First lane of every evaluated row: unaligned, so batches straddle
/// vector boundaries.
constexpr long long SeamStart = 3;

/// Evaluates one grid row of \p Program per length of SeamLengths with
/// evalRange and compares each cell with evalStencilCell's tree walk, and
/// checks that nothing past the row's end is written. Ordinary values fill
/// the grid; every 13th lane of the evaluated row holds an IEEE edge case
/// (±0, ±subnormal, ±Inf, NaN), so batches meet them at different lanes.
template <typename T> void checkBatchSeams(const StencilProgram &Program) {
  const int NumDims = Program.numDims();
  const int Radius = Program.radius();
  const long long Longest =
      *std::max_element(std::begin(SeamLengths), std::end(SeamLengths));
  std::vector<long long> Extents(static_cast<std::size_t>(NumDims), 3);
  Extents.back() = SeamStart + Longest + SeamStart;
  Grid<T> In(Extents, Radius);
  std::mt19937 Rng(2026);
  std::uniform_real_distribution<double> Dist(-2.0, 2.0);
  for (T &Cell : In.raw())
    Cell = static_cast<T>(Dist(Rng));

  using Limits = std::numeric_limits<T>;
  const T Specials[] = {T(0),
                        -T(0),
                        Limits::denorm_min(),
                        -Limits::min() / T(4),
                        Limits::infinity(),
                        -Limits::infinity(),
                        Limits::quiet_NaN()};
  const std::size_t NumSpecials = sizeof(Specials) / sizeof(Specials[0]);
  // The evaluated row sits at coordinate 1 of every outer dimension.
  std::vector<long long> Coords(static_cast<std::size_t>(NumDims), 1);
  std::size_t Next = 0;
  for (long long Lane = -Radius; Lane < Extents.back() + Radius; ++Lane)
    if ((Lane + Radius) % 13 == 6) {
      Coords.back() = Lane;
      In.at(Coords) = Specials[Next++ % NumSpecials];
    }

  const ExprPlan &Plan = Program.plan();
  CompiledTape<T> Tape(Plan);
  std::vector<long long> TapOffsets = linearizeTaps(Plan, In);
  const T Sentinel = T(-12345.25);
  for (long long Length : SeamLengths) {
    std::vector<T> Out(
        static_cast<std::size_t>(Length + CompiledTape<T>::BatchCells),
        Sentinel);
    Coords.back() = SeamStart;
    Tape.evalRange(&In.at(Coords), TapOffsets.data(), Out.data(), Length);

    long long Mismatches = 0, FirstBad = -1;
    for (long long I = 0; I < Length; ++I) {
      Coords.back() = SeamStart + I;
      if (!sameResult(evalStencilCell(Program, In, Coords),
                      Out[static_cast<std::size_t>(I)]) &&
          Mismatches++ == 0)
        FirstBad = I;
    }
    EXPECT_EQ(Mismatches, 0)
        << Program.name() << ": " << Length << "-cell row, first mismatch at "
        << "cell " << FirstBad;
    long long Overrun = 0;
    for (std::size_t I = static_cast<std::size_t>(Length); I < Out.size(); ++I)
      Overrun += bitEqual(Out[I], Sentinel) ? 0 : 1;
    EXPECT_EQ(Overrun, 0) << Program.name() << ": evalRange wrote past the "
                          << Length << "-cell row";
  }
}

} // namespace

TEST(ExprPlanSuite, EvalRangeMatchesTreeWalkAcrossBatchSeams) {
  for (const std::string &Name : benchmarkStencilNames())
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto P = makeBenchmarkStencil(Name, Type);
      ASSERT_TRUE(P) << Name;
      if (Type == ScalarType::Float)
        checkBatchSeams<float>(*P);
      else
        checkBatchSeams<double>(*P);
    }
}

//===----------------------------------------------------------------------===//
// Executor equivalence over every benchmark stencil
//===----------------------------------------------------------------------===//

namespace {

template <typename T>
void checkReferenceEquivalence(const StencilProgram &Program,
                               long long TimeSteps) {
  std::vector<long long> Extents = testExtents(Program.numDims());
  int Halo = Program.radius();
  Grid<T> Tree0(Extents, Halo), Tree1(Extents, Halo);
  fillGridDeterministic(Tree0, 42);
  copyGrid(Tree0, Tree1);
  Grid<T> Tape0 = Tree0, Tape1 = Tree0;

  referenceRun<T>(Program, {&Tree0, &Tree1}, TimeSteps,
                  EvalStrategy::TreeWalk);
  referenceRun<T>(Program, {&Tape0, &Tape1}, TimeSteps,
                  EvalStrategy::CompiledTape);

  EXPECT_EQ(countBitMismatches(Tree0, Tape0), 0u) << Program.name();
  EXPECT_EQ(countBitMismatches(Tree1, Tape1), 0u) << Program.name();
}

/// Runs the tape emulator and referenceRun's tree walk from one input and
/// compares the result buffers bit for bit.
template <typename T>
void checkBlockedEquivalence(const StencilProgram &Program,
                             const BlockConfig &Config, long long TimeSteps,
                             std::uint64_t Seed) {
  std::vector<long long> Extents = testExtents(Program.numDims());
  int Halo = Program.radius();
  Grid<T> Tree0(Extents, Halo), Tree1(Extents, Halo);
  fillGridDeterministic(Tree0, Seed);
  copyGrid(Tree0, Tree1);
  Grid<T> Tape0 = Tree0, Tape1 = Tree0;

  referenceRun<T>(Program, {&Tree0, &Tree1}, TimeSteps,
                  EvalStrategy::TreeWalk);
  blockedRun<T>(Program, Config, {&Tape0, &Tape1}, TimeSteps);

  const Grid<T> &Want = TimeSteps % 2 == 0 ? Tree0 : Tree1;
  const Grid<T> &Got = TimeSteps % 2 == 0 ? Tape0 : Tape1;
  EXPECT_EQ(countBitMismatches(Want, Got), 0u)
      << Program.name() << " vs tree-walk reference";
}

template <typename T>
void checkPoisonedEquivalence(const StencilProgram &Program,
                              long long TimeSteps) {
  std::vector<long long> Extents = testExtents(Program.numDims());
  BlockConfig Config = testConfig(Program);
  int Halo = Program.radius();
  Grid<T> Ref0(Extents, Halo), Ref1(Extents, Halo);
  fillGridDeterministic(Ref0, 99);
  copyGrid(Ref0, Ref1);
  Grid<T> Poi0 = Ref0, Poi1 = Ref0;

  referenceRun<T>(Program, {&Ref0, &Ref1}, TimeSteps);
  BlockedExecOptions Poison;
  Poison.PoisonHalos = true;
  blockedRun<T>(Program, Config, {&Poi0, &Poi1}, TimeSteps, Poison);

  const Grid<T> &Got = TimeSteps % 2 == 0 ? Poi0 : Poi1;
  EXPECT_FALSE(interiorHasNaN(Got)) << Program.name();
  // Interior cells only: the poison run deliberately trashes halo cells.
  const Grid<T> &Want = TimeSteps % 2 == 0 ? Ref0 : Ref1;
  std::vector<long long> Coords(static_cast<std::size_t>(Want.numDims()), 0);
  while (true) {
    EXPECT_TRUE(bitEqual(Want.at(Coords), Got.at(Coords))) << Program.name();
    int D = Want.numDims() - 1;
    while (D >= 0) {
      if (++Coords[static_cast<std::size_t>(D)] <
          Extents[static_cast<std::size_t>(D)])
        break;
      Coords[static_cast<std::size_t>(D)] = 0;
      --D;
    }
    if (D < 0)
      break;
  }
}

/// Interior extents past CompiledTape::ParallelCells. The row counts (263
/// in 2D, 41 x 43 = 1763 in 3D) are divisible by none of 2, 3 and 4, so
/// no team size splits them evenly; a 1D grid is one row and must stay on
/// the calling thread.
std::vector<long long> parallelExtents(int NumDims) {
  if (NumDims == 1)
    return {65537};
  if (NumDims == 2)
    return {263, 257};
  return {41, 43, 39};
}

/// Runs referenceRun's tape from one input at 1 thread, at 3 threads and
/// on the default pool, and compares both buffers of every run with the
/// 1-thread run bit for bit.
template <typename T>
void checkThreadCountInvariance(const StencilProgram &Program,
                                long long TimeSteps) {
  std::vector<long long> Extents = parallelExtents(Program.numDims());
  Grid<T> Input(Extents, Program.radius());
  fillGridDeterministic(Input, 42);
  long long Cells = 1;
  for (long long Extent : Extents)
    Cells *= Extent;
  ASSERT_GE(Cells, CompiledTape<T>::ParallelCells) << Program.name();

  // Threads = 0 keeps the default pool.
  auto Run = [&](int Threads) {
#ifdef _OPENMP
    const int Pool = omp_get_max_threads();
    if (Threads > 0)
      omp_set_num_threads(Threads);
#endif
    std::array<Grid<T>, 2> Buffers = {Input, Input};
    referenceRun<T>(Program, {&Buffers[0], &Buffers[1]}, TimeSteps);
#ifdef _OPENMP
    omp_set_num_threads(Pool);
#endif
    return Buffers;
  };
  std::array<Grid<T>, 2> Serial = Run(1);
  for (int Threads : {3, 0}) {
    std::array<Grid<T>, 2> Split = Run(Threads);
    EXPECT_EQ(countBitMismatches(Serial[0], Split[0]), 0u)
        << Program.name() << " at " << Threads << " threads";
    EXPECT_EQ(countBitMismatches(Serial[1], Split[1]), 0u)
        << Program.name() << " at " << Threads << " threads";
  }
}

} // namespace

TEST(ExprPlanSuite, ReferenceTapeMatchesTreeWalkEverywhere) {
  for (const std::string &Name : benchmarkStencilNames())
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto P = makeBenchmarkStencil(Name, Type);
      ASSERT_TRUE(P) << Name;
      if (Type == ScalarType::Float)
        checkReferenceEquivalence<float>(*P, 3);
      else
        checkReferenceEquivalence<double>(*P, 3);
    }
}

TEST(ExprPlanSuite, ReferenceTapeIsThreadCountInvariant) {
  // The tree walk is not rerun on these grids (box3d4r has 729 taps):
  // ReferenceTapeMatchesTreeWalkEverywhere ties the tape to it.
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Name : extraStencilNames())
    Names.push_back(Name);
  for (const std::string &Name : Names)
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto P = makeBenchmarkStencil(Name, Type);
      ASSERT_TRUE(P) << Name;
      if (Type == ScalarType::Float)
        checkThreadCountInvariance<float>(*P, 3);
      else
        checkThreadCountInvariance<double>(*P, 3);
    }
}

TEST(ExprPlanSuite, BlockedTapeMatchesTreeWalkEverywhere) {
  for (const std::string &Name : benchmarkStencilNames())
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto P = makeBenchmarkStencil(Name, Type);
      ASSERT_TRUE(P) << Name;
      if (Type == ScalarType::Float)
        checkBlockedEquivalence<float>(*P, testConfig(*P), 3, 7);
      else
        checkBlockedEquivalence<double>(*P, testConfig(*P), 3, 7);
    }
}

TEST(ExprPlanSuite, PoisonedHaloTapeMatchesReferenceEverywhere) {
  for (const std::string &Name : benchmarkStencilNames())
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto P = makeBenchmarkStencil(Name, Type);
      ASSERT_TRUE(P) << Name;
      if (Type == ScalarType::Float)
        checkPoisonedEquivalence<float>(*P, 4);
      else
        checkPoisonedEquivalence<double>(*P, 4);
    }
}

TEST(ExprPlanSuite, ChunkedStreamingStaysEquivalent) {
  // Section 4.2.3 chunking (HS > 0) exercises a different ring schedule;
  // the tape emulator must stay bit-identical there too.
  auto P = makeJacobi2d5pt(ScalarType::Float);
  checkBlockedEquivalence<float>(*P, testConfig(*P, /*HS=*/8), 5, 5);
}
