//===- SchedulerTest.cpp - Temporal block schedule invariants ----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/NativeMeasurement.h"
#include "sim/TimeBlockScheduler.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace an5d;

TEST(Scheduler, DivisibleAndParityAligned) {
  // IT=8, bT=4: two calls, 8 mod 2 == 2 mod 2: no adjustment.
  std::vector<int> Degrees = scheduleTimeBlocks(8, 4);
  EXPECT_EQ(Degrees, (std::vector<int>{4, 4}));
}

TEST(Scheduler, RemainderBlockAppended) {
  // IT=10, bT=4: 4+4+2 = three calls; 10 mod 2 = 0 != 3 mod 2 -> split.
  std::vector<int> Degrees = scheduleTimeBlocks(10, 4);
  long long Sum = std::accumulate(Degrees.begin(), Degrees.end(), 0LL);
  EXPECT_EQ(Sum, 10);
  EXPECT_EQ(Degrees.size() % 2, 0u);
}

TEST(Scheduler, ParityMismatchSplitsABlock) {
  // IT=4, bT=4: one call but 4 mod 2 = 0 -> must split into two.
  std::vector<int> Degrees = scheduleTimeBlocks(4, 4);
  EXPECT_EQ(Degrees, (std::vector<int>{2, 2}));
}

TEST(Scheduler, DegreeOneTrivial) {
  std::vector<int> Degrees = scheduleTimeBlocks(7, 1);
  EXPECT_EQ(Degrees.size(), 7u);
  for (int D : Degrees)
    EXPECT_EQ(D, 1);
}

TEST(Scheduler, ZeroSteps) {
  EXPECT_TRUE(scheduleTimeBlocks(0, 4).empty());
}

TEST(Scheduler, SingleStep) {
  EXPECT_EQ(scheduleTimeBlocks(1, 8), (std::vector<int>{1}));
}

TEST(Scheduler, TwoStepsLargeBt) {
  // IT=2, bT=8: [2] has one call, parity 0 != 1 -> split into [1,1].
  EXPECT_EQ(scheduleTimeBlocks(2, 8), (std::vector<int>{1, 1}));
}

TEST(Scheduler, ZeroStepsForEveryDegree) {
  for (int BT : {1, 2, 5, 16})
    EXPECT_TRUE(scheduleTimeBlocks(0, BT).empty()) << "bT=" << BT;
}

TEST(Scheduler, TimeStepsBelowDegreeOddStaysSingleCall) {
  // IT=3 < bT=8: one call of degree 3; 1 mod 2 == 3 mod 2, no fix-up.
  EXPECT_EQ(scheduleTimeBlocks(3, 8), (std::vector<int>{3}));
  EXPECT_EQ(scheduleTimeBlocks(5, 16), (std::vector<int>{5}));
}

TEST(Scheduler, TimeStepsBelowDegreeEvenSplits) {
  // IT=6 < bT=8: the single degree-6 call has the wrong parity and must
  // split into two calls summing to 6.
  EXPECT_EQ(scheduleTimeBlocks(6, 8), (std::vector<int>{3, 3}));
  EXPECT_EQ(scheduleTimeBlocks(4, 16), (std::vector<int>{2, 2}));
}

TEST(Scheduler, ParityFixupDegradesToAllOnes) {
  // IT=3, bT=2: [2, 1] has two calls against odd IT; the only degree >= 2
  // splits, leaving every remaining degree at 1.
  EXPECT_EQ(scheduleTimeBlocks(3, 2), (std::vector<int>{1, 1, 1}));
  // IT=2, bT=2: same fix-up at the minimum size.
  EXPECT_EQ(scheduleTimeBlocks(2, 2), (std::vector<int>{1, 1}));
}

TEST(Scheduler, FixupSplitsFirstEligibleBlockOnly) {
  // IT=10, bT=4 -> [4, 4, 2] has 3 calls against even IT; the first block
  // splits into 2+2 and the tail is untouched.
  EXPECT_EQ(scheduleTimeBlocks(10, 4), (std::vector<int>{2, 2, 4, 2}));
}

/// Exhaustive sweep of the Section 4.3.1 postconditions over (IT, bT):
/// every bT the tuner enumerates and every step count up to 1024, which
/// covers each count a tune runs (1000 paper default; 4, 8, 32 and 64 for
/// the native and benchmark problems). Nothing re-checks host schedules
/// at run time, so this sweep is the guarantee.
constexpr int SweptMaxDegree = 16;
constexpr long long SweptMaxSteps = 1024;

class SchedulerSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerSweep, InvariantsHoldForAllTimeStepCounts) {
  int BT = GetParam();
  for (long long IT = 0; IT <= SweptMaxSteps; ++IT) {
    std::vector<int> Degrees = scheduleTimeBlocks(IT, BT);
    long long Sum = 0;
    for (int D : Degrees) {
      EXPECT_GE(D, 1) << "IT=" << IT << " bT=" << BT;
      EXPECT_LE(D, BT) << "IT=" << IT << " bT=" << BT;
      Sum += D;
    }
    EXPECT_EQ(Sum, IT) << "IT=" << IT << " bT=" << BT;
    EXPECT_EQ(static_cast<long long>(Degrees.size()) % 2, IT % 2)
        << "buffer parity, IT=" << IT << " bT=" << BT;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, SchedulerSweep,
                         ::testing::Range(1, SweptMaxDegree + 1));

// The sweep is the guarantee only while its bounds cover every degree the
// tuner enumerates and the step count of every problem a tune runs.
TEST(Scheduler, SweepCoversEveryDegreeAndStepCountATuneRuns) {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Name : extraStencilNames())
    Names.push_back(Name);
  Tuner T(GpuSpec::teslaV100());
  for (const std::string &Name : Names) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    for (const BlockConfig &Config : T.enumerateConfigs(*Program))
      EXPECT_LE(Config.BT, SweptMaxDegree) << Name << " " << Config.toString();
  }
  for (int NumDims = 1; NumDims <= 3; ++NumDims) {
    EXPECT_LE(ProblemSize::paperDefault(NumDims).TimeSteps, SweptMaxSteps);
    EXPECT_LE(nativeMeasurementProblem(NumDims).TimeSteps, SweptMaxSteps);
  }
}
