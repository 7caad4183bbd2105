//===- TunerTest.cpp - Section 6.3 tuning flow --------------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tuning/Tuner.h"

#include "analysis/passes/AnalysisPass.h"
#include "model/RegisterModel.h"
#include "stencils/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>

using namespace an5d;

TEST(Tuner, EnumerationMatchesSection63Counts) {
  Tuner T(GpuSpec::teslaV100());
  auto P2 = makeStarStencil(2, 1, ScalarType::Float);
  // 16 bT x 4 bS x 3 hS = 192 configurations for 2D.
  EXPECT_EQ(T.enumerateConfigs(*P2).size(), 192u);
  auto P3 = makeStarStencil(3, 1, ScalarType::Float);
  // 8 bT x 4 shapes x 2 hS = 64 configurations for 3D.
  EXPECT_EQ(T.enumerateConfigs(*P3).size(), 64u);
  auto P1 = makeStarStencil(1, 1, ScalarType::Float);
  // 16 bT x 5 hS (off + four chunk lengths) = 80 configurations for 1D.
  EXPECT_EQ(T.enumerateConfigs(*P1).size(), 80u);
  for (const BlockConfig &C : T.enumerateConfigs(*P1))
    EXPECT_TRUE(C.BS.empty()) << "1D streams: no blocked dimensions";
}

TEST(Tuner, OneDimensionalRankingIsNonEmpty) {
  // The 1D grid used to emit configs BlockConfig::isFeasible rejected
  // unconditionally, so every 1D tune came back infeasible.
  Tuner T(GpuSpec::teslaV100());
  ProblemSize Problem = ProblemSize::paperDefault(1);
  for (const char *Name : {"star1d1r", "star1d4r", "box1d2r", "j1d3pt"}) {
    auto P = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(P, nullptr) << Name;
    auto Ranked = T.rankByModel(*P, Problem, 5);
    ASSERT_FALSE(Ranked.empty()) << Name;
    for (const RankedConfig &R : Ranked) {
      EXPECT_TRUE(R.Model.Feasible) << Name;
      EXPECT_TRUE(R.Config.BS.empty()) << Name;
    }
  }
}

TEST(Tuner, OneDimensionalTunePrefersStreamingDivision) {
  // hS=off launches a single thread block; any chunked config beats it on
  // SM utilization, so the tuned pick must divide the streaming dimension.
  Tuner T(GpuSpec::teslaV100());
  auto P = makeJacobi1d3pt(ScalarType::Float);
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(1));
  ASSERT_TRUE(Outcome.Feasible);
  EXPECT_GT(Outcome.Best.HS, 0) << Outcome.Best.toString();
  EXPECT_GT(Outcome.BestMeasured.MeasuredGflops, 0);
}

TEST(Tuner, RankingIsSortedAndFeasible) {
  Tuner T(GpuSpec::teslaV100());
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  auto Ranked = T.rankByModel(*P, Problem, 5);
  ASSERT_EQ(Ranked.size(), 5u);
  for (std::size_t I = 1; I < Ranked.size(); ++I)
    EXPECT_GE(Ranked[I - 1].Model.Gflops, Ranked[I].Model.Gflops);
  for (const RankedConfig &R : Ranked) {
    EXPECT_TRUE(R.Model.Feasible);
    EXPECT_TRUE(R.Config.isFeasible(P->radius()));
  }
}

TEST(Tuner, HighDegreePreferredForFirstOrder2d) {
  // Fig. 8: first-order 2D stencils peak at high temporal degrees (8-15).
  Tuner T(GpuSpec::teslaV100());
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  ASSERT_TRUE(Outcome.Feasible);
  EXPECT_GE(Outcome.Best.BT, 6) << Outcome.Best.toString();
}

TEST(Tuner, LowDegreePreferredForHighOrder3dBox) {
  // Table 5: box3d3r/box3d4r peak at bT = 1 (register pressure and halo
  // ratio kill temporal scaling).
  Tuner T(GpuSpec::teslaV100());
  auto P = makeBoxStencil(3, 4, ScalarType::Float);
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(3));
  ASSERT_TRUE(Outcome.Feasible);
  EXPECT_LE(Outcome.Best.BT, 2) << Outcome.Best.toString();
}

TEST(Tuner, TunedBeatsSconfForFirstOrder) {
  Tuner T(GpuSpec::teslaV100());
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  TuneOutcome Tuned = T.tune(*P, Problem);
  ASSERT_TRUE(Tuned.Feasible);
  BlockConfig Sconf = Tuner::sconf(*P);
  MeasuredResult SconfResult =
      simulateMeasured(*P, T.spec(), Sconf, Problem);
  ASSERT_TRUE(SconfResult.Feasible);
  EXPECT_GT(Tuned.BestMeasured.MeasuredGflops, SconfResult.MeasuredGflops);
}

TEST(Tuner, SconfShapes) {
  auto P2 = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig S2 = Tuner::sconf(*P2);
  EXPECT_EQ(S2.BT, 4);
  EXPECT_EQ(S2.BS, (std::vector<int>{32}));
  EXPECT_EQ(S2.HS, 128);
  auto P3 = makeStarStencil(3, 1, ScalarType::Float);
  BlockConfig S3 = Tuner::sconf(*P3);
  EXPECT_EQ(S3.BS.size(), 2u);
  EXPECT_EQ(S3.HS, 0) << "streaming division disabled for 3D Sconf";
}

TEST(Tuner, ModelAccuracyWithinPaperBands) {
  // Section 7.2: measured/model accuracy averages ~67% on V100 and ~49% on
  // P100 for shared-memory-bound stencils.
  for (auto [Spec, Low, High] :
       {std::tuple{GpuSpec::teslaV100(), 0.5, 0.95},
        std::tuple{GpuSpec::teslaP100(), 0.3, 0.75}}) {
    Tuner T(Spec);
    auto P = makeStarStencil(2, 1, ScalarType::Float);
    TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
    ASSERT_TRUE(Outcome.Feasible);
    double Accuracy = Outcome.BestMeasured.modelAccuracy();
    EXPECT_GE(Accuracy, Low) << Spec.Name;
    EXPECT_LE(Accuracy, High) << Spec.Name;
  }
}

TEST(Tuner, DoubleDivisionPenaltyShowsUp) {
  // j2d5pt double achieves far less than its model prediction (Fig. 6
  // discussion), unlike the division-free star2d1r.
  Tuner T(GpuSpec::teslaV100());
  ProblemSize Problem = ProblemSize::paperDefault(2);
  auto Jacobi = makeJacobi2d5pt(ScalarType::Double);
  auto Star = makeStarStencil(2, 1, ScalarType::Double);
  TuneOutcome JacobiOutcome = T.tune(*Jacobi, Problem);
  TuneOutcome StarOutcome = T.tune(*Star, Problem);
  ASSERT_TRUE(JacobiOutcome.Feasible && StarOutcome.Feasible);
  EXPECT_LT(JacobiOutcome.BestMeasured.modelAccuracy(),
            StarOutcome.BestMeasured.modelAccuracy());
}

TEST(Tuner, RegisterCapChosenFromMenu) {
  Tuner T(GpuSpec::teslaV100());
  auto P = makeStarStencil(2, 2, ScalarType::Float);
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  ASSERT_TRUE(Outcome.Feasible);
  bool InMenu = Outcome.Best.RegisterCap == 0 ||
                Outcome.Best.RegisterCap == 32 ||
                Outcome.Best.RegisterCap == 64 ||
                Outcome.Best.RegisterCap == 96;
  EXPECT_TRUE(InMenu);
  // The chosen cap never forces spilling.
  if (Outcome.Best.RegisterCap > 0) {
    EXPECT_GE(Outcome.Best.RegisterCap,
              an5dRegistersPerThread(*P, Outcome.Best.BT));
  }
}

TEST(Tuner, AllBenchmarksTuneFeasibly) {
  Tuner T(GpuSpec::teslaV100());
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Extra : extraStencilNames())
    Names.push_back(Extra);
  for (const std::string &Name : Names) {
    auto P = makeBenchmarkStencil(Name, ScalarType::Float);
    ProblemSize Problem = ProblemSize::paperDefault(P->numDims());
    TuneOutcome Outcome = T.tune(*P, Problem);
    EXPECT_TRUE(Outcome.Feasible) << Name;
    if (Outcome.Feasible) {
      EXPECT_GT(Outcome.BestMeasured.MeasuredGflops, 0) << Name;
      EXPECT_LT(Outcome.BestMeasured.MeasuredGflops,
                T.spec().PeakGflopsFloat)
          << Name << ": cannot beat peak";
    }
  }
}

TEST(Tuner, RankingIsDeterministicAcrossRepeats) {
  // The model-score comparison is epsilon-relative and falls back to a
  // total order over the configuration fields, so repeated rankings (and
  // rankings across compilers/FP flags) must agree exactly.
  Tuner T(GpuSpec::teslaV100());
  ProblemSize Problem = ProblemSize::paperDefault(2);
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  auto First = T.rankByModel(*P, Problem, 50);
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Again = T.rankByModel(*P, Problem, 50);
    ASSERT_EQ(Again.size(), First.size());
    for (std::size_t I = 0; I < First.size(); ++I) {
      EXPECT_EQ(Again[I].Config.BT, First[I].Config.BT) << I;
      EXPECT_EQ(Again[I].Config.BS, First[I].Config.BS) << I;
      EXPECT_EQ(Again[I].Config.HS, First[I].Config.HS) << I;
    }
  }
  // Adjacent entries with equal quantized scores must follow the
  // documented tie-break (the same predicate the sort uses).
  for (std::size_t I = 1; I < First.size(); ++I) {
    const RankedConfig &A = First[I - 1], &B = First[I];
    if (quantizedModelScore(A.Model.Gflops) !=
        quantizedModelScore(B.Model.Gflops))
      continue; // genuinely different scores: order by score.
    EXPECT_TRUE(A.Config.BT < B.Config.BT ||
                (A.Config.BT == B.Config.BT &&
                 (A.Config.numThreads() < B.Config.numThreads() ||
                  (A.Config.numThreads() == B.Config.numThreads() &&
                   (A.Config.BS < B.Config.BS ||
                    (A.Config.BS == B.Config.BS &&
                     A.Config.HS < B.Config.HS))))))
        << "tie at rank " << I;
  }
}

TEST(Tuner, SweepResultBitIdenticalAcrossThreadCounts) {
  // The measured sweep fans out over a thread pool, but every candidate is
  // a pure function writing its own slot: the tuned pick must be
  // bit-identical for every worker count.
  Tuner T(GpuSpec::teslaV100());
  for (const char *Name : {"j2d5pt", "star1d1r", "star3d1r"}) {
    auto P = makeBenchmarkStencil(Name, ScalarType::Float);
    ProblemSize Problem = ProblemSize::paperDefault(P->numDims());
    TuneOptions Serial;
    Serial.Threads = 1;
    TuneOutcome Base = T.tune(*P, Problem, Serial);
    ASSERT_TRUE(Base.Feasible) << Name;
    for (int Threads : {2, 4, 8}) {
      TuneOptions Parallel;
      Parallel.Threads = Threads;
      TuneOutcome Outcome = T.tune(*P, Problem, Parallel);
      ASSERT_TRUE(Outcome.Feasible) << Name;
      EXPECT_EQ(Outcome.Best.BT, Base.Best.BT) << Name;
      EXPECT_EQ(Outcome.Best.BS, Base.Best.BS) << Name;
      EXPECT_EQ(Outcome.Best.HS, Base.Best.HS) << Name;
      EXPECT_EQ(Outcome.Best.RegisterCap, Base.Best.RegisterCap) << Name;
      EXPECT_EQ(Outcome.BestMeasured.MeasuredGflops,
                Base.BestMeasured.MeasuredGflops)
          << Name << ": bitwise-identical measurement expected";
      EXPECT_EQ(Outcome.BestMeasured.MeasuredTimeSeconds,
                Base.BestMeasured.MeasuredTimeSeconds)
          << Name;
    }
  }
}

TEST(Tuner, TuneAcrossProblemsMatchesPerProblemTunes) {
  Tuner T(GpuSpec::teslaV100());
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  std::vector<ProblemSize> Problems;
  Problems.push_back(ProblemSize::paperDefault(2));
  ProblemSize Small;
  Small.Extents = {4096, 4096};
  Small.TimeSteps = 500;
  Problems.push_back(Small);

  TuneOptions Options;
  Options.Threads = 3;
  std::vector<TuneOutcome> Joint = T.tuneAcrossProblems(*P, Problems, Options);
  ASSERT_EQ(Joint.size(), 2u);
  for (std::size_t I = 0; I < Problems.size(); ++I) {
    TuneOutcome Single = T.tune(*P, Problems[I], Options);
    ASSERT_EQ(Joint[I].Feasible, Single.Feasible) << I;
    EXPECT_EQ(Joint[I].Best.toString(), Single.Best.toString()) << I;
    EXPECT_EQ(Joint[I].BestMeasured.MeasuredGflops,
              Single.BestMeasured.MeasuredGflops)
        << I;
  }
}

TEST(Tuner, TuneOptionsTopKLimitsSweep) {
  Tuner T(GpuSpec::teslaV100());
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  TuneOptions Narrow;
  Narrow.TopK = 1;
  TuneOutcome Outcome = T.tune(*P, Problem, Narrow);
  ASSERT_TRUE(Outcome.Feasible);
  ASSERT_EQ(Outcome.TopByModel.size(), 1u);
  // The winner must be the single ranked candidate (any register cap).
  EXPECT_EQ(Outcome.Best.BT, Outcome.TopByModel[0].Config.BT);
  EXPECT_EQ(Outcome.Best.BS, Outcome.TopByModel[0].Config.BS);
  EXPECT_EQ(Outcome.Best.HS, Outcome.TopByModel[0].Config.HS);
}

//===----------------------------------------------------------------------===//
// Host ranking of native candidates
//===----------------------------------------------------------------------===//

TEST(HostRanking, PropertiesOnTheNativeTuneProblem) {
  // Every builtin in both precisions, ranked for the problem a native tune
  // times, at thread counts that balance the work items differently.
  const std::size_t TopK = 8;
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Extra : extraStencilNames())
    Names.push_back(Extra);
  std::set<std::string> RanOut;
  for (const std::string &Name : Names)
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double})
      for (int Threads : {1, 4, 6}) {
        auto P = makeBenchmarkStencil(Name, Type);
        const std::string Label = Name + " " + scalarTypeName(Type);
        SCOPED_TRACE(Label + ", " + std::to_string(Threads) + " threads");
        const ProblemSize Problem = nativeMeasurementProblem(P->numDims());
        const std::vector<RankedConfig> All = Tuner::rankByHostCost(
            *P, Problem, std::numeric_limits<std::size_t>::max(), Threads);
        const std::vector<RankedConfig> Ranked =
            Tuner::rankByHostCost(*P, Problem, TopK, Threads);
        const std::vector<RankedConfig> Again =
            Tuner::rankByHostCost(*P, Problem, TopK, Threads);
        // TopK entries unless fewer candidates pass the filters: the head
        // of the full ranking, the same on every call.
        ASSERT_EQ(Ranked.size(), std::min(TopK, All.size()));
        if (All.size() < TopK)
          RanOut.insert(Label);
        ASSERT_EQ(Again.size(), Ranked.size());
        std::set<std::tuple<std::vector<int>, int, int>> Runs;
        for (std::size_t I = 0; I < Ranked.size(); ++I) {
          const BlockConfig &C = Ranked[I].Config;
          EXPECT_EQ(C.toString(), All[I].Config.toString());
          EXPECT_EQ(C.toString(), Again[I].Config.toString());
          EXPECT_EQ(Ranked[I].HostCost, Again[I].HostCost);

          ScheduleIR IR = lowerSchedule(*P, C);
          AnalysisInput Input;
          Input.Program = P.get();
          Input.Schedule = &IR;
          EXPECT_TRUE(Passes.run(Input).proven()) << C.toString();

          // No two entries run the same (bT, bS, chunks) on the tune
          // problem: an hS at or past the streamed extent is one chunk.
          // (Distinct bT can still issue the same blocks on a short
          // problem — bT = 4 and 8 over 8 steps both run two degree-4
          // blocks — and stay distinct candidates: they differ on the
          // problems the pick runs.)
          const int Chunk =
              C.HS > 0 && C.HS < Problem.Extents.front() ? C.HS : 0;
          EXPECT_TRUE(Runs.insert({C.BS, C.BT, Chunk}).second)
              << C.toString();

          if (!C.BS.empty())
            EXPECT_GE(C.BS.back(), 64) << C.toString();
          const long long RingBytes = C.BT * (2LL * P->radius() + 1) *
                                      C.numThreads() * P->wordSize();
          EXPECT_LE(RingBytes, 256 * 1024) << C.toString();
        }
      }
  // Only the radius-4 3D stencils in double run out: 256 KiB of rings
  // leave them bT = 1 on 16x64, 16x128 and 32x64.
  EXPECT_EQ(RanOut,
            (std::set<std::string>{"box3d4r double", "star3d4r double"}));
}

TEST(HostRanking, NativeTunesMeasureTheHostRanking) {
  // No compiler: every candidate fails before a build, so only the ranking
  // stage runs. It is the host ranking at the kernels' thread count, with
  // no GPU thread cap.
  auto P = makeBenchmarkStencil("star3d1r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 8;
  Options.Native.Runtime.Compiler = "/nonexistent/an5d-cxx";
  Options.Native.Runtime.Threads = 4;
  const ProblemSize Problem = nativeMeasurementProblem(3);
  TuneOutcome Outcome = T.tune(*P, Problem, Options);
  EXPECT_FALSE(Outcome.Feasible);
  EXPECT_EQ(Outcome.MeasurementFailures, Options.TopK);
  const std::vector<RankedConfig> Host =
      Tuner::rankByHostCost(*P, Problem, Options.TopK, 4);
  ASSERT_EQ(Outcome.TopByModel.size(), Host.size());
  for (std::size_t I = 0; I < Host.size(); ++I)
    EXPECT_EQ(Outcome.TopByModel[I].Config.toString(),
              Host[I].Config.toString());
  EXPECT_GT(Host.front().Config.numThreads(), T.spec().MaxThreadsPerBlock);
}

TEST(HostRanking, MalformedProblemRanksNothing) {
  auto P = makeBenchmarkStencil("star3d1r", ScalarType::Float);
  ProblemSize WrongArity{{64, 64}, 8};
  ProblemSize EmptyAxis{{64, 0, 64}, 8};
  EXPECT_TRUE(Tuner::rankByHostCost(*P, WrongArity, 8, 4).empty());
  EXPECT_TRUE(Tuner::rankByHostCost(*P, EmptyAxis, 8, 4).empty());
}
