//===- ObsTest.cpp - Observability subsystem tests ----------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises src/obs/ end to end:
///
///  * trace spans: disabled fast path records nothing, nesting order in
///    the export, attribute capture, thread-safety under a std::thread
///    fan-out, byte-deterministic output with an injected clock;
///  * the Chrome trace-event export parses back as valid JSON with the
///    shape Perfetto expects;
///  * a traced native tune lowers and analyzes each candidate exactly
///    once and records only the spans README "Observability" documents;
///  * MetricsRegistry counters/gauges/histograms, the JSON export, and
///    the glossary (every name a scripted tune registers is known);
///  * metrics exactness against a scripted native tune: a cold cache
///    records exactly one miss per unique kernel and a warm rerun records
///    exactly one hit per unique kernel, failure counters mirror
///    TuneOutcome, and the traced (chunked) native run stays bit-exact
///    with the reference executor;
///  * the reference executor's `sim.reference` span reports the team that
///    ran its steps: the OpenMP pool on a large 2D grid, one thread on a
///    small grid and on a 1D grid;
///  * the MeasureFailureKind label/metric-name renderers.
///
/// The trace recorder and metrics registry are process-global: every test
/// that touches them clears/resets first and restores the disabled state
/// on exit, so tests stay order-independent.
///
//===----------------------------------------------------------------------===//

#include "obs/JsonLite.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/NativeExecutor.h"
#include "runtime/NativeMeasurement.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace an5d;

namespace {

/// Same directory scheme as NativeRuntimeTest, so kernels this suite
/// compiles are shared with (and reused from) the rest of the test runs.
std::string sharedCacheDir() {
  return ::testing::TempDir() + "an5d-native-test-cache";
}

std::string freshCacheDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "an5d-obs-fresh-" + Tag;
  std::filesystem::remove_all(Dir);
  return Dir;
}

NativeRuntimeOptions fastBuildOptions(const std::string &CacheDir) {
  NativeRuntimeOptions Options;
  Options.CacheDir = CacheDir;
  Options.ExtraCompileFlags = {"-O1"};
  return Options;
}

/// Enables span recording on a clean buffer for one test and restores the
/// global disabled/default-clock state on scope exit.
struct TracingOn {
  TracingOn() {
    obs::TraceRecorder::global().clear();
    obs::TraceRecorder::global().enable();
  }
  ~TracingOn() {
    obs::TraceRecorder::global().disable();
    obs::TraceRecorder::global().setClock(nullptr);
    obs::TraceRecorder::global().clear();
  }
};

/// Deterministic test clock: every read returns the next multiple of
/// 1000ns, so span begin/end timestamps are fully scripted.
std::atomic<long long> FakeClockTicks{0};
long long fakeClock() {
  return FakeClockTicks.fetch_add(1, std::memory_order_relaxed) * 1000;
}

//===----------------------------------------------------------------------===//
// Trace spans
//===----------------------------------------------------------------------===//

TEST(TraceSpanTest, DisabledSpanRecordsNothing) {
  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  Recorder.disable();
  Recorder.clear();
  {
    AN5D_TRACE_SPAN("never.recorded");
    obs::TraceSpan Span("also.never", {{"key", "value"}});
    EXPECT_FALSE(Span.active());
    Span.attr("ignored", "ignored"); // must be a safe no-op
  }
  EXPECT_TRUE(Recorder.snapshot().empty());
}

TEST(TraceSpanTest, NestedSpansExportInTreeOrder) {
  TracingOn Guard;
  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  FakeClockTicks.store(0);
  Recorder.setClock(&fakeClock);
  {
    obs::TraceSpan Outer("outer");             // begins at t=0us
    ASSERT_TRUE(Outer.active());
    {
      obs::TraceSpan Middle("middle");         // begins at t=1us
      { AN5D_TRACE_SPAN("inner"); }            // t=2us .. t=3us
    }                                          // middle ends at t=4us
    Outer.attr("k", "v");
  }                                            // outer ends at t=5us

  std::vector<obs::SpanRecord> Spans = Recorder.snapshot();
  ASSERT_EQ(Spans.size(), 3u);
  // Sorted parent-before-child: outer (start 0) < middle (1) < inner (2),
  // all on one thread.
  EXPECT_EQ(Spans[0].Name, "outer");
  EXPECT_EQ(Spans[1].Name, "middle");
  EXPECT_EQ(Spans[2].Name, "inner");
  EXPECT_EQ(Spans[0].StartNs, 0);
  EXPECT_EQ(Spans[0].DurationNs, 5000);
  EXPECT_EQ(Spans[1].StartNs, 1000);
  EXPECT_EQ(Spans[1].DurationNs, 3000);
  EXPECT_EQ(Spans[2].StartNs, 2000);
  EXPECT_EQ(Spans[2].DurationNs, 1000);
  EXPECT_EQ(Spans[0].ThreadId, Spans[1].ThreadId);
  // Timestamp containment — what Perfetto nests by.
  EXPECT_LE(Spans[0].StartNs, Spans[1].StartNs);
  EXPECT_GE(Spans[0].StartNs + Spans[0].DurationNs,
            Spans[1].StartNs + Spans[1].DurationNs);
  ASSERT_EQ(Spans[0].Attrs.size(), 1u);
  EXPECT_EQ(Spans[0].Attrs[0].Key, "k");
  EXPECT_EQ(Spans[0].Attrs[0].Value, "v");
}

TEST(TraceSpanTest, InjectedClockMakesExportDeterministic) {
  TracingOn Guard;
  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  FakeClockTicks.store(0);
  Recorder.setClock(&fakeClock);
  { AN5D_TRACE_SPAN("a"); }
  { obs::TraceSpan Span("b", {{"x", "1"}}); }

  std::string First = Recorder.toChromeTraceJson();
  std::string Second = Recorder.toChromeTraceJson();
  EXPECT_EQ(First, Second) << "export of a fixed buffer must be stable";

  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(First, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const obs::JsonValue *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->Items.size(), 2u);
  const obs::JsonValue &A = Events->Items[0];
  EXPECT_EQ(A.find("name")->String, "a");
  EXPECT_EQ(A.find("ph")->String, "X");
  EXPECT_EQ(A.find("ts")->Number, 0.0);    // t=0 in microseconds
  EXPECT_EQ(A.find("dur")->Number, 1.0);   // one 1000ns tick
  const obs::JsonValue &B = Events->Items[1];
  EXPECT_EQ(B.find("ts")->Number, 2.0);
  ASSERT_NE(B.find("args"), nullptr);
  EXPECT_EQ(B.find("args")->find("x")->String, "1");
}

TEST(TraceSpanTest, ConcurrentRecordingFromManyThreads) {
  TracingOn Guard;
  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  constexpr int NumThreads = 8;
  constexpr int SpansPerThread = 50;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < SpansPerThread; ++I) {
        obs::TraceSpan Span("worker.span");
        Span.attr("i", std::to_string(I));
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  std::vector<obs::SpanRecord> Spans = Recorder.snapshot();
  ASSERT_EQ(Spans.size(),
            static_cast<std::size_t>(NumThreads) * SpansPerThread);
  std::vector<unsigned> Tids;
  for (const obs::SpanRecord &Span : Spans)
    Tids.push_back(Span.ThreadId);
  std::sort(Tids.begin(), Tids.end());
  Tids.erase(std::unique(Tids.begin(), Tids.end()), Tids.end());
  EXPECT_EQ(Tids.size(), static_cast<std::size_t>(NumThreads));

  std::map<std::string, obs::SpanAggregate> Aggregates =
      Recorder.aggregate();
  ASSERT_EQ(Aggregates.count("worker.span"), 1u);
  EXPECT_EQ(Aggregates["worker.span"].Count,
            static_cast<std::size_t>(NumThreads) * SpansPerThread);
  EXPECT_NE(Recorder.summaryTable().find("worker.span"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// JsonLite
//===----------------------------------------------------------------------===//

TEST(JsonLiteTest, ParsesScalarsContainersAndEscapes) {
  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(
      R"({"s":"a\"b\\c\nA","n":-2.5e2,"b":true,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":false}})",
      &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->find("s")->String, "a\"b\\c\nA");
  EXPECT_EQ(Doc->find("n")->Number, -250.0);
  EXPECT_TRUE(Doc->find("b")->Bool);
  EXPECT_TRUE(Doc->find("z")->isNull());
  ASSERT_EQ(Doc->find("arr")->Items.size(), 3u);
  EXPECT_EQ(Doc->find("arr")->Items[2].Number, 3.0);
  EXPECT_FALSE(Doc->find("obj")->find("k")->Bool);
  EXPECT_EQ(Doc->find("missing"), nullptr);
}

TEST(JsonLiteTest, RejectsMalformedDocuments) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"k\":}", "\"unterminated", "{\"a\":1} trailing",
        "nul", "\"bad \\q escape\""}) {
    std::string Error;
    EXPECT_FALSE(obs::parseJson(Bad, &Error).has_value())
        << "accepted malformed input: " << Bad;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(JsonLiteTest, EscapedStringsRoundTrip) {
  const std::string Nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  std::string Encoded;
  obs::appendJsonString(Encoded, Nasty);
  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(Encoded, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->String, Nasty);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CountersGaugesAndHistograms) {
  obs::MetricsRegistry Registry;
  Registry.counter("c").add();
  Registry.counter("c").add(4);
  EXPECT_EQ(Registry.counterValue("c"), 5);
  EXPECT_EQ(Registry.counterValue("unregistered"), 0);

  Registry.gauge("g").set(17);
  Registry.gauge("g").set(3);
  EXPECT_EQ(Registry.gaugeValue("g"), 3);

  obs::Histogram &H = Registry.histogram("h", {1.0, 2.0});
  H.observe(0.5);
  H.observe(1.0); // on the bound: counts as <= 1.0
  H.observe(1.5);
  H.observe(10.0);
  EXPECT_EQ(H.count(), 4);
  EXPECT_DOUBLE_EQ(H.sum(), 13.0);
  EXPECT_EQ(H.bucketCount(0), 2);
  EXPECT_EQ(H.bucketCount(1), 1);
  EXPECT_EQ(H.bucketCount(2), 1); // overflow
  EXPECT_EQ(H.bucketCount(99), 0);

  std::vector<std::string> Names = Registry.registeredNames();
  EXPECT_EQ(Names, (std::vector<std::string>{"c", "g", "h"}));

  Registry.reset();
  EXPECT_EQ(Registry.counterValue("c"), 0);
  EXPECT_EQ(H.count(), 0);
  EXPECT_DOUBLE_EQ(H.sum(), 0.0);
}

TEST(MetricsTest, ConcurrentCounterAndHistogramUpdatesAreExact) {
  obs::MetricsRegistry Registry;
  obs::Counter &C = Registry.counter("hits");
  obs::Histogram &H = Registry.histogram("h", {0.5});
  constexpr int NumThreads = 8;
  constexpr int PerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        C.add();
        H.observe(0.25);
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  EXPECT_EQ(C.value(), NumThreads * PerThread);
  EXPECT_EQ(H.count(), NumThreads * PerThread);
  // The CAS-loop double sum must not lose updates.
  EXPECT_DOUBLE_EQ(H.sum(), 0.25 * NumThreads * PerThread);
  EXPECT_EQ(H.bucketCount(0), NumThreads * PerThread);
}

TEST(MetricsTest, JsonExportParsesBackWithExactValues) {
  obs::MetricsRegistry Registry;
  Registry.counter("kernel_cache.hits").add(7);
  Registry.gauge("sweep.queue_depth").set(2);
  Registry.histogram("measure.run_seconds", {0.1, 1.0}).observe(0.05);

  std::string Error;
  std::optional<obs::JsonValue> Doc =
      obs::parseJson(Registry.toJson(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->find("counters")->find("kernel_cache.hits")->Number, 7.0);
  EXPECT_EQ(Doc->find("gauges")->find("sweep.queue_depth")->Number, 2.0);
  const obs::JsonValue *H =
      Doc->find("histograms")->find("measure.run_seconds");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->find("count")->Number, 1.0);
  ASSERT_EQ(H->find("buckets")->Items.size(), 3u);
  EXPECT_EQ(H->find("buckets")->Items[0].find("count")->Number, 1.0);
  EXPECT_EQ(H->find("buckets")->Items[2].find("le")->String, "+inf");
  EXPECT_EQ(Doc->find("spans"), nullptr)
      << "no spans section unless a recorder is passed";
}

TEST(MetricsTest, JsonExportIncludesSpanAggregatesWhenAsked) {
  TracingOn Guard;
  FakeClockTicks.store(0);
  obs::TraceRecorder::global().setClock(&fakeClock);
  { AN5D_TRACE_SPAN("phase.one"); }

  obs::MetricsRegistry Registry;
  std::string Error;
  std::optional<obs::JsonValue> Doc = obs::parseJson(
      Registry.toJson(&obs::TraceRecorder::global()), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const obs::JsonValue *Spans = Doc->find("spans");
  ASSERT_NE(Spans, nullptr);
  const obs::JsonValue *Phase = Spans->find("phase.one");
  ASSERT_NE(Phase, nullptr);
  EXPECT_EQ(Phase->find("count")->Number, 1.0);
  EXPECT_EQ(Phase->find("total_ms")->Number, 0.001); // one 1000ns tick
}

TEST(MetricsTest, FailureKindRenderersMatchTheGlossary) {
  EXPECT_STREQ(measureFailureKindLabel(MeasureFailureKind::None), "");
  EXPECT_STREQ(measureFailureKindLabel(MeasureFailureKind::BuildFailed),
               "build_failed");
  EXPECT_STREQ(measureFailureKindLabel(MeasureFailureKind::NeverBuilt),
               "never_built");
  EXPECT_STREQ(measureFailureKindLabel(MeasureFailureKind::RunRejected),
               "run_rejected");
  EXPECT_EQ(measureFailureMetricName(MeasureFailureKind::None), "");

  const std::vector<std::string> &Known = obs::knownMetricNames();
  EXPECT_TRUE(std::is_sorted(Known.begin(), Known.end()));
  for (MeasureFailureKind Kind :
       {MeasureFailureKind::BuildFailed, MeasureFailureKind::NeverBuilt,
        MeasureFailureKind::RunRejected})
    EXPECT_NE(std::find(Known.begin(), Known.end(),
                        measureFailureMetricName(Kind)),
              Known.end())
        << "glossary lacks " << measureFailureMetricName(Kind);
}

//===----------------------------------------------------------------------===//
// Metrics exactness against a scripted native tune
//===----------------------------------------------------------------------===//

TuneOptions nativeTuneOptions(const std::string &CacheDir) {
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 2;
  Options.Native.Repeats = 1;
  Options.Native.Runtime = fastBuildOptions(CacheDir);
  return Options;
}

long long sumOfFailureCounters(const obs::MetricsRegistry &Registry) {
  long long Sum = 0;
  for (MeasureFailureKind Kind :
       {MeasureFailureKind::BuildFailed, MeasureFailureKind::NeverBuilt,
        MeasureFailureKind::RunRejected})
    Sum += Registry.counterValue(measureFailureMetricName(Kind));
  return Sum;
}

TEST(MetricsTuneTest, ColdThenWarmCacheCountsExactly) {
  std::unique_ptr<StencilProgram> Program =
      makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  std::string CacheDir = freshCacheDir("tune-metrics");
  TuneOptions Options = nativeTuneOptions(CacheDir);
  ProblemSize Problem = nativeMeasurementProblem(Program->numDims());
  Problem.Extents = {96, 96};
  Problem.TimeSteps = 4;
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  Tuner T(GpuSpec::teslaV100());

  // Cold cache: every unique kernel compiles exactly once. A kernel bakes
  // in only the stencil, so the first candidate compiles and the second
  // loads it from the cache.
  Registry.reset();
  TuneOutcome Cold = T.tune(*Program, Problem, Options);
  ASSERT_TRUE(Cold.Feasible);
  ASSERT_EQ(Cold.TopByModel.size(), 2u);
  EXPECT_EQ(Cold.MeasurementFailures, 0u);
  EXPECT_EQ(Cold.FirstFailureKind, MeasureFailureKind::None);
  EXPECT_EQ(Registry.counterValue("kernel_cache.misses"), 1);
  EXPECT_EQ(Registry.counterValue("kernel_cache.hits"), 1);
  EXPECT_EQ(Registry.counterValue("tuner.tunes"), 1);
  EXPECT_EQ(Registry.counterValue("tuner.candidates_ranked"), 2);
  EXPECT_EQ(Registry.counterValue("sweep.candidates"), 2);
  // Both candidates run the stencil's one kernel library, so the sweep
  // warms it up once, before its first candidate's timed runs; every
  // candidate still gets its timed repeat.
  EXPECT_EQ(Registry.counterValue("measure.warmups"), 1);
  EXPECT_EQ(Registry.counterValue("measure.repeats"), 2);
  EXPECT_EQ(Registry.counterValue("tuner.analysis_rejections"),
            static_cast<long long>(Cold.AnalysisRejections));
  EXPECT_EQ(sumOfFailureCounters(Registry),
            static_cast<long long>(Cold.MeasurementFailures));

  // Warm rerun: the same kernel serves both candidates from the cache —
  // one hit per candidate, zero misses, and the measurement counters
  // repeat identically.
  Registry.reset();
  TuneOutcome Warm = T.tune(*Program, Problem, Options);
  ASSERT_TRUE(Warm.Feasible);
  EXPECT_EQ(Registry.counterValue("kernel_cache.hits"), 2);
  EXPECT_EQ(Registry.counterValue("kernel_cache.misses"), 0);
  EXPECT_EQ(Registry.counterValue("measure.warmups"), 1);
  // No assertion on Warm.Best vs Cold.Best: the tuner ranks on measured
  // wall-clock, so near-tied candidates may legitimately flip between runs.

  // Everything the tune registered is in the glossary (the drift guard
  // enforces the same over the an5dc export in CI).
  const std::vector<std::string> &Known = obs::knownMetricNames();
  for (const std::string &Name : Registry.registeredNames())
    EXPECT_NE(std::find(Known.begin(), Known.end(), Name), Known.end())
        << "unknown metric registered: " << Name;
}

//===----------------------------------------------------------------------===//
// The traced span tree of a native tune
//===----------------------------------------------------------------------===//

TEST(TracedTuneTest, EveryCandidateIsLoweredAndAnalyzedOnce) {
  // One static gate per candidate; the sweep adds no static stage.
  std::unique_ptr<StencilProgram> Program =
      makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TuneOptions Options = nativeTuneOptions(sharedCacheDir());
  ProblemSize Problem = nativeMeasurementProblem(2);
  Problem.Extents = {96, 96};
  Problem.TimeSteps = 4;
  TracingOn Guard;
  TuneOutcome Outcome =
      Tuner(GpuSpec::teslaV100()).tune(*Program, Problem, Options);
  ASSERT_TRUE(Outcome.Feasible) << Outcome.FirstFailureReason;

  std::map<std::string, obs::SpanAggregate> Spans =
      obs::TraceRecorder::global().aggregate();
  for (const char *Name :
       {"tune.candidate", "tune.lower", "tune.analyze", "measure.candidate"})
    EXPECT_EQ(Spans[Name].Count, Options.TopK) << Name;
  // Only the span tree README "Observability" documents.
  const std::set<std::string> Documented = {
      "analysis.pass", "cache.compile", "cache.get_or_build",
      "measure.candidate", "measure.repeat", "measure.warmup", "native.block",
      "native.run", "sweep.compile", "tune", "tune.analyze", "tune.candidate",
      "tune.lower", "tune.rank", "tune.sweep"};
  for (const auto &[Name, Aggregate] : Spans)
    EXPECT_EQ(Documented.count(Name), 1u) << "undocumented span: " << Name;
}

//===----------------------------------------------------------------------===//
// Traced native runs stay bit-exact
//===----------------------------------------------------------------------===//

TEST(TracedRunTest, ChunkedTracedRunMatchesReferenceBitwise) {
  std::unique_ptr<StencilProgram> Program =
      makeBenchmarkStencil("star2d1r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {12};
  Config.HS = 7;
  NativeExecutor Executor(*Program, lowerSchedule(*Program, Config),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  EXPECT_EQ(Executor.blockTime(), 2);

  // 9 steps with bT=2 forces the traced path to chunk (4 full temporal
  // blocks plus a remainder) and to land the result in Buffers[9 % 2].
  constexpr long long Steps = 9;
  std::vector<long long> Extents = {23, 19};
  Grid<float> Ref0(Extents, Program->radius()),
      Ref1(Extents, Program->radius());
  fillGridDeterministic(Ref0, 33);
  copyGrid(Ref0, Ref1);
  Grid<float> Nat0 = Ref0, Nat1 = Ref0;
  referenceRun<float>(*Program, {&Ref0, &Ref1}, Steps);

  TracingOn Guard;
  Executor.run<float>({&Nat0, &Nat1}, Steps);
  EXPECT_EQ(Ref1.raw(), Nat1.raw())
      << "per-temporal-block chunking changed the numbers";

  // The traced run left one whole-run span and one span per chunk.
  std::map<std::string, obs::SpanAggregate> Aggregates =
      obs::TraceRecorder::global().aggregate();
  ASSERT_EQ(Aggregates.count("native.run"), 1u);
  EXPECT_EQ(Aggregates["native.run"].Count, 1u);
  ASSERT_EQ(Aggregates.count("native.block"), 1u);
  EXPECT_EQ(Aggregates["native.block"].Count, 5u); // ceil(9 / bT=2)
}

//===----------------------------------------------------------------------===//
// The reference executor's span
//===----------------------------------------------------------------------===//

/// Runs referenceRun on \p Stencil over \p Extents for \p Steps steps
/// with tracing on and returns the attributes of its one span.
std::map<std::string, std::string>
tracedReferenceAttrs(const char *Stencil, const std::vector<long long> &Extents,
                     long long Steps) {
  std::unique_ptr<StencilProgram> Program =
      makeBenchmarkStencil(Stencil, ScalarType::Float);
  Grid<float> A(Extents, Program->radius()), B(Extents, Program->radius());
  fillGridDeterministic(A, 5);
  copyGrid(A, B);
  TracingOn Guard;
  referenceRun<float>(*Program, {&A, &B}, Steps);
  std::vector<obs::SpanRecord> Spans = obs::TraceRecorder::global().snapshot();
  if (Spans.size() != 1 || Spans[0].Name != "sim.reference") {
    ADD_FAILURE() << Stencil << ": expected one sim.reference span, got "
                  << Spans.size() << " spans";
    return {};
  }
  std::map<std::string, std::string> Attrs;
  for (const obs::SpanAttr &Attr : Spans[0].Attrs)
    Attrs[Attr.Key] = Attr.Value;
  return Attrs;
}

TEST(TracedReferenceTest, SpanReportsTheTeamThatRanTheSteps) {
#ifdef _OPENMP
  const std::string Pool = std::to_string(omp_get_max_threads());
#else
  const std::string Pool = "1";
#endif
  // 512^2 cells per step are past CompiledTape::ParallelCells.
  std::map<std::string, std::string> Large =
      tracedReferenceAttrs("j2d5pt", {512, 512}, 2);
  EXPECT_EQ(Large["steps"], "2");
  EXPECT_EQ(Large["cells"], std::to_string(512 * 512 * 2));
  EXPECT_EQ(Large["threads"], Pool);

  // Under the threshold, and one row: both stay on the calling thread.
  std::map<std::string, std::string> Small =
      tracedReferenceAttrs("j2d5pt", {64, 64}, 2);
  EXPECT_EQ(Small["cells"], std::to_string(64 * 64 * 2));
  EXPECT_EQ(Small["threads"], "1");
  std::map<std::string, std::string> OneRow =
      tracedReferenceAttrs("star1d1r", {65536}, 3);
  EXPECT_EQ(OneRow["cells"], std::to_string(65536 * 3));
  EXPECT_EQ(OneRow["threads"], "1");
}

} // namespace
