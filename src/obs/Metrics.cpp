//===- Metrics.cpp - Process-global counters, gauges, histograms -------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/JsonLite.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace an5d {
namespace obs {

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<double> BucketBounds)
    : Bounds(std::move(BucketBounds)),
      Buckets(Bounds.size() + 1) {
  for (std::atomic<long long> &Bucket : Buckets)
    Bucket.store(0, std::memory_order_relaxed);
}

namespace {

long long doubleToBits(double Value) {
  long long Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "bit-cast size mismatch");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

double bitsToDouble(long long Bits) {
  double Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

} // namespace

void Histogram::observe(double Value) {
  std::size_t Bucket = 0;
  while (Bucket < Bounds.size() && Value > Bounds[Bucket])
    ++Bucket;
  Buckets[Bucket].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  // C++17 has no atomic<double>::fetch_add: CAS on the bit pattern.
  long long Expected = SumBits.load(std::memory_order_relaxed);
  while (!SumBits.compare_exchange_weak(
      Expected, doubleToBits(bitsToDouble(Expected) + Value),
      std::memory_order_relaxed))
    ;
}

long long Histogram::bucketCount(std::size_t I) const {
  return I < Buckets.size() ? Buckets[I].load(std::memory_order_relaxed) : 0;
}

double Histogram::sum() const {
  return bitsToDouble(SumBits.load(std::memory_order_relaxed));
}

void Histogram::reset() {
  for (std::atomic<long long> &Bucket : Buckets)
    Bucket.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  SumBits.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Instance;
  return Instance;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      const std::vector<double> &Bounds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(Bounds);
  return *Slot;
}

long long MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second->value();
}

long long MetricsRegistry::gaugeValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? 0 : It->second->value();
}

std::vector<std::string> MetricsRegistry::registeredNames() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Names;
  for (const auto &Entry : Counters)
    Names.push_back(Entry.first);
  for (const auto &Entry : Gauges)
    Names.push_back(Entry.first);
  for (const auto &Entry : Histograms)
    Names.push_back(Entry.first);
  std::sort(Names.begin(), Names.end());
  return Names;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Entry : Counters)
    Entry.second->reset();
  for (auto &Entry : Gauges)
    Entry.second->reset();
  for (auto &Entry : Histograms)
    Entry.second->reset();
}

std::string MetricsRegistry::toJson(const TraceRecorder *Spans) const {
  char Buffer[96];
  std::string Out = "{\n\"counters\":{";
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    bool First = true;
    for (const auto &Entry : Counters) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\n";
      appendJsonString(Out, Entry.first);
      std::snprintf(Buffer, sizeof(Buffer), ":%lld",
                    Entry.second->value());
      Out += Buffer;
    }
    Out += "\n},\n\"gauges\":{";
    First = true;
    for (const auto &Entry : Gauges) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\n";
      appendJsonString(Out, Entry.first);
      std::snprintf(Buffer, sizeof(Buffer), ":%lld",
                    Entry.second->value());
      Out += Buffer;
    }
    Out += "\n},\n\"histograms\":{";
    First = true;
    for (const auto &Entry : Histograms) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\n";
      appendJsonString(Out, Entry.first);
      const Histogram &H = *Entry.second;
      std::snprintf(Buffer, sizeof(Buffer), ":{\"count\":%lld,\"sum\":%.9g",
                    H.count(), H.sum());
      Out += Buffer;
      Out += ",\"buckets\":[";
      for (std::size_t I = 0; I <= H.bounds().size(); ++I) {
        if (I > 0)
          Out += ",";
        if (I < H.bounds().size())
          std::snprintf(Buffer, sizeof(Buffer),
                        "{\"le\":%.9g,\"count\":%lld}", H.bounds()[I],
                        H.bucketCount(I));
        else
          std::snprintf(Buffer, sizeof(Buffer),
                        "{\"le\":\"+inf\",\"count\":%lld}",
                        H.bucketCount(I));
        Out += Buffer;
      }
      Out += "]}";
    }
    Out += "\n}";
  }

  if (Spans) {
    Out += ",\n\"spans\":{";
    bool First = true;
    for (const auto &Entry : Spans->aggregate()) {
      if (!First)
        Out += ",";
      First = false;
      Out += "\n";
      appendJsonString(Out, Entry.first);
      const SpanAggregate &Agg = Entry.second;
      std::snprintf(Buffer, sizeof(Buffer),
                    ":{\"count\":%zu,\"total_ms\":%.3f,\"mean_ms\":%.3f",
                    Agg.Count, static_cast<double>(Agg.TotalNs) / 1e6,
                    static_cast<double>(Agg.TotalNs) / 1e6 /
                        static_cast<double>(Agg.Count));
      Out += Buffer;
      std::snprintf(Buffer, sizeof(Buffer),
                    ",\"min_ms\":%.3f,\"max_ms\":%.3f}",
                    static_cast<double>(Agg.MinNs) / 1e6,
                    static_cast<double>(Agg.MaxNs) / 1e6);
      Out += Buffer;
    }
    Out += "\n}";
  }
  Out += "\n}\n";
  return Out;
}

std::string MetricsRegistry::summaryTable() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::size_t NameWidth = 6;
  for (const auto &Entry : Counters)
    if (Entry.second->value() != 0)
      NameWidth = std::max(NameWidth, Entry.first.size());
  for (const auto &Entry : Gauges)
    if (Entry.second->value() != 0)
      NameWidth = std::max(NameWidth, Entry.first.size());
  for (const auto &Entry : Histograms)
    if (Entry.second->count() != 0)
      NameWidth = std::max(NameWidth, Entry.first.size());

  char Line[256];
  std::string Out;
  for (const auto &Entry : Counters) {
    if (Entry.second->value() == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "%-*s %12lld\n",
                  static_cast<int>(NameWidth), Entry.first.c_str(),
                  Entry.second->value());
    Out += Line;
  }
  for (const auto &Entry : Gauges) {
    if (Entry.second->value() == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "%-*s %12lld (gauge)\n",
                  static_cast<int>(NameWidth), Entry.first.c_str(),
                  Entry.second->value());
    Out += Line;
  }
  for (const auto &Entry : Histograms) {
    if (Entry.second->count() == 0)
      continue;
    std::snprintf(Line, sizeof(Line),
                  "%-*s %12lld observations, sum %.3f\n",
                  static_cast<int>(NameWidth), Entry.first.c_str(),
                  Entry.second->count(), Entry.second->sum());
    Out += Line;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Glossary and shared bucket menus
//===----------------------------------------------------------------------===//

const std::vector<std::string> &knownMetricNames() {
  // Keep sorted; tools/obs_guard fails any export using a name outside
  // this list, and the README "Observability" glossary mirrors it.
  static const std::vector<std::string> Names = {
      "analysis.findings",            // findings emitted by analysis passes
      "analysis.pass_runs",           // analysis pass executions
      "kernel_cache.compile_seconds", // histogram: successful JIT builds
      "kernel_cache.evictions",       // LRU size-cap removals
      "kernel_cache.failures",        // failed kernel builds
      "kernel_cache.hits",            // artifact served without compiling
      "kernel_cache.misses",          // artifact compiled on demand
      "measure.clamps",               // timings raised to the 100ns floor
      "measure.failures.build_failed",      // kernel generation/compile/load
      "measure.failures.never_built",       // compile stage never produced it
      "measure.failures.run_rejected",      // an5d_run returned non-zero
      "measure.repeats",              // timed kernel repetitions
      "measure.run_seconds",          // histogram: timed kernel runs
      "measure.warmups",              // untimed warmup runs
      "native.runs",                  // traced an5d_run invocations
      "sweep.candidates",             // measured-sweep items dispatched
      "sweep.queue_depth",            // gauge: compile items still queued
      "tuner.analysis_rejections",    // candidates the pass pipeline refused
      "tuner.candidates_ranked",      // model-ranked candidates per tune
      "tuner.tunes",                  // tuning flows started
  };
  return Names;
}

const std::vector<double> &compileSecondsBuckets() {
  static const std::vector<double> Bounds = {0.1, 0.25, 0.5, 1, 2,
                                             5,   10,   30};
  return Bounds;
}

const std::vector<double> &runSecondsBuckets() {
  static const std::vector<double> Bounds = {1e-4, 1e-3, 1e-2, 0.1,
                                             0.5,  1,    5};
  return Bounds;
}

} // namespace obs
} // namespace an5d
