//===- Metrics.h - Process-global counters, gauges, histograms --*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One MetricsRegistry for the whole process, unifying the stats that used
/// to live in disconnected structs (KernelCacheStats, TuneOutcome,
/// MeasuredResult): kernel-cache hits/misses/evictions, analysis
/// rejections, per-kind measurement failures, measurement repeats/clamps,
/// sweep queue occupancy, compile-time histograms. Producers bump named
/// instruments; consumers (an5dc --metrics / --obs-summary, the metrics
/// exactness tests, tools/obs_guard) read one coherent snapshot.
///
/// Instruments are cheap enough to leave unconditionally on in the cold
/// paths that use them — a counter add is one relaxed atomic RMW; only
/// instrument lookup by name takes the registry mutex, so hot code
/// resolves its instrument once (or stays behind the tracing-enabled
/// check, see obs/Trace.h).
///
/// Metric names are dotted lowercase (`kernel_cache.hits`). The canonical
/// glossary lives in knownMetricNames(): tools/obs_guard fails when an
/// export contains a name outside it, so producers cannot silently drift
/// from the documented set (README "Observability" mirrors the list).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_OBS_METRICS_H
#define AN5D_OBS_METRICS_H

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace an5d {
namespace obs {

class TraceRecorder;

/// Monotonic event count.
class Counter {
public:
  void add(long long Delta = 1) {
    Value_.fetch_add(Delta, std::memory_order_relaxed);
  }
  long long value() const { return Value_.load(std::memory_order_relaxed); }
  void reset() { Value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<long long> Value_{0};
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
public:
  void set(long long Value) {
    Value_.store(Value, std::memory_order_relaxed);
  }
  long long value() const { return Value_.load(std::memory_order_relaxed); }
  void reset() { Value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<long long> Value_{0};
};

/// Fixed-bucket histogram of double observations. Bucket I counts
/// observations <= Bounds[I]; one overflow bucket catches the rest.
class Histogram {
public:
  explicit Histogram(std::vector<double> Bounds);

  void observe(double Value);

  const std::vector<double> &bounds() const { return Bounds; }
  /// Cumulative count for bucket \p I (<= bounds()[I]); I == size() is
  /// the overflow bucket.
  long long bucketCount(std::size_t I) const;
  long long count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const;
  void reset();

private:
  std::vector<double> Bounds;
  std::vector<std::atomic<long long>> Buckets; ///< Bounds.size() + 1
  std::atomic<long long> Count{0};
  std::atomic<long long> SumBits{0}; ///< bit-cast double, CAS-updated
};

/// The process-global named-instrument registry. Lookup creates on first
/// use and returns a stable reference (instruments are never removed), so
/// call sites may cache the reference.
class MetricsRegistry {
public:
  static MetricsRegistry &global();

  MetricsRegistry() = default;

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  /// \p Bounds applies on first creation only (must be sorted ascending).
  Histogram &histogram(const std::string &Name,
                       const std::vector<double> &Bounds);

  /// Snapshot value of a counter/gauge (0 when never registered) — for
  /// tests and the an5dc summary, without creating the instrument.
  long long counterValue(const std::string &Name) const;
  long long gaugeValue(const std::string &Name) const;

  /// Every registered instrument name, sorted.
  std::vector<std::string> registeredNames() const;

  /// Zeroes every instrument (registrations survive). Tests only.
  void reset();

  /// The metrics export: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} plus, when \p Spans is non-null, a "spans"
  /// object with per-name {count,total_ms,mean_ms,min_ms,max_ms}
  /// aggregates — the tuner phase-time breakdown BENCH_obs.json tracks.
  std::string toJson(const TraceRecorder *Spans = nullptr) const;

  /// Human-readable table of every non-zero instrument.
  std::string summaryTable() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// The canonical metric-name glossary. tools/obs_guard rejects exported
/// names outside this list; extend it (and the README glossary) when
/// adding an instrument.
const std::vector<std::string> &knownMetricNames();

//===----------------------------------------------------------------------===//
// Call-site conveniences over the global registry.
//===----------------------------------------------------------------------===//

inline void count(const std::string &Name, long long Delta = 1) {
  MetricsRegistry::global().counter(Name).add(Delta);
}

inline void gaugeSet(const std::string &Name, long long Value) {
  MetricsRegistry::global().gauge(Name).set(Value);
}

inline void observe(const std::string &Name, double Value,
                    const std::vector<double> &Bounds) {
  MetricsRegistry::global().histogram(Name, Bounds).observe(Value);
}

/// Shared bucket menus, so one metric keeps one shape everywhere.
const std::vector<double> &compileSecondsBuckets();
const std::vector<double> &runSecondsBuckets();

} // namespace obs
} // namespace an5d

#endif // AN5D_OBS_METRICS_H
