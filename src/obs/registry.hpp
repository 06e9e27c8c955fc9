// Metrics registry: named counters, gauges, and exponential-bucket
// histograms shared by every layer of the search stack (DESIGN.md §10).
//
// Write fast path is lock-free: each thread owns a shard of plain atomic
// slots (relaxed increments on thread-local cache lines, no cross-thread
// contention), and Registry::snapshot() aggregates all shards on scrape —
// the Prometheus client-library model. Registration (first lookup of a
// metric name) takes the registry mutex; handles returned from it are
// trivially copyable and cheap to hold in hot objects.
//
// The registry is process-global on purpose: metrics are monotonic
// totals, and components that need per-instance readings (for example an
// executor's utilization) capture a baseline at construction and report
// the delta — see exec::SimulatedExecutor::utilization().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace agebo::obs {

enum class MetricKind { kCounter, kDCounter, kGauge, kHistogram };

/// Exponential bucket layout: bucket i spans (bound(i-1), bound(i)] with
/// bound(i) = min * growth^i; values above the last bound clamp into the
/// final bucket, values <= min land in bucket 0. The defaults cover
/// 100 us .. ~30 hours when observations are seconds.
struct HistogramSpec {
  double min = 1e-4;
  double growth = 2.0;
  std::size_t buckets = 40;
};

struct MetricInfo;  // internal; defined in registry.cpp

/// Monotonic integer counter (events, FLOPs, retries).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta) const;
  void inc() const { add(1); }
  /// Aggregated total across all thread shards (takes the registry lock).
  std::uint64_t total() const;

 private:
  friend class Registry;
  explicit Counter(const MetricInfo* info) : info_(info) {}
  const MetricInfo* info_ = nullptr;
};

/// Monotonic double counter (accumulated seconds, samples).
class DCounter {
 public:
  DCounter() = default;
  void add(double delta) const;
  double total() const;

 private:
  friend class Registry;
  explicit DCounter(const MetricInfo* info) : info_(info) {}
  const MetricInfo* info_ = nullptr;
};

/// Last-write-wins instantaneous value (utilization, best objective).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;
  double get() const;

 private:
  friend class Registry;
  explicit Gauge(const MetricInfo* info) : info_(info) {}
  const MetricInfo* info_ = nullptr;
};

/// Exponential-bucket histogram (latency distributions).
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const;

 private:
  friend class Registry;
  explicit Histogram(const MetricInfo* info) : info_(info) {}
  const MetricInfo* info_ = nullptr;
};

/// Observes the enclosing scope's duration, in seconds, into a latency
/// histogram — how ask/tell/mutate cost shows up in snapshots (p50/p99 per
/// call).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram h)
      : h_(h), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedLatency() {
    h_.observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0_)
                   .count());
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram h_;
  std::chrono::steady_clock::time_point t0_;
};

/// Aggregated histogram state in a Snapshot.
struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> upper_bounds;         ///< bound(i) per bucket
  std::vector<std::uint64_t> bucket_counts;
  double mean() const;
  /// Quantile estimate (q in [0, 1]) with linear interpolation inside the
  /// bucket; returns 0 when empty.
  double quantile(double q) const;
};

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/DCounter total or gauge value (histograms use `hist`).
  double value = 0.0;
  HistogramData hist;
};

/// Point-in-time aggregation of every registered metric, sorted by name.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;
  const MetricSnapshot* find(const std::string& name) const;
  /// `name,kind,field,value` rows — one row per scalar, histograms expand
  /// to count/sum/mean/p50/p90/p99 fields.
  std::string to_csv() const;
  std::string to_json() const;
};

class Registry {
 public:
  /// The process-wide registry every handle writes to.
  static Registry& global();

  /// Look up or create a metric. Re-requesting a name returns a handle to
  /// the same metric; requesting it with a different kind throws.
  Counter counter(const std::string& name);
  DCounter dcounter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, HistogramSpec spec = {});

  Snapshot snapshot() const;

  /// Zero every metric value (registrations and live handles stay valid)
  /// — test isolation and per-run resets.
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  struct Impl;  // internal (registry.cpp); public only for in-TU helpers

 private:
  Registry();
  ~Registry();
  Impl* impl_;
  friend class Counter;
  friend class DCounter;
  friend class Gauge;
  friend class Histogram;
};

/// FLOP accounting hook for the kernel layer: compiled to nothing when
/// observability is off so the GEMM hot path carries zero instrumentation
/// cost in -DAGEBO_OBS=OFF builds.
#ifdef AGEBO_OBS_DISABLED
inline void add_flops(std::uint64_t) {}
#else
void add_flops(std::uint64_t flops);
#endif

}  // namespace agebo::obs
