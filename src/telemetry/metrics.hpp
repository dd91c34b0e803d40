// Thread-safe metrics registry: counters, gauges and fixed-bucket
// histograms with Welford running statistics (common/stats.hpp).
//
// A counter has one source of truth.  When an owner already keeps the
// count in its own books (the Server's atomics, a fleet's tenant accounts,
// the learning pipeline, the chaos injection log), the registry COLLECTS
// it: the owner registers one callback that reports its counters by name,
// and snapshot() reads them.
//
//   collector_ = telemetry::MetricsRegistry::global().add_collector([this] {
//     return std::vector<telemetry::CounterSample>{
//         {"trident_serving_batches_total", "micro-batches cut and served",
//          batches_.load(std::memory_order_relaxed)}};
//   });
//
// The handle is the owner's last-declared member, so it is destroyed first
// while the books it reads still exist; its destructor folds the owner's
// last reading into the registry's own counter of each name, so process
// totals outlive the owner.  Collection costs nothing until a snapshot is
// taken and ignores telemetry::enabled().
//
// Any other counter — one no owner keeps — is PUSHED, as are gauges and
// histograms:
//
//   namespace {
//   struct Metrics {
//     telemetry::Counter& symbols =
//         telemetry::MetricsRegistry::global().counter(
//             "trident_photonic_symbols_total", "optical symbols streamed");
//   };
//   Metrics& metrics() { static Metrics m; return m; }
//   }  // namespace
//   ...
//   if (telemetry::enabled()) {
//     metrics().symbols.add(batch);
//   }
//
// Registration (name lookup, allocation) happens once per site behind a
// function-local static; the recording calls are a relaxed fetch_add
// (Counter/Gauge) or a short uncontended mutex (Histogram).  Instruments
// never record on their own — call sites guard with telemetry::enabled(),
// so the disabled path costs one branch on a relaxed atomic.
//
// References returned by the registry are stable for the process lifetime
// (the registry is an intentionally leaked singleton, so worker threads
// may record, and owners fold, during static destruction without ordering
// hazards).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace trident::telemetry {

/// Monotonic event count (Prometheus counter semantics).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written double value (queue depth, accuracy, energy so far, …).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time view of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;         ///< finite upper bounds, ascending
  std::vector<std::uint64_t> counts;  ///< per-bucket; counts.back() = +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;  ///< NaN when count == 0 (RunningStats convention)
  double max = 0.0;  ///< NaN when count == 0

  /// Quantile estimate from the bucket counts (q in [0, 1]): linear
  /// interpolation inside the containing bucket, with the exact observed
  /// min/max as the outer edges (so estimates never leave the observed
  /// range, and the +Inf bucket stays bounded).  NaN when count == 0.
  /// This is what puts p50/p99 SLO numbers straight into exported
  /// snapshots without post-processing.
  [[nodiscard]] double quantile(double q) const;
};

/// Fixed-bucket histogram plus single-pass Welford stats.  Observation
/// takes a mutex; every instrumented site has its own histogram so the
/// lock is effectively uncontended.
class Histogram {
 public:
  /// `bounds` are the finite bucket upper limits, strictly ascending; an
  /// implicit +Inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

 private:
  mutable std::mutex mutex_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 buckets
  RunningStats stats_;
  double sum_ = 0.0;
};

/// Default bucket ladder for kernel / task durations in seconds
/// (1 µs … 10 s, decade-and-a-half steps).
[[nodiscard]] std::vector<double> duration_buckets_seconds();

struct CounterSample {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string help;
  HistogramSnapshot data;
};

/// Consistent point-in-time view of the whole registry, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Counter value by exact name; 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  /// Gauge value by exact name; 0.0 when absent.
  [[nodiscard]] double gauge_value(const std::string& name) const;
};

/// Thread-safe name → instrument registry.  Names follow the Prometheus
/// grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`; re-registering a name returns the
/// same instrument (the first help string and bucket layout win).
class MetricsRegistry {
 public:
  /// Reports the counters an owner keeps in its own books, by name.  Runs
  /// on the snapshotting thread: it must only read relaxed atomics or take
  /// a short owner lock, never block on a long one.
  using Collector = std::function<std::vector<CounterSample>()>;

  /// Keeps one collector registered.  Move-only; destroying it takes the
  /// collector-list lock (so it waits out an in-flight snapshot), reads the
  /// owner one last time and adds that reading into the registry's own
  /// counters.  The owner holds it as its last-declared member.
  class CollectorHandle {
   public:
    CollectorHandle() = default;
    CollectorHandle(CollectorHandle&& other) noexcept;
    CollectorHandle& operator=(CollectorHandle&& other) noexcept;
    ~CollectorHandle();

   private:
    friend class MetricsRegistry;
    CollectorHandle(MetricsRegistry* registry, std::uint64_t id)
        : registry_(registry), id_(id) {}
    void release();

    MetricsRegistry* registry_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /// The process-wide registry every instrumentation site uses.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Registers `collect` until the returned handle is destroyed.
  [[nodiscard]] CollectorHandle add_collector(Collector collect);

  /// Every counter name reports the registry's own Counter plus the sum of
  /// every live collector's value of that name.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes the registry's own instruments, the folds of dead owners
  /// included (registrations and the references handed out stay valid).
  /// A live owner's books are left alone: callers reset before they build
  /// the owners they measure.  For tests and per-phase benches.
  void reset_values();

 private:
  /// Removes collector `id`, folding its last reading into counter().
  void fold_collector(std::uint64_t id);

  /// Taken before mutex_ whenever both are held; collectors run under this
  /// lock alone, because an owner may register instruments (mutex_) while
  /// holding the very lock its collector takes.
  mutable std::mutex collectors_mutex_;
  std::map<std::uint64_t, Collector> collectors_;
  std::uint64_t next_collector_id_ = 1;

  mutable std::mutex mutex_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Counter>>>
      counters_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Gauge>>>
      gauges_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Histogram>>>
      histograms_;
};

}  // namespace trident::telemetry
