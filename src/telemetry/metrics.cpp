#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace trident::telemetry {

namespace {

[[nodiscard]] bool valid_metric_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) {
    return false;
  }
  return std::all_of(name.begin() + 1, name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  TRIDENT_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                      std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                          bounds_.end(),
                  "histogram bounds must be strictly ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard lock(mutex_);
  ++counts_[bucket];
  stats_.add(x);
  sum_ += x;
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard lock(mutex_);
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts = counts_;
  s.count = stats_.count();
  s.sum = sum_;
  s.mean = stats_.mean();
  s.stddev = stats_.stddev();
  s.min = stats_.min();
  s.max = stats_.max();
  return s;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  stats_ = RunningStats{};
  sum_ = 0.0;
}

double HistogramSnapshot::quantile(double q) const {
  TRIDENT_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Rank of the target observation (1-based, clamped into [1, count]).
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (rank > static_cast<double>(cumulative)) {
      continue;
    }
    // Bucket edges: the observed min/max tighten the outermost buckets,
    // and the +Inf bucket's upper edge is the observed max.
    double lo = i == 0 ? min : bounds[i - 1];
    double hi = i < bounds.size() ? bounds[i] : max;
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi < lo) {
      return lo;
    }
    const double frac =
        (rank - before) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * frac;
  }
  return max;  // unreachable when counts sum to count
}

std::vector<double> duration_buckets_seconds() {
  return {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
          1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0};
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) {
      return c.value;
    }
  }
  return 0;
}

double MetricsSnapshot::gauge_value(const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) {
      return g.value;
    }
  }
  return 0.0;
}

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked: instrumentation in thread-pool workers and other
  // statics may record during shutdown, after function-local statics in
  // other translation units were destroyed.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  TRIDENT_REQUIRE(valid_metric_name(name),
                  "invalid metric name '" + name + "'");
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot.second) {
    slot.first = help;
    slot.second = std::make_unique<Counter>();
  }
  return *slot.second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  TRIDENT_REQUIRE(valid_metric_name(name),
                  "invalid metric name '" + name + "'");
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot.second) {
    slot.first = help;
    slot.second = std::make_unique<Gauge>();
  }
  return *slot.second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  TRIDENT_REQUIRE(valid_metric_name(name),
                  "invalid metric name '" + name + "'");
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot.second) {
    slot.first = help;
    slot.second = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot.second;
}

MetricsRegistry::CollectorHandle::CollectorHandle(
    CollectorHandle&& other) noexcept
    : registry_(std::exchange(other.registry_, nullptr)),
      id_(std::exchange(other.id_, 0)) {}

MetricsRegistry::CollectorHandle& MetricsRegistry::CollectorHandle::operator=(
    CollectorHandle&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = std::exchange(other.registry_, nullptr);
    id_ = std::exchange(other.id_, 0);
  }
  return *this;
}

MetricsRegistry::CollectorHandle::~CollectorHandle() { release(); }

void MetricsRegistry::CollectorHandle::release() {
  if (registry_ != nullptr) {
    registry_->fold_collector(id_);
    registry_ = nullptr;
  }
}

MetricsRegistry::CollectorHandle MetricsRegistry::add_collector(
    Collector collect) {
  std::lock_guard lock(collectors_mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(collect));
  return CollectorHandle(this, id);
}

void MetricsRegistry::fold_collector(std::uint64_t id) {
  // Read, unregister and fold under one hold of the list lock, so a
  // snapshot sees the owner's books either live or folded — never both,
  // never neither.
  std::lock_guard lock(collectors_mutex_);
  const auto it = collectors_.find(id);
  const std::vector<CounterSample> last = it->second();
  collectors_.erase(it);
  for (const CounterSample& c : last) {
    counter(c.name, c.help).add(c.value);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard collect_lock(collectors_mutex_);
  MetricsSnapshot s;
  std::map<std::string, CounterSample> counters;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [name, entry] : counters_) {
      counters.emplace(name,
                       CounterSample{name, entry.first, entry.second->value()});
    }
    s.gauges.reserve(gauges_.size());
    for (const auto& [name, entry] : gauges_) {
      s.gauges.push_back({name, entry.first, entry.second->value()});
    }
    s.histograms.reserve(histograms_.size());
    for (const auto& [name, entry] : histograms_) {
      s.histograms.push_back({name, entry.first, entry.second->snapshot()});
    }
  }
  for (const auto& [id, collect] : collectors_) {
    for (CounterSample& c : collect()) {
      const auto [it, inserted] = counters.try_emplace(c.name, c);
      if (!inserted) {
        it->second.value += c.value;
      }
    }
  }
  s.counters.reserve(counters.size());
  for (auto& [name, sample] : counters) {
    s.counters.push_back(std::move(sample));
  }
  return s;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(mutex_);
  for (auto& [name, entry] : counters_) {
    entry.second->reset();
  }
  for (auto& [name, entry] : gauges_) {
    entry.second->reset();
  }
  for (auto& [name, entry] : histograms_) {
    entry.second->reset();
  }
}

}  // namespace trident::telemetry
