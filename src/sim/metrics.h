// Lightweight metrics for simulated components.
//
// Counters count events; Histograms record latency-like values in
// log-bucketed bins (HDR-style: 2x range per major bucket, 32 linear minor
// buckets, ~3% relative error) so percentiles over millions of samples are
// O(1) memory. A MetricRegistry names and owns them for end-of-run dumps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace pacon::sim {

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// A signed level that moves both ways (queue depth, backlog, latch state).
/// Tracks the last written value plus the min/max watermarks seen since the
/// last reset, so end-of-run dumps capture peak pressure, not just the
/// (usually drained-to-zero) final level.
class Gauge {
 public:
  void set(std::int64_t value) {
    value_ = value;
    note();
  }
  void add(std::int64_t delta) {
    value_ += delta;
    note();
  }
  std::int64_t value() const { return value_; }
  std::int64_t min() const { return updates_ ? min_ : 0; }
  std::int64_t max() const { return updates_ ? max_ : 0; }
  std::uint64_t updates() const { return updates_; }
  void reset() { *this = Gauge{}; }

 private:
  void note() {
    min_ = value_ < min_ ? value_ : min_;
    max_ = value_ > max_ ? value_ : max_;
    ++updates_;
  }

  std::int64_t value_ = 0;
  std::int64_t min_ = INT64_MAX;
  std::int64_t max_ = INT64_MIN;
  std::uint64_t updates_ = 0;
};

class Histogram {
 public:
  static constexpr int kMajorBuckets = 44;  // covers [0, 2^43) ~ 2.4 simulated hours in ns
  static constexpr int kMinorBuckets = 32;

  void record(std::uint64_t value);
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }

  /// Value at quantile q in [0, 1], accurate to the bucket resolution.
  std::uint64_t percentile(double q) const;

 private:
  static int bucket_index(std::uint64_t value);
  static std::uint64_t bucket_floor(int index);

  std::uint64_t buckets_[kMajorBuckets * kMinorBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

class MetricScope;

/// Owns named metrics. Lookup creates on first use so call sites stay terse.
class MetricRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);
  Gauge& gauge(std::string_view name);

  const std::map<std::string, std::unique_ptr<Counter>, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>, std::less<>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>, std::less<>>& gauges() const {
    return gauges_;
  }

  /// A view that prefixes every metric name with `prefix` + '.'; used to
  /// carve per-region / per-node namespaces out of one registry.
  MetricScope scoped(std::string_view prefix);

  /// Zeroes every metric in place. Handles resolved before the call stay
  /// valid: the metric objects are reset, not destroyed.
  void reset_all();

  /// Multi-line human-readable dump of all metrics: fixed-width columns,
  /// sorted by name, so two dumps diff line-by-line.
  std::string dump() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

/// Prefix view over a MetricRegistry. Cheap to copy; resolves names eagerly
/// so per-op paths hold plain Counter&/Gauge& handles, never re-prefixing.
class MetricScope {
 public:
  MetricScope(MetricRegistry& registry, std::string_view prefix)
      : registry_(&registry), prefix_(prefix) {}

  Counter& counter(std::string_view name) { return registry_->counter(full(name)); }
  Histogram& histogram(std::string_view name) { return registry_->histogram(full(name)); }
  Gauge& gauge(std::string_view name) { return registry_->gauge(full(name)); }

  /// Nested scope: scoped("region").scoped("n0") names "region.n0.*".
  MetricScope scoped(std::string_view sub) const { return {*registry_, full(sub)}; }

  const std::string& prefix() const { return prefix_; }

 private:
  std::string full(std::string_view name) const {
    std::string s;
    s.reserve(prefix_.size() + 1 + name.size());
    s.append(prefix_).append(1, '.').append(name);
    return s;
  }

  MetricRegistry* registry_;
  std::string prefix_;
};

inline MetricScope MetricRegistry::scoped(std::string_view prefix) { return {*this, prefix}; }

}  // namespace pacon::sim
