#ifndef PARDB_OBS_METRICS_H_
#define PARDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pardb::obs {

// Label dimensions attached to a metric instance, e.g. {{"shard","3"}}.
// Kept sorted by key by the registry so equal label sets compare equal.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing event count. Updates are single relaxed atomic
// increments — safe from any thread, no locks on the hot path.
class Counter {
 public:
  void Inc(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Point-in-time signed value (queue depths, high-water marks).
class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  // Raises the gauge to v if v is larger (high-water mark semantics).
  void SetMax(std::int64_t v);
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Copyable point-in-time view of a Histogram, and the unit of merging:
// per-shard snapshots with identical bounds add bucket-wise, so a merged
// snapshot is exactly the histogram of the pooled samples.
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;  // ascending inclusive upper bounds
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  // Nearest-rank quantile over the buckets, following the
  // core::CostDistributionOfCounts convention: the percentile-P value is the
  // P-th nearest-rank sample, here resolved to the inclusive upper bound of
  // the bucket containing rank ceil(count*P/100) (clamped to the observed
  // max, which is exact for the top of the distribution). 0 when empty.
  std::uint64_t Quantile(std::uint64_t p) const;

  // Same nearest-rank convention at per-mille resolution (p999 = 999):
  // rank ceil(count * pm / 1000). Quantile(p) == QuantilePerMille(p * 10).
  std::uint64_t QuantilePerMille(std::uint64_t pm) const;

  // Bucket-wise sum. Returns false (and leaves *this untouched) when the
  // bound vectors differ.
  bool MergeFrom(const HistogramSnapshot& other);
};

// Fixed-bucket latency histogram. Recording is lock-free: one relaxed
// atomic increment per bucket plus count/sum/max updates. Bucket bounds are
// immutable after construction.
class Histogram {
 public:
  // `bounds` must be strictly ascending; values above the last bound land
  // in an implicit overflow bucket (whose quantile reports the true max).
  explicit Histogram(std::vector<std::uint64_t> bounds = DefaultBounds());

  // Records `n` observations of `v`.
  void Record(std::uint64_t v, std::uint64_t n = 1);

  HistogramSnapshot Snapshot() const;

  // Powers of two from 1ns to ~137s — fine enough for sub-microsecond
  // lock operations and wide enough for whole-phase timings. Also serves
  // step-valued histograms (small integers sit on exact bounds).
  static std::vector<std::uint64_t> DefaultBounds();

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// One exported metric with its identity.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  LabelSet labels;
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  HistogramSnapshot hist;
};

// Value-semantic dump of a registry: what reports carry, what writers
// serialize, and what the sharded driver merges.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;  // sorted by (name, labels)

  // Combines `other` into *this: metrics with identical (name, labels,
  // kind) sum (counters/gauges add, histograms merge bucket-wise); new
  // identities are inserted in sorted position.
  void MergeFrom(const RegistrySnapshot& other);

  // Copy with label `key` removed from every metric; entries that collide
  // after the removal are summed. Used to fold per-shard metrics
  // ({"shard","k"}) into the cross-shard aggregate.
  RegistrySnapshot WithoutLabel(const std::string& key) const;

  const MetricSnapshot* Find(const std::string& name,
                             const LabelSet& labels = {}) const;

  // {"metrics":[{"name":...,"labels":{...},"type":...,...}]} with
  // histograms carrying count/sum/max/p50/p95/p99/p999 and the bucket table.
  std::string ToJson(int indent = 0) const;

  // Prometheus text exposition (counters, gauges, and histograms as
  // cumulative _bucket/_sum/_count series plus summary-style
  // {quantile="0.5"|"0.99"|"0.999"} lines so percentiles are grep-able on a
  // live scrape without bucket arithmetic).
  std::string ToPrometheus() const;
};

// Named metric store. Registration (GetX) takes a mutex and returns a
// stable pointer; the returned objects are updated lock-free. Metrics are
// identified by (name, labels); repeated GetX calls with the same identity
// return the same object. A name must keep one kind: a kind-mismatched
// lookup returns nullptr.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name, const LabelSet& labels = {},
                          std::vector<std::uint64_t> bounds = {});

  RegistrySnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    LabelSet labels;
    MetricSnapshot::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // keyed by name + rendered labels
};

// Canonical "name{k=v,...}" rendering shared by the registry key and the
// writers. Labels are sorted by key.
std::string MetricKey(const std::string& name, const LabelSet& labels);

}  // namespace pardb::obs

#endif  // PARDB_OBS_METRICS_H_
