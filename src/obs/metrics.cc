#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

namespace pardb::obs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u0020";  // control chars never appear in metric names
    } else {
      out.push_back(c);
    }
  }
  return out;
}

LabelSet SortedLabels(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

bool SameIdentity(const MetricSnapshot& a, const MetricSnapshot& b) {
  return a.name == b.name && a.labels == b.labels && a.kind == b.kind;
}

bool IdentityLess(const MetricSnapshot& a, const MetricSnapshot& b) {
  if (a.name != b.name) return a.name < b.name;
  if (a.labels != b.labels) return a.labels < b.labels;
  return a.kind < b.kind;
}

void AddInto(MetricSnapshot& into, const MetricSnapshot& from) {
  into.counter += from.counter;
  into.gauge += from.gauge;
  if (into.kind == MetricSnapshot::Kind::kHistogram) {
    if (into.hist.bounds.empty()) {
      into.hist = from.hist;
    } else {
      into.hist.MergeFrom(from.hist);
    }
  }
}

const char* KindName(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

void Gauge::SetMax(std::int64_t v) {
  std::int64_t cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::DefaultBounds() {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(38);
  for (int i = 0; i <= 37; ++i) bounds.push_back(1ULL << i);
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::Record(std::uint64_t v, std::uint64_t n) {
  if (n == 0) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v * n, std::memory_order_relaxed);
  std::uint64_t cur = max_.load(std::memory_order_relaxed);
  while (cur < v &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t HistogramSnapshot::Quantile(std::uint64_t p) const {
  return QuantilePerMille(p * 10);
}

std::uint64_t HistogramSnapshot::QuantilePerMille(std::uint64_t pm) const {
  if (count == 0) return 0;
  // Nearest rank, as in core::CostDistributionOfCounts: the per-mille-PM
  // sample has rank ceil(count * PM / 1000), clamped to [1, count].
  const std::uint64_t rank =
      std::min<std::uint64_t>(count, std::max<std::uint64_t>(
                                         1, (count * pm + 999) / 1000));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= rank) {
      // The overflow bucket has no upper bound; the observed max is the
      // tightest truthful answer. For regular buckets, the max also tightens
      // the bound when the rank falls in the top bucket.
      if (i >= bounds.size()) return max;
      return std::min(bounds[i], max);
    }
  }
  return max;
}

bool HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (bounds != other.bounds || counts.size() != other.counts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  return true;
}

std::string MetricKey(const std::string& name, const LabelSet& labels) {
  std::ostringstream os;
  os << name << "{";
  bool first = true;
  for (const auto& [k, v] : SortedLabels(labels)) {
    if (!first) os << ",";
    first = false;
    os << k << "=\"" << v << "\"";
  }
  os << "}";
  return os.str();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[MetricKey(name, labels)];
  if (e.counter == nullptr) {
    if (e.gauge != nullptr || e.hist != nullptr) return nullptr;
    e.name = name;
    e.labels = SortedLabels(labels);
    e.kind = MetricSnapshot::Kind::kCounter;
    e.counter = std::make_unique<Counter>();
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[MetricKey(name, labels)];
  if (e.gauge == nullptr) {
    if (e.counter != nullptr || e.hist != nullptr) return nullptr;
    e.name = name;
    e.labels = SortedLabels(labels);
    e.kind = MetricSnapshot::Kind::kGauge;
    e.gauge = std::make_unique<Gauge>();
  }
  return e.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const LabelSet& labels,
                                         std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[MetricKey(name, labels)];
  if (e.hist == nullptr) {
    if (e.counter != nullptr || e.gauge != nullptr) return nullptr;
    e.name = name;
    e.labels = SortedLabels(labels);
    e.kind = MetricSnapshot::Kind::kHistogram;
    e.hist = std::make_unique<Histogram>(
        bounds.empty() ? Histogram::DefaultBounds() : std::move(bounds));
  }
  return e.hist.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot out;
  out.metrics.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    (void)key;
    MetricSnapshot m;
    m.name = e.name;
    m.labels = e.labels;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricSnapshot::Kind::kCounter:
        m.counter = e.counter->value();
        break;
      case MetricSnapshot::Kind::kGauge:
        m.gauge = e.gauge->value();
        break;
      case MetricSnapshot::Kind::kHistogram:
        m.hist = e.hist->Snapshot();
        break;
    }
    out.metrics.push_back(std::move(m));
  }
  std::sort(out.metrics.begin(), out.metrics.end(), IdentityLess);
  return out;
}

void RegistrySnapshot::MergeFrom(const RegistrySnapshot& other) {
  for (const MetricSnapshot& m : other.metrics) {
    auto it = std::lower_bound(metrics.begin(), metrics.end(), m,
                               IdentityLess);
    if (it != metrics.end() && SameIdentity(*it, m)) {
      AddInto(*it, m);
    } else {
      metrics.insert(it, m);
    }
  }
}

RegistrySnapshot RegistrySnapshot::WithoutLabel(const std::string& key) const {
  RegistrySnapshot out;
  for (const MetricSnapshot& m : metrics) {
    MetricSnapshot stripped = m;
    stripped.labels.erase(
        std::remove_if(stripped.labels.begin(), stripped.labels.end(),
                       [&key](const auto& kv) { return kv.first == key; }),
        stripped.labels.end());
    RegistrySnapshot one;
    one.metrics.push_back(std::move(stripped));
    out.MergeFrom(one);
  }
  return out;
}

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name,
                                             const LabelSet& labels) const {
  const LabelSet sorted = SortedLabels(labels);
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name && m.labels == sorted) return &m;
  }
  return nullptr;
}

std::string RegistrySnapshot::ToJson(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : metrics) {
    os << (first ? "" : ",") << "\n" << pad << " {\"name\":\""
       << JsonEscape(m.name) << "\",\"labels\":{";
    bool lf = true;
    for (const auto& [k, v] : m.labels) {
      os << (lf ? "" : ",") << "\"" << JsonEscape(k) << "\":\""
         << JsonEscape(v) << "\"";
      lf = false;
    }
    os << "},\"type\":\"" << KindName(m.kind) << "\",";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << "\"value\":" << m.counter;
        break;
      case MetricSnapshot::Kind::kGauge:
        os << "\"value\":" << m.gauge;
        break;
      case MetricSnapshot::Kind::kHistogram: {
        os << "\"count\":" << m.hist.count << ",\"sum\":" << m.hist.sum
           << ",\"max\":" << m.hist.max << ",\"p50\":" << m.hist.Quantile(50)
           << ",\"p95\":" << m.hist.Quantile(95)
           << ",\"p99\":" << m.hist.Quantile(99)
           << ",\"p999\":" << m.hist.QuantilePerMille(999)
           << ",\"buckets\":[";
        // Only non-empty buckets: the bound table is long and mostly zeros.
        bool bf = true;
        for (std::size_t i = 0; i < m.hist.counts.size(); ++i) {
          if (m.hist.counts[i] == 0) continue;
          os << (bf ? "" : ",") << "[";
          if (i < m.hist.bounds.size()) {
            os << m.hist.bounds[i];
          } else {
            os << "null";  // overflow bucket
          }
          os << "," << m.hist.counts[i] << "]";
          bf = false;
        }
        os << "]";
        break;
      }
    }
    os << "}";
    first = false;
  }
  os << "\n" << pad << "]}";
  return os.str();
}

std::string RegistrySnapshot::ToPrometheus() const {
  std::ostringstream os;
  std::string last_typed;
  auto Labels = [](const LabelSet& labels, const std::string& extra_key = "",
                   const std::string& extra_val = "") {
    std::ostringstream ls;
    bool first = true;
    for (const auto& [k, v] : labels) {
      ls << (first ? "{" : ",") << k << "=\"" << v << "\"";
      first = false;
    }
    if (!extra_key.empty()) {
      ls << (first ? "{" : ",") << extra_key << "=\"" << extra_val << "\"";
      first = false;
    }
    if (!first) ls << "}";
    return ls.str();
  };
  for (const MetricSnapshot& m : metrics) {
    if (m.name != last_typed) {
      os << "# TYPE " << m.name << " " << KindName(m.kind) << "\n";
      last_typed = m.name;
    }
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << m.name << Labels(m.labels) << " " << m.counter << "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        os << m.name << Labels(m.labels) << " " << m.gauge << "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m.hist.counts.size(); ++i) {
          cum += m.hist.counts[i];
          // Skip interior zero-delta buckets but always write the last.
          if (m.hist.counts[i] == 0 && i + 1 < m.hist.counts.size()) continue;
          const std::string le =
              i < m.hist.bounds.size() ? std::to_string(m.hist.bounds[i])
                                       : "+Inf";
          os << m.name << "_bucket" << Labels(m.labels, "le", le) << " "
             << cum << "\n";
        }
        os << m.name << "_sum" << Labels(m.labels) << " " << m.hist.sum
           << "\n";
        os << m.name << "_count" << Labels(m.labels) << " " << m.hist.count
           << "\n";
        os << m.name << Labels(m.labels, "quantile", "0.5") << " "
           << m.hist.Quantile(50) << "\n";
        os << m.name << Labels(m.labels, "quantile", "0.99") << " "
           << m.hist.Quantile(99) << "\n";
        os << m.name << Labels(m.labels, "quantile", "0.999") << " "
           << m.hist.QuantilePerMille(999) << "\n";
        break;
      }
    }
  }
  return os.str();
}

}  // namespace pardb::obs
