#ifndef PARDB_CORE_METRICS_EXPORT_H_
#define PARDB_CORE_METRICS_EXPORT_H_

#include "core/engine.h"
#include "obs/metrics.h"

namespace pardb::core {

// Mirrors an engine's end-of-run aggregates into `registry` under the
// canonical pardb_* names (counters for EngineMetrics, gauges for space
// high-water marks and live transactions, and the per-rollback cost table
// as the step-valued histogram pardb_rollback_cost_ops). Call once per
// engine per registry — values are added, not overwritten, so a repeated
// call double-counts.
void ExportEngineMetrics(const Engine& engine, obs::MetricsRegistry* registry,
                         const obs::LabelSet& labels = {});

// Repeatable variant for live scraping: remembers what it already exported
// and advances each counter by the delta since the previous Export, so a
// shard can publish its engine aggregates at every hub-snapshot boundary
// and the totals stay exact (no double counting). The rollback-cost table
// is exported as per-cost deltas the same way. Gauges are overwritten as
// in the one-shot export. One exporter per (engine, registry, labels) triple.
class EngineMetricsExporter {
 public:
  // Exports the delta since the previous call (everything, on the first).
  void Export(const Engine& engine, obs::MetricsRegistry* registry,
              const obs::LabelSet& labels = {});

 private:
  EngineMetrics last_;
  std::vector<std::uint64_t> costs_exported_;  // cost -> rollbacks exported
};

}  // namespace pardb::core

#endif  // PARDB_CORE_METRICS_EXPORT_H_
