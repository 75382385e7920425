#ifndef PARDB_SIM_DRIVER_H_
#define PARDB_SIM_DRIVER_H_

#include <cstdint>
#include <string>

#include <array>

#include "core/engine.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/serve/hub.h"
#include "obs/txnlife.h"
#include "sim/workload.h"

namespace pardb::sim {

struct SimOptions {
  core::EngineOptions engine;
  WorkloadOptions workload;
  // Closed-loop multiprogramming level: this many transactions are live at
  // all times (a commit admits the next one), modeling the paper's rising
  // concurrency (§1).
  std::uint32_t concurrency = 8;
  std::uint64_t total_txns = 200;
  std::uint64_t max_steps = 50'000'000;
  std::uint64_t seed = 1;
  Value initial_value = 100;
  // Record the history and verify conflict-serializability at the end.
  bool check_serializability = true;

  // Observability hooks, all optional and borrowed (must outlive the run).
  // With `metrics` set, the engine runs fully probed and its end-of-run
  // aggregates are exported into the registry under pardb_* names.
  obs::MetricsRegistry* metrics = nullptr;
  obs::LabelSet metric_labels;
  core::TraceSink* trace = nullptr;
  obs::DeadlockDumpSink* forensics = nullptr;
  // Clock behind the phase timers; null = monotonic wall clock.
  const obs::Clock* clock = nullptr;
  // Live introspection rendezvous (borrowed, must outlive the run): the
  // loop publishes waits-for snapshots as shard 0 every
  // `hub_snapshot_period` steps (and once at the end), tracks preemption
  // lineage into `metrics` when set, and routes deadlock dumps into the
  // hub's ring alongside any `forensics` sink.
  obs::LiveHub* hub = nullptr;
  std::uint64_t hub_snapshot_period = 512;  // rounded up to a power of two
  // Per-transaction lifecycle timelines (DESIGN D13): stamped in the engine,
  // ledgered per rollback cause, digested to the hub at snapshot cadence.
  // Off only for overhead measurements — the report's per-cause ledger and
  // the /debug/txn endpoints are empty without it.
  bool txnlife = true;
  // Decision journal (DESIGN D14): every schedule-relevant decision logged
  // plus an epoch checksum chain at engine.journal_epoch_steps cadence.
  // Off only for overhead measurements.
  bool journal = true;
  // Non-empty: record with an unbounded ring and write the journal binary
  // to this path at the end (the `pardb journal` recording mode).
  std::string journal_out;
  // Test hook: perturb the state digest of this epoch ordinal (~0 = off),
  // simulating an ω-order drift for the bisection tests.
  std::uint64_t journal_perturb_epoch = ~0ULL;
};

struct SimReport {
  core::EngineMetrics metrics;
  // Per-rollback lost-progress percentiles, over every rollback.
  core::CostDistribution rollback_costs;
  std::uint64_t committed = 0;
  // False when max_steps ran out before total_txns committed. The paper
  // predicts this is possible under the unconstrained min-cost policy
  // (potentially infinite mutual preemption, Figure 2).
  bool completed = true;
  bool serializable = true;
  // wasted_ops / (ops_executed): fraction of executed work thrown away by
  // rollbacks — the paper's "loss of progress".
  double wasted_fraction = 0.0;
  // commits per executed op: throughput in the discrete-event model.
  double goodput = 0.0;
  double deadlocks_per_txn = 0.0;
  std::uint64_t max_preemptions_single_txn = 0;
  // High-water mark of programs generated but not yet admitted to the
  // engine. The closed loop generates lazily (WorkloadGenerator::Next at
  // each admission), so this is 1 — nothing is batch-materialized. Kept
  // out of ToString (golden-string compared); the CLI stats line shows it.
  std::uint64_t peak_materialized_programs = 0;
  // Wasted-work ledger from the lifecycle book: steps executed and then
  // rolled back, attributed to the decision that caused the loss, and the
  // rollback event count per cause. All zero when SimOptions::txnlife is
  // off. Kept out of ToString (golden-string compared); the partial-vs-
  // total bench reports these per policy.
  std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
  std::array<std::uint64_t, obs::kNumRollbackCauses> rollbacks_by_cause{};
  // Decision-journal epoch checksum chain (one value per stamped epoch)
  // and totals. Kept out of ToString (golden-string compared) — the chain
  // is what the determinism tests compare across schedulers and workers.
  std::vector<std::uint64_t> journal_chain;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_dropped = 0;

  std::string ToString() const;
};

// Runs a closed-loop simulation: `concurrency` transactions live at all
// times until `total_txns` committed. Deterministic per (options, seed).
Result<SimReport> RunSimulation(const SimOptions& options);

}  // namespace pardb::sim

#endif  // PARDB_SIM_DRIVER_H_
