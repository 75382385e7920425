#ifndef PARDB_PAR_SHARDED_DRIVER_H_
#define PARDB_PAR_SHARDED_DRIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/history.h"
#include "core/engine.h"
#include "core/trace.h"
#include "core/trace_export.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/serve/hub.h"
#include "obs/txnlife.h"
#include "par/xshard/coordinator.h"
#include "sim/workload.h"

namespace pardb::par {

// Sharded parallel execution: the first step from the paper's
// single-threaded model toward multi-core execution. A generated workload
// is partitioned by entity-footprint hash (dist::SiteOfEntity) into N
// independent core::Engine shards; each shard is a complete engine —
// store, lock manager, waits-for graph, rollback machinery — that stays
// single-threaded and deterministic under its own derived seed.
//
// The model matches §3.3's observation: conflicts confined to one site
// are cheap, and only cross-site transactions need coordination. Every
// run, whatever its shard count, is one epoch loop (DESIGN D12, D17): a
// single-threaded coordinate phase (admission, 2PC polling, union-of-
// forests merge) followed by one bounded quantum per shard on a
// work-stealing pool; once no shard-spanning transaction is in flight or
// left to admit, each shard runs its remaining epochs as one pool task
// with no barrier (DESIGN D19). A shard-spanning transaction splits into
// per-shard sub-transactions that really lock their slices on their home
// shards; global deadlocks are removed by distributed partial rollback,
// and serializability is a *global* property, checked over the merged
// commit log. No engine is ever touched by two threads and no locking is
// added to the engine itself.

// How shard-spanning transactions execute. kLocks is the only mode; the
// enumeration stays so callers that pin it keep compiling.
enum class XShardMode {
  // Genuine distributed execution: per-shard sub-transactions under one
  // global ω position, global cycles removed by distributed partial
  // rollback. With more than one shard it requires engine.handling ==
  // kDetection.
  kLocks,
};

struct ShardedOptions {
  std::uint32_t num_shards = 4;
  // Shard credited with cross-shard transactions in ShardResult::assigned
  // (must be < num_shards); their slices run on their home shards.
  std::uint32_t coordinator_shard = 0;
  XShardMode xshard = XShardMode::kLocks;
  // Epoch shape: engine steps per shard per epoch, union-merge cadence in
  // epochs, and the cap on globals concurrently in flight. All three are
  // part of the deterministic report's identity.
  std::uint64_t xshard_epoch_steps = 256;
  std::uint64_t xshard_merge_period = 1;
  std::uint32_t xshard_max_active_globals = 8;
  // Template for every shard's engine; engine.seed is overridden with
  // DeriveShardSeed(seed, shard).
  core::EngineOptions engine;
  sim::WorkloadOptions workload;
  // Fraction of generated transactions drawn from the full entity universe
  // (these typically span shards and land on the coordinator); the rest
  // draw their footprint from a single shard's entity pool. The *actual*
  // cross-shard fraction is measured by routing and reported.
  double cross_shard_fraction = 0.05;
  // Total multiprogramming level, split as evenly as possible over shards
  // (every shard gets at least 1).
  std::uint32_t concurrency = 16;
  std::uint64_t total_txns = 400;
  std::uint64_t max_steps_per_shard = 20'000'000;
  std::uint64_t seed = 1;
  // Worker threads; 0 means one per shard.
  std::size_t num_threads = 0;
  bool check_serializability = true;
  Value initial_value = 100;

  // Workload skew: when true, a shard-local transaction's home shard is
  // the home of an entity drawn Zipf(workload.zipf_theta)-distributed from
  // the full universe, so traffic concentrates on the shards that own the
  // hot keys (the hot-key skew regime work stealing targets). When false
  // (default), local transactions spread uniformly over populated shards.
  // zipf_theta = 0 makes both modes uniform.
  bool hot_shard_routing = false;

  // Telemetry. With `instrument`, every shard engine runs fully probed
  // against a private registry labeled {{"shard","k"}}; the snapshots land
  // in ShardedReport::metrics (per-shard) and merged_metrics (labels folded
  // out). Timings never enter ShardedReportToJson, which determinism tests
  // compare byte-for-byte.
  bool instrument = true;
  // Per-transaction lifecycle timelines (DESIGN D13): one TxnLifeBook per
  // shard engine, stamped on the shard's own thread, digested to the hub at
  // snapshot cadence. Drives the per-cause wasted-work ledger, the latency
  // component histograms and the /debug/txn endpoints. Off only for
  // overhead measurements.
  bool txnlife = true;
  // Decision journal (DESIGN D14): one DecisionJournal per shard engine,
  // recording every schedule-relevant decision plus an epoch checksum
  // chain at engine.journal_epoch_steps cadence, plus a coordinator journal
  // with a 2PC-epoch stamp per merge round. Off only for overhead
  // measurements.
  bool journal = true;
  // Non-empty: record with unbounded rings and write each shard's journal
  // binary to "<journal_out>.shard<k>.jrnl" and the coordinator's to
  // "<journal_out>.coord.jrnl" at the end — the `pardb journal` recording
  // mode.
  std::string journal_out;
  // Test hook: perturb every shard journal's state digest at this epoch
  // ordinal (~0 = off), simulating an ω-order drift for bisection tests.
  std::uint64_t journal_perturb_epoch = ~0ULL;
  // Retain each shard's full trace-event stream (for Chrome/JSONL export).
  bool collect_traces = false;
  // Keep deadlock forensic dumps, up to max_forensics_dumps per shard.
  bool collect_forensics = false;
  std::size_t max_forensics_dumps = 16;

  // Live introspection rendezvous (see obs::LiveHub; borrowed, must outlive
  // the run). When set and `instrument` is on, each shard's registry is
  // owned by the hub and registered before the pool starts, so an HTTP
  // server scraping the hub sees live counters while the run is in flight.
  // At every merge round (and once at the end) the driver publishes
  // waits-for snapshots, engine aggregates and pool metrics. In a free run
  // each shard task publishes its own snapshot, aggregates and digests at
  // merge cadence, but the pool metrics, the coordinator journal digest
  // and the global waits-for view update only when the free run ends — for
  // a shard-local run, at the end of the run. Shards feed
  // the per-shard step-time EWMAs behind pardb_shard_load_skew and route
  // deadlock dumps into the hub's ring. nullptr: no live introspection, no
  // extra work on the step loop.
  obs::LiveHub* hub = nullptr;
};

// Deterministic per-shard seed: shards must not share RNG streams, and the
// assignment must not depend on thread scheduling.
std::uint64_t DeriveShardSeed(std::uint64_t seed, std::uint32_t shard);

struct ShardResult {
  std::uint32_t shard = 0;
  std::uint64_t assigned = 0;  // transactions routed to this shard
  std::uint64_t committed = 0;
  bool completed = true;
  bool serializable = true;
  core::EngineMetrics metrics;
  core::CostDistribution rollback_costs;
  // Per-cause wasted-work ledger from the shard's lifecycle book (all zero
  // when ShardedOptions::txnlife is off). Excluded from ShardedReportToJson
  // — live visibility goes through pardb_wasted_steps_total{cause}.
  std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
  std::array<std::uint64_t, obs::kNumRollbackCauses> rollbacks_by_cause{};
  // Decision-journal epoch checksum chain and totals (empty/zero when
  // ShardedOptions::journal is off). Excluded from ShardedReportToJson —
  // the chain is what determinism tests compare across schedulers and
  // worker counts, never part of the byte-compared report.
  std::vector<std::uint64_t> journal_chain;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_dropped = 0;
};

// How the run was scheduled onto workers. Timing-dependent by nature, so
// it is excluded from ShardedReportToJson and ToString (which determinism
// tests byte-compare); it still lands in the metrics registry
// (pardb_steals_total, pardb_worker_utilization_permille).
struct SchedulerStats {
  std::size_t num_workers = 0;
  std::uint64_t steals = 0;   // quanta executed on a non-owning worker
  std::uint64_t quanta = 0;   // epochs x shards
  // busy/wall per worker, then averaged / min'd over workers.
  double mean_worker_utilization = 0.0;
  double min_worker_utilization = 0.0;
};

// Phase timings of the run. The wall-clock fields are excluded from
// ShardedReportToJson / ToString (byte-compared by the determinism tests).
struct AdmissionStats {
  double generate_seconds = 0.0;  // generation + routing sweep (wall)
  double execute_seconds = 0.0;   // epoch loop (wall)
  // Programs generated before any engine ran: the whole run, total_txns.
  std::uint64_t peak_materialized_programs = 0;
};

struct ShardedReport {
  std::uint32_t num_shards = 1;
  std::vector<ShardResult> shards;

  // Sums over shards (max for the per-transaction space peaks).
  core::EngineMetrics aggregate;
  // Over every shard's rollbacks (their cost tables added).
  core::CostDistribution rollback_costs;
  std::uint64_t committed = 0;
  bool completed = true;    // every shard finished within its step budget
  bool serializable = true;  // every shard's history is serializable

  // Routing analysis — the execution analogue of
  // DistReport::multi_site_fraction: share of transactions whose footprint
  // spans more than one shard (they serialize through the coordinator).
  std::uint64_t cross_shard_txns = 0;
  double cross_shard_fraction = 0.0;

  // Cross-shard execution (see xshard::Coordinator). `committed` above
  // counts whole transactions (a global transaction counts once, not once
  // per slice); per-shard ShardResult::committed still counts engine
  // commits, slices included.
  xshard::XShardStats xshard;
  // The coordinator journal's 2PC-epoch checksum chain (one link per merge
  // round, folding every shard's state digest). Excluded from
  // ShardedReportToJson like the per-shard chains.
  std::vector<std::uint64_t> coord_journal_chain;
  // Conflict-serializability of the *merged* committed projection across
  // shards (CheckShardedSerializability); computed whenever
  // check_serializability is on.
  bool global_serializable = true;

  double wasted_fraction = 0.0;
  double goodput = 0.0;

  // Summed per-cause wasted-work ledger over shards (see ShardResult).
  std::array<std::uint64_t, obs::kNumRollbackCauses> wasted_by_cause{};
  std::array<std::uint64_t, obs::kNumRollbackCauses> rollbacks_by_cause{};

  // Telemetry (populated per ShardedOptions::instrument/collect_*).
  // `metrics` carries every shard's registry snapshot side by side
  // (distinguished by the "shard" label); `merged_metrics` folds the shard
  // label out, summing counters and merging histograms bucket-wise.
  obs::RegistrySnapshot metrics;
  obs::RegistrySnapshot merged_metrics;
  // One event stream per shard, in shard order (empty without
  // collect_traces).
  std::vector<std::vector<core::TraceEvent>> shard_traces;
  // Cross-shard slice index for Chrome-trace flow arrows: every (global
  // seq, shard, local txn) slice the coordinator ever spawned. With
  // collect_traces only; empty otherwise.
  std::vector<core::GlobalSlice> flow_slices;
  // Deadlock dumps across shards, in shard order (empty without
  // collect_forensics).
  std::vector<obs::DeadlockDump> forensics;

  SchedulerStats scheduler;
  AdmissionStats admission;

  std::string ToString() const;
};

// Generates the workload, routes it, runs the epoch loop and aggregates.
// The report is bit-identical across repeated runs and worker counts with
// the same options (epoch content is a pure function of the options and
// each shard's deterministic state).
Result<ShardedReport> RunSharded(const ShardedOptions& options);

// Serializability verdicts over a sharded run's committed logs, as
// RunSharded computes them (DESIGN D21): `global` is one pass over every
// shard's log with each global's slices fused through `resolver`. A clean
// union implies clean shards, so shards[s] gets its own pass only when
// `global` fails.
struct SerializabilityVerdicts {
  bool global = true;
  std::vector<bool> shards;
};
SerializabilityVerdicts CheckShardedSerializability(
    const std::vector<const analysis::HistoryRecorder*>& shards,
    const xshard::SubResolver& resolver);

}  // namespace pardb::par

#endif  // PARDB_PAR_SHARDED_DRIVER_H_
