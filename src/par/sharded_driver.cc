#include "par/sharded_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/global_history.h"
#include "analysis/history.h"
#include "common/random.h"
#include "core/metrics_export.h"
#include "dist/distributed.h"
#include "obs/lineage.h"
#include "obs/metric_names.h"
#include "par/router.h"
#include "par/stealing_pool.h"
#include "par/xshard/global_graph.h"
#include "storage/entity_store.h"

namespace pardb::par {

namespace {

// splitmix64 finalizer: decorrelates the per-shard engine/workload streams
// from the top-level seed and from each other.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

core::EngineMetrics SumMetrics(const std::vector<ShardResult>& shards) {
  core::EngineMetrics m;
  for (const ShardResult& s : shards) {
    const core::EngineMetrics& a = s.metrics;
    m.steps += a.steps;
    m.ops_executed += a.ops_executed;
    m.commits += a.commits;
    m.lock_waits += a.lock_waits;
    m.deadlocks += a.deadlocks;
    m.rollbacks += a.rollbacks;
    m.partial_rollbacks += a.partial_rollbacks;
    m.total_rollbacks += a.total_rollbacks;
    m.preemptions += a.preemptions;
    m.wounds += a.wounds;
    m.deaths += a.deaths;
    m.timeouts += a.timeouts;
    m.wasted_ops += a.wasted_ops;
    m.ideal_wasted_ops += a.ideal_wasted_ops;
    m.cycles_found += a.cycles_found;
    m.periodic_scans += a.periodic_scans;
    m.max_entity_copies = std::max(m.max_entity_copies, a.max_entity_copies);
    m.max_var_copies = std::max(m.max_var_copies, a.max_var_copies);
  }
  return m;
}

void SumLedgers(ShardedReport& report) {
  for (const ShardResult& s : report.shards) {
    for (std::size_t c = 0; c < obs::kNumRollbackCauses; ++c) {
      report.wasted_by_cause[c] += s.wasted_by_cause[c];
      report.rollbacks_by_cause[c] += s.rollbacks_by_cause[c];
    }
  }
}

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

// Per-shard state that persists across epochs: the engine and everything
// wired into it. Each epoch runs at most one quantum task per shard (a
// free-run phase, one task for all of the shard's remaining epochs) and
// the coordinating thread waits for the pool between phases, so although
// tasks migrate between workers, this struct is only ever touched by one
// thread at a time, and Wait() orders each phase's writes before the
// next's reads.
struct ShardExec {
  ShardExec(std::size_t max_dumps, obs::DeadlockDumpSink* hub_sink,
            obs::DecisionJournal::Options journal_options)
      : journal(journal_options),
        forensics(max_dumps),
        fanout(&forensics, hub_sink) {}

  storage::EntityStore store;
  analysis::HistoryRecorder recorder;
  obs::MetricsRegistry local_registry;
  obs::EngineProbe probe;
  obs::LineageTracker lineage;
  obs::TxnLifeBook txnlife;
  obs::DecisionJournal journal;
  core::VectorTrace trace;
  obs::CollectingDeadlockSink forensics;
  obs::FanOutDeadlockSink fanout;
  std::unique_ptr<core::Engine> engine;
  obs::MetricsRegistry* registry = nullptr;  // hub-owned or &local_registry
  obs::Histogram* step_ns = nullptr;
  obs::LabelSet labels;
  // Delta exporter behind the interim (merge-cadence) and final engine
  // aggregate publications — repeated exports never double-count.
  core::EngineMetricsExporter exporter;

  std::uint64_t steps = 0;  // engine steps consumed (budget account)
};

struct ShardRun {
  // The shard's routed local programs, materialized up front.
  std::vector<txn::Program> programs;
  std::uint64_t next_local = 0;  // programs spawned so far
  std::uint32_t concurrency = 1;
  Status status = Status::OK();
  ShardResult result;
  obs::RegistrySnapshot metrics;  // labeled {{"shard","k"}}
  std::vector<core::TraceEvent> trace_events;
  std::vector<obs::DeadlockDump> forensics;
  // Hub-owned registry when live introspection is on (so /metrics outlives
  // the run); null otherwise — the shard then uses its exec's local
  // registry.
  obs::MetricsRegistry* registry = nullptr;
  // Hub-owned ring sink, installed alongside any collecting sink.
  obs::DeadlockDumpSink* hub_sink = nullptr;
  std::unique_ptr<ShardExec> exec;
};

// Builds the shard's engine and telemetry wiring. `num_globals` bounds the
// slices the shard can host.
void InitShardExec(const ShardedOptions& options, std::uint32_t shard,
                   std::size_t num_globals, ShardRun& run) {
  run.result.shard = shard;
  // Recording mode (journal_out set) keeps every record so written files
  // are complete; otherwise a bounded ring with counted evictions.
  run.exec = std::make_unique<ShardExec>(
      options.max_forensics_dumps, run.hub_sink,
      obs::DecisionJournal::Options{
          options.journal_out.empty() ? std::size_t{65536} : std::size_t{0}});
  ShardExec& ex = *run.exec;
  ex.store.CreateMany(options.workload.num_entities, options.initial_value);
  core::EngineOptions eopt = options.engine;
  eopt.seed = DeriveShardSeed(options.seed, shard);
  ex.engine = std::make_unique<core::Engine>(
      &ex.store, eopt, options.check_serializability ? &ex.recorder : nullptr);
  core::Engine& engine = *ex.engine;
  // Pre-size the txn-indexed tables with the shard's own upper bound (its
  // routed programs plus at most one slice per global) so admission never
  // pays a reallocation mid-flight.
  engine.ReserveTxns(run.programs.size() + num_globals);

  // Per-shard telemetry. Without a hub the registry is private to this
  // shard and merged after the pool joins; with one it is hub-owned and
  // scraped live (its counters are lock-free atomics, so the serving thread
  // reads it safely while a worker writes).
  ex.labels = obs::LabelSet{{obs::kShardLabel, std::to_string(shard)}};
  const obs::LabelSet& labels = ex.labels;
  ex.registry = run.registry != nullptr ? run.registry : &ex.local_registry;
  if (options.instrument) {
    ex.probe = obs::MakeEngineProbe(ex.registry, labels);
    engine.set_probe(&ex.probe);
    ex.step_ns = ex.registry->GetHistogram(obs::kShardStepNs, labels);
    ex.lineage.AttachMetrics(ex.registry, labels);
    engine.set_lineage(&ex.lineage);
  }
  if (options.txnlife) {
    if (options.instrument) ex.txnlife.AttachMetrics(ex.registry, labels);
    engine.set_txnlife(&ex.txnlife);
  }
  if (options.journal) {
    ex.journal.set_perturb_epoch_for_test(options.journal_perturb_epoch);
    if (options.instrument) ex.journal.AttachMetrics(ex.registry, labels);
    engine.set_journal(&ex.journal);
  }
  if (options.collect_traces) engine.set_trace(&ex.trace);
  if (options.collect_forensics && run.hub_sink != nullptr) {
    engine.set_forensics(&ex.fanout);
  } else if (options.collect_forensics) {
    engine.set_forensics(&ex.forensics);
  } else if (run.hub_sink != nullptr) {
    engine.set_forensics(run.hub_sink);
  }
}

// Finalizes the shard's slice of the report once it committed everything
// (or exhausted its step budget). Its serializability verdict comes from
// CheckShardedSerializability.
void FinishShard(const ShardedOptions& options, std::uint32_t shard,
                 ShardRun& run, bool completed) {
  ShardExec& ex = *run.exec;
  core::Engine& engine = *ex.engine;
  run.result.committed = engine.metrics().commits;
  run.result.completed = completed;
  run.result.metrics = engine.metrics();
  run.result.rollback_costs = engine.RollbackCostDistribution();
  if (options.txnlife) {
    run.result.wasted_by_cause = ex.txnlife.wasted_by_cause();
    run.result.rollbacks_by_cause = ex.txnlife.rollbacks_by_cause();
    if (options.hub != nullptr) {
      options.hub->PublishTxnLife(ex.txnlife.Digest(shard));
    }
  }
  if (options.journal) {
    run.result.journal_chain = ex.journal.ChainValues();
    run.result.journal_records = ex.journal.total_records();
    run.result.journal_dropped = ex.journal.dropped_records();
    if (options.hub != nullptr) {
      options.hub->PublishJournal(ex.journal.Digest(shard));
    }
    if (!options.journal_out.empty() && run.status.ok()) {
      run.status = ex.journal.WriteFile(
          options.journal_out + ".shard" + std::to_string(shard) + ".jrnl",
          shard, options.seed);
    }
  }
  if (options.hub != nullptr) {
    // Final snapshot: the post-run server shows the end state (normally an
    // empty graph — every transaction committed).
    obs::WaitsForSnapshot snap = engine.SnapshotWaitsFor();
    snap.shard = shard;
    options.hub->PublishSnapshot(std::move(snap));
  }
  if (options.instrument) {
    const obs::LabelSet& labels = ex.labels;
    // Final delta on top of any interim (merge-cadence) exports: the
    // registry ends at exactly the engine's aggregates.
    ex.exporter.Export(engine, ex.registry, labels);
    ex.registry->GetCounter(obs::kTraceDroppedTotal, labels)
        ->Inc(core::TraceDropped(options.collect_traces ? &ex.trace : nullptr));
    run.metrics = ex.registry->Snapshot();
  }
  if (options.collect_traces) run.trace_events = ex.trace.events();
  if (options.collect_forensics) run.forensics = ex.forensics.dumps();
}

// Live pool metrics: per-worker utilization gauges (busy/wall, in
// permille) and the steal counter, advanced by the delta since the last
// publication so repeated publications never double-count. Touched only
// by the coordinating thread.
struct PoolMetrics {
  PoolMetrics(obs::MetricsRegistry* registry, const StealingPool& pool)
      : steals(registry->GetCounter(obs::kStealsTotal)) {
    for (std::size_t w = 0; w < pool.num_threads(); ++w) {
      utilization.push_back(
          registry->GetGauge(obs::kWorkerUtilizationPermille,
                             {{obs::kWorkerLabel, std::to_string(w)}}));
    }
  }

  void Publish(const StealingPool& pool) {
    const std::uint64_t now = pool.steals();
    steals->Inc(now - steals_published);
    steals_published = now;
    const std::uint64_t up = pool.uptime_nanos();
    for (std::size_t w = 0; w < utilization.size(); ++w) {
      utilization[w]->Set(
          static_cast<std::int64_t>(pool.busy_nanos(w) / (up / 1000 + 1)));
    }
  }

  obs::Counter* steals;
  std::vector<obs::Gauge*> utilization;
  std::uint64_t steals_published = 0;
};

// Local admission: tops the shard's level up from its queue and returns
// the number spawned. `sub_commits` (the slice commits the coordinator has
// observed on this shard) is subtracted out so slices never consume local
// slots.
Result<std::uint64_t> AdmitLocals(ShardRun& run, std::uint64_t sub_commits) {
  core::Engine& engine = *run.exec->engine;
  std::uint64_t live_locals =
      run.next_local - (engine.metrics().commits - sub_commits);
  std::uint64_t spawned = 0;
  while (run.next_local < run.programs.size() &&
         live_locals < run.concurrency) {
    auto id = engine.Spawn(std::move(run.programs[run.next_local]));
    if (!id.ok()) return id.status();
    ++run.next_local;
    ++live_locals;
    ++spawned;
  }
  return spawned;
}

// True when the step phase skips the shard: out of step budget, or (after
// admission) nothing live — which with a non-empty queue cannot happen,
// so it means drained.
bool ShardIdle(const ShardedOptions& options, const ShardRun& run) {
  return run.exec->steps >= options.max_steps_per_shard ||
         run.exec->engine->live_txn_count() == 0;
}

// One bounded quantum on the shard, on a pool worker; returns the steps
// taken. Running dry is routine with globals in flight (a shard whose
// transactions all wait on another shard has nothing to do this epoch);
// the driver's zero-progress counter catches real stalls.
Result<std::uint64_t> StepShard(const ShardedOptions& options,
                                std::uint32_t shard, ShardRun& run,
                                std::uint64_t epoch_steps) {
  ShardExec& ex = *run.exec;
  const std::uint64_t budget =
      std::min(epoch_steps, options.max_steps_per_shard - ex.steps);
  const std::uint64_t t0 = NowNanos();
  auto q = ex.engine->StepQuantum(budget, /*stop_after_commit=*/false);
  if (!q.ok()) return q.status();
  const std::uint64_t steps = q.value().steps;
  ex.steps += steps;
  // One clock pair per quantum feeds pardb_shard_step_ns and the hub's
  // skew EWMAs (wall clock: metrics only, never the deterministic report).
  obs::LiveHub* hub = options.hub;
  if (steps > 0 && (hub != nullptr || ex.step_ns != nullptr)) {
    const std::uint64_t per_step = (NowNanos() - t0) / steps;
    if (ex.step_ns != nullptr) ex.step_ns->Record(per_step);
    if (hub != nullptr) hub->RecordShardStep(shard, per_step);
  }
  return steps;
}

// Merge-cadence hub publication of one shard: its waits-for snapshot, the
// engine aggregates (the exporter advances by deltas, so /metrics
// quantiles are live during the run and the final export stays exact) and
// its txnlife and journal digests. Runs wherever the shard is quiescent:
// the coordinate phase, or the shard's own free-run task.
void PublishShard(const ShardedOptions& options, std::uint32_t shard,
                  ShardRun& run) {
  ShardExec& ex = *run.exec;
  obs::WaitsForSnapshot snap = ex.engine->SnapshotWaitsFor();
  snap.shard = shard;
  options.hub->PublishSnapshot(std::move(snap));
  if (options.instrument) {
    ex.exporter.Export(*ex.engine, ex.registry, ex.labels);
  }
  if (options.txnlife) options.hub->PublishTxnLife(ex.txnlife.Digest(shard));
  if (options.journal) options.hub->PublishJournal(ex.journal.Digest(shard));
}

// What one shard did in a free-run phase (DESIGN D19), per epoch from the
// phase's first epoch through `end`, the epoch whose step phase left it
// idle or stalled, or whose admission or quantum failed. Past `end` the
// shard is frozen: it admits and steps nothing and keeps its last digest.
struct FreeRunLog {
  enum class Failure { kNone, kAdmit, kStep };
  std::uint64_t end = 0;
  Failure failure = Failure::kNone;     // what failed at `end`, if anything
  std::vector<std::uint64_t> progress;  // local spawns + engine steps
  std::vector<std::uint64_t> digests;   // StateDigest after admission
};

// Every shard's free-run log, read back by the coordinator's bookkeeping.
struct FreeRun {
  std::uint64_t start = 0;
  std::vector<FreeRunLog> shards;
  // The earliest epoch any task failed in. The replay stops there, so a
  // task past it stops too: its log already covers every epoch the replay
  // reads.
  std::atomic<std::uint64_t> first_failure{
      std::numeric_limits<std::uint64_t>::max()};

  bool Running(std::uint32_t s, std::uint64_t epoch) const {
    return epoch < shards[s].end;
  }
  bool FailedAt(std::uint32_t s, std::uint64_t epoch,
                FreeRunLog::Failure failure) const {
    return epoch == shards[s].end && shards[s].failure == failure;
  }
  std::uint64_t Progress(std::uint32_t s, std::uint64_t epoch) const {
    return epoch <= shards[s].end ? shards[s].progress[epoch - start] : 0;
  }
  std::uint64_t Digest(std::uint32_t s, std::uint64_t epoch) const {
    return shards[s].digests[std::min(epoch, shards[s].end) - start];
  }
};

// A free-run task: the shard's own share of every epoch from the phase's
// start on — the step phase of the start epoch (whose coordinate phase the
// coordinator ran), then per epoch local admission, the digest the
// coordinator's 2PC stamp folds, hub publication at merge cadence, and one
// quantum. With no global in flight nothing outside the shard touches it,
// so this sequence is exactly what the barrier epochs would run. A quantum
// of zero steps ends the task: the shard is idle, or stalled for good (no
// global, backoff or hold can wake it). A failure ends it too, logged at
// its epoch so the replay reports it where the barrier loop would have.
Status RunFreeShard(const ShardedOptions& options, std::uint32_t shard,
                    ShardRun& run, std::uint64_t sub_commits,
                    std::uint64_t epoch_steps, std::uint64_t merge_period,
                    FreeRun& free_run) {
  FreeRunLog& log = free_run.shards[shard];
  for (std::uint64_t e = free_run.start;; ++e) {
    auto Fail = [&](FreeRunLog::Failure failure, Status status) {
      log.end = e;
      log.failure = failure;
      std::uint64_t first = free_run.first_failure.load();
      while (e < first &&
             !free_run.first_failure.compare_exchange_weak(first, e)) {
      }
      return status;
    };
    if (e > free_run.first_failure.load(std::memory_order_relaxed)) {
      log.end = e;  // never reached by the replay
      return Status::OK();
    }
    std::uint64_t admitted = 0;
    if (e > free_run.start) {
      auto spawned = AdmitLocals(run, sub_commits);
      if (!spawned.ok()) {
        return Fail(FreeRunLog::Failure::kAdmit, spawned.status());
      }
      admitted = spawned.value();
      if (options.hub != nullptr && e % merge_period == 0) {
        PublishShard(options, shard, run);
      }
    }
    log.digests.push_back(options.journal ? run.exec->engine->StateDigest()
                                          : 0);
    std::uint64_t steps = 0;
    if (!ShardIdle(options, run)) {
      auto stepped = StepShard(options, shard, run, epoch_steps);
      if (!stepped.ok()) {
        return Fail(FreeRunLog::Failure::kStep, stepped.status());
      }
      steps = stepped.value();
    }
    log.progress.push_back(admitted + steps);
    if (steps == 0) {
      log.end = e;
      return Status::OK();
    }
  }
}

// Phase 1: the deterministic generation + routing sweep — seeded
// generators, routing draws and emission order are a pure function of the
// options. Local transactions draw from one shard's entity pool; with
// probability cross_shard_fraction a transaction draws from the full
// universe. The authoritative routing decision is always the footprint
// hash: local programs land in their shard's queue, spanning programs in
// `globals` (in generation order — their ω order).
Status GenerateAndRoute(const ShardedOptions& options,
                        std::vector<ShardRun>& runs,
                        std::vector<txn::Program>& globals,
                        std::uint64_t* cross_shard_txns,
                        std::vector<std::uint64_t>* routed) {
  const auto n = static_cast<std::uint32_t>(runs.size());
  auto universes = ShardEntityUniverses(options.workload.num_entities, n);
  std::vector<std::uint32_t> populated;
  std::vector<std::unique_ptr<sim::WorkloadGenerator>> local(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (universes[s].empty()) continue;
    sim::WorkloadOptions w = options.workload;
    w.entity_universe = universes[s];
    local[s] = std::make_unique<sim::WorkloadGenerator>(
        w, DeriveShardSeed(options.seed, 0x10000u + s));
    populated.push_back(s);
  }
  sim::WorkloadGenerator global(options.workload,
                                DeriveShardSeed(options.seed, 0x20000u));
  Rng route_rng(DeriveShardSeed(options.seed, 0x30000u));
  // Hot-shard routing: home a local transaction where a global
  // Zipf-distributed entity draw lives, so load follows the hot keys'
  // placement instead of spreading uniformly.
  ZipfianGenerator home_zipf(options.workload.num_entities,
                             options.workload.zipf_theta);
  for (std::uint64_t t = 0; t < options.total_txns; ++t) {
    const bool want_cross = populated.empty() ||
                            route_rng.Bernoulli(options.cross_shard_fraction);
    sim::WorkloadGenerator* gen = &global;
    if (!want_cross) {
      std::uint32_t home = 0;
      if (options.hot_shard_routing) {
        home = dist::SiteOfEntity(EntityId(home_zipf.Next(route_rng)), n);
        if (local[home] == nullptr) {
          home = populated[route_rng.Uniform(populated.size())];
        }
      } else {
        home = populated[route_rng.Uniform(populated.size())];
      }
      gen = local[home].get();
    }
    auto program = gen->Next();
    if (!program.ok()) return program.status();
    const Route route =
        RouteProgram(program.value(), n, options.coordinator_shard, t);
    if (route.cross_shard) ++*cross_shard_txns;
    ++(*routed)[route.shard];
    if (route.cross_shard) {
      globals.push_back(std::move(program).value());
    } else {
      runs[route.shard].programs.push_back(std::move(program).value());
    }
  }
  return Status::OK();
}

// Publishes the union-of-forests view for /debug/waits-for?scope=global:
// global transactions appear under their global sequence number, purely
// local transactions under a shard-tagged id (bit 63 set, shard in bits
// 48..62 — the xshard::LocalNode encoding).
void PublishGlobalWaitsFor(obs::LiveHub* hub, const xshard::Coordinator& coord,
                           const std::vector<core::Engine*>& engines,
                           std::uint64_t epoch) {
  std::vector<const graph::Digraph*> graphs;
  graphs.reserve(engines.size());
  for (const core::Engine* e : engines) graphs.push_back(&e->waits_for());
  const xshard::MergedGraph merged = xshard::MergeWaitsFor(graphs, coord);
  obs::WaitsForSnapshot snap;
  snap.shard = 0;  // scope=global; the shard field is not meaningful here
  snap.step = epoch;
  snap.commits = coord.stats().global_commits;
  std::map<graph::VertexId, bool> waits;  // vertex -> has an incoming wait
  for (const xshard::MergedEdge& e : merged.edges) {
    snap.arcs.push_back(obs::WaitsForArc{TxnId(e.to), TxnId(e.from), e.entity});
    waits.try_emplace(e.from, false);
    waits[e.to] = true;
  }
  for (const auto& [vertex, waiting] : waits) {
    obs::TxnSnapshot txn;
    txn.txn = TxnId(vertex);
    txn.entry = xshard::IsGlobalNode(vertex) ? vertex : 0;
    txn.status = waiting ? "waiting" : "ready";
    snap.txns.push_back(std::move(txn));
  }
  snap.acyclic = merged.graph.IsAcyclic();
  snap.forest = merged.graph.IsForest();
  hub->PublishGlobalSnapshot(std::move(snap));
}

}  // namespace

std::uint64_t DeriveShardSeed(std::uint64_t seed, std::uint32_t shard) {
  return Mix(seed ^ Mix(0x5eed0000ULL + shard));
}

std::string ShardedReport::ToString() const {
  std::ostringstream os;
  os << "shards=" << num_shards << " committed=" << committed
     << (completed ? "" : " (INCOMPLETE)")
     << " cross_shard=" << cross_shard_txns
     << " (frac=" << cross_shard_fraction << ")"
     << " deadlocks=" << aggregate.deadlocks
     << " rollbacks=" << aggregate.rollbacks
     << " wasted=" << aggregate.wasted_ops
     << " wasted_frac=" << wasted_fraction << " goodput=" << goodput
     << " serializable=" << (serializable ? "yes" : "NO");
  return os.str();
}

// The one execution loop (DESIGN D12, D17, D19): epochs of a single-
// threaded coordinate phase (2PC polling, admission, union merge +
// distributed partial rollback) followed by one parallel quantum per
// shard — or, once no global is in flight or left to admit, one free-run
// task per shard whose logs the loop's remaining epochs replay. Epoch
// content is a pure function of the options and each shard's
// deterministic state, so the report is bit-identical across runs and
// worker counts.
Result<ShardedReport> RunSharded(const ShardedOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.coordinator_shard >= options.num_shards) {
    return Status::InvalidArgument("coordinator_shard out of range");
  }
  if (options.workload.num_entities == 0) {
    return Status::InvalidArgument("workload needs at least one entity");
  }
  // Distributed partial rollback rides on the detection machinery (the
  // union merge extends it across shards); the other handling modes have
  // no notion of an externally chosen victim. A lone shard has no globals,
  // so the merge never picks a victim and any handling mode works.
  if (options.num_shards > 1 &&
      options.engine.handling != core::DeadlockHandling::kDetection) {
    return Status::InvalidArgument(
        "more than one shard requires engine.handling == kDetection");
  }
  const std::uint32_t n = options.num_shards;
  std::vector<ShardRun> runs(n);
  ShardedReport report;
  report.num_shards = n;

  const std::uint32_t base = options.concurrency / n;
  const std::uint32_t rem = options.concurrency % n;
  for (std::uint32_t s = 0; s < n; ++s) {
    runs[s].concurrency = std::max<std::uint32_t>(1, base + (s < rem ? 1 : 0));
  }

  obs::MetricsRegistry sched_local;
  obs::MetricsRegistry* sched_registry = nullptr;
  if (options.hub != nullptr && options.instrument) {
    for (std::uint32_t s = 0; s < n; ++s) {
      runs[s].registry = options.hub->AddOwnedRegistry(
          std::make_unique<obs::MetricsRegistry>());
    }
    sched_registry = options.hub->AddOwnedRegistry(
        std::make_unique<obs::MetricsRegistry>());
  } else if (options.instrument) {
    sched_registry = &sched_local;
  }
  if (options.hub != nullptr) {
    for (std::uint32_t s = 0; s < n; ++s) {
      runs[s].hub_sink = options.hub->MakeDeadlockSink(s);
    }
    options.hub->SetPhase(obs::RunPhase::kGenerating);
  }

  // Phase 1: generation + routing.
  std::vector<std::uint64_t> routed(n, 0);
  std::uint64_t cross_txns = 0;
  std::vector<txn::Program> globals;
  const std::uint64_t g0 = NowNanos();
  Status gen =
      GenerateAndRoute(options, runs, globals, &cross_txns, &routed);
  if (!gen.ok()) return gen;
  report.admission.generate_seconds = Seconds(NowNanos() - g0);
  report.admission.peak_materialized_programs = options.total_txns;
  report.cross_shard_txns = cross_txns;
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kRunning);

  // Shard engines, built up front on this thread (hub registration is not
  // safe once the pool runs).
  for (std::uint32_t s = 0; s < n; ++s) {
    InitShardExec(options, s, globals.size(), runs[s]);
  }
  std::vector<core::Engine*> engines;
  engines.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    engines.push_back(runs[s].exec->engine.get());
  }

  // Coordinator decision journal: global admits, lock-point releases,
  // retires, global cycles and distributed-rollback victims, plus one
  // kTwoPC checksum stamp per merge round folding every shard's state
  // digest. Published to the hub as pseudo-shard n.
  obs::DecisionJournal coord_journal(obs::DecisionJournal::Options{
      options.journal_out.empty() ? std::size_t{65536} : std::size_t{0}});
  if (options.journal && sched_registry != nullptr) {
    coord_journal.AttachMetrics(sched_registry,
                                {{obs::kShardLabel, "coord"}});
  }

  xshard::Coordinator::Options copt;
  copt.num_shards = n;
  copt.max_active_globals =
      std::max<std::uint32_t>(1, options.xshard_max_active_globals);
  if (sched_registry != nullptr) {
    copt.prepare_ns = sched_registry->GetHistogram(obs::kXShardPrepareNs);
    copt.resolve_ns = sched_registry->GetHistogram(obs::kXShardResolveNs);
  }
  if (options.journal) copt.journal = &coord_journal;
  xshard::Coordinator coord(engines, copt);

  const std::uint64_t epoch_steps =
      std::max<std::uint64_t>(1, options.xshard_epoch_steps);
  const std::uint64_t merge_period =
      std::max<std::uint64_t>(1, options.xshard_merge_period);
  std::size_t next_global = 0;
  std::uint64_t epoch = 0;
  int zero_epochs = 0;
  bool completed = true;
  Status run_status = Status::OK();
  // Set once the loop enters its free-run phase (DESIGN D19).
  std::unique_ptr<FreeRun> free_run;

  const std::size_t workers =
      options.num_threads == 0 ? n : options.num_threads;
  const std::uint64_t e0 = NowNanos();
  {
    StealingPool pool(workers);
    std::unique_ptr<PoolMetrics> pool_metrics;
    if (sched_registry != nullptr) {
      pool_metrics = std::make_unique<PoolMetrics>(sched_registry, pool);
    }
    std::vector<std::uint64_t> epoch_shard_steps(n, 0);
    for (;; ++epoch) {
      std::uint64_t progress = 0;
      // ---- Coordinate (single-threaded; every engine is quiescent) ----
      // A free run's shards ran their own admission; the first shard whose
      // admission failed this epoch is the error the barrier loop reports.
      if (free_run != nullptr) {
        for (std::uint32_t s = 0; s < n && run_status.ok(); ++s) {
          if (free_run->FailedAt(s, epoch, FreeRunLog::Failure::kAdmit)) {
            run_status = runs[s].status;
          }
        }
        if (!run_status.ok()) break;
      } else {
        auto polled = coord.Poll();
        if (!polled.ok()) {
          run_status = polled.status();
          break;
        }
        progress = polled.value();
        for (std::uint32_t s = 0; s < n && run_status.ok(); ++s) {
          auto spawned = AdmitLocals(runs[s], coord.sub_commits_on(s));
          if (!spawned.ok()) {
            run_status = spawned.status();
          } else {
            progress += spawned.value();
          }
        }
        if (!run_status.ok()) break;
        // Global admission, in ω order.
        while (next_global < globals.size() && coord.CanAdmit()) {
          auto seq = coord.Admit(std::move(globals[next_global]));
          if (!seq.ok()) {
            run_status = seq.status();
            break;
          }
          ++next_global;
          ++progress;
        }
        if (!run_status.ok()) break;
      }
      // Union merge + distributed partial rollback: on the configured
      // cadence, and forced after a zero-progress epoch — the only benign
      // reason nothing moved is a global cycle awaiting the next merge.
      if (epoch % merge_period == 0 || zero_epochs > 0) {
        Status merged = free_run == nullptr ? coord.MergeAndResolve()
                                            : coord.CountIdleMerge();
        if (!merged.ok()) {
          run_status = merged;
          break;
        }
        // 2PC-epoch checksum: every engine is quiescent in the coordinate
        // phase (or, in a free run, was when its task logged the digest),
        // so folding the shard state digests here is deterministic (a pure
        // function of the options and the epoch ordinal).
        if (options.journal) {
          std::uint64_t fold = obs::kFnvOffsetBasis;
          for (std::uint32_t s = 0; s < n; ++s) {
            fold = obs::FnvMix64(fold, free_run == nullptr
                                           ? engines[s]->StateDigest()
                                           : free_run->Digest(s, epoch));
          }
          coord_journal.StampEpoch(epoch, fold, obs::EpochKind::kTwoPC);
        }
        // In a free run each shard task published its own.
        if (options.hub != nullptr && free_run == nullptr) {
          PublishGlobalWaitsFor(options.hub, coord, engines, epoch);
          for (std::uint32_t s = 0; s < n; ++s) {
            PublishShard(options, s, runs[s]);
          }
          if (options.journal) {
            options.hub->PublishJournal(coord_journal.Digest(n));
          }
          if (pool_metrics != nullptr) pool_metrics->Publish(pool);
        }
      }
      // Termination: everything admitted, every global retired, every
      // engine drained. A free-running shard is live until its log ends.
      bool done = next_global == globals.size() && coord.AllDone();
      for (std::uint32_t s = 0; done && s < n; ++s) {
        done = runs[s].next_local == runs[s].programs.size() &&
               engines[s]->live_txn_count() == 0 &&
               (free_run == nullptr || !free_run->Running(s, epoch));
      }
      if (done) break;
      // Budget: the run goes on while a shard that still holds work
      // (live transactions or queued programs) has steps left; a drained
      // shard's unspent budget cannot finish anyone else's work.
      bool budget_left = false;
      for (std::uint32_t s = 0; s < n; ++s) {
        const bool holds_work =
            engines[s]->live_txn_count() > 0 ||
            runs[s].next_local < runs[s].programs.size();
        budget_left = budget_left ||
                      (free_run != nullptr && free_run->Running(s, epoch)) ||
                      (holds_work &&
                       runs[s].exec->steps < options.max_steps_per_shard);
      }
      if (!budget_left) {
        completed = false;
        break;
      }
      // ---- Step ----
      if (free_run == nullptr && next_global == globals.size() &&
          coord.AllDone()) {
        // Free run (DESIGN D19): with no global in flight or left to admit,
        // each shard's epochs depend on its own state alone, so one task
        // per shard runs all of its remaining epochs with no barrier, and
        // this loop then replays the coordinator's bookkeeping from the
        // shards' logs.
        free_run = std::make_unique<FreeRun>();
        free_run->start = epoch;
        free_run->shards.resize(n);
        for (std::uint32_t s = 0; s < n; ++s) {
          pool.Submit([&, s] {
            runs[s].status =
                RunFreeShard(options, s, runs[s], coord.sub_commits_on(s),
                             epoch_steps, merge_period, *free_run);
          });
        }
        pool.Wait();
      } else if (free_run == nullptr) {
        // One bounded quantum per shard, in parallel.
        for (std::uint32_t s = 0; s < n; ++s) {
          epoch_shard_steps[s] = 0;
          if (ShardIdle(options, runs[s])) continue;
          pool.Submit([&, s] {
            auto stepped = StepShard(options, s, runs[s], epoch_steps);
            if (!stepped.ok()) {
              runs[s].status = stepped.status();
              return;
            }
            epoch_shard_steps[s] = stepped.value();
          });
        }
        pool.Wait();
      }
      // A free-run task's failure counts at the epoch it happened in.
      for (std::uint32_t s = 0; s < n; ++s) {
        const bool failed =
            free_run == nullptr
                ? !runs[s].status.ok()
                : free_run->FailedAt(s, epoch, FreeRunLog::Failure::kStep);
        if (failed) run_status = runs[s].status;
      }
      if (!run_status.ok()) break;
      for (std::uint32_t s = 0; s < n; ++s) {
        progress += free_run == nullptr ? epoch_shard_steps[s]
                                        : free_run->Progress(s, epoch);
      }
      if (progress == 0) {
        // One grace epoch: the first zero-progress epoch forces a merge
        // above; a second in a row means nothing can ever move again.
        if (++zero_epochs >= 2) {
          std::ostringstream os;
          os << "xshard run stalled at epoch " << epoch << " ("
             << coord.active() << " globals in flight)";
          for (std::uint32_t s = 0; s < n; ++s) {
            os << "\n--- shard " << s << " ---\n" << engines[s]->DumpState();
          }
          run_status = Status::Internal(os.str());
          break;
        }
      } else {
        zero_epochs = 0;
      }
    }
    if (run_status.ok()) {
      // Observe the final slice commits (the loop may exit right after the
      // step phase that committed them).
      auto polled = coord.Poll();
      if (!polled.ok()) run_status = polled.status();
    }
    if (pool_metrics != nullptr) pool_metrics->Publish(pool);
    if (options.hub != nullptr && free_run != nullptr) {
      PublishGlobalWaitsFor(options.hub, coord, engines, epoch);
    }
    report.scheduler.num_workers = pool.num_threads();
    report.scheduler.steals = pool.steals();
    report.scheduler.quanta = epoch * n;
    const std::uint64_t up = pool.uptime_nanos();
    if (up > 0) {
      double sum = 0.0, lo = 1.0;
      for (std::size_t w = 0; w < pool.num_threads(); ++w) {
        const double u =
            static_cast<double>(pool.busy_nanos(w)) / static_cast<double>(up);
        sum += u;
        lo = std::min(lo, u);
      }
      report.scheduler.mean_worker_utilization =
          sum / static_cast<double>(pool.num_threads());
      report.scheduler.min_worker_utilization = lo;
    }
  }
  report.admission.execute_seconds = Seconds(NowNanos() - e0);
  if (!run_status.ok()) return run_status;
  if (options.hub != nullptr) {
    options.hub->SetPhase(obs::RunPhase::kAggregating);
  }

  report.xshard = coord.stats();
  report.xshard.epochs = epoch;
  if (options.journal) {
    report.coord_journal_chain = coord_journal.ChainValues();
    if (options.hub != nullptr) {
      options.hub->PublishJournal(coord_journal.Digest(n));
    }
    if (!options.journal_out.empty()) {
      PARDB_RETURN_IF_ERROR(coord_journal.WriteFile(
          options.journal_out + ".coord.jrnl", n, options.seed));
    }
  }
  if (sched_registry != nullptr) {
    const xshard::XShardStats& xs = report.xshard;
    auto Set = [&](const char* name, std::uint64_t v) {
      sched_registry->GetCounter(name)->Inc(v);
    };
    Set(obs::kXShardGlobalTxnsTotal, xs.global_txns);
    Set(obs::kXShardSubTxnsTotal, xs.sub_txns);
    Set(obs::kXShardGlobalCommitsTotal, xs.global_commits);
    Set(obs::kXShardMergesTotal, xs.merges);
    Set(obs::kXShardGlobalCyclesTotal, xs.global_cycles);
    Set(obs::kXShardDistributedRollbacksTotal, xs.distributed_rollbacks);
    Set(obs::kXShardOmegaExclusionsTotal, xs.omega_exclusions);
    Set(obs::kXShardPreparesTotal, xs.prepares);
    Set(obs::kXShardResolvesTotal, xs.resolves);
    Set(obs::kXShardMessagesTotal, xs.messages);
    sched_registry->GetGauge(obs::kXShardEpochs)
        ->Set(static_cast<std::int64_t>(xs.epochs));
    auto PhaseGauge = [&sched_registry](const char* phase) {
      return sched_registry->GetGauge(obs::kPhaseMilliseconds,
                                      {{obs::kPhaseLabel, phase}});
    };
    PhaseGauge("generate")->Set(static_cast<std::int64_t>(
        report.admission.generate_seconds * 1000.0));
    PhaseGauge("execute")->Set(static_cast<std::int64_t>(
        report.admission.execute_seconds * 1000.0));
  }

  SerializabilityVerdicts verdicts{true, std::vector<bool>(n, true)};
  if (options.check_serializability) {
    std::vector<const analysis::HistoryRecorder*> logs;
    for (const ShardRun& run : runs) logs.push_back(&run.exec->recorder);
    verdicts = CheckShardedSerializability(logs, coord);
  }

  std::vector<std::uint64_t> merged_costs;  // cost -> rollbacks, all shards
  for (std::uint32_t s = 0; s < n; ++s) {
    FinishShard(options, s, runs[s], completed);
    if (!runs[s].status.ok()) return runs[s].status;
    runs[s].result.assigned = routed[s];
    runs[s].result.serializable = verdicts.shards[s];
    report.shards.push_back(runs[s].result);
    const std::vector<std::uint64_t>& counts =
        runs[s].exec->engine->rollback_cost_counts();
    merged_costs.resize(std::max(merged_costs.size(), counts.size()), 0);
    for (std::size_t c = 0; c < counts.size(); ++c) {
      merged_costs[c] += counts[c];
    }
    report.metrics.MergeFrom(runs[s].metrics);
    if (options.collect_traces) {
      report.shard_traces.push_back(std::move(runs[s].trace_events));
    }
    for (obs::DeadlockDump& d : runs[s].forensics) {
      report.forensics.push_back(std::move(d));
    }
  }
  if (options.collect_traces) {
    // Slice index for the Chrome trace's flow arrows: one entry per slice
    // the coordinator ever spawned, under its global sequence number.
    for (const auto& [key, seq] : coord.sub_index()) {
      report.flow_slices.push_back(
          core::GlobalSlice{seq, key.first, key.second});
    }
  }
  if (sched_registry != nullptr) {
    report.metrics.MergeFrom(sched_registry->Snapshot());
  }
  if (options.instrument) {
    report.merged_metrics = report.metrics.WithoutLabel("shard");
  }
  report.aggregate = SumMetrics(report.shards);
  SumLedgers(report);
  report.rollback_costs = core::CostDistributionOfCounts(merged_costs);
  // Whole transactions: a global's slices collapse into one commit.
  report.committed = report.aggregate.commits - report.xshard.sub_commits +
                     report.xshard.global_commits;
  for (const ShardResult& s : report.shards) {
    report.completed = report.completed && s.completed;
    report.serializable = report.serializable && s.serializable;
  }
  std::uint64_t routed_total = 0;
  for (std::uint64_t r : routed) routed_total += r;
  report.cross_shard_fraction = SafeRatio(report.cross_shard_txns, routed_total);
  report.wasted_fraction =
      SafeRatio(report.aggregate.wasted_ops, report.aggregate.ops_executed);
  report.goodput = SafeRatio(report.committed, report.aggregate.ops_executed);
  report.global_serializable = verdicts.global;  // true when unchecked
  report.serializable = report.serializable && report.global_serializable;
  if (options.hub != nullptr) options.hub->SetPhase(obs::RunPhase::kDone);
  return report;
}

SerializabilityVerdicts CheckShardedSerializability(
    const std::vector<const analysis::HistoryRecorder*>& shards,
    const xshard::SubResolver& resolver) {
  // Logs are read in place; every slice of a global keys as its global.
  analysis::GlobalHistory merged;
  for (std::uint32_t s = 0; s < shards.size(); ++s) {
    for (const auto& c : shards[s]->committed()) {
      const auto g = resolver.GlobalOf(s, c.txn);
      merged.Add(g.has_value() ? analysis::GlobalHistory::GlobalKey(*g)
                               : analysis::GlobalHistory::LocalKey(s, c.txn),
                 c.events);
    }
  }
  SerializabilityVerdicts verdicts{merged.IsConflictSerializable(),
                                   std::vector<bool>(shards.size(), true)};
  for (std::size_t s = 0; !verdicts.global && s < shards.size(); ++s) {
    verdicts.shards[s] = shards[s]->IsConflictSerializable();
  }
  return verdicts;
}

}  // namespace pardb::par
