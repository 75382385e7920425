#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/history.h"
#include "common/random.h"
#include "obs/journal.h"
#include "obs/lineage.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/txnlife.h"
#include "par/report_json.h"
#include "par/router.h"
#include "par/xshard/split.h"
#include "sim/workload.h"
#include "storage/entity_store.h"
#include "txn/compiled.h"

namespace pardb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


// Accumulates the wall time of many short calls into one layer total.
struct LayerTimer {
  double seconds = 0.0;
  std::uint64_t calls = 0;

  template <typename F>
  auto Time(F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto out = f();
    seconds += Since(t0);
    ++calls;
    return out;
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<std::uint64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(v[i]);
  }
  return out + "]";
}

const obs::HistogramSnapshot* FindHist(const obs::RegistrySnapshot& snap,
                                       const char* name) {
  const obs::MetricSnapshot* m = snap.Find(name);
  if (m == nullptr || m->kind != obs::MetricSnapshot::Kind::kHistogram) {
    return nullptr;
  }
  return &m->hist;
}

std::uint64_t FindCounter(const obs::RegistrySnapshot& snap,
                          const char* name) {
  const obs::MetricSnapshot* m = snap.Find(name);
  return m == nullptr ? 0 : m->counter;
}

// Histogram-derived fields of an instrumented call: the e2e latency bucket
// table (run.py takes nearest-rank percentiles over it) with its exact sum,
// and p50/p99 of the per-layer ns histograms the engine and coordinator
// record.
void AddInstrumentFields(const obs::RegistrySnapshot& merged,
                         CallRecord* rec) {
  if (const auto* h = FindHist(merged, obs::kTxnE2eSteps)) {
    rec->e2e_bounds = h->bounds;
    rec->e2e_counts = h->counts;
    rec->Set("e2e_max", static_cast<double>(h->max));
    rec->Set("e2e_sum", static_cast<double>(h->sum));
  }
  const std::pair<const char*, const char*> hists[] = {
      {"detection_ns", obs::kDetectionNs},
      {"rollback_apply_ns", obs::kRollbackApplyNs},
      {"lock_op_ns", obs::kLockOpNs},
      {"prepare_ns", obs::kXShardPrepareNs},
  };
  for (const auto& [label, name] : hists) {
    const obs::HistogramSnapshot* h = FindHist(merged, name);
    rec->Set(std::string(label) + "_count", h == nullptr ? 0 : h->count);
    rec->Set(std::string(label) + "_p50", h == nullptr ? 0 : h->Quantile(50));
    rec->Set(std::string(label) + "_p99", h == nullptr ? 0 : h->Quantile(99));
  }
  rec->Set("lock_requests",
           static_cast<double>(FindCounter(merged, obs::kLockRequestsTotal)));
  rec->Set("txnlife_dropped", static_cast<double>(FindCounter(
                                  merged, obs::kTxnlifeDroppedTotal)));
}

void AddEngineCounts(const core::EngineMetrics& m, CallRecord* rec) {
  rec->counts = {
      {"steps", m.steps},
      {"ops", m.ops_executed},
      {"lock_waits", m.lock_waits},
      {"deadlocks", m.deadlocks},
      {"cycles", m.cycles_found},
      {"rollbacks", m.rollbacks},
      {"partial_rollbacks", m.partial_rollbacks},
      {"wasted_ops", m.wasted_ops},
      {"compiles", m.programs_compiled},
      {"compile_hits", m.compile_cache_hits},
  };
  rec->Set("max_entity_copies", static_cast<double>(m.max_entity_copies));
}

// ---- sharded workloads --------------------------------------------------

CallRecord ShardedCall(const par::ShardedOptions& opt) {
  CallRecord rec;
  rec.Set("attempted", static_cast<double>(opt.total_txns));
  const Clock::time_point t0 = Clock::now();
  auto result = par::RunSharded(opt);
  rec.Set("wall_s", Since(t0));
  if (!result.ok()) {
    rec.ok = false;
    rec.completed = false;
    rec.error = result.status().ToString();
    rec.Set("committed", 0);
    return rec;
  }
  const par::ShardedReport& r = result.value();
  rec.completed = r.completed;
  rec.serializable = r.serializable;
  rec.global_serializable = r.global_serializable;
  rec.report = par::ShardedReportToJson(r);
  std::vector<core::EngineMetrics> shard_metrics;
  for (const par::ShardResult& s : r.shards) shard_metrics.push_back(s.metrics);
  rec.shard_metrics = ShardMetricsReport(shard_metrics);
  rec.Set("committed", static_cast<double>(r.committed));
  rec.Set("generate_s", r.admission.generate_seconds);
  rec.Set("execute_s", r.admission.execute_seconds);
  rec.Set("worker_util", r.scheduler.mean_worker_utilization);
  rec.Set("quanta", static_cast<double>(r.scheduler.quanta));
  rec.Set("peak_materialized",
          static_cast<double>(r.admission.peak_materialized_programs));

  // Engine totals summed over shards (ShardedReport::aggregate leaves the
  // compile-cache fields out).
  core::EngineMetrics m = r.aggregate;
  m.programs_compiled = 0;
  m.compile_cache_hits = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_dropped = 0;
  for (const par::ShardResult& s : r.shards) {
    m.programs_compiled += s.metrics.programs_compiled;
    m.compile_cache_hits += s.metrics.compile_cache_hits;
    journal_records += s.journal_records;
    journal_dropped += s.journal_dropped;
  }
  AddEngineCounts(m, &rec);
  const par::xshard::XShardStats& x = r.xshard;
  rec.counts.insert(rec.counts.end(),
                    {{"epochs", x.epochs},
                     {"global_txns", x.global_txns},
                     {"sub_txns", x.sub_txns},
                     {"global_commits", x.global_commits},
                     {"merges", x.merges},
                     {"global_cycles", x.global_cycles},
                     {"distributed_rollbacks", x.distributed_rollbacks},
                     {"prepares", x.prepares},
                     {"messages", x.messages},
                     {"journal_records", journal_records}});
  rec.Set("journal_dropped", static_cast<double>(journal_dropped));
  if (opt.instrument) AddInstrumentFields(r.merged_metrics, &rec);
  return rec;
}

}  // namespace

// Per-layer split of a sharded workload, each public call timed from
// outside on the workload's own inputs:
//   * the generation + routing sweep of RunSharded (same generators, seeds
//     and routing draws), timing WorkloadGenerator::Next and RouteProgram;
//   * SplitProgram on every shard-spanning program;
//   * CompileCache::Get on every program a shard engine admits (one cache
//     per shard, as each engine has its own);
//   * each shard's admission/step sequence of the kLocks epoch loop
//     (top up to the shard's concurrency, then one StepQuantum of
//     xshard_epoch_steps) over its shard-local programs, timing
//     Engine::Spawn and Engine::StepQuantum. With no shard-spanning
//     transactions the shards never interact, so this reproduces every
//     shard's EngineMetrics of the RunSharded call exactly (run.py checks
//     it); with them, the loop covers the shard-local transactions only.

CallRecord RunShardedLayers(const par::ShardedOptions& opt) {
  CallRecord rec;
  const Clock::time_point wall0 = Clock::now();
  const std::uint32_t n = opt.num_shards;
  using ProgramPtr = std::shared_ptr<const txn::Program>;
  std::vector<std::vector<ProgramPtr>> local(n);
  std::vector<ProgramPtr> globals;

  LayerTimer generate, route;
  {
    auto universes = par::ShardEntityUniverses(opt.workload.num_entities, n);
    std::vector<std::uint32_t> populated;
    std::vector<std::unique_ptr<sim::WorkloadGenerator>> gens(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      if (universes[s].empty()) continue;
      sim::WorkloadOptions w = opt.workload;
      w.entity_universe = universes[s];
      gens[s] = std::make_unique<sim::WorkloadGenerator>(
          w, par::DeriveShardSeed(opt.seed, 0x10000u + s));
      populated.push_back(s);
    }
    sim::WorkloadGenerator global(opt.workload,
                                  par::DeriveShardSeed(opt.seed, 0x20000u));
    Rng route_rng(par::DeriveShardSeed(opt.seed, 0x30000u));
    for (std::uint64_t t = 0; t < opt.total_txns; ++t) {
      const bool want_cross = populated.empty() ||
                              route_rng.Bernoulli(opt.cross_shard_fraction);
      sim::WorkloadGenerator* gen =
          want_cross ? &global
                     : gens[populated[route_rng.Uniform(populated.size())]]
                           .get();
      auto program = generate.Time([&] { return gen->Next(); });
      if (!program.ok()) {
        rec.ok = false;
        rec.error = program.status().ToString();
        return rec;
      }
      const par::Route r = route.Time([&] {
        return par::RouteProgram(program.value(), n, opt.coordinator_shard,
                                 t);
      });
      auto ptr = std::make_shared<const txn::Program>(
          std::move(program).value());
      if (r.cross_shard) {
        globals.push_back(std::move(ptr));
      } else {
        local[r.shard].push_back(std::move(ptr));
      }
    }
  }

  LayerTimer split;
  std::vector<std::vector<ProgramPtr>> subs(n);
  for (const ProgramPtr& g : globals) {
    auto parts = split.Time([&] { return par::xshard::SplitProgram(*g, n); });
    if (!parts.ok()) {
      rec.ok = false;
      rec.error = parts.status().ToString();
      return rec;
    }
    for (par::xshard::SubProgram& p : parts.value()) {
      subs[p.shard].push_back(
          std::make_shared<const txn::Program>(std::move(p.program)));
    }
  }

  LayerTimer compile;
  std::uint64_t compile_hits = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    txn::CompileCache cache;
    for (const auto* list : {&local[s], &subs[s]}) {
      for (const ProgramPtr& p : *list) {
        compile.Time([&] { return cache.Get(p); });
      }
    }
    compile_hits += cache.stats().hits;
  }

  LayerTimer admit, step;
  std::uint64_t steps = 0;
  std::vector<core::EngineMetrics> shard_metrics;
  const std::uint32_t base = opt.concurrency / n;
  const std::uint32_t rem = opt.concurrency % n;
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint64_t concurrency =
        std::max<std::uint32_t>(1, base + (s < rem ? 1 : 0));
    storage::EntityStore store;
    store.CreateMany(opt.workload.num_entities, opt.initial_value);
    core::EngineOptions eopt = opt.engine;
    eopt.seed = par::DeriveShardSeed(opt.seed, s);
    core::Engine engine(&store, eopt, nullptr);
    engine.ReserveTxns(opt.total_txns);
    obs::TxnLifeBook txnlife;
    obs::DecisionJournal journal;
    if (opt.txnlife) engine.set_txnlife(&txnlife);
    if (opt.journal) engine.set_journal(&journal);
    std::size_t next = 0;
    for (;;) {
      while (next < local[s].size() &&
             next - engine.metrics().commits < concurrency) {
        auto id = admit.Time([&] { return engine.Spawn(local[s][next]); });
        if (!id.ok()) {
          rec.ok = false;
          rec.error = id.status().ToString();
          return rec;
        }
        ++next;
      }
      if (engine.live_txn_count() == 0) break;
      auto q = step.Time([&] {
        return engine.StepQuantum(opt.xshard_epoch_steps,
                                  /*stop_after_commit=*/false);
      });
      if (!q.ok() || q.value().steps == 0) {
        rec.ok = false;
        rec.error = q.ok() ? "shard loop stalled" : q.status().ToString();
        return rec;
      }
      steps += q.value().steps;
    }
    shard_metrics.push_back(engine.metrics());
  }

  rec.shard_metrics = ShardMetricsReport(shard_metrics);
  rec.Set("wall_s", Since(wall0));
  rec.Set("generate_s", generate.seconds);
  rec.Set("generated", static_cast<double>(generate.calls));
  rec.Set("route_s", route.seconds);
  rec.Set("split_s", split.seconds);
  rec.Set("globals", static_cast<double>(split.calls));
  rec.Set("compile_s", compile.seconds);
  rec.Set("compile_calls", static_cast<double>(compile.calls));
  rec.Set("compile_hits", static_cast<double>(compile_hits));
  rec.Set("admit_s", admit.seconds);
  rec.Set("admits", static_cast<double>(admit.calls));
  rec.Set("step_s", step.seconds);
  rec.Set("steps", static_cast<double>(steps));
  return rec;
}

namespace {

// ---- hotspot_single -------------------------------------------------------

// SimReport fields that describe the run, in one deterministic string.
std::string SimReportString(const core::EngineMetrics& m, bool completed,
                            bool serializable) {
  std::ostringstream os;
  os << "completed=" << (completed ? "yes" : "NO")
     << " serializable=" << (serializable ? "yes" : "NO");
  for (const auto& [name, v] : MetricsFields(m)) os << ' ' << name << '=' << v;
  return os.str();
}

CallRecord SimCall(const sim::SimOptions& opt, bool instrument) {
  CallRecord rec;
  rec.Set("attempted", static_cast<double>(opt.total_txns));
  obs::MetricsRegistry registry;
  sim::SimOptions o = opt;
  if (instrument) o.metrics = &registry;
  const Clock::time_point t0 = Clock::now();
  auto result = sim::RunSimulation(o);
  rec.Set("wall_s", Since(t0));
  if (!result.ok()) {
    rec.ok = false;
    rec.completed = false;
    rec.error = result.status().ToString();
    rec.Set("committed", 0);
    return rec;
  }
  const sim::SimReport& r = result.value();
  rec.completed = r.completed;
  rec.serializable = r.serializable;
  rec.report = SimReportString(r.metrics, r.completed, r.serializable);
  rec.Set("committed", static_cast<double>(r.committed));
  rec.Set("peak_materialized",
          static_cast<double>(r.peak_materialized_programs));
  AddEngineCounts(r.metrics, &rec);
  rec.counts.emplace_back("journal_records", r.journal_records);
  rec.Set("journal_dropped", static_cast<double>(r.journal_dropped));
  if (instrument) AddInstrumentFields(registry.Snapshot(), &rec);
  return rec;
}

// The checked hotspot call: the benchmark's own closed loop with a
// recorder attached and every observer instrumented, the verifier timed
// directly around IsConflictSerializable.
CallRecord SimLoopCall(const sim::SimOptions& opt) {
  CallRecord rec;
  rec.Set("attempted", static_cast<double>(opt.total_txns));
  obs::MetricsRegistry registry;
  const Clock::time_point t0 = Clock::now();
  auto result = RunClosedLoop(opt, &registry);
  rec.Set("wall_s", Since(t0));
  if (!result.ok()) {
    rec.ok = false;
    rec.completed = false;
    rec.error = result.status().ToString();
    rec.Set("committed", 0);
    return rec;
  }
  const LoopResult& r = result.value();
  rec.completed = r.completed;
  rec.serializable = r.serializable;
  rec.report = SimReportString(r.metrics, r.completed, r.serializable);
  rec.Set("committed", static_cast<double>(r.metrics.commits));
  for (const auto& [name, v] : r.layer_fields) rec.Set(name, v);
  AddEngineCounts(r.metrics, &rec);
  rec.counts.emplace_back("journal_records", r.journal_records);
  rec.Set("journal_dropped", static_cast<double>(r.journal_dropped));
  AddInstrumentFields(registry.Snapshot(), &rec);
  return rec;
}

}  // namespace

Result<Workload> ParseWorkload(const std::string& name) {
  if (name == "sharded_local") return Workload::kShardedLocal;
  if (name == "sharded_cross") return Workload::kShardedCross;
  if (name == "hotspot_single") return Workload::kHotspotSingle;
  return Status::InvalidArgument("unknown workload " + name);
}

Result<CallKind> ParseCallKind(const std::string& name) {
  if (name == "timed") return CallKind::kTimed;
  if (name == "checked") return CallKind::kChecked;
  if (name == "traced") return CallKind::kTraced;
  if (name == "bare") return CallKind::kBare;
  if (name == "layers") return CallKind::kLayers;
  if (name == "parallel") return CallKind::kParallel;
  return Status::InvalidArgument("unknown call kind " + name);
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t sub) {
  std::uint64_t x = seed * 0x100000001b3ULL + sub + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  // Below 2^47, so the pardb CLI's --seed can replay any sub-run.
  return (x ^ (x >> 31)) & 0x7fffffffffffULL;
}

// Workload parameters. Engine defaults are the pardb CLI's (random
// scheduler seeded with the run seed, MCS partial rollback, continuous
// detection, compiled programs); observers are the user defaults.
par::ShardedOptions ShardedOptionsFor(Workload w, std::uint64_t seed) {
  par::ShardedOptions o;
  o.num_shards = 4;
  o.xshard = par::XShardMode::kLocks;
  o.engine.scheduler = core::SchedulerKind::kRandom;
  o.engine.seed = seed;
  o.seed = seed;
  o.concurrency = 16;
  // One worker runs the four shards in turn. A call crosses one to three
  // thousand epoch barriers; with a worker per CPU on a shared host, every
  // barrier waits for the last worker the host wakes, and calls ran up to
  // three times slower for minutes at a time. CallKind::kParallel measures
  // the worker pool.
  o.num_threads = 1;
  o.instrument = false;
  if (w == Workload::kShardedCross) {
    o.workload.num_entities = 64;
    o.workload.min_locks = 3;
    o.workload.max_locks = 6;
    o.cross_shard_fraction = 0.2;
    o.total_txns = 4000;
  } else {
    o.workload.num_entities = 2000;
    o.workload.zipf_theta = 0.8;
    o.workload.min_locks = 2;
    o.workload.max_locks = 6;
    o.cross_shard_fraction = 0.0;
    o.total_txns = 50000;
  }
  return o;
}

std::uint64_t TxnsPerCall(Workload w) {
  return w == Workload::kHotspotSingle ? SimOptionsFor(0).total_txns
                                       : ShardedOptionsFor(w, 0).total_txns;
}

sim::SimOptions SimOptionsFor(std::uint64_t seed) {
  sim::SimOptions o;
  o.engine.scheduler = core::SchedulerKind::kRandom;
  o.engine.seed = seed;
  o.seed = seed;
  o.workload.num_entities = 48;
  o.workload.zipf_theta = 0.8;
  o.workload.shared_fraction = 0.3;
  o.workload.min_locks = 3;
  o.workload.max_locks = 6;
  o.workload.num_templates = 1024;
  o.concurrency = 16;
  o.total_txns = 5000;
  return o;
}

double CallRecord::Get(const std::string& name) const {
  for (const auto& [k, v] : fields) {
    if (k == name) return v;
  }
  return std::nan("");
}

std::string CallRecord::ToJson() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok ? "true" : "false")
     << ",\"completed\":" << (completed ? "true" : "false")
     << ",\"serializable\":" << (serializable ? "true" : "false")
     << ",\"global_serializable\":"
     << (global_serializable ? "true" : "false")
     << ",\"error\":" << JsonString(error)
     << ",\"report\":" << JsonString(report)
     << ",\"shard_metrics\":" << JsonString(shard_metrics) << ",\"fields\":{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonString(fields[i].first) << ':'
       << JsonNumber(fields[i].second);
  }
  os << "},\"counts\":{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonString(counts[i].first) << ':'
       << counts[i].second;
  }
  os << "},\"e2e_bounds\":" << JsonArray(e2e_bounds)
     << ",\"e2e_counts\":" << JsonArray(e2e_counts) << '}';
  return os.str();
}

CallRecord RunCall(Workload w, CallKind kind, std::uint64_t seed,
                   std::uint64_t sub) {
  const std::uint64_t s = SubSeed(seed, sub);
  if (w == Workload::kHotspotSingle) {
    sim::SimOptions opt = SimOptionsFor(s);
    opt.check_serializability = false;
    switch (kind) {
      case CallKind::kChecked:
      case CallKind::kLayers:
        return SimLoopCall(opt);
      case CallKind::kBare:
        opt.txnlife = false;
        opt.journal = false;
        return SimCall(opt, /*instrument=*/false);
      case CallKind::kTraced:
        return SimCall(opt, /*instrument=*/true);
      case CallKind::kTimed:
      case CallKind::kParallel:
        return SimCall(opt, /*instrument=*/false);
    }
  }
  par::ShardedOptions opt = ShardedOptionsFor(w, s);
  if (kind == CallKind::kParallel) {
    // At most one worker per CPU: the load comes from this one process.
    opt.num_threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, opt.num_shards);
  }
  opt.check_serializability = kind == CallKind::kChecked;
  opt.instrument = kind == CallKind::kChecked || kind == CallKind::kTraced;
  if (kind == CallKind::kBare) {
    opt.txnlife = false;
    opt.journal = false;
  }
  if (kind == CallKind::kLayers) return RunShardedLayers(opt);
  return ShardedCall(opt);
}

Result<LoopResult> RunClosedLoop(const sim::SimOptions& options,
                                 obs::MetricsRegistry* registry) {
  storage::EntityStore store;
  store.CreateMany(options.workload.num_entities, options.initial_value);
  analysis::HistoryRecorder recorder;
  core::Engine engine(&store, options.engine, &recorder);
  engine.ReserveTxns(options.total_txns);
  const obs::LabelSet labels;
  obs::EngineProbe probe;
  obs::LineageTracker lineage;
  obs::TxnLifeBook txnlife;
  obs::DecisionJournal journal;
  if (registry != nullptr) {
    probe = obs::MakeEngineProbe(registry, labels);
    engine.set_probe(&probe);
    lineage.AttachMetrics(registry, labels);
  }
  engine.set_lineage(&lineage);
  if (options.txnlife) {
    if (registry != nullptr) txnlife.AttachMetrics(registry, labels);
    engine.set_txnlife(&txnlife);
  }
  if (options.journal) {
    if (registry != nullptr) journal.AttachMetrics(registry, labels);
    engine.set_journal(&journal);
  }
  sim::WorkloadGenerator gen(options.workload, options.seed);

  LayerTimer generate, compile, admit, step, verify;
  txn::CompileCache cache;  // a second cache: times Get on the same stream
  std::uint64_t spawned = 0;
  auto SpawnOne = [&]() -> Status {
    auto program = generate.Time([&] { return gen.Next(); });
    if (!program.ok()) return program.status();
    auto ptr =
        std::make_shared<const txn::Program>(std::move(program).value());
    compile.Time([&] { return cache.Get(ptr); });
    auto id = admit.Time([&] { return engine.Spawn(ptr); });
    if (!id.ok()) return id.status();
    ++spawned;
    return Status::OK();
  };

  LoopResult out;
  std::uint64_t steps = 0;
  while (engine.metrics().commits < options.total_txns) {
    while (spawned < options.total_txns &&
           spawned - engine.metrics().commits < options.concurrency) {
      PARDB_RETURN_IF_ERROR(SpawnOne());
    }
    if (steps >= options.max_steps) {
      out.completed = false;
      break;
    }
    // One StepQuantum up to the next commit is exactly RunSimulation's run
    // of StepAny calls between two refills.
    auto q = step.Time([&] {
      return engine.StepQuantum(options.max_steps - steps,
                                /*stop_after_commit=*/true);
    });
    if (!q.ok()) return q.status();
    if (q.value().ran_dry) {
      return Status::Internal("closed loop stalled:\n" + engine.DumpState());
    }
    steps += q.value().steps;
  }
  out.metrics = engine.metrics();
  out.serializable =
      verify.Time([&] { return recorder.IsConflictSerializable(); });
  out.journal_records = journal.total_records();
  out.journal_dropped = journal.dropped_records();
  out.layer_fields = {
      {"generate_s", generate.seconds}, {"generated", double(generate.calls)},
      {"compile_s", compile.seconds},   {"compile_calls", double(compile.calls)},
      {"compile_hits", double(cache.stats().hits)},
      {"admit_s", admit.seconds},       {"admits", double(admit.calls)},
      {"step_s", step.seconds},         {"steps", double(steps)},
      {"verify_s", verify.seconds},
  };
  return out;
}

std::string ShardMetricsReport(const std::vector<core::EngineMetrics>& shards) {
  std::ostringstream os;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    os << "shard" << s;
    for (const auto& [name, v] : MetricsFields(shards[s])) {
      os << ' ' << name << '=' << v;
    }
    os << '\n';
  }
  return os.str();
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsFields(
    const core::EngineMetrics& m) {
  return {
      {"steps", m.steps},
      {"ops_executed", m.ops_executed},
      {"commits", m.commits},
      {"lock_waits", m.lock_waits},
      {"deadlocks", m.deadlocks},
      {"rollbacks", m.rollbacks},
      {"partial_rollbacks", m.partial_rollbacks},
      {"total_rollbacks", m.total_rollbacks},
      {"preemptions", m.preemptions},
      {"wounds", m.wounds},
      {"deaths", m.deaths},
      {"timeouts", m.timeouts},
      {"wasted_ops", m.wasted_ops},
      {"ideal_wasted_ops", m.ideal_wasted_ops},
      {"cycles_found", m.cycles_found},
      {"periodic_scans", m.periodic_scans},
      {"programs_compiled", m.programs_compiled},
      {"compile_cache_hits", m.compile_cache_hits},
      {"compiled_bytes", m.compiled_bytes},
      {"max_entity_copies", m.max_entity_copies},
      {"max_var_copies", m.max_var_copies},
  };
}

}  // namespace pardb::perfbench
