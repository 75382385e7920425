#ifndef PARDB_PERFBENCH_WORKLOADS_H_
#define PARDB_PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads and the calls it makes into pardb.
//
// Every call goes through a public entry point (par::RunSharded,
// sim::RunSimulation, or the engine/generator/router/splitter/compiler/
// verifier calls the per-layer split times from outside). A call returns a
// flat record of numbers plus the byte-compared report; the orchestrator
// (run.py) turns records from many calls into medians and ratios.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "par/sharded_driver.h"
#include "sim/driver.h"

namespace pardb::perfbench {

enum class Workload {
  kShardedLocal,   // RunSharded, 4 shards, no cross-shard transactions
  kShardedCross,   // RunSharded, 4 shards, 64 entities, 20% cross-shard
  kHotspotSingle,  // RunSimulation, one engine, 48 hot entities
};

Result<Workload> ParseWorkload(const std::string& name);

// How a call is configured. Only kTimed feeds the throughput figures.
enum class CallKind {
  kTimed,     // user defaults: txnlife + journal on, instrument off, no check
  kChecked,   // + offline serializability check + instrument (histograms)
  kTraced,    // + instrument, no check
  kBare,      // txnlife + journal off: the A side of the observer A/B pair
  kLayers,    // per-layer public calls, each timed from outside
  kParallel,  // kTimed with one worker per CPU, at most one per shard
};

Result<CallKind> ParseCallKind(const std::string& name);

// Seed of sub-run `sub` of a run seeded `seed` (SplitMix64 finalizer), so
// the inputs of every sub-run are a pure function of the run's seed.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t sub);

par::ShardedOptions ShardedOptionsFor(Workload w, std::uint64_t seed);
std::uint64_t TxnsPerCall(Workload w);
sim::SimOptions SimOptionsFor(std::uint64_t seed);

// One call's outcome. `fields` are named numbers (times in seconds, counts
// as exact integers); `counts` are the deterministic work counts that must
// repeat exactly across calls of one input; `report` is the program's own
// deterministic report, byte-compared across calls of one input.
struct CallRecord {
  bool ok = true;  // false: the call returned an error status
  std::string error;
  bool completed = true;
  bool serializable = true;
  bool global_serializable = true;
  std::string report;
  // Sharded calls: every shard's EngineMetrics (ShardMetricsReport).
  std::string shard_metrics;
  std::vector<std::pair<std::string, double>> fields;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  // Bucket bounds and counts of pardb_txn_e2e_steps (instrumented calls).
  std::vector<std::uint64_t> e2e_bounds;
  std::vector<std::uint64_t> e2e_counts;

  void Set(const std::string& name, double value) {
    fields.emplace_back(name, value);
  }
  double Get(const std::string& name) const;  // NaN when absent
  std::string ToJson() const;
};

// Runs one call of workload `w` on the inputs of sub-run `sub`.
CallRecord RunCall(Workload w, CallKind kind, std::uint64_t seed,
                   std::uint64_t sub);

// The per-layer split of a sharded workload (CallKind::kLayers).
CallRecord RunShardedLayers(const par::ShardedOptions& opt);

// One line per shard listing every EngineMetrics field.
std::string ShardMetricsReport(const std::vector<core::EngineMetrics>& shards);

// The hotspot_single closed loop, mirroring sim::RunSimulation (refill to
// `concurrency` after each commit) through Engine::Spawn/StepQuantum with
// a HistoryRecorder attached, timing each layer call from outside.
struct LoopResult {
  core::EngineMetrics metrics;
  bool completed = true;
  bool serializable = true;
  // Layer wall times (seconds) and the call counts they divide by.
  std::vector<std::pair<std::string, double>> layer_fields;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_dropped = 0;
};
Result<LoopResult> RunClosedLoop(const sim::SimOptions& options,
                                 obs::MetricsRegistry* registry);

// Every EngineMetrics field, in declaration order, as (name, value).
std::vector<std::pair<std::string, std::uint64_t>> MetricsFields(
    const core::EngineMetrics& m);

}  // namespace pardb::perfbench

#endif  // PARDB_PERFBENCH_WORKLOADS_H_
