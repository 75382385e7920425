#ifndef PARDB_DIST_DISTRIBUTED_H_
#define PARDB_DIST_DISTRIBUTED_H_

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "sim/workload.h"

namespace pardb::dist {

// §3.3 of the paper: in a distributed database the concurrency graph is
// scattered over sites, so cycle detection requires cross-site
// communication, while deadlocks confined to one site remain cheap. This
// module partitions entities over sites by hash, runs workloads under
// either global detection or a timestamp prevention scheme (wound-wait /
// wait-die, both using the configured *partial* rollback machinery), and
// reports how many deadlocks a per-site detector could have handled alone.

// Hash partition of entities over sites.
std::uint32_t SiteOfEntity(EntityId entity, std::uint32_t num_sites);

struct DistOptions {
  std::uint32_t num_sites = 4;
  // engine.handling selects the scheme; engine.strategy the rollback
  // extent (the paper's point: prevention schemes benefit from partial
  // rollback exactly like detection does).
  core::EngineOptions engine;
  sim::WorkloadOptions workload;
  std::uint32_t concurrency = 8;
  std::uint64_t total_txns = 200;
  std::uint64_t max_steps = 20'000'000;
  std::uint64_t seed = 1;
};

struct DistReport {
  core::EngineMetrics metrics;
  std::uint64_t committed = 0;
  bool completed = true;
  bool serializable = true;

  // Detection-mode site analysis: a deadlock is *local* when every entity
  // on its cycle lives on one site (a per-site detector finds it without
  // communication) and *multi-site* otherwise.
  std::uint64_t deadlocks_local = 0;
  std::uint64_t deadlocks_multi_site = 0;
  double multi_site_fraction = 0.0;
  // Sites spanned by the widest deadlock observed.
  std::uint32_t max_sites_in_deadlock = 0;

  double wasted_fraction = 0.0;
  double goodput = 0.0;

  std::string ToString() const;
};

// Runs the closed-loop workload through sim::RunSimulation, classifying
// each resolved deadlock by site as its dump arrives. Deterministic per
// (options, seed).
Result<DistReport> RunDistributed(const DistOptions& options);

}  // namespace pardb::dist

#endif  // PARDB_DIST_DISTRIBUTED_H_
