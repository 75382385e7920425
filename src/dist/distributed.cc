#include "dist/distributed.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/forensics.h"
#include "sim/driver.h"

namespace pardb::dist {

std::uint32_t SiteOfEntity(EntityId entity, std::uint32_t num_sites) {
  if (num_sites == 0) return 0;
  // Fibonacci hash so consecutive ids spread over sites.
  return static_cast<std::uint32_t>((entity.value() * 0x9e3779b97f4a7c15ULL) >>
                                    32) %
         num_sites;
}

std::string DistReport::ToString() const {
  std::ostringstream os;
  os << "committed=" << committed << (completed ? "" : " (INCOMPLETE)")
     << " deadlocks=" << metrics.deadlocks << " (local=" << deadlocks_local
     << ", multi-site=" << deadlocks_multi_site << ")"
     << " wounds=" << metrics.wounds << " deaths=" << metrics.deaths
     << " rollbacks=" << metrics.rollbacks << " wasted=" << metrics.wasted_ops
     << " serializable=" << (serializable ? "yes" : "NO");
  return os.str();
}

namespace {

// Site analysis of detected deadlocks (§3.3), one dump at a time as the
// engine resolves them: which could a per-site detector have found without
// any cross-site communication? Keeps no dumps.
class SiteClassifier final : public obs::DeadlockDumpSink {
 public:
  SiteClassifier(std::uint32_t num_sites, DistReport* report)
      : num_sites_(num_sites), report_(report) {}

  void OnDeadlock(const obs::DeadlockDump& dump) override {
    std::set<std::uint32_t> sites;
    for (const obs::WaitsForArc& arc : dump.arcs) {
      sites.insert(SiteOfEntity(arc.entity, num_sites_));
    }
    if (sites.size() <= 1) {
      ++report_->deadlocks_local;
    } else {
      ++report_->deadlocks_multi_site;
    }
    report_->max_sites_in_deadlock =
        std::max(report_->max_sites_in_deadlock,
                 static_cast<std::uint32_t>(sites.size()));
  }

 private:
  std::uint32_t num_sites_;
  DistReport* report_;
};

}  // namespace

Result<DistReport> RunDistributed(const DistOptions& options) {
  DistReport report;
  SiteClassifier classifier(options.num_sites, &report);
  sim::SimOptions sim;
  sim.engine = options.engine;
  sim.workload = options.workload;
  sim.concurrency = options.concurrency;
  sim.total_txns = options.total_txns;
  sim.max_steps = options.max_steps;
  sim.seed = options.seed;
  // The report reads neither the lifecycle book nor the decision journal.
  sim.txnlife = false;
  sim.journal = false;
  sim.forensics = &classifier;
  auto run = sim::RunSimulation(sim);
  if (!run.ok()) return run.status();

  report.metrics = run->metrics;
  report.committed = run->committed;
  report.completed = run->completed;
  report.serializable = run->serializable;
  report.wasted_fraction = run->wasted_fraction;
  report.goodput = run->goodput;
  // SafeRatio keeps the fraction finite when nothing deadlocked.
  report.multi_site_fraction =
      SafeRatio(report.deadlocks_multi_site,
                report.deadlocks_local + report.deadlocks_multi_site);
  return report;
}

}  // namespace pardb::dist
