#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/trace.h"
#include "sim/driver.h"
#include "sim/workload.h"

namespace pardb::sim {
namespace {

TEST(WorkloadTest, GeneratesValidPrograms) {
  WorkloadOptions opt;
  opt.num_entities = 16;
  opt.min_locks = 2;
  opt.max_locks = 5;
  opt.ops_per_entity = 2;
  WorkloadGenerator gen(opt, 1);
  for (int i = 0; i < 50; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_GE(p.value().NumLockRequests(), 2u);
    EXPECT_LE(p.value().NumLockRequests(), 5u);
    for (const txn::Op& op : p.value().ops()) {
      if (op.code == txn::OpCode::kLockExclusive ||
          op.code == txn::OpCode::kLockShared) {
        EXPECT_LT(op.entity.value(), 16u);
      }
    }
  }
}

TEST(WorkloadTest, DeterministicPerSeed) {
  WorkloadOptions opt;
  WorkloadGenerator a(opt, 9), b(opt, 9), c(opt, 10);
  bool differs = false;
  for (int i = 0; i < 20; ++i) {
    auto pa = a.Next();
    auto pb = b.Next();
    auto pc = c.Next();
    ASSERT_TRUE(pa.ok());
    ASSERT_TRUE(pb.ok());
    ASSERT_TRUE(pc.ok());
    EXPECT_EQ(pa.value().ToString(), pb.value().ToString());
    if (pa.value().ToString() != pc.value().ToString()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadTest, ClusteredPatternScoresZeroSpread) {
  WorkloadOptions opt;
  opt.pattern = WritePattern::kClustered;
  WorkloadGenerator gen(opt, 3);
  for (int i = 0; i < 20; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().WriteSpreadScore(), 0u) << p.value().ToString();
  }
}

TEST(WorkloadTest, ThreePhasePatternIsThreePhase) {
  WorkloadOptions opt;
  opt.pattern = WritePattern::kThreePhase;
  WorkloadGenerator gen(opt, 4);
  for (int i = 0; i < 20; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p.value().IsThreePhase()) << p.value().ToString();
  }
}

TEST(WorkloadTest, ScatteredPatternSpreadsWrites) {
  WorkloadOptions opt;
  opt.pattern = WritePattern::kScattered;
  opt.min_locks = 4;
  opt.max_locks = 8;
  opt.ops_per_entity = 3;
  WorkloadGenerator gen(opt, 5);
  std::uint64_t total_spread = 0;
  for (int i = 0; i < 30; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    total_spread += p.value().WriteSpreadScore();
  }
  EXPECT_GT(total_spread, 0u);
}

TEST(WorkloadTest, SharedFractionProducesSharedLocks) {
  WorkloadOptions opt;
  opt.shared_fraction = 1.0;
  WorkloadGenerator gen(opt, 6);
  auto p = gen.Next();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().CountOps(txn::OpCode::kLockExclusive), 0u);
  EXPECT_GT(p.value().CountOps(txn::OpCode::kLockShared), 0u);
  EXPECT_EQ(p.value().CountOps(txn::OpCode::kWrite), 0u);
}

TEST(WorkloadTest, SortedEntitiesLockInOrder) {
  WorkloadOptions opt;
  opt.sorted_entities = true;
  WorkloadGenerator gen(opt, 7);
  for (int i = 0; i < 20; ++i) {
    auto p = gen.Next();
    ASSERT_TRUE(p.ok());
    EntityId prev;
    for (const txn::Op& op : p.value().ops()) {
      if (op.code == txn::OpCode::kLockExclusive ||
          op.code == txn::OpCode::kLockShared) {
        if (prev.valid()) {
          EXPECT_LT(prev, op.entity);
        }
        prev = op.entity;
      }
    }
  }
}

TEST(WorkloadTest, InvalidLockRangeRejected) {
  WorkloadOptions opt;
  opt.min_locks = 5;
  opt.max_locks = 2;
  WorkloadGenerator gen(opt, 1);
  EXPECT_EQ(gen.Next().status().code(), StatusCode::kInvalidArgument);
}

TEST(SimDriverTest, SmallContentedRunCompletesSerializably) {
  SimOptions opt;
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.concurrency = 4;
  opt.total_txns = 40;
  opt.seed = 11;
  auto report = RunSimulation(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->committed, 40u);
  EXPECT_TRUE(report->serializable);
  EXPECT_GT(report->metrics.ops_executed, 0u);
  // Incremental generation: programs are drawn one admission at a time,
  // never batch-materialized ahead of the engine.
  EXPECT_EQ(report->peak_materialized_programs, 1u);
}

TEST(SimDriverTest, DeterministicReports) {
  SimOptions opt;
  opt.workload.num_entities = 6;
  opt.concurrency = 4;
  opt.total_txns = 30;
  opt.seed = 13;
  auto a = RunSimulation(opt);
  auto b = RunSimulation(opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->metrics.ops_executed, b->metrics.ops_executed);
  EXPECT_EQ(a->metrics.deadlocks, b->metrics.deadlocks);
  EXPECT_EQ(a->metrics.wasted_ops, b->metrics.wasted_ops);
  EXPECT_EQ(a->metrics.commits, b->metrics.commits);
}

// Collects the cost of every rollback the engine traces.
class RollbackCostTrace final : public core::TraceSink {
 public:
  void OnEvent(const core::TraceEvent& event) override {
    if (event.kind == core::TraceEvent::Kind::kRollback) {
      costs.push_back(event.cost);
    }
  }
  std::vector<std::uint64_t> costs;
};

// A long hotspot run with more rollbacks than the old 65,536-cost sample
// held (48 entities, zipf 0.8, 30% shared, 3-6 locks, concurrency 16,
// 24,000 txns, seed 13). The report line is pinned, and the cost
// percentiles cover every rollback: they equal nearest-rank percentiles
// over the traced costs.
TEST(SimDriverTest, LongHotspotRunCostsCoverEveryRollback) {
  SimOptions opt;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.engine.seed = 13;
  opt.seed = 13;
  opt.workload.num_entities = 48;
  opt.workload.zipf_theta = 0.8;
  opt.workload.shared_fraction = 0.3;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 6;
  opt.concurrency = 16;
  opt.total_txns = 24000;
  RollbackCostTrace trace;
  opt.trace = &trace;
  auto report = RunSimulation(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->ToString(),
            "committed=24000 ops=868179 deadlocks=36852 rollbacks=76169 "
            "(partial=32612, total=43557) wasted_ops=209689 "
            "wasted_frac=0.241527 goodput=0.0276441 serializable=yes");
  ASSERT_EQ(trace.costs.size(), 76169u);
  std::vector<std::uint64_t> sorted = trace.costs;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t n = sorted.size();
  std::uint64_t sum = 0;
  for (std::uint64_t c : sorted) sum += c;
  const core::CostDistribution& d = report->rollback_costs;
  EXPECT_EQ(d.count, 76169u);
  EXPECT_EQ(d.p50, sorted[(n * 50 + 99) / 100 - 1]);
  EXPECT_EQ(d.p95, sorted[(n * 95 + 99) / 100 - 1]);
  EXPECT_EQ(d.max, sorted.back());
  EXPECT_DOUBLE_EQ(d.mean, static_cast<double>(sum) / static_cast<double>(n));
}

TEST(SimDriverTest, NonPowerOfTwoHubSnapshotPeriodRoundsUpAndPublishes) {
  // A period of 100 used to be masked as-is (100 & 99 is not a valid
  // cadence mask); the driver now rounds it up to 128 internally.
  obs::LiveHub hub;
  SimOptions opt;
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.concurrency = 4;
  opt.total_txns = 40;
  opt.seed = 11;
  opt.hub = &hub;
  opt.hub_snapshot_period = 100;
  auto report = RunSimulation(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->committed, 40u);
  EXPECT_EQ(hub.Snapshots().size(), 1u);  // sim publishes as shard 0
}

TEST(SimDriverTest, SortedEntitiesNeverDeadlock) {
  // The hierarchical-order control: deadlock-free by construction.
  SimOptions opt;
  opt.workload.num_entities = 8;
  opt.workload.sorted_entities = true;
  opt.concurrency = 6;
  opt.total_txns = 60;
  opt.seed = 17;
  auto report = RunSimulation(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->metrics.deadlocks, 0u);
  EXPECT_EQ(report->metrics.rollbacks, 0u);
}

TEST(SimDriverTest, ContentionCausesDeadlocks) {
  SimOptions opt;
  opt.workload.num_entities = 4;  // tiny database, heavy contention
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 4;
  opt.concurrency = 6;
  opt.total_txns = 60;
  opt.seed = 19;
  auto report = RunSimulation(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->metrics.deadlocks, 0u);
  EXPECT_TRUE(report->serializable);
}

TEST(SimDriverTest, ReportToStringMentionsKeyFields) {
  SimOptions opt;
  opt.total_txns = 5;
  opt.concurrency = 2;
  auto report = RunSimulation(opt);
  ASSERT_TRUE(report.ok());
  std::string s = report->ToString();
  EXPECT_NE(s.find("committed=5"), std::string::npos);
  EXPECT_NE(s.find("serializable=yes"), std::string::npos);
}

}  // namespace
}  // namespace pardb::sim
