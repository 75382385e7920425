// Tests for the §3.3 distributed substrate: timestamp prevention schemes
// (wound-wait / wait-die) built on partial rollback, and per-site deadlock
// accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "dist/distributed.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb::dist {
namespace {

using core::DeadlockHandling;
using core::Engine;
using core::EngineOptions;
using core::StepOutcome;
using core::TxnStatus;
using txn::Operand;
using txn::ProgramBuilder;

txn::Program TwoLock(EntityId e1, EntityId e2, const std::string& name,
                     int fillers = 0) {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e1);
  for (int i = 0; i < fillers; ++i) {
    b.Compute(0, Operand::Var(0), txn::ArithOp::kAdd, Operand::Imm(1));
  }
  b.LockExclusive(e2);
  b.WriteImm(e1, 1).WriteImm(e2, 2).Commit();
  auto p = b.Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(SitePartitionTest, StableAndInRange) {
  for (std::uint64_t e = 0; e < 100; ++e) {
    std::uint32_t s = SiteOfEntity(EntityId(e), 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, SiteOfEntity(EntityId(e), 4));
  }
  EXPECT_EQ(SiteOfEntity(EntityId(5), 0), 0u);
  EXPECT_EQ(SiteOfEntity(EntityId(5), 1), 0u);
}

TEST(SitePartitionTest, SpreadsOverSites) {
  std::set<std::uint32_t> seen;
  for (std::uint64_t e = 0; e < 64; ++e) {
    seen.insert(SiteOfEntity(EntityId(e), 4));
  }
  EXPECT_EQ(seen.size(), 4u);
}

class PreventionTest : public ::testing::Test {
 protected:
  void Init(DeadlockHandling handling) {
    ids_ = store_.CreateMany(4, 100);
    EngineOptions opt;
    opt.handling = handling;
    engine_ = std::make_unique<Engine>(&store_, opt);
  }
  storage::EntityStore store_;
  std::unique_ptr<Engine> engine_;
  std::vector<EntityId> ids_;
};

TEST_F(PreventionTest, WoundWaitOlderPreemptsYoungerHolder) {
  Init(DeadlockHandling::kWoundWait);
  // t0 (older) and t1 (younger) conflict on entity 0; t1 holds it when t0
  // requests: t1 is wounded even though no deadlock exists yet.
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // t1 locks 0
  auto outcome = engine_->StepTxn(t0.value());     // t0 requests 0 -> wound
  ASSERT_TRUE(outcome.ok());
  // t1 was rolled back past its lock on 0; t0 holds it now.
  EXPECT_EQ(outcome.value(), StepOutcome::kExecuted);
  EXPECT_EQ(engine_->metrics().wounds, 1u);
  EXPECT_EQ(engine_->PreemptionCountOf(t1.value()), 1u);
  EXPECT_EQ(engine_->lock_manager().HeldMode(t0.value(), ids_[0]),
            lock::LockMode::kExclusive);
  EXPECT_EQ(engine_->StateIndexOf(t1.value()), 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WoundWaitYoungerWaitsForOlder) {
  Init(DeadlockHandling::kWoundWait);
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 (older) locks 0
  auto outcome = engine_->StepTxn(t1.value());     // t1 requests 0 -> waits
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kBlocked);
  EXPECT_EQ(engine_->metrics().wounds, 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WoundWaitNeverWoundsShrinkingHolder) {
  Init(DeadlockHandling::kWoundWait);
  // Younger t1 holds entity 0 and has already unlocked entity 2: it is in
  // its shrinking phase and cannot deadlock, so the older t0 simply waits.
  ProgramBuilder b("young-shrinking", 1);
  b.LockExclusive(ids_[2]).LockExclusive(ids_[0]);
  b.WriteImm(ids_[2], 9).Unlock(ids_[2]);
  b.WriteImm(ids_[0], 8).Commit();
  auto py = b.Build();
  ASSERT_TRUE(py.ok());
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(std::move(py).value());
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // through the unlock
  }
  auto outcome = engine_->StepTxn(t0.value());  // t0 requests 0
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kBlocked);
  EXPECT_EQ(engine_->metrics().wounds, 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WaitDieYoungerRequesterDies) {
  Init(DeadlockHandling::kWaitDie);
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 (older) locks 0
  auto outcome = engine_->StepTxn(t1.value());     // t1 requests 0 -> dies
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kRolledBack);
  EXPECT_EQ(engine_->metrics().deaths, 1u);
  // Nothing held an older transaction was queued for: a zero-cost
  // cancel-and-retry.
  EXPECT_EQ(engine_->metrics().wasted_ops, 0u);
  EXPECT_EQ(engine_->StatusOf(t1.value()), TxnStatus::kReady);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WaitDieOlderRequesterWaits) {
  Init(DeadlockHandling::kWaitDie);
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[0], ids_[2], "young"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // t1 (younger) locks 0
  auto outcome = engine_->StepTxn(t0.value());     // t0 requests 0 -> waits
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), StepOutcome::kBlocked);
  EXPECT_EQ(engine_->metrics().deaths, 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(PreventionTest, WaitDieReleasesLocksOlderTransactionsNeed) {
  Init(DeadlockHandling::kWaitDie);
  // t1 (young) holds entity 1 with 3 ops of progress; t0 (old) queues for
  // it; when t1 then dies against t0's hold on entity 0, its rollback must
  // reach back past entity 1 so t0 can proceed.
  auto t0 = engine_->Spawn(TwoLock(ids_[0], ids_[1], "old"));
  auto t1 = engine_->Spawn(TwoLock(ids_[1], ids_[0], "young", 3));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // lock 1 + fillers
  }
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 locks 0
  auto w0 = engine_->StepTxn(t0.value());          // t0 queues for 1 (waits)
  ASSERT_TRUE(w0.ok());
  EXPECT_EQ(w0.value(), StepOutcome::kBlocked);
  auto died = engine_->StepTxn(t1.value());  // t1 requests 0 -> dies
  ASSERT_TRUE(died.ok());
  EXPECT_EQ(died.value(), StepOutcome::kRolledBack);
  EXPECT_EQ(engine_->metrics().deaths, 1u);
  EXPECT_GT(engine_->metrics().wasted_ops, 0u);  // real progress lost
  // t0 got entity 1.
  EXPECT_EQ(engine_->lock_manager().HeldMode(t0.value(), ids_[1]),
            lock::LockMode::kExclusive);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST(PreventionLivenessTest, BothSchemesCompleteContendedWorkloads) {
  for (auto handling :
       {DeadlockHandling::kWoundWait, DeadlockHandling::kWaitDie}) {
    for (auto strategy : {rollback::StrategyKind::kTotalRestart,
                          rollback::StrategyKind::kMcs,
                          rollback::StrategyKind::kSdg}) {
      DistOptions opt;
      opt.engine.handling = handling;
      opt.engine.strategy = strategy;
      opt.engine.scheduler = core::SchedulerKind::kRandom;
      opt.workload.num_entities = 6;
      opt.workload.min_locks = 2;
      opt.workload.max_locks = 4;
      opt.concurrency = 6;
      opt.total_txns = 60;
      opt.seed = 5;
      auto rep = RunDistributed(opt);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      EXPECT_TRUE(rep->completed) << rep->ToString();
      EXPECT_EQ(rep->committed, 60u);
      EXPECT_TRUE(rep->serializable) << rep->ToString();
      // Prevention never runs the cycle detector.
      EXPECT_EQ(rep->metrics.deadlocks, 0u);
      if (handling == DeadlockHandling::kWoundWait) {
        EXPECT_EQ(rep->metrics.deaths, 0u);
      } else {
        EXPECT_EQ(rep->metrics.wounds, 0u);
      }
    }
  }
}

TEST(PreventionLivenessTest, SharedLockWorkloadsComplete) {
  for (auto handling :
       {DeadlockHandling::kWoundWait, DeadlockHandling::kWaitDie}) {
    DistOptions opt;
    opt.engine.handling = handling;
    opt.workload.num_entities = 6;
    opt.workload.shared_fraction = 0.5;
    opt.concurrency = 6;
    opt.total_txns = 60;
    opt.seed = 11;
    auto rep = RunDistributed(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_TRUE(rep->completed) << rep->ToString();
    EXPECT_TRUE(rep->serializable);
  }
}

TEST(DistributedReportTest, DetectionModeClassifiesDeadlockSites) {
  DistOptions small;
  small.num_sites = 4;
  small.engine.handling = DeadlockHandling::kDetection;
  small.workload.num_entities = 8;
  small.workload.min_locks = 3;
  small.workload.max_locks = 5;
  small.concurrency = 8;
  small.total_txns = 120;
  small.seed = 3;
  // A hot shared-lock run resolving 6,064 deadlocks: every one of them must
  // be classified, not just the first few thousand.
  DistOptions hot;
  hot.num_sites = 4;
  hot.engine.handling = DeadlockHandling::kDetection;
  hot.workload.num_entities = 48;
  hot.workload.zipf_theta = 0.8;
  hot.workload.shared_fraction = 0.3;
  hot.workload.min_locks = 3;
  hot.workload.max_locks = 6;
  hot.concurrency = 16;
  hot.total_txns = 4000;
  hot.seed = 13;
  for (const DistOptions& opt : {small, hot}) {
    SCOPED_TRACE(opt.total_txns);
    auto rep = RunDistributed(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_TRUE(rep->completed);
    EXPECT_GT(rep->metrics.deadlocks, 0u);
    EXPECT_EQ(rep->deadlocks_local + rep->deadlocks_multi_site,
              rep->metrics.deadlocks);
    // Entities hashed over 4 sites: most 2+-entity cycles span sites.
    EXPECT_GT(rep->deadlocks_multi_site, 0u);
    EXPECT_GE(rep->max_sites_in_deadlock, 2u);
    std::string s = rep->ToString();
    EXPECT_NE(s.find("multi-site="), std::string::npos);
  }
}

TEST(DistributedReportTest, PreventionCostsMoreRollbacksButNoGraph) {
  // Same workload under detection and wound-wait: prevention needs no
  // cycle enumeration but preempts on conflicts, not deadlocks, so it
  // rolls back at least as often.
  DistOptions base;
  base.workload.num_entities = 8;
  base.workload.min_locks = 3;
  base.workload.max_locks = 5;
  base.concurrency = 8;
  base.total_txns = 120;
  base.seed = 9;

  auto detect = base;
  detect.engine.handling = DeadlockHandling::kDetection;
  auto dr = RunDistributed(detect);
  ASSERT_TRUE(dr.ok());

  auto wound = base;
  wound.engine.handling = DeadlockHandling::kWoundWait;
  auto wr = RunDistributed(wound);
  ASSERT_TRUE(wr.ok());

  EXPECT_GE(wr->metrics.rollbacks, dr->metrics.rollbacks);
  EXPECT_EQ(wr->metrics.cycles_found, 0u);
  EXPECT_GT(dr->metrics.cycles_found, 0u);
}

// bench_distributed's Base shape (24 entities over 4 sites, zipf 0.6,
// 3-6 locks, concurrency 12, 400 txns, random scheduler). Pins the report
// line, the executed-op count and the site classification, so a change to
// how the run is driven or how dumps reach the site classifier shows as a
// string diff.
std::string BaseShapeLine(DeadlockHandling handling, std::uint64_t seed) {
  DistOptions opt;
  opt.num_sites = 4;
  opt.workload.num_entities = 24;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 6;
  opt.workload.ops_per_entity = 3;
  opt.workload.zipf_theta = 0.6;
  opt.concurrency = 12;
  opt.total_txns = 400;
  opt.seed = seed;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.engine.seed = seed;
  opt.engine.handling = handling;
  auto rep = RunDistributed(opt);
  if (!rep.ok()) return rep.status().ToString();
  // ToString already carries the local / multi-site split.
  return rep->ToString() +
         " ops=" + std::to_string(rep->metrics.ops_executed) +
         " widest=" + std::to_string(rep->max_sites_in_deadlock);
}

TEST(DistributedReportTest, BaseShapeGoldens) {
  struct Golden {
    DeadlockHandling handling;
    std::uint64_t seed;
    const char* line;
  };
  const Golden goldens[] = {
      {DeadlockHandling::kDetection, 31,
       "committed=400 deadlocks=708 (local=61, multi-site=647)"
       " wounds=0 deaths=0"
       " rollbacks=1236 wasted=5983 serializable=yes ops=24540 widest=4"},
      {DeadlockHandling::kDetection, 7,
       "committed=400 deadlocks=636 (local=88, multi-site=548)"
       " wounds=0 deaths=0"
       " rollbacks=1180 wasted=6006 serializable=yes ops=24484 widest=4"},
      {DeadlockHandling::kWoundWait, 31,
       "committed=400 deadlocks=0 (local=0, multi-site=0)"
       " wounds=2095 deaths=0"
       " rollbacks=2095 wasted=6225 serializable=yes ops=24685 widest=0"},
      {DeadlockHandling::kWoundWait, 7,
       "committed=400 deadlocks=0 (local=0, multi-site=0)"
       " wounds=2052 deaths=0"
       " rollbacks=2052 wasted=6286 serializable=yes ops=24646 widest=0"},
      {DeadlockHandling::kWaitDie, 31,
       "committed=400 deadlocks=0 (local=0, multi-site=0)"
       " wounds=0 deaths=122275"
       " rollbacks=122275 wasted=6757 serializable=yes ops=25217 widest=0"},
      {DeadlockHandling::kWaitDie, 7,
       "committed=400 deadlocks=0 (local=0, multi-site=0)"
       " wounds=0 deaths=118081"
       " rollbacks=118081 wasted=6520 serializable=yes ops=24880 widest=0"},
  };
  for (const Golden& g : goldens) {
    EXPECT_EQ(BaseShapeLine(g.handling, g.seed), g.line)
        << core::DeadlockHandlingName(g.handling) << " seed " << g.seed;
  }
}

TEST(DistributedReportTest, EmptyWorkloadReportStaysFinite) {
  // Zero transactions -> zero commits and zero executed ops. Every report
  // fraction must degrade to a finite 0.0, never NaN/inf.
  DistOptions opt;
  opt.total_txns = 0;
  auto rep = RunDistributed(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->committed, 0u);
  EXPECT_EQ(rep->metrics.ops_executed, 0u);
  EXPECT_TRUE(std::isfinite(rep->wasted_fraction));
  EXPECT_TRUE(std::isfinite(rep->goodput));
  EXPECT_TRUE(std::isfinite(rep->multi_site_fraction));
  EXPECT_EQ(rep->wasted_fraction, 0.0);
  EXPECT_EQ(rep->goodput, 0.0);
  EXPECT_EQ(rep->multi_site_fraction, 0.0);
}

}  // namespace
}  // namespace pardb::dist
