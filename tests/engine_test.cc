#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/history.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/vertex_cut.h"
#include "core/victim_policy.h"
#include "obs/forensics.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb::core {
namespace {

using rollback::StrategyKind;
using txn::ArithOp;
using txn::Operand;
using txn::ProgramBuilder;

txn::Program Build(ProgramBuilder& b) {
  auto p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

// Increment entity `e` by `delta` via a read-modify-write.
txn::Program IncrementProgram(EntityId e, Value delta,
                              const std::string& name = "inc") {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e)
      .Read(e, 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(delta))
      .WriteVar(e, 0)
      .Commit();
  return Build(b);
}

// Locks e1 then e2 and increments both.
txn::Program TwoLockProgram(EntityId e1, EntityId e2, Value delta,
                            const std::string& name) {
  ProgramBuilder b(name, 1);
  b.LockExclusive(e1)
      .Read(e1, 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(delta))
      .WriteVar(e1, 0)
      .LockExclusive(e2)
      .Read(e2, 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(delta))
      .WriteVar(e2, 0)
      .Commit();
  return Build(b);
}

class EngineTest : public ::testing::Test {
 protected:
  void Init(EngineOptions options = {}) {
    ids_ = store_.CreateMany(8, 100);
    engine_ = std::make_unique<Engine>(&store_, options, &recorder_);
    engine_->set_forensics(&deadlocks_);
  }

  storage::EntityStore store_;
  analysis::HistoryRecorder recorder_;
  obs::CollectingDeadlockSink deadlocks_;
  std::unique_ptr<Engine> engine_;
  std::vector<EntityId> ids_;
};

TEST_F(EngineTest, SingleTransactionCommits) {
  Init();
  auto t = engine_->Spawn(IncrementProgram(EntityId(0), 5));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->StatusOf(t.value()), TxnStatus::kCommitted);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 105);
  EXPECT_EQ(engine_->metrics().commits, 1u);
  EXPECT_EQ(engine_->metrics().deadlocks, 0u);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, SpawnRejectsUnknownEntity) {
  Init();
  auto t = engine_->Spawn(IncrementProgram(EntityId(999), 1));
  EXPECT_TRUE(t.status().IsNotFound());
}

TEST_F(EngineTest, StepUnknownTransactionFails) {
  Init();
  EXPECT_TRUE(engine_->StepTxn(TxnId(77)).status().IsNotFound());
}

TEST_F(EngineTest, IndependentTransactionsInterleave) {
  Init();
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(1), 2)).ok());
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(2), 3)).ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 101);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 102);
  EXPECT_EQ(store_.Get(EntityId(2)).value().value, 103);
  EXPECT_EQ(engine_->metrics().deadlocks, 0u);
}

TEST_F(EngineTest, ConflictingTransactionsSerialize) {
  Init();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 104);
  EXPECT_GE(engine_->metrics().lock_waits, 1u);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, DeadlockResolvedAndBothCommit) {
  Init();
  auto ta = engine_->Spawn(
      TwoLockProgram(EntityId(0), EntityId(1), 1, "fwd"));
  auto tb = engine_->Spawn(
      TwoLockProgram(EntityId(1), EntityId(0), 10, "rev"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_EQ(engine_->metrics().deadlocks, 1u);
  EXPECT_EQ(engine_->metrics().rollbacks, 1u);
  // Both increments applied exactly once despite the rollback re-execution.
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 111);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 111);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, PartialRollbackKeepsEarlierLocks) {
  // Victim locks a "home" entity first; a partial rollback to the
  // conflicting lock keeps it, a total restart would release it.
  EngineOptions opt;
  opt.strategy = StrategyKind::kMcs;
  opt.victim_policy = VictimPolicyKind::kMinCost;
  Init(opt);

  // T0: home(2) -> 0 -> 1 ; T1: 1 -> 0. T0's conflict is over entity 0/1,
  // not its home lock.
  ProgramBuilder b0("t0", 1);
  b0.LockExclusive(EntityId(2))
      .Read(EntityId(2), 0)
      .LockExclusive(EntityId(0))
      .Read(EntityId(0), 0)
      .LockExclusive(EntityId(1))
      .WriteVar(EntityId(1), 0)
      .Commit();
  auto t0 = engine_->Spawn(Build(b0));
  auto t1 =
      engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 5, "t1"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());

  // Drive to deadlock: T0 holds 2,0; T1 holds 1; T0 requests 1; T1
  // requests 0.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // lock 2, read, lock 0,
                                                     // read
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // lock 1, rmw on 1
  }
  auto blocked = engine_->StepTxn(t0.value());  // request 1 -> wait
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked.value(), StepOutcome::kBlocked);
  auto resolved = engine_->StepTxn(t1.value());  // request 0 -> deadlock
  ASSERT_TRUE(resolved.ok());

  ASSERT_EQ(deadlocks_.dumps().size(), 1u);
  const obs::DeadlockDump& ev = deadlocks_.dumps()[0];
  EXPECT_EQ(ev.requester, t1.value());
  ASSERT_EQ(ev.victims.size(), 1u);
  EXPECT_EQ(engine_->metrics().partial_rollbacks +
                engine_->metrics().total_rollbacks,
            1u);
  if (ev.victims[0] == t0.value()) {
    // T0 rolled back to before locking entity 0: home lock kept.
    EXPECT_TRUE(
        engine_->lock_manager().HeldMode(t0.value(), EntityId(2)).has_value());
    EXPECT_EQ(engine_->metrics().partial_rollbacks, 1u);
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, TotalRestartStrategyAlwaysRollsToZero) {
  EngineOptions opt;
  opt.strategy = StrategyKind::kTotalRestart;
  Init(opt);
  ASSERT_TRUE(
      engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a")).ok());
  ASSERT_TRUE(
      engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b")).ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->metrics().partial_rollbacks, 0u);
  EXPECT_GE(engine_->metrics().total_rollbacks, 1u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 103);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 103);
}

TEST_F(EngineTest, ExplicitUnlockPublishesEarly) {
  Init();
  ProgramBuilder b("unlocker", 1);
  b.LockExclusive(EntityId(0))
      .Read(EntityId(0), 0)
      .Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(7))
      .WriteVar(EntityId(0), 0)
      .Unlock(EntityId(0))
      .Commit();
  auto t = engine_->Spawn(Build(b));
  ASSERT_TRUE(t.ok());
  // Step up to and including the unlock.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(engine_->StepTxn(t.value()).ok());
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 107);
  EXPECT_EQ(store_.Get(EntityId(0)).value().version, 1u);
  EXPECT_EQ(engine_->StatusOf(t.value()), TxnStatus::kReady);  // not done yet
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(EngineTest, ImplicitCommitWithoutCommitOp) {
  Init();
  ProgramBuilder b("no-commit", 1);
  b.LockExclusive(EntityId(0)).Read(EntityId(0), 0).WriteVar(EntityId(0), 0);
  auto t = engine_->Spawn(Build(b));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->StatusOf(t.value()), TxnStatus::kCommitted);
  EXPECT_EQ(store_.Get(EntityId(0)).value().version, 1u);
}

TEST_F(EngineTest, UpgradeDeadlockResolved) {
  // Classic upgrade deadlock: both S-hold entity 0, both upgrade.
  Init();
  auto MakeUpgrader = [&](const std::string& name) {
    ProgramBuilder b(name, 1);
    b.LockShared(EntityId(0))
        .Read(EntityId(0), 0)
        .LockExclusive(EntityId(0))
        .WriteVar(EntityId(0), 0)
        .Commit();
    return Build(b);
  };
  auto t0 = engine_->Spawn(MakeUpgrader("u0"));
  auto t1 = engine_->Spawn(MakeUpgrader("u1"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // S(0)
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // S(0)
  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // read
  ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // read
  auto w0 = engine_->StepTxn(t0.value());          // upgrade waits on t1
  ASSERT_TRUE(w0.ok());
  EXPECT_EQ(w0.value(), StepOutcome::kBlocked);
  auto w1 = engine_->StepTxn(t1.value());  // upgrade -> deadlock
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_EQ(engine_->metrics().deadlocks, 1u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 100);  // writes of v0=100
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, RequesterPolicyRollsBackRequester) {
  EngineOptions opt;
  opt.victim_policy = VictimPolicyKind::kRequester;
  Init(opt);
  auto ta =
      engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb =
      engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  ASSERT_GE(deadlocks_.dumps().size(), 1u);
  const auto& ev = deadlocks_.dumps()[0];
  EXPECT_EQ(ev.victims, std::vector<TxnId>{ev.requester});
  EXPECT_EQ(engine_->metrics().preemptions, 0u);
}

TEST_F(EngineTest, YoungestAndOldestPolicies) {
  for (auto kind : {VictimPolicyKind::kYoungest, VictimPolicyKind::kOldest}) {
    EngineOptions opt;
    opt.victim_policy = kind;
    storage::EntityStore store;
    store.CreateMany(4, 0);
    Engine engine(&store, opt);
    obs::CollectingDeadlockSink deadlocks;
    engine.set_forensics(&deadlocks);
    auto ta = engine.Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
    auto tb = engine.Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    ASSERT_TRUE(engine.RunToCompletion().ok());
    ASSERT_GE(deadlocks.dumps().size(), 1u);
    const auto& ev = deadlocks.dumps()[0];
    ASSERT_EQ(ev.victims.size(), 1u);
    if (kind == VictimPolicyKind::kYoungest) {
      EXPECT_EQ(ev.victims[0], tb.value());  // entered later
    } else {
      EXPECT_EQ(ev.victims[0], ta.value());
    }
  }
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto RunOnce = [](std::uint64_t seed) {
    storage::EntityStore store;
    store.CreateMany(4, 100);
    EngineOptions opt;
    opt.scheduler = SchedulerKind::kRandom;
    opt.seed = seed;
    Engine engine(&store, opt);
    for (int i = 0; i < 3; ++i) {
      auto p = TwoLockProgram(EntityId(i % 2), EntityId((i + 1) % 2), i + 1,
                              "t" + std::to_string(i));
      EXPECT_TRUE(engine.Spawn(std::move(p)).ok());
    }
    EXPECT_TRUE(engine.RunToCompletion().ok());
    return std::make_tuple(engine.metrics().ops_executed,
                           engine.metrics().deadlocks,
                           engine.metrics().wasted_ops,
                           store.Get(EntityId(0)).value().value,
                           store.Get(EntityId(1)).value().value);
  };
  EXPECT_EQ(RunOnce(7), RunOnce(7));
  EXPECT_EQ(RunOnce(8), RunOnce(8));
}

TEST_F(EngineTest, MetricsCountWastedOps) {
  EngineOptions opt;
  opt.victim_policy = VictimPolicyKind::kMinCost;
  Init(opt);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_GT(engine_->metrics().wasted_ops, 0u);
  EXPECT_EQ(engine_->metrics().wasted_ops, engine_->metrics().ideal_wasted_ops)
      << "MCS rollback is exact";
}

TEST_F(EngineTest, PreemptionCounterTracksNonRequesterVictims) {
  EngineOptions opt;
  opt.victim_policy = VictimPolicyKind::kMinCost;
  Init(opt);
  // The requester's rollback is expensive (20 filler ops after its first
  // lock), the other transaction's is cheap: min-cost preempts the cheap
  // one even though it did not cause the conflict.
  ProgramBuilder b0("cheap", 1);
  b0.LockExclusive(EntityId(0)).LockExclusive(EntityId(1)).Commit();
  auto t0 = engine_->Spawn(Build(b0));

  ProgramBuilder b1("expensive-requester", 1);
  b1.LockExclusive(EntityId(1));
  for (int i = 0; i < 20; ++i) {
    b1.Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1));
  }
  b1.LockExclusive(EntityId(0)).Commit();
  auto t1 = engine_->Spawn(Build(b1));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());

  ASSERT_TRUE(engine_->StepTxn(t0.value()).ok());  // t0 locks 0
  for (int i = 0; i < 21; ++i) {
    ASSERT_TRUE(engine_->StepTxn(t1.value()).ok());  // t1 locks 1 + work
  }
  auto blocked = engine_->StepTxn(t0.value());  // t0 waits on 1 (cost 1)
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(blocked.value(), StepOutcome::kBlocked);
  auto outcome = engine_->StepTxn(t1.value());  // t1 waits on 0 -> deadlock
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(deadlocks_.dumps().size(), 1u);
  const auto& ev = deadlocks_.dumps()[0];
  EXPECT_EQ(ev.requester, t1.value());
  ASSERT_EQ(ev.victims.size(), 1u);
  EXPECT_EQ(ev.victims[0], t0.value());  // cheaper victim preempted
  EXPECT_EQ(engine_->metrics().preemptions, 1u);
  EXPECT_EQ(engine_->PreemptionCountOf(t0.value()), 1u);
  EXPECT_EQ(engine_->PreemptionCountOf(t1.value()), 0u);
  ASSERT_TRUE(engine_->RunToCompletion().ok());
}

TEST_F(EngineTest, TimeoutHandlingResolvesDeadlock) {
  EngineOptions opt;
  opt.handling = core::DeadlockHandling::kTimeout;
  opt.wait_timeout_steps = 10;
  Init(opt);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  // RunToCompletion uses StepAny, which expires stale waits.
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_GE(engine_->metrics().timeouts, 1u);
  EXPECT_EQ(engine_->metrics().deadlocks, 0u);  // no graph detection ran
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 103);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 103);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, TimeoutDoesNotFireOnShortWaits) {
  EngineOptions opt;
  opt.handling = core::DeadlockHandling::kTimeout;
  opt.wait_timeout_steps = 1000;
  Init(opt);
  // Pure queueing without deadlock: nothing should ever time out.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(engine_->metrics().timeouts, 0u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 103);
}

TEST_F(EngineTest, PeriodicDetectionResolvesDeadlocks) {
  EngineOptions opt;
  opt.detection_mode = core::DetectionMode::kPeriodic;
  opt.detection_period = 16;
  Init(opt);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 10, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_GE(engine_->metrics().periodic_scans, 1u);
  EXPECT_EQ(engine_->metrics().deadlocks, 1u);
  EXPECT_EQ(store_.Get(EntityId(0)).value().value, 111);
  EXPECT_EQ(store_.Get(EntityId(1)).value().value, 111);
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, PeriodicDetectionCompletesContendedWorkload) {
  EngineOptions opt;
  opt.detection_mode = core::DetectionMode::kPeriodic;
  opt.detection_period = 64;
  opt.scheduler = SchedulerKind::kRandom;
  Init(opt);
  for (int i = 0; i < 6; ++i) {
    auto p = TwoLockProgram(EntityId(i % 3), EntityId((i + 1) % 3), i,
                            "t" + std::to_string(i));
    ASSERT_TRUE(engine_->Spawn(std::move(p)).ok());
  }
  ASSERT_TRUE(engine_->RunToCompletion().ok()) << engine_->DumpState();
  EXPECT_TRUE(recorder_.IsConflictSerializable());
}

TEST_F(EngineTest, TraceRecordsProtocolEvents) {
  Init();
  RingTrace trace(64);
  engine_->set_trace(&trace);
  auto ta = engine_->Spawn(TwoLockProgram(EntityId(0), EntityId(1), 1, "a"));
  auto tb = engine_->Spawn(TwoLockProgram(EntityId(1), EntityId(0), 2, "b"));
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE(engine_->RunToCompletion().ok());
  EXPECT_EQ(trace.CountOf(TraceEvent::Kind::kSpawn), 2u);
  EXPECT_EQ(trace.CountOf(TraceEvent::Kind::kCommit), 2u);
  EXPECT_EQ(trace.CountOf(TraceEvent::Kind::kDeadlock), 1u);
  EXPECT_EQ(trace.CountOf(TraceEvent::Kind::kRollback), 1u);
  EXPECT_GE(trace.CountOf(TraceEvent::Kind::kBlocked), 1u);
  // Re-granted locks after the rollback: at least 4 grants + re-grants.
  EXPECT_GE(trace.CountOf(TraceEvent::Kind::kLockGranted), 4u);
  std::string s = trace.ToString();
  EXPECT_NE(s.find("deadlock"), std::string::npos);
  EXPECT_NE(s.find("rollback"), std::string::npos);
  EXPECT_NE(s.find("commit"), std::string::npos);
}

TEST(RingTraceTest, CapacityBoundsWindowButNotCounts) {
  RingTrace trace(2);
  for (int i = 0; i < 5; ++i) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kCommit;
    ev.step = static_cast<std::uint64_t>(i);
    ev.txn = TxnId(static_cast<std::uint64_t>(i));
    trace.OnEvent(ev);
  }
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.total_events(), 5u);
  EXPECT_EQ(trace.CountOf(TraceEvent::Kind::kCommit), 5u);
  EXPECT_EQ(trace.events().front().step, 3u);  // oldest retained
}

TEST(TraceEventTest, ToStringFormats) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kRollback;
  ev.step = 7;
  ev.txn = TxnId(3);
  ev.pc = 12;
  ev.target = 1;
  ev.cost = 4;
  EXPECT_EQ(ev.ToString(), "[7] rollback T3 pc=12 -> lock state 1 (cost 4)");
  TraceEvent g;
  g.kind = TraceEvent::Kind::kLockGranted;
  g.txn = TxnId(1);
  g.entity = EntityId(9);
  g.pc = 2;
  g.step = 1;
  EXPECT_EQ(g.ToString(), "[1] grant T1 pc=2 entity=E9");
}

TEST(VictimPolicyTest, MinCostPicksCheapest) {
  std::vector<VictimCandidate> cs(3);
  cs[0] = {TxnId(1), 10, 2, 2, 7, 7, false};
  cs[1] = {TxnId(2), 11, 1, 1, 4, 4, true};
  cs[2] = {TxnId(3), 12, 0, 0, 9, 9, false};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kMinCost, cs, 11).txn, TxnId(2));
}

TEST(VictimPolicyTest, MinCostTieBreaksBySmallerId) {
  std::vector<VictimCandidate> cs(2);
  cs[0] = {TxnId(5), 10, 0, 0, 4, 4, false};
  cs[1] = {TxnId(3), 11, 0, 0, 4, 4, true};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kMinCost, cs, 11).txn, TxnId(3));
}

TEST(VictimPolicyTest, OrderedExcludesOlderThanRequester) {
  // Requester entry = 10. Candidate entry 5 is older: protected.
  std::vector<VictimCandidate> cs(3);
  cs[0] = {TxnId(1), 5, 0, 0, 1, 1, false};    // oldest, cheapest — protected
  cs[1] = {TxnId(2), 10, 0, 0, 6, 6, true};    // the requester
  cs[2] = {TxnId(3), 15, 0, 0, 4, 4, false};   // younger
  const auto& pick =
      ChooseVictim(VictimPolicyKind::kMinCostOrdered, cs, 10);
  EXPECT_EQ(pick.txn, TxnId(3));
}

TEST(VictimPolicyTest, OrderedFallsBackToRequester) {
  std::vector<VictimCandidate> cs(2);
  cs[0] = {TxnId(1), 5, 0, 0, 1, 1, false};
  cs[1] = {TxnId(2), 10, 0, 0, 6, 6, true};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kMinCostOrdered, cs, 10).txn,
            TxnId(2));
}

TEST(VictimPolicyTest, YoungestOldestRequester) {
  std::vector<VictimCandidate> cs(3);
  cs[0] = {TxnId(1), 5, 0, 0, 1, 1, false};
  cs[1] = {TxnId(2), 10, 0, 0, 6, 6, true};
  cs[2] = {TxnId(3), 15, 0, 0, 4, 4, false};
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kYoungest, cs, 10).txn, TxnId(3));
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kOldest, cs, 10).txn, TxnId(1));
  EXPECT_EQ(ChooseVictim(VictimPolicyKind::kRequester, cs, 10).txn, TxnId(2));
}

TEST(VictimPolicyTest, KindNames) {
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kMinCost), "min-cost");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kMinCostOrdered),
            "min-cost-ordered");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kYoungest), "youngest");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kOldest), "oldest");
  EXPECT_EQ(VictimPolicyKindName(VictimPolicyKind::kRequester), "requester");
}

TEST(VertexCutTest, SingleCycleSinglePick) {
  // One cycle over members {0,1,2} with costs {5,3,9}: pick {1}.
  VertexCutResult r = SolveVertexCut({{0, 1, 2}}, {5, 3, 9});
  EXPECT_EQ(r.members, std::vector<std::size_t>{1});
  EXPECT_EQ(r.total_cost, 3u);
  EXPECT_TRUE(r.exact);
}

TEST(VertexCutTest, SharedMemberBeatsTwoPicks) {
  // Cycles {0,1} and {0,2}; costs 0:5, 1:2, 2:2. {1,2} costs 4 < {0}=5.
  VertexCutResult r = SolveVertexCut({{0, 1}, {0, 2}}, {5, 2, 2});
  EXPECT_EQ(r.members, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(r.total_cost, 4u);
}

TEST(VertexCutTest, HubCheaperThanPair) {
  VertexCutResult r = SolveVertexCut({{0, 1}, {0, 2}}, {3, 2, 2});
  EXPECT_EQ(r.members, std::vector<std::size_t>{0});
  EXPECT_EQ(r.total_cost, 3u);
}

// ---------------------------------------------------------------------------
// StepQuantum: bounded quanta must not disturb the step sequence
// ---------------------------------------------------------------------------

// Spawns a contended crossing-lock-order mix (deadlocks included) into a
// fresh engine over `store`.
void SpawnContendedMix(Engine& engine, const std::vector<EntityId>& ids) {
  for (int i = 0; i < 8; ++i) {
    const EntityId a = ids[i % 4];
    const EntityId b = ids[(i + 1) % 4];
    auto t = engine.Spawn(i % 2 == 0 ? TwoLockProgram(a, b, 1, "fwd")
                                     : TwoLockProgram(b, a, 1, "rev"));
    ASSERT_TRUE(t.ok());
  }
}

TEST(StepQuantumTest, ChoppingIntoArbitraryQuantaMatchesOneUnboundedRun) {
  EngineOptions opt;
  opt.scheduler = SchedulerKind::kRandom;
  opt.seed = 5;

  storage::EntityStore store_a;
  auto ids_a = store_a.CreateMany(8, 100);
  Engine a(&store_a, opt);
  SpawnContendedMix(a, ids_a);
  ASSERT_TRUE(a.RunToCompletion().ok());

  storage::EntityStore store_b;
  auto ids_b = store_b.CreateMany(8, 100);
  Engine b(&store_b, opt);
  SpawnContendedMix(b, ids_b);
  // Ragged quantum sizes, nothing aligned with commits or deadlocks: the
  // engine keeps no per-quantum state, so the step sequence must be the
  // one RunToCompletion produced.
  const std::uint64_t budgets[] = {1, 2, 3, 5, 7};
  for (std::size_t i = 0; !b.AllCommitted(); ++i) {
    auto qr = b.StepQuantum(budgets[i % 5]);
    ASSERT_TRUE(qr.ok()) << qr.status().ToString();
    ASSERT_FALSE(qr->ran_dry);
    ASSERT_LT(i, 10'000u) << "quantum loop failed to converge";
  }

  EXPECT_EQ(a.metrics().commits, b.metrics().commits);
  EXPECT_EQ(a.metrics().rollbacks, b.metrics().rollbacks);
  EXPECT_EQ(a.metrics().deadlocks, b.metrics().deadlocks);
  EXPECT_EQ(a.metrics().ops_executed, b.metrics().ops_executed);
  EXPECT_EQ(a.metrics().lock_waits, b.metrics().lock_waits);
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    EXPECT_EQ(store_a.Get(ids_a[i]).value().value,
              store_b.Get(ids_b[i]).value().value);
  }
}

TEST_F(EngineTest, StepQuantumStopsRightAfterACommitWhenAsked) {
  Init();
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(1), 1)).ok());
  auto qr = engine_->StepQuantum(1000, /*stop_after_commit=*/true);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(qr->committed);
  EXPECT_EQ(engine_->metrics().commits, 1u);  // stopped at the first commit
  EXPECT_FALSE(engine_->AllCommitted());
  qr = engine_->StepQuantum(1000, /*stop_after_commit=*/true);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(qr->committed);
  EXPECT_TRUE(engine_->AllCommitted());
}

TEST_F(EngineTest, StepQuantumRespectsTheStepBudget) {
  Init();
  ASSERT_TRUE(engine_->Spawn(IncrementProgram(EntityId(0), 1)).ok());
  auto qr = engine_->StepQuantum(2);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->steps, 2u);
  EXPECT_FALSE(qr->ran_dry);
  EXPECT_FALSE(qr->committed);
  EXPECT_FALSE(engine_->AllCommitted());
  ASSERT_TRUE(engine_->StepQuantum(1000).ok());
  EXPECT_TRUE(engine_->AllCommitted());
}

TEST_F(EngineTest, StepQuantumOnEmptyEngineDoesNothing) {
  Init();
  auto qr = engine_->StepQuantum(100);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->steps, 0u);
  EXPECT_FALSE(qr->ran_dry);
  EXPECT_FALSE(qr->committed);
}

TEST(VertexCutTest, EmptyCyclesNoVictims) {
  VertexCutResult r = SolveVertexCut({}, {});
  EXPECT_TRUE(r.members.empty());
  EXPECT_EQ(r.total_cost, 0u);
}

TEST(VertexCutTest, GreedyFallbackStillCovers) {
  // Force greedy with exact_limit = 1.
  VertexCutResult r = SolveVertexCut({{0, 1}, {1, 2}, {2, 3}},
                                     {1, 1, 1, 1}, /*exact_limit=*/1);
  EXPECT_FALSE(r.exact);
  // Whatever it picked must hit all three cycles.
  auto Hit = [&](std::initializer_list<std::size_t> cycle) {
    for (std::size_t m : r.members) {
      for (std::size_t c : cycle) {
        if (m == c) return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(Hit({0, 1}));
  EXPECT_TRUE(Hit({1, 2}));
  EXPECT_TRUE(Hit({2, 3}));
}

TEST(VertexCutTest, ExactBeatsGreedyOnAdversarialInstance) {
  // Greedy ratio favors member 2 (covers both cycles, cost 3) but the
  // optimum is {0,1} with cost 2.
  VertexCutResult exact =
      SolveVertexCut({{0, 2}, {1, 2}}, {1, 1, 3}, /*exact_limit=*/10);
  EXPECT_EQ(exact.total_cost, 2u);
  EXPECT_EQ(exact.members, (std::vector<std::size_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Vertex cut: properties against brute force and a list-based transcription
// ---------------------------------------------------------------------------

using Cycles = std::vector<std::vector<std::size_t>>;

bool Covers(const Cycles& cycles, const std::vector<std::size_t>& cut) {
  for (const auto& cycle : cycles) {
    bool hit = false;
    for (std::size_t m : cycle) {
      hit = hit || std::find(cut.begin(), cut.end(), m) != cut.end();
    }
    if (!hit) return false;
  }
  return true;
}

// Minimum cut cost over every subset of members (at most ~12 of them).
std::uint64_t BruteForceCutCost(const Cycles& cycles,
                                const std::vector<std::uint64_t>& costs) {
  std::uint64_t best = ~std::uint64_t{0};
  for (std::uint32_t mask = 0; mask < (1u << costs.size()); ++mask) {
    std::vector<std::size_t> cut;
    std::uint64_t cost = 0;
    for (std::size_t m = 0; m < costs.size(); ++m) {
      if ((mask >> m) & 1u) {
        cut.push_back(m);
        cost += costs[m];
      }
    }
    if (cost < best && Covers(cycles, cut)) best = cost;
  }
  return best;
}

// The cut rules spelled out over member lists: greedy takes the largest
// gain / (cost + 1), then the lowest index; branch and bound tries the
// first open cycle's members in listed order and keeps a strictly cheaper
// cut. The bitset solver must choose exactly this set.
struct ListCut {
  ListCut(const Cycles& c, const std::vector<std::uint64_t>& k)
      : cycles(c), costs(k) {}

  const Cycles& cycles;
  const std::vector<std::uint64_t>& costs;
  std::set<std::size_t> chosen;
  std::uint64_t best_cost = ~std::uint64_t{0};
  std::set<std::size_t> best;

  bool Hit(const std::vector<std::size_t>& cycle,
           const std::set<std::size_t>& set) const {
    for (std::size_t m : cycle) {
      if (set.count(m)) return true;
    }
    return false;
  }
  std::uint64_t Greedy(std::set<std::size_t>* out) const {
    std::uint64_t total = 0;
    for (;;) {
      std::size_t pick = SIZE_MAX;
      double pick_ratio = -1.0;
      for (const auto& cycle : cycles) {
        if (Hit(cycle, *out)) continue;
        for (std::size_t m : cycle) {
          std::size_t gain = 0;
          for (const auto& other : cycles) {
            if (!Hit(other, *out) &&
                std::find(other.begin(), other.end(), m) != other.end()) {
              ++gain;
            }
          }
          const double ratio = static_cast<double>(gain) /
                               (static_cast<double>(costs[m]) + 1.0);
          if (ratio > pick_ratio || (ratio == pick_ratio && m < pick)) {
            pick_ratio = ratio;
            pick = m;
          }
        }
      }
      if (pick == SIZE_MAX) return total;
      out->insert(pick);
      total += costs[pick];
    }
  }
  void Branch(std::uint64_t cost) {
    if (cost >= best_cost) return;
    for (const auto& cycle : cycles) {
      if (Hit(cycle, chosen)) continue;
      for (std::size_t m : cycle) {
        chosen.insert(m);
        Branch(cost + costs[m]);
        chosen.erase(m);
      }
      return;
    }
    best_cost = cost;
    best = chosen;
  }
  VertexCutResult Solve(std::size_t exact_limit) {
    std::set<std::size_t> greedy;
    const std::uint64_t greedy_cost = Greedy(&greedy);
    std::set<std::size_t> distinct;
    for (const auto& c : cycles) distinct.insert(c.begin(), c.end());
    VertexCutResult r;
    if (distinct.size() > exact_limit) {
      r.members.assign(greedy.begin(), greedy.end());
      r.total_cost = greedy_cost;
      r.exact = false;
      return r;
    }
    best = greedy;
    best_cost = greedy.empty() ? ~std::uint64_t{0} : greedy_cost;
    Branch(0);
    r.members.assign(best.begin(), best.end());
    r.total_cost = best.empty() ? 0 : best_cost;
    return r;
  }
};

VertexCutResult ListSolve(const Cycles& cycles,
                          const std::vector<std::uint64_t>& costs,
                          std::size_t exact_limit) {
  return ListCut(cycles, costs).Solve(exact_limit);
}

// Random instance: `num_cycles` cycles over `members` members, each a
// sorted set of 1..4 members plus member 0 (the requester) on every cycle
// when `requester` is set, capped at all `members`.
void RandomInstance(Rng& rng, std::size_t members, std::size_t num_cycles,
                    bool requester, Cycles* cycles,
                    std::vector<std::uint64_t>* costs) {
  cycles->clear();
  costs->clear();
  for (std::size_t m = 0; m < members; ++m) costs->push_back(rng.Uniform(12));
  for (std::size_t c = 0; c < num_cycles; ++c) {
    std::set<std::size_t> cycle;
    if (requester) cycle.insert(0);
    const std::size_t len =
        std::min(members, 1 + rng.Uniform(4) + (requester ? 1 : 0));
    while (cycle.size() < len) cycle.insert(rng.Uniform(members));
    cycles->emplace_back(cycle.begin(), cycle.end());
  }
}

void ExpectAscendingCover(const Cycles& cycles,
                          const std::vector<std::uint64_t>& costs,
                          const VertexCutResult& r, const std::string& ctx) {
  EXPECT_TRUE(std::is_sorted(r.members.begin(), r.members.end())) << ctx;
  EXPECT_EQ(std::adjacent_find(r.members.begin(), r.members.end()),
            r.members.end())
      << ctx;
  EXPECT_TRUE(Covers(cycles, r.members)) << ctx;
  std::uint64_t sum = 0;
  for (std::size_t m : r.members) sum += costs[m];
  EXPECT_EQ(sum, r.total_cost) << ctx;
}

TEST(VertexCutPropertyTest, ExactIsMinimumAndGreedyCoversOnRandomInstances) {
  Rng rng(2718);
  for (int trial = 0; trial < 300; ++trial) {
    Cycles cycles;
    std::vector<std::uint64_t> costs;
    const std::size_t members = 2 + rng.Uniform(11);  // 2..12
    RandomInstance(rng, members, 1 + rng.Uniform(20), rng.Bernoulli(0.5),
                   &cycles, &costs);
    const std::string ctx = "trial " + std::to_string(trial);

    const VertexCutResult exact = SolveVertexCut(cycles, costs, 24);
    EXPECT_TRUE(exact.exact) << ctx;
    ExpectAscendingCover(cycles, costs, exact, ctx);
    EXPECT_EQ(exact.total_cost, BruteForceCutCost(cycles, costs)) << ctx;
    const VertexCutResult list_exact = ListSolve(cycles, costs, 24);
    EXPECT_EQ(exact.members, list_exact.members) << ctx;

    const VertexCutResult greedy = SolveVertexCut(cycles, costs, 0);
    EXPECT_FALSE(greedy.exact) << ctx;
    ExpectAscendingCover(cycles, costs, greedy, ctx);
    EXPECT_GE(greedy.total_cost, exact.total_cost) << ctx;
    EXPECT_EQ(greedy.members, ListSolve(cycles, costs, 0).members) << ctx;
  }
}

TEST(VertexCutPropertyTest, EqualRatioGoesToTheLowestIndex) {
  // Member 0 (gain 1, cost 1) and member 1 (gain 2, cost 3) both score
  // 1/2 on the first pick: the lower index wins although member 1 would
  // cut both cycles; member 1 then cuts the cycle left open.
  VertexCutResult r = SolveVertexCut({{0, 1}, {1, 2}}, {1, 3, 5},
                                     /*exact_limit=*/0);
  EXPECT_EQ(r.members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(r.total_cost, 4u);
  // Mirrored: now the two-cycle member has the lower index and wins alone.
  r = SolveVertexCut({{0, 1}, {0, 2}}, {3, 1, 5}, /*exact_limit=*/0);
  EXPECT_EQ(r.members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(r.total_cost, 3u);
  // Exact search among equal-cost cuts keeps the first one found, whose
  // pick comes first in the open cycle.
  r = SolveVertexCut({{1, 2}}, {9, 4, 4});
  EXPECT_EQ(r.members, (std::vector<std::size_t>{1}));
}

TEST(VertexCutPropertyTest, MoreThan64CyclesUseMultiWordRows) {
  Rng rng(31337);
  for (std::size_t num_cycles : {63, 64, 65, 127, 128, 129, 200}) {
    for (int trial = 0; trial < 4; ++trial) {
      Cycles cycles;
      std::vector<std::uint64_t> costs;
      RandomInstance(rng, 10, num_cycles, /*requester=*/trial % 2 == 0,
                     &cycles, &costs);
      const std::string ctx =
          std::to_string(num_cycles) + " cycles, trial " +
          std::to_string(trial);
      const VertexCutResult exact = SolveVertexCut(cycles, costs, 24);
      ExpectAscendingCover(cycles, costs, exact, ctx);
      EXPECT_EQ(exact.total_cost, BruteForceCutCost(cycles, costs)) << ctx;
      EXPECT_EQ(exact.members, ListSolve(cycles, costs, 24).members)
          << ctx;
      const VertexCutResult greedy = SolveVertexCut(cycles, costs, 0);
      ExpectAscendingCover(cycles, costs, greedy, ctx);
      EXPECT_EQ(greedy.members, ListSolve(cycles, costs, 0).members)
          << ctx;
    }
  }
  // A cycle only the last word sees: the cut must still reach it.
  Cycles cycles(70, std::vector<std::size_t>{0});
  cycles.back() = {1};
  VertexCutResult r = SolveVertexCut(cycles, {2, 3});
  EXPECT_EQ(r.members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(r.total_cost, 5u);
}

TEST(VertexCutPropertyTest, SolverReuseMatchesFreshSolves) {
  // One solver across instances of different shapes gives what a fresh
  // solve gives: Reset clears rows, costs and the previous cut.
  Rng rng(99);
  VertexCutSolver solver;
  for (int trial = 0; trial < 100; ++trial) {
    Cycles cycles;
    std::vector<std::uint64_t> costs;
    RandomInstance(rng, 2 + rng.Uniform(10), 1 + rng.Uniform(90),
                   rng.Bernoulli(0.5), &cycles, &costs);
    solver.Reset(costs.size(), cycles.size());
    for (std::size_t m = 0; m < costs.size(); ++m) solver.SetCost(m, costs[m]);
    for (std::size_t c = 0; c < cycles.size(); ++c) {
      for (std::size_t m : cycles[c]) solver.Add(m, c);
    }
    const std::size_t limit = trial % 3 == 0 ? 0 : 24;
    const VertexCutResult& got = solver.Solve(limit);
    const VertexCutResult want = SolveVertexCut(cycles, costs, limit);
    EXPECT_EQ(got.members, want.members) << "trial " << trial;
    EXPECT_EQ(got.total_cost, want.total_cost) << "trial " << trial;
    EXPECT_EQ(got.exact, want.exact) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Resolution that runs out of rounds
// ---------------------------------------------------------------------------

// More cheap shared holders than resolution rounds, each in a two-cycle
// with one costly requester, and enumeration capped at one cycle per
// round: every round preempts one holder, cycles are still left after the
// last round, and the engine must fail loudly instead of leaving the
// requester blocked with nothing to wake it.
TEST_F(EngineTest, ResolutionOutOfRoundsWithCyclesLeftFailsLoudly) {
  EngineOptions opt;
  opt.max_cycles_per_deadlock = 1;
  Init(opt);
  const EntityId a(0);
  const EntityId b(1);
  ProgramBuilder rb("requester", 1);
  rb.LockExclusive(a).Read(a, 0);
  for (int i = 0; i < 20; ++i) {
    rb.Compute(0, Operand::Var(0), ArithOp::kAdd, Operand::Imm(1));
  }
  rb.WriteVar(a, 0).LockExclusive(b).Commit();
  auto r = engine_->Spawn(Build(rb));
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 23; ++i) {  // X(a), read, 20 computes, write
    auto out = engine_->StepTxn(r.value());
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value(), StepOutcome::kExecuted);
  }
  constexpr int kHolders = 70;
  for (int i = 0; i < kHolders; ++i) {
    ProgramBuilder hb("holder", 1);
    hb.LockShared(b).LockShared(a).Commit();
    auto h = engine_->Spawn(Build(hb));
    ASSERT_TRUE(h.ok());
    auto granted = engine_->StepTxn(h.value());  // S(b)
    ASSERT_TRUE(granted.ok());
    ASSERT_EQ(granted.value(), StepOutcome::kExecuted);
    auto waits = engine_->StepTxn(h.value());  // S(a) waits on X(a)
    ASSERT_TRUE(waits.ok());
    ASSERT_EQ(waits.value(), StepOutcome::kBlocked);
  }
  auto outcome = engine_->StepTxn(r.value());  // X(b) closes 70 cycles
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
  const std::string msg = outcome.status().ToString();
  EXPECT_NE(msg.find("requester T0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("entity 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("still closes 1 cycle"), std::string::npos) << msg;
  EXPECT_EQ(engine_->metrics().deadlocks, 64u);
  EXPECT_EQ(engine_->metrics().preemptions, 64u);
}

}  // namespace
}  // namespace pardb::core
