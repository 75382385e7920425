// Tests for the cross-shard transaction layer (DESIGN D12): program
// splitting, lock-free routing, the merged-history global
// serializability checker, the engine's sub-transaction hold protocol,
// and the locks-mode sharded driver end to end — including the
// hand-built replica-divergence history the merged checker must reject.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/global_history.h"
#include "core/engine.h"
#include "dist/distributed.h"
#include "obs/serve/hub.h"
#include "par/report_json.h"
#include "par/router.h"
#include "par/sharded_driver.h"
#include "par/xshard/coordinator.h"
#include "par/xshard/split.h"
#include "storage/entity_store.h"
#include "txn/program.h"

namespace pardb {
namespace {

using analysis::AccessEvent;
using analysis::GlobalHistory;
using analysis::HistoryRecorder;
using par::RouteProgram;
using par::RunSharded;
using par::ShardedOptions;
using par::ShardedReportToJson;
using par::XShardMode;
using par::xshard::SplitProgram;
using par::xshard::SubProgram;
using txn::Operand;
using txn::ProgramBuilder;

// First entity owned by `shard` under the dist::SiteOfEntity partition.
EntityId EntityOn(std::uint32_t shard, std::uint32_t num_shards,
                  EntityId after = EntityId(0)) {
  for (std::uint64_t e = after.value();; ++e) {
    if (dist::SiteOfEntity(EntityId(e), num_shards) == shard) {
      return EntityId(e);
    }
  }
}

// ---------------------------------------------------------------------------
// SplitProgram
// ---------------------------------------------------------------------------

TEST(SplitProgramTest, SplitsFootprintByEntityOwner) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t")
               .LockExclusive(a)
               .LockExclusive(b)
               .WriteImm(a, 1)
               .WriteImm(b, 2)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  ASSERT_EQ(subs->size(), 2u);
  // Slices come back in shard order; each is [its locks | its body | Commit]
  // and holds at the end of its lock prefix.
  EXPECT_EQ((*subs)[0].shard, 0u);
  EXPECT_EQ((*subs)[1].shard, 1u);
  for (const SubProgram& sub : subs.value()) {
    ASSERT_EQ(sub.program.ops().size(), 3u);
    EXPECT_EQ(sub.hold_pc, 1u);
    EXPECT_EQ(sub.program.ops()[0].code, txn::OpCode::kLockExclusive);
    EXPECT_EQ(sub.program.ops()[1].code, txn::OpCode::kWrite);
    EXPECT_EQ(sub.program.ops()[2].code, txn::OpCode::kCommit);
  }
  EXPECT_EQ((*subs)[0].program.ops()[0].entity, a);
  EXPECT_EQ((*subs)[1].program.ops()[0].entity, b);
}

TEST(SplitProgramTest, SingleShardFootprintYieldsOneSlice) {
  const EntityId a = EntityOn(1, 4);
  const EntityId b = EntityOn(1, 4, EntityId(a.value() + 1));
  auto p = ProgramBuilder("t")
               .LockExclusive(a)
               .LockExclusive(b)
               .WriteImm(b, 7)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 4);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), 1u);
  EXPECT_EQ((*subs)[0].shard, 1u);
  EXPECT_EQ((*subs)[0].hold_pc, 2u);
}

TEST(SplitProgramTest, ComputeWithImmediateOperandsFollowsFirstLock) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t", 1)
               .InitVar(0, 0)
               .LockExclusive(b)  // first lock: shard 1 is the fallback owner
               .LockExclusive(a)
               .Compute(0, Operand::Imm(2), txn::ArithOp::kAdd,
                        Operand::Imm(3))
               .WriteVar(b, 0)
               .WriteImm(a, 1)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  ASSERT_EQ(subs->size(), 2u);
  // The imm-only compute has no operand owner, so it rides with the shard
  // of the first lock request (shard 1), where its result is consumed.
  EXPECT_EQ((*subs)[0].program.ops().size(), 3u);  // lock a, write a, commit
  EXPECT_EQ((*subs)[1].program.ops().size(), 4u);  // lock b, compute, write b
}

TEST(SplitProgramTest, RejectsCrossShardVarFlow) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t", 1)
               .InitVar(0, 0)
               .LockExclusive(a)
               .LockExclusive(b)
               .Read(a, 0)      // var 0 is produced on shard 0...
               .WriteVar(b, 0)  // ...and consumed on shard 1: slices cannot
               .Commit()        // exchange values.
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_FALSE(subs.ok());
  EXPECT_EQ(subs.status().code(), StatusCode::kInvalidArgument);
}

TEST(SplitProgramTest, RejectsEarlyUnlock) {
  const EntityId a = EntityOn(0, 2);
  const EntityId b = EntityOn(1, 2);
  auto p = ProgramBuilder("t")
               .LockExclusive(a)
               .LockExclusive(b)
               .WriteImm(a, 1)
               .Unlock(a)
               .WriteImm(b, 2)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto subs = SplitProgram(p.value(), 2);
  ASSERT_FALSE(subs.ok());
  EXPECT_EQ(subs.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// RouteProgram: lock-free programs
// ---------------------------------------------------------------------------

TEST(RouterTest, LockFreeProgramsSpreadBySequenceHash) {
  auto p = ProgramBuilder("noop").Commit().Build();
  ASSERT_TRUE(p.ok());
  std::set<std::uint32_t> shards;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    const par::Route r = RouteProgram(p.value(), 4, 0, seq);
    EXPECT_FALSE(r.cross_shard);
    EXPECT_LT(r.shard, 4u);
    // Deterministic: the same admission sequence number always lands on
    // the same shard.
    EXPECT_EQ(RouteProgram(p.value(), 4, 0, seq).shard, r.shard);
    shards.insert(r.shard);
  }
  // The old behaviour piled every lock-free program onto shard 0 (the
  // coordinator, the busiest shard). The hash must actually spread them.
  EXPECT_EQ(shards.size(), 4u);
}

// ---------------------------------------------------------------------------
// GlobalHistory: the merged-commit-log checker
// ---------------------------------------------------------------------------

AccessEvent Rd(std::uint64_t entity, std::uint64_t version) {
  return AccessEvent{EntityId(entity), version, StateIndex(0), false};
}
AccessEvent Wr(std::uint64_t entity, std::uint64_t version) {
  return AccessEvent{EntityId(entity), version, StateIndex(0), true};
}

TEST(GlobalHistoryTest, CleanMergedOrderIsSerializable) {
  GlobalHistory h;
  h.Add(GlobalHistory::GlobalKey(1), {Wr(5, 1)});
  h.Add(GlobalHistory::LocalKey(0, TxnId(2)), {Rd(5, 1), Wr(5, 2)});
  EXPECT_FALSE(h.HasReplicaDivergence());
  EXPECT_TRUE(h.IsConflictSerializable());
  EXPECT_TRUE(h.WitnessCycle().empty());
}

TEST(GlobalHistoryTest, DetectsCrossShardCycle) {
  // T1 reads x before T2 writes it; T2 reads y before T1 writes it. Each
  // per-shard projection is serializable; only the merged view exposes the
  // r->w / r->w cycle.
  GlobalHistory h;
  h.Add(GlobalHistory::GlobalKey(1), {Rd(10, 0), Wr(20, 1)});
  h.Add(GlobalHistory::GlobalKey(2), {Rd(20, 0), Wr(10, 1)});
  EXPECT_FALSE(h.HasReplicaDivergence());
  EXPECT_FALSE(h.IsConflictSerializable());
  EXPECT_EQ(h.WitnessCycle(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(GlobalHistoryTest, DetectsReplicaDivergence) {
  // Two distinct merged transactions publish the same version of the same
  // entity: two stores evolved it independently (what a coordinator that
  // executed globals against a private replica would publish).
  GlobalHistory h;
  h.Add(GlobalHistory::LocalKey(0, TxnId(1)), {Wr(5, 1)});
  h.Add(GlobalHistory::LocalKey(1, TxnId(9)), {Wr(5, 1)});
  EXPECT_TRUE(h.HasReplicaDivergence());
  EXPECT_FALSE(h.IsConflictSerializable());
}

TEST(GlobalHistoryTest, SameKeyMayAddDisjointSlices) {
  GlobalHistory h;
  h.Add(GlobalHistory::GlobalKey(3), {Wr(1, 1)});
  h.Add(GlobalHistory::GlobalKey(3), {Wr(2, 1)});
  EXPECT_EQ(h.size(), 1u);
  EXPECT_FALSE(h.HasReplicaDivergence());
  EXPECT_TRUE(h.IsConflictSerializable());
}

// ---------------------------------------------------------------------------
// Engine: the sub-transaction hold protocol
// ---------------------------------------------------------------------------

TEST(EngineSubTxnTest, HoldReleaseLifecycle) {
  storage::EntityStore store;
  store.CreateMany(4, 0);
  core::EngineOptions opt;
  core::Engine engine(&store, opt);
  auto p = ProgramBuilder("sub")
               .LockExclusive(EntityId(1))
               .WriteImm(EntityId(1), 42)
               .Commit()
               .Build();
  ASSERT_TRUE(p.ok());
  auto id = engine.SpawnSub(std::move(p).value(), /*hold_pc=*/1);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // The slice acquires its lock and parks at the hold point; StepAny must
  // not advance it past the hold.
  for (int i = 0; i < 10 && !engine.AtHold(id.value()); ++i) {
    ASSERT_TRUE(engine.StepAny().ok());
  }
  ASSERT_TRUE(engine.AtHold(id.value()));
  for (int i = 0; i < 5; ++i) {
    auto s = engine.StepAny();
    ASSERT_TRUE(s.ok());
    EXPECT_FALSE(s.value()) << "held sub-transaction must not be stepped";
  }
  EXPECT_EQ(engine.StatusOf(id.value()), core::TxnStatus::kReady);

  ASSERT_TRUE(engine.ReleaseHold(id.value()).ok());
  while (engine.live_txn_count() > 0) {
    ASSERT_TRUE(engine.StepAny().ok());
  }
  EXPECT_EQ(engine.StatusOf(id.value()), core::TxnStatus::kCommitted);
  EXPECT_EQ(engine.metrics().commits, 1u);
}

TEST(CoordinatorTest, IdleMergeCountsLikeAMergeAndRefusesLiveGlobals) {
  // The free-run replay (DESIGN D19) counts a merge with no global node:
  // the same merges/messages MergeAndResolve would add, and never while a
  // global is in flight.
  std::vector<storage::EntityStore> stores(2);
  std::vector<std::unique_ptr<core::Engine>> owned;
  std::vector<core::Engine*> engines;
  for (auto& store : stores) {
    store.CreateMany(16, 0);
    owned.push_back(std::make_unique<core::Engine>(&store,
                                                   core::EngineOptions{}));
    engines.push_back(owned.back().get());
  }
  par::xshard::Coordinator::Options copt;
  copt.num_shards = 2;
  par::xshard::Coordinator idle(engines, copt);
  ASSERT_TRUE(idle.MergeAndResolve().ok());
  const par::xshard::XShardStats merged = idle.stats();
  ASSERT_TRUE(idle.CountIdleMerge().ok());
  EXPECT_EQ(idle.stats().merges, 2 * merged.merges);
  EXPECT_EQ(idle.stats().messages, 2 * merged.messages);

  par::xshard::Coordinator busy(engines, copt);
  auto global = ProgramBuilder("g")
                    .LockExclusive(EntityOn(0, 2))
                    .LockExclusive(EntityOn(1, 2))
                    .Commit()
                    .Build();
  ASSERT_TRUE(global.ok());
  ASSERT_TRUE(busy.Admit(std::move(global).value()).ok());
  const std::uint64_t merges = busy.stats().merges;
  EXPECT_FALSE(busy.CountIdleMerge().ok());
  EXPECT_EQ(busy.stats().merges, merges);
}

// ---------------------------------------------------------------------------
// RunSharded in kLocks mode
// ---------------------------------------------------------------------------

ShardedOptions LocksOptions(double cross, std::uint64_t seed) {
  ShardedOptions opt;
  opt.xshard = XShardMode::kLocks;
  opt.num_shards = 4;
  opt.workload.num_entities = 64;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.cross_shard_fraction = cross;
  opt.concurrency = 8;
  opt.total_txns = 160;
  opt.seed = seed;
  return opt;
}

class LocksModeTest : public ::testing::TestWithParam<double> {};

TEST_P(LocksModeTest, CommitsAllAndStaysGloballySerializable) {
  auto rep = RunSharded(LocksOptions(GetParam(), 11));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->committed, 160u);
  EXPECT_TRUE(rep->completed);
  EXPECT_TRUE(rep->serializable);
  EXPECT_TRUE(rep->global_serializable);
  // Every admitted global retired: all slices spawned were committed.
  EXPECT_EQ(rep->xshard.global_txns, rep->cross_shard_txns);
  EXPECT_EQ(rep->xshard.global_commits, rep->xshard.global_txns);
  EXPECT_EQ(rep->xshard.sub_commits, rep->xshard.sub_txns);
  if (GetParam() > 0.0) {
    EXPECT_GT(rep->xshard.global_txns, 0u);
    // Every global splits into at least two slices.
    EXPECT_GE(rep->xshard.sub_txns, 2 * rep->xshard.global_txns);
    EXPECT_GT(rep->xshard.prepares, 0u);
    EXPECT_EQ(rep->xshard.prepares, rep->xshard.resolves);
  } else {
    EXPECT_EQ(rep->cross_shard_txns, 0u);
    EXPECT_EQ(rep->xshard.global_txns, 0u);
  }
  EXPECT_GT(rep->xshard.epochs, 0u);
  EXPECT_GT(rep->xshard.merges, 0u);
}

INSTANTIATE_TEST_SUITE_P(CrossFractions, LocksModeTest,
                         ::testing::Values(0.0, 0.05, 0.2));

TEST(LocksModeTest, ReportBitIdenticalAcrossRunsAndWorkerCounts) {
  auto opt = LocksOptions(0.2, 7);
  auto a = RunSharded(opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const std::string ja = ShardedReportToJson(a.value());
  EXPECT_NE(ja.find("\"mode\":\"locks\""), std::string::npos);
  for (std::size_t workers : {1u, 2u, 7u}) {
    opt.num_threads = workers;
    auto b = RunSharded(opt);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(ja, ShardedReportToJson(b.value())) << "workers=" << workers;
  }
}

// Contested configuration: a small entity universe with a high cross-shard
// fraction, so slices of different globals block each other on several
// shards at once and union-only cycles actually form.
ShardedOptions ContestedLocksOptions(std::uint64_t seed) {
  ShardedOptions opt;
  opt.xshard = XShardMode::kLocks;
  opt.num_shards = 4;
  opt.workload.num_entities = 24;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.cross_shard_fraction = 0.4;
  opt.concurrency = 16;
  opt.total_txns = 300;
  opt.seed = seed;
  return opt;
}

TEST(LocksModeTest, ResolvesGlobalCyclesByDistributedPartialRollback) {
  auto rep = RunSharded(ContestedLocksOptions(5));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->committed, 300u);
  EXPECT_TRUE(rep->completed);
  EXPECT_TRUE(rep->global_serializable);
  // The point of the configuration: at least one cycle existed only in the
  // union of the per-shard forests, and distributed partial rollback
  // removed it (while the run still commits everything).
  EXPECT_GE(rep->xshard.global_cycles, 1u);
  EXPECT_GE(rep->xshard.distributed_rollbacks, 1u);
  // 2PC accounting covers at least every slice of every global.
  EXPECT_GE(rep->xshard.messages,
            2 * (rep->xshard.prepares + rep->xshard.resolves));
}

TEST(LocksModeTest, RequiresDeadlockDetection) {
  auto opt = LocksOptions(0.2, 3);
  opt.engine.handling = core::DeadlockHandling::kWoundWait;
  auto rep = RunSharded(opt);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
}

TEST(LocksModeTest, PublishesGlobalWaitsForSnapshotToHub) {
  obs::LiveHub hub;
  auto opt = ContestedLocksOptions(9);
  opt.hub = &hub;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto snap = hub.GlobalSnapshot();
  ASSERT_TRUE(snap.has_value());
  // The final published union view is post-resolution: no global cycle
  // survives a merge round.
  EXPECT_TRUE(snap->acyclic);
  // Per-shard snapshots are published at merge cadence too.
  EXPECT_EQ(hub.Snapshots().size(), opt.num_shards);
}

// ---------------------------------------------------------------------------
// CheckShardedSerializability: one fused pass, per-shard verdicts on demand
// ---------------------------------------------------------------------------

// Every seed and shard count commits serializably, and each shard's
// verdict agrees with the global one.
TEST(ShardedVerifierTest, RunShardedVerdictsHoldOverSeeds) {
  for (std::uint32_t shards : {2u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      ShardedOptions opt = LocksOptions(0.2, seed);
      opt.num_shards = shards;
      auto rep = RunSharded(opt);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      EXPECT_TRUE(rep->completed) << shards << " shards, seed " << seed;
      EXPECT_TRUE(rep->global_serializable) << shards << " shards, seed "
                                            << seed;
      EXPECT_TRUE(rep->serializable) << shards << " shards, seed " << seed;
      for (const par::ShardResult& s : rep->shards) {
        EXPECT_TRUE(s.serializable) << "shard " << s.shard << ", seed "
                                    << seed;
      }
    }
  }
}

// Slice table for hand-built sharded histories.
class SliceTable : public par::xshard::SubResolver {
 public:
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> slices;

  std::optional<std::uint64_t> GlobalOf(std::uint32_t shard,
                                        TxnId txn) const override {
    auto it = slices.find({shard, txn.value()});
    if (it == slices.end()) return std::nullopt;
    return it->second;
  }
};

// Random sharded histories (2 and 4 shards, globals with a slice on every
// shard, serial or unlocked interleavings per shard): each shard's verdict
// equals an explicit check of that shard's recorder, a failing shard
// yields a witness, and the fused verdict equals a hand-keyed
// GlobalHistory's.
TEST(ShardedVerifierTest, PerShardVerdictsMatchExplicitChecks) {
  std::mt19937_64 rng(16);
  auto Pick = [&rng](std::uint64_t n) { return rng() % n; };
  int clean = 0, cross_only = 0, shard_cycles = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint32_t num_shards = trial % 2 == 0 ? 2 : 4;
    const std::uint64_t num_globals = 1 + Pick(3);
    const std::uint64_t locals = Pick(3);  // per shard
    const std::uint64_t txns_per_shard = num_globals + locals;
    std::vector<HistoryRecorder> recorders(num_shards);
    SliceTable table;
    GlobalHistory merged;
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> version;
    std::vector<std::vector<std::vector<AccessEvent>>> logs(
        num_shards, std::vector<std::vector<AccessEvent>>(txns_per_shard));
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      for (std::uint64_t t = 0; t < txns_per_shard; ++t) {
        recorders[s].OnBegin(TxnId(t + 1), t);
        if (t < num_globals) table.slices[{s, t + 1}] = t;
      }
    }
    auto Access = [&](std::uint32_t s, std::uint64_t t, StateIndex state) {
      const EntityId e(s * 8 + Pick(2));  // each shard owns its entities
      std::uint64_t& v = version[{s, e.value()}];
      const bool write = Pick(2) == 0;
      if (write) {
        recorders[s].OnPublish(TxnId(t + 1), e, ++v, state);
      } else {
        recorders[s].OnRead(TxnId(t + 1), e, v, state);
      }
      logs[s][t].push_back(AccessEvent{e, v, state, write});
    };
    if (trial % 4 < 2) {
      // Each shard runs its transactions serially, in its own order: every
      // shard is clean, and the union is cyclic when two shards order two
      // globals differently.
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        std::vector<std::uint64_t> order(txns_per_shard);
        for (std::uint64_t t = 0; t < txns_per_shard; ++t) order[t] = t;
        std::shuffle(order.begin(), order.end(), rng);
        StateIndex state = 0;
        for (std::uint64_t t : order) {
          for (std::uint64_t k = 1 + Pick(3); k > 0; --k) Access(s, t, state++);
        }
      }
    } else {
      // Unlocked interleavings: cycles inside shards too.
      const std::uint64_t num_ops = 4 + Pick(6 * num_shards);
      for (std::uint64_t k = 0; k < num_ops; ++k) {
        Access(static_cast<std::uint32_t>(Pick(num_shards)),
               Pick(txns_per_shard), StateIndex(k));
      }
    }
    std::vector<const HistoryRecorder*> shards;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      for (std::uint64_t t = 0; t < txns_per_shard; ++t) {
        recorders[s].OnCommit(TxnId(t + 1));
        merged.Add(t < num_globals ? GlobalHistory::GlobalKey(t)
                                   : GlobalHistory::LocalKey(s, TxnId(t + 1)),
                   logs[s][t]);
      }
      shards.push_back(&recorders[s]);
    }

    const par::SerializabilityVerdicts verdicts =
        par::CheckShardedSerializability(shards, table);
    ASSERT_EQ(verdicts.shards.size(), num_shards);
    EXPECT_EQ(verdicts.global, merged.IsConflictSerializable())
        << "trial " << trial;
    bool all_shards = true;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(verdicts.shards[s], recorders[s].IsConflictSerializable())
          << "trial " << trial << " shard " << s;
      EXPECT_EQ(verdicts.shards[s], recorders[s].WitnessCycle().empty())
          << "trial " << trial << " shard " << s;
      all_shards = all_shards && verdicts.shards[s];
    }
    // Fusing slices only adds cycles.
    if (verdicts.global) {
      EXPECT_TRUE(all_shards) << "trial " << trial;
      ++clean;
    }
    if (!verdicts.global && all_shards) ++cross_only;
    if (!all_shards) ++shard_cycles;
  }
  EXPECT_GT(clean, 100);
  EXPECT_GT(cross_only, 100);
  EXPECT_GT(shard_cycles, 100);
}

}  // namespace
}  // namespace pardb
