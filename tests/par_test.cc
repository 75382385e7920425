// Sharded parallel execution: routing, the work-stealing pool, determinism
// and aggregate correctness of par::RunSharded. The whole suite is also run
// under ThreadSanitizer in CI (-DPARDB_TSAN=ON).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/distributed.h"
#include "obs/metric_names.h"
#include "obs/serve/hub.h"
#include "par/report_json.h"
#include "par/router.h"
#include "par/sharded_driver.h"
#include "par/stealing_pool.h"
#include "txn/program.h"

namespace pardb::par {
namespace {

txn::Program LockProgram(const std::vector<EntityId>& entities) {
  txn::ProgramBuilder b("p", 0);
  for (EntityId e : entities) b.LockExclusive(e);
  b.Commit();
  auto p = b.Build();
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

// Finds entity ids on the given shard (under the 4-shard partition).
std::vector<EntityId> EntitiesOnShard(std::uint32_t shard,
                                      std::uint32_t num_shards,
                                      std::size_t count) {
  std::vector<EntityId> out;
  for (std::uint64_t e = 0; out.size() < count && e < 10'000; ++e) {
    if (dist::SiteOfEntity(EntityId(e), num_shards) == shard) {
      out.push_back(EntityId(e));
    }
  }
  EXPECT_EQ(out.size(), count);
  return out;
}

TEST(RouterTest, FootprintIsDistinctEntitiesInLockOrder) {
  txn::ProgramBuilder b("p", 1);
  b.LockShared(EntityId(7))
      .LockExclusive(EntityId(3))
      .LockExclusive(EntityId(7))  // S->X upgrade: not a new footprint entry
      .Read(EntityId(3), 0)
      .Commit();
  auto p = b.Build();
  ASSERT_TRUE(p.ok());
  auto fp = EntityFootprint(p.value());
  ASSERT_EQ(fp.size(), 2u);
  EXPECT_EQ(fp[0], EntityId(7));
  EXPECT_EQ(fp[1], EntityId(3));
}

TEST(RouterTest, SingleShardFootprintRoutedHome) {
  const std::uint32_t kShards = 4;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    auto program = LockProgram(EntitiesOnShard(shard, kShards, 3));
    const Route r = RouteProgram(program, kShards, /*coordinator_shard=*/0);
    EXPECT_FALSE(r.cross_shard);
    EXPECT_EQ(r.shard, shard);
  }
}

TEST(RouterTest, SpanningFootprintGoesToCoordinator) {
  const std::uint32_t kShards = 4;
  std::vector<EntityId> mixed = EntitiesOnShard(1, kShards, 1);
  mixed.push_back(EntitiesOnShard(2, kShards, 1)[0]);
  const Route r = RouteProgram(LockProgram(mixed), kShards,
                               /*coordinator_shard=*/3);
  EXPECT_TRUE(r.cross_shard);
  EXPECT_EQ(r.shard, 3u);
}

TEST(RouterTest, SingleShardSystemRoutesEverythingToShardZero) {
  auto program = LockProgram({EntityId(5), EntityId(9)});
  const Route r = RouteProgram(program, 1, 0);
  EXPECT_FALSE(r.cross_shard);
  EXPECT_EQ(r.shard, 0u);
}

TEST(RouterTest, ShardUniversesPartitionTheEntityRange) {
  const std::uint64_t kEntities = 257;
  auto universes = ShardEntityUniverses(kEntities, 4);
  ASSERT_EQ(universes.size(), 4u);
  std::set<EntityId> seen;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (EntityId e : universes[s]) {
      EXPECT_EQ(dist::SiteOfEntity(e, 4), s);
      EXPECT_TRUE(seen.insert(e).second) << "entity in two universes";
    }
  }
  EXPECT_EQ(seen.size(), kEntities);
}

TEST(StealingPoolTest, ReusableAcrossWaitBatches) {
  StealingPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  EXPECT_EQ(pool.current_worker(), -1);  // the test body is not a worker
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();  // pool is reusable after Wait
    EXPECT_EQ(count.load(), (batch + 1) * 100);
  }
}

TEST(StealingPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    StealingPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~StealingPool waits for the queues
  EXPECT_EQ(count.load(), 50);
}

TEST(StealingPoolTest, TasksSubmittedFromInsideATaskFinishBeforeWaitReturns) {
  // The sharded driver's quantum chain: each task resubmits the next from
  // inside a worker, landing on that worker's own deque. Wait() must cover
  // the whole chain, not just the externally submitted head.
  StealingPool pool(3);
  std::atomic<int> count{0};
  std::atomic<int> remaining{200};
  std::function<void()> step = [&] {
    EXPECT_GE(pool.current_worker(), 0);
    EXPECT_LT(pool.current_worker(), 3);
    count.fetch_add(1, std::memory_order_relaxed);
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) > 1) {
      pool.Submit(step);
    }
  };
  pool.Submit(step);
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(StealingPoolTest, SelfResubmittingChainNeverOverlapsItself) {
  // A chain's next link is submitted by the previous one, so at most one
  // link is ever runnable — the structural ready-token the sharded driver
  // relies on so no engine is touched by two threads.
  StealingPool pool(4);
  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  std::atomic<int> left{500};
  std::function<void()> quantum = [&] {
    if (inside.exchange(true, std::memory_order_acq_rel)) {
      overlaps.fetch_add(1, std::memory_order_relaxed);
    }
    inside.store(false, std::memory_order_release);
    if (left.fetch_sub(1, std::memory_order_acq_rel) > 1) {
      pool.Submit(quantum);
    }
  };
  pool.Submit(quantum);
  pool.Wait();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(left.load(), 0);
}

TEST(StealingPoolTest, IdleWorkerStealsFromABusyWorkersDeque) {
  // One worker parks inside a task after pushing a second task onto its
  // own deque; only a steal by the other worker can run it.
  StealingPool pool(2);
  std::atomic<bool> stolen_ran{false};
  pool.Submit([&] {
    pool.Submit([&] { stolen_ran.store(true, std::memory_order_release); });
    while (!stolen_ran.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  pool.Wait();
  EXPECT_TRUE(stolen_ran.load());
  EXPECT_GE(pool.steals(), 1u);
}

TEST(StealingPoolTest, EveryTaskRunsExactlyOnceAndCountersAddUp) {
  StealingPool pool(4);
  constexpr int kTasks = 300;
  std::vector<std::atomic<int>> runs(kTasks);  // value-initialized to 0
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&runs, i] { runs[i].fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  std::uint64_t executed = 0;
  for (std::size_t w = 0; w < pool.num_threads(); ++w) {
    executed += pool.tasks_executed(w);
    EXPECT_LE(pool.busy_nanos(w), pool.uptime_nanos());
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_LE(pool.steals(), executed);
}

ShardedOptions SmallOptions(std::uint32_t shards, std::uint64_t seed) {
  ShardedOptions opt;
  opt.num_shards = shards;
  opt.workload.num_entities = 64;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 4;
  opt.workload.ops_per_entity = 2;
  opt.cross_shard_fraction = 0.2;
  opt.concurrency = 8;
  opt.total_txns = 120;
  opt.seed = seed;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  return opt;
}

TEST(ShardedDriverTest, CommitsEveryTransactionAndStaysSerializable) {
  auto rep = RunSharded(SmallOptions(4, 11));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  // Whole transactions: a global's slices count once.
  EXPECT_EQ(rep->committed, 120u);
  EXPECT_TRUE(rep->completed);
  EXPECT_TRUE(rep->serializable);
  EXPECT_TRUE(rep->global_serializable);
  ASSERT_EQ(rep->shards.size(), 4u);
  std::uint64_t assigned = 0;
  for (const ShardResult& s : rep->shards) {
    EXPECT_TRUE(s.serializable);
    assigned += s.assigned;
  }
  EXPECT_EQ(assigned, 120u);
  EXPECT_TRUE(std::isfinite(rep->goodput));
  EXPECT_TRUE(std::isfinite(rep->wasted_fraction));
}

TEST(ShardedDriverTest, BitIdenticalAcrossRepeatedRuns) {
  // Same options, repeated runs, different worker counts: thread
  // scheduling must not leak into the report.
  auto opt = SmallOptions(2, 7);
  auto a = RunSharded(opt);
  ASSERT_TRUE(a.ok());
  auto b = RunSharded(opt);
  ASSERT_TRUE(b.ok());
  opt.num_threads = 1;  // fully serial execution of the same shards
  auto c = RunSharded(opt);
  ASSERT_TRUE(c.ok());
  const std::string ja = ShardedReportToJson(a.value());
  EXPECT_EQ(ja, ShardedReportToJson(b.value()));
  EXPECT_EQ(ja, ShardedReportToJson(c.value()));
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(ShardedDriverTest, ShardsUseDistinctDerivedSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t s = 0; s < 16; ++s) {
    seeds.insert(DeriveShardSeed(42, s));
  }
  EXPECT_EQ(seeds.size(), 16u);
  EXPECT_NE(DeriveShardSeed(42, 0), DeriveShardSeed(43, 0));
}

TEST(ShardedDriverTest, CrossShardFractionTracksWorkloadLocality) {
  auto local = SmallOptions(4, 3);
  local.cross_shard_fraction = 0.0;  // every txn drawn from one shard's pool
  auto lrep = RunSharded(local);
  ASSERT_TRUE(lrep.ok());
  EXPECT_EQ(lrep->cross_shard_txns, 0u);

  auto mixed = SmallOptions(4, 3);
  mixed.cross_shard_fraction = 1.0;  // every txn drawn from the full range
  auto mrep = RunSharded(mixed);
  ASSERT_TRUE(mrep.ok());
  // Multi-entity txns over a 4-shard hash partition almost surely span
  // shards; all of those serialize through the coordinator (shard 0).
  EXPECT_GT(mrep->cross_shard_fraction, 0.5);
  for (const ShardResult& s : mrep->shards) {
    if (s.shard != 0) continue;
    EXPECT_GE(s.assigned, mrep->cross_shard_txns);
  }
}

TEST(ShardedDriverTest, ZeroTransactionReportIsFiniteZeros) {
  auto opt = SmallOptions(2, 1);
  opt.total_txns = 0;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->committed, 0u);
  EXPECT_EQ(rep->goodput, 0.0);
  EXPECT_EQ(rep->wasted_fraction, 0.0);
  EXPECT_EQ(rep->cross_shard_fraction, 0.0);
  EXPECT_TRUE(std::isfinite(rep->goodput));
}

TEST(ShardedDriverTest, InvalidOptionsRejected) {
  auto opt = SmallOptions(2, 1);
  opt.num_shards = 0;
  EXPECT_EQ(RunSharded(opt).status().code(), StatusCode::kInvalidArgument);
  opt = SmallOptions(2, 1);
  opt.coordinator_shard = 2;
  EXPECT_EQ(RunSharded(opt).status().code(), StatusCode::kInvalidArgument);
  opt = SmallOptions(2, 1);
  opt.workload.num_entities = 0;
  EXPECT_EQ(RunSharded(opt).status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedDriverTest, AggregateMatchesShardSums) {
  auto rep = RunSharded(SmallOptions(4, 19));
  ASSERT_TRUE(rep.ok());
  std::uint64_t commits = 0, rollbacks = 0, ops = 0, costs = 0;
  for (const ShardResult& s : rep->shards) {
    commits += s.metrics.commits;
    rollbacks += s.metrics.rollbacks;
    ops += s.metrics.ops_executed;
    costs += s.rollback_costs.count;
  }
  EXPECT_EQ(rep->aggregate.commits, commits);
  EXPECT_EQ(rep->aggregate.rollbacks, rollbacks);
  EXPECT_EQ(rep->aggregate.ops_executed, ops);
  EXPECT_EQ(rep->rollback_costs.count, costs);
}

// The reports, shard chains and coordinator chain of `opt` across worker
// counts {1, 2, 4, 7}.
void ExpectIdenticalAcrossWorkers(ShardedOptions opt) {
  opt.num_threads = 1;
  auto base = RunSharded(opt);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (std::size_t workers : {2u, 4u, 7u}) {
    opt.num_threads = workers;
    auto r = RunSharded(opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(ShardedReportToJson(base.value()), ShardedReportToJson(r.value()))
        << "workers=" << workers;
    EXPECT_EQ(base->coord_journal_chain, r->coord_journal_chain)
        << "workers=" << workers;
    for (std::size_t s = 0; s < r->shards.size(); ++s) {
      EXPECT_EQ(base->shards[s].journal_chain, r->shards[s].journal_chain)
          << "workers=" << workers << " shard " << s;
    }
  }
}

TEST(ShardedDriverTest, ReportBitIdenticalAcrossWorkerCounts) {
  // Workers decide only *where* each epoch's quanta run, never what a
  // shard computes — so the report must be byte-identical across worker
  // counts and repeated runs.
  auto opt = SmallOptions(4, 13);
  opt.num_threads = 4;
  auto golden_rep = RunSharded(opt);
  ASSERT_TRUE(golden_rep.ok());
  const std::string golden = ShardedReportToJson(golden_rep.value());

  for (int rep = 0; rep < 4; ++rep) {  // 5 runs total with the golden one
    auto r = RunSharded(opt);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(golden, ShardedReportToJson(r.value())) << "repeat " << rep;
  }
  ExpectIdenticalAcrossWorkers(opt);
}

TEST(ShardedDriverTest, ShardLocalReportAndChainsIdenticalAcrossWorkerCounts) {
  // With no cross-shard transaction every epoch runs free (DESIGN D19):
  // one task per shard, no barrier. The coordinator's replayed merges and
  // 2PC stamps must not depend on how the tasks were scheduled.
  auto opt = SmallOptions(4, 13);
  opt.cross_shard_fraction = 0.0;
  ExpectIdenticalAcrossWorkers(opt);
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->cross_shard_txns, 0u);
  EXPECT_EQ(rep->committed, opt.total_txns);
  // One merge per epoch at the default cadence, the final one included.
  EXPECT_EQ(rep->xshard.merges, rep->xshard.epochs + 1);
  EXPECT_EQ(rep->coord_journal_chain.size(), rep->xshard.merges);
  opt.xshard_merge_period = 3;
  ExpectIdenticalAcrossWorkers(opt);
}

TEST(ShardedDriverTest, StepBudgetExhaustionIsIncompleteAndIdentical) {
  // A step budget that runs out before the shards drain ends the run
  // incomplete. Shard-local (the budget runs out inside a free run) and
  // 5% cross-shard with every global retired first (the free run starts
  // mid-run), the report and chains must not depend on the worker count.
  for (double cross : {0.0, 0.05}) {
    auto opt = SmallOptions(4, 13);
    opt.cross_shard_fraction = cross;
    for (std::uint64_t budget : {400u, 600u, 700u}) {
      opt.max_steps_per_shard = budget;
      auto rep = RunSharded(opt);
      ASSERT_TRUE(rep.ok()) << "cross=" << cross << " budget=" << budget
                            << ": " << rep.status().ToString();
      EXPECT_FALSE(rep->completed) << "cross=" << cross << " budget=" << budget;
      EXPECT_LT(rep->committed, opt.total_txns)
          << "cross=" << cross << " budget=" << budget;
      EXPECT_EQ(rep->xshard.global_commits, rep->xshard.global_txns)
          << "cross=" << cross << " budget=" << budget;
      for (const ShardResult& s : rep->shards) {
        EXPECT_LE(s.metrics.steps, budget)
            << "cross=" << cross << " budget=" << budget;
      }
      ExpectIdenticalAcrossWorkers(opt);
    }
  }
}

TEST(ShardedDriverTest, FreeRunTaskFailureIsReportedIdenticallyAcrossWorkers) {
  // Enumeration capped at one cycle per resolution round, with hundreds of
  // shared holders in flight, runs deadlock resolution out of rounds: a
  // shard's quantum fails. Shard-local, that happens inside a free run —
  // with one quantum per shard, in the run's very first epoch. Every worker
  // count must return the same error the serial schedule finds.
  ShardedOptions opt;
  opt.num_shards = 2;
  opt.workload.num_entities = 8;
  opt.workload.min_locks = 2;
  opt.workload.max_locks = 2;
  opt.workload.shared_fraction = 0.8;
  opt.workload.ops_per_entity = 1;
  opt.cross_shard_fraction = 0.0;
  opt.concurrency = 320;
  opt.total_txns = 320;
  opt.seed = 6;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.engine.max_cycles_per_deadlock = 1;
  for (std::uint64_t epoch_steps : {256u, 1u << 20}) {
    opt.xshard_epoch_steps = epoch_steps;
    std::string first;
    for (std::size_t workers : {1u, 2u, 4u, 7u}) {
      opt.num_threads = workers;
      auto r = RunSharded(opt);
      ASSERT_FALSE(r.ok()) << "epoch_steps=" << epoch_steps;
      EXPECT_EQ(r.status().code(), StatusCode::kInternal);
      const std::string msg = r.status().ToString();
      EXPECT_NE(msg.find("gave up after"), std::string::npos) << msg;
      if (first.empty()) first = msg;
      EXPECT_EQ(first, msg) << "epoch_steps=" << epoch_steps
                            << " workers=" << workers;
    }
  }
}

TEST(ShardedDriverTest, SingleShardCommitsEverythingUnderAnyHandling) {
  // A lone shard has no globals, so the epoch loop runs any deadlock
  // handling mode, not only detection.
  for (auto handling : {core::DeadlockHandling::kDetection,
                        core::DeadlockHandling::kWoundWait}) {
    auto opt = SmallOptions(1, 11);
    opt.engine.handling = handling;
    opt.num_threads = 1;
    auto one = RunSharded(opt);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(one->committed, opt.total_txns);
    EXPECT_TRUE(one->completed);
    EXPECT_TRUE(one->serializable);
    EXPECT_TRUE(one->global_serializable);
    EXPECT_EQ(one->cross_shard_txns, 0u);
    opt.num_threads = 4;
    auto four = RunSharded(opt);
    ASSERT_TRUE(four.ok()) << four.status().ToString();
    EXPECT_EQ(ShardedReportToJson(one.value()),
              ShardedReportToJson(four.value()));
  }
}

TEST(ShardedDriverTest, SchedulerStatsAndPoolMetricsAreFilled) {
  auto opt = SmallOptions(4, 11);
  opt.num_threads = 2;
  auto rep = RunSharded(opt);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->scheduler.num_workers, 2u);
  EXPECT_GE(rep->scheduler.quanta, 4u);  // at least one epoch of 4 shards
  EXPECT_EQ(rep->scheduler.quanta % 4, 0u);
  EXPECT_GE(rep->scheduler.mean_worker_utilization, 0.0);
  EXPECT_LE(rep->scheduler.min_worker_utilization,
            rep->scheduler.mean_worker_utilization);
  // The pool's live series land in the registry at the end of the run.
  for (const char* w : {"0", "1"}) {
    EXPECT_NE(rep->metrics.Find(obs::kWorkerUtilizationPermille,
                                {{obs::kWorkerLabel, w}}),
              nullptr)
        << "worker " << w;
  }
  const auto* steals = rep->metrics.Find(obs::kStealsTotal, {});
  ASSERT_NE(steals, nullptr);
  EXPECT_EQ(steals->counter, rep->scheduler.steals);
}

TEST(ShardedDriverTest, HotShardRoutingIsDeterministicAndChangesPlacement) {
  auto hot = SmallOptions(4, 9);
  hot.workload.zipf_theta = 0.9;
  hot.cross_shard_fraction = 0.0;  // isolate the local-routing change
  hot.hot_shard_routing = true;
  auto a = RunSharded(hot);
  ASSERT_TRUE(a.ok());
  auto b = RunSharded(hot);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ShardedReportToJson(a.value()), ShardedReportToJson(b.value()));
  EXPECT_EQ(a->committed, hot.total_txns);
  EXPECT_TRUE(a->serializable);

  auto uniform = hot;
  uniform.hot_shard_routing = false;
  auto u = RunSharded(uniform);
  ASSERT_TRUE(u.ok());
  // Zipf-homed placement must actually differ from the uniform spread.
  bool differs = false;
  for (std::size_t s = 0; s < a->shards.size(); ++s) {
    differs |= a->shards[s].assigned != u->shards[s].assigned;
  }
  EXPECT_TRUE(differs);
}

TEST(ShardedDriverTest, JsonIsWellFormedEnoughToGrep) {
  auto rep = RunSharded(SmallOptions(2, 5));
  ASSERT_TRUE(rep.ok());
  const std::string json = ShardedReportToJson(rep.value());
  EXPECT_NE(json.find("\"num_shards\":2"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
  EXPECT_NE(json.find("\"cross_shard_fraction\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ShardedDriverTest, InterimHubExportsDoNotDoubleCountTotals) {
  // With a hub attached every shard exports its engine aggregates at each
  // merge round (live /metrics quantiles) — many times per run at the
  // default merge cadence of one epoch. The delta exporter must still land
  // the merged registry on the exact totals. At 0% cross-shard every epoch
  // runs free (DESIGN D19), so the shard tasks publish concurrently from
  // the pool's workers.
  for (double cross : {0.2, 0.0}) {
    obs::LiveHub hub;
    auto opt = SmallOptions(2, 7);
    opt.cross_shard_fraction = cross;
    opt.num_threads = 2;
    opt.hub = &hub;
    auto rep = RunSharded(opt);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    for (const ShardResult& s : rep->shards) {
      const obs::LabelSet labels{{obs::kShardLabel, std::to_string(s.shard)}};
      const auto* steps = rep->metrics.Find(obs::kStepsTotal, labels);
      ASSERT_NE(steps, nullptr) << "shard " << s.shard;
      EXPECT_EQ(steps->counter, s.metrics.steps) << "shard " << s.shard;
      const auto* commits = rep->metrics.Find(obs::kCommitsTotal, labels);
      ASSERT_NE(commits, nullptr) << "shard " << s.shard;
      EXPECT_EQ(commits->counter, s.metrics.commits) << "shard " << s.shard;
      const auto* costs = rep->metrics.Find(obs::kRollbackCostOps, labels);
      ASSERT_NE(costs, nullptr) << "shard " << s.shard;
      EXPECT_EQ(costs->hist.count, s.rollback_costs.count)
          << "shard " << s.shard;
    }
    // The live view advanced at merge cadence, not only at the end: the
    // last shard to finish published its snapshot, txnlife digest and
    // journal digest at every epoch it ran.
    EXPECT_GE(hub.snapshot_version(), 3 * rep->xshard.epochs)
        << "cross=" << cross;
  }
}

}  // namespace
}  // namespace pardb::par
