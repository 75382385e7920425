// Determinism safety net for the D15 data-oriented rewrite.
//
// The golden files under tests/golden/ were captured from the pre-rewrite
// binary on two pinned workloads (sim seed 7 / 120 txns; sharded seed 11 /
// 200 txns / 4 shards), plus a shared-lock sim captured before the D18
// deadlock-resolution rewrite (seed 13 / 1,000 txns) and a shard-local
// sharded run (seed 11 / 400 txns / no cross-shard transactions) captured
// before the D19 free-run epochs, and a sharded_cross-shaped report (seed
// 1 / 4,000 txns / 20% cross-shard) captured before the D21 verifier. The
// rewrite's contract is byte identity: the same report strings and the
// same D14 journal chain heads, which is exactly what `pardb diff-runs`
// checks between two recorded runs — chain-head equality here proves
// diff-runs would report zero divergence between the pre- and
// post-rewrite binaries.
//
// Also here: the Figure 1 / Figure 3 micro-tests pinning the public
// emission contract of LockManager::Holders / WaitQueue / HeldBy (sorted
// at the snapshot site, FIFO for queues), so the internal layout stays
// free to change.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "par/report_json.h"
#include "par/sharded_driver.h"
#include "sim/driver.h"
#include "sim/scenario.h"

namespace pardb {
namespace {

using lock::LockMode;

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string ChainLine(std::uint64_t c) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)c);
  return buf;
}

sim::SimOptions PinnedSim() {
  sim::SimOptions opt;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.total_txns = 120;
  opt.concurrency = 12;
  opt.workload.num_entities = 16;
  opt.seed = 7;
  opt.engine.seed = 7;
  return opt;
}

par::ShardedOptions PinnedSharded() {
  par::ShardedOptions opt;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.total_txns = 200;
  opt.num_shards = 4;
  opt.num_threads = 2;
  opt.seed = 11;
  opt.workload.num_entities = 32;
  opt.concurrency = 16;
  return opt;
}

TEST(HotpathGoldenTest, SimReportAndJournalChainMatchPreRewriteBytes) {
  auto rep = sim::RunSimulation(PinnedSim());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->ToString() + "\n", ReadGolden("golden_sim_report.txt"));

  std::ostringstream chain;
  chain << "records " << rep->journal_records << "\n";
  for (std::uint64_t c : rep->journal_chain) chain << ChainLine(c) << "\n";
  EXPECT_EQ(chain.str(), ReadGolden("golden_sim_chain.txt"))
      << "journal chain heads diverged from the pre-rewrite binary "
         "(pardb diff-runs would report a first-divergence)";
}

TEST(HotpathGoldenTest, ShardedReportAndChainsMatchPreRewriteBytes) {
  auto rep = par::RunSharded(PinnedSharded());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(par::ShardedReportToJson(rep.value()) + "\n",
            ReadGolden("golden_sharded_report.json"));

  std::ostringstream chain;
  for (const auto& s : rep->shards) {
    chain << "shard " << s.shard << " records " << s.journal_records << "\n";
    for (std::uint64_t c : s.journal_chain) chain << ChainLine(c) << "\n";
  }
  chain << "coord\n";
  for (std::uint64_t c : rep->coord_journal_chain) {
    chain << ChainLine(c) << "\n";
  }
  EXPECT_EQ(chain.str(), ReadGolden("golden_sharded_chain.txt"));
}

// Shard-local: the pinned sharded shape with no cross-shard transactions,
// so no global is ever in flight and every epoch after the first is
// shard-local (the 5% cross golden above reaches that state only in its
// tail). Pins the report — epochs, merges and messages included — every
// shard chain and the coordinator's 2PC-epoch stamp chain.
par::ShardedOptions PinnedShardLocal() {
  par::ShardedOptions opt = PinnedSharded();
  opt.cross_shard_fraction = 0.0;
  opt.total_txns = 400;
  return opt;
}

TEST(HotpathGoldenTest, ShardLocalReportAndChainsMatchGoldenBytes) {
  auto rep = par::RunSharded(PinnedShardLocal());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_EQ(rep->cross_shard_txns, 0u);
  EXPECT_EQ(par::ShardedReportToJson(rep.value()) + "\n",
            ReadGolden("golden_sharded_local_report.json"));

  std::ostringstream chain;
  for (const auto& s : rep->shards) {
    chain << "shard " << s.shard << " records " << s.journal_records << "\n";
    for (std::uint64_t c : s.journal_chain) chain << ChainLine(c) << "\n";
  }
  chain << "coord\n";
  for (std::uint64_t c : rep->coord_journal_chain) {
    chain << ChainLine(c) << "\n";
  }
  EXPECT_EQ(chain.str(), ReadGolden("golden_sharded_local_chain.txt"));
}

// Cross-shard contention: the sharded_cross benchmark shape (64 entities,
// 20% cross-shard, 4,000 transactions, one worker, telemetry off) on a seed
// whose call completes. Pins the report of a run dominated by distributed
// partial rollback, including its serializability verdicts.
par::ShardedOptions PinnedShardedCross() {
  par::ShardedOptions opt;
  opt.num_shards = 4;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.engine.seed = 1;
  opt.seed = 1;
  opt.concurrency = 16;
  opt.num_threads = 1;
  opt.instrument = false;
  opt.workload.num_entities = 64;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 6;
  opt.cross_shard_fraction = 0.2;
  opt.total_txns = 4000;
  return opt;
}

TEST(HotpathGoldenTest, ShardedCrossReportMatchesGoldenBytes) {
  auto rep = par::RunSharded(PinnedShardedCross());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  ASSERT_TRUE(rep->completed);
  EXPECT_EQ(par::ShardedReportToJson(rep.value()) + "\n",
            ReadGolden("golden_sharded_cross_report.json"));
}

// Shared locks: a hotspot-shaped run where one wait closes several cycles,
// so deadlocks resolve through the §3.2 minimum-cost vertex cut. The two
// goldens above use exclusive locks only and never reach SolveVertexCut;
// this one pins every multi-victim cut through the report (with the cycle
// and preemption counts) and the journal chain, whose records carry each
// victim decision.
sim::SimOptions PinnedSharedSim() {
  sim::SimOptions opt;
  opt.engine.scheduler = core::SchedulerKind::kRandom;
  opt.total_txns = 1000;
  opt.concurrency = 16;
  opt.workload.num_entities = 48;
  opt.workload.zipf_theta = 0.8;
  opt.workload.shared_fraction = 0.3;
  opt.workload.min_locks = 3;
  opt.workload.max_locks = 6;
  opt.workload.num_templates = 1024;
  opt.seed = 13;
  opt.engine.seed = 13;
  return opt;
}

TEST(HotpathGoldenTest, SharedLockSimReportAndChainMatchGoldenBytes) {
  auto rep = sim::RunSimulation(PinnedSharedSim());
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  // The workload must actually exercise multi-cycle resolution.
  ASSERT_GT(rep->metrics.cycles_found, rep->metrics.deadlocks);
  std::ostringstream report;
  report << rep->ToString() << "\n"
         << "cycles_found=" << rep->metrics.cycles_found
         << " preemptions=" << rep->metrics.preemptions
         << " ideal_wasted_ops=" << rep->metrics.ideal_wasted_ops << "\n";
  EXPECT_EQ(report.str(), ReadGolden("golden_sim_shared_report.txt"));

  std::ostringstream chain;
  chain << "records " << rep->journal_records << "\n";
  for (std::uint64_t c : rep->journal_chain) chain << ChainLine(c) << "\n";
  EXPECT_EQ(chain.str(), ReadGolden("golden_sim_shared_chain.txt"));
}

// The D16 compiled µop path must be invisible in every deterministic
// artifact: running the same pinned workloads on the fallback interpreter
// (compile_programs = false) must reproduce the same pre-rewrite golden
// bytes — report strings and journal chain heads alike.

TEST(HotpathGoldenTest, SimGoldenBytesIdenticalWithCompileOff) {
  sim::SimOptions opt = PinnedSim();
  opt.engine.compile_programs = false;
  auto rep = sim::RunSimulation(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->ToString() + "\n", ReadGolden("golden_sim_report.txt"));

  std::ostringstream chain;
  chain << "records " << rep->journal_records << "\n";
  for (std::uint64_t c : rep->journal_chain) chain << ChainLine(c) << "\n";
  EXPECT_EQ(chain.str(), ReadGolden("golden_sim_chain.txt"))
      << "interpreter and compiled paths diverged (D16 contract broken)";
}

TEST(HotpathGoldenTest, ShardedGoldenBytesIdenticalWithCompileOff) {
  par::ShardedOptions opt = PinnedSharded();
  opt.engine.compile_programs = false;
  auto rep = par::RunSharded(opt);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(par::ShardedReportToJson(rep.value()) + "\n",
            ReadGolden("golden_sharded_report.json"));

  std::ostringstream chain;
  for (const auto& s : rep->shards) {
    chain << "shard " << s.shard << " records " << s.journal_records << "\n";
    for (std::uint64_t c : s.journal_chain) chain << ChainLine(c) << "\n";
  }
  chain << "coord\n";
  for (std::uint64_t c : rep->coord_journal_chain) {
    chain << ChainLine(c) << "\n";
  }
  EXPECT_EQ(chain.str(), ReadGolden("golden_sharded_chain.txt"));
}

// ---------------------------------------------------------------------------
// Holders / WaitQueue / HeldBy emission contract on the paper fixtures.
// ---------------------------------------------------------------------------

core::EngineOptions PaperOptions() {
  core::EngineOptions opt;
  opt.victim_policy = core::VictimPolicyKind::kMinCost;
  opt.strategy = rollback::StrategyKind::kMcs;
  return opt;
}

TEST(LockEmissionTest, Figure1HoldersAndQueuesUnchanged) {
  auto fig = sim::BuildFigure1(PaperOptions());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  const auto& lm = fig->runner->engine().lock_manager();

  // Single X holders on the figure's contended entities.
  const auto holders_b = lm.Holders(fig->b);
  ASSERT_EQ(holders_b.size(), 1u);
  EXPECT_EQ(holders_b[0].first, fig->t2);
  EXPECT_EQ(holders_b[0].second, LockMode::kExclusive);
  const auto holders_c = lm.Holders(fig->c);
  ASSERT_EQ(holders_c.size(), 1u);
  EXPECT_EQ(holders_c[0].first, fig->t3);
  const auto holders_e = lm.Holders(fig->e);
  ASSERT_EQ(holders_e.size(), 1u);
  EXPECT_EQ(holders_e[0].first, fig->t4);

  // b's queue holds T1 (blocked from state 3) and T3 (from state 11),
  // both exclusive, in FIFO request order — queues are semantic order,
  // never sorted.
  const auto queue_b = lm.WaitQueue(fig->b);
  ASSERT_EQ(queue_b.size(), 2u);
  EXPECT_EQ(queue_b[0].first, fig->t1);
  EXPECT_EQ(queue_b[1].first, fig->t3);
  EXPECT_EQ(queue_b[0].second, LockMode::kExclusive);
  EXPECT_EQ(queue_b[1].second, LockMode::kExclusive);

  // T2 holds its filler entity plus f and b: HeldBy emits entity-id order
  // regardless of grant order (b was granted after f).
  const auto held_t2 = lm.HeldBy(fig->t2);
  ASSERT_EQ(held_t2.size(), 3u);
  for (std::size_t i = 1; i < held_t2.size(); ++i) {
    EXPECT_LT(held_t2[i - 1].first, held_t2[i].first);
  }
  EXPECT_EQ(held_t2[1].first, fig->b);
  EXPECT_EQ(held_t2[2].first, fig->f);
}

TEST(LockEmissionTest, Figure3cSharedHoldersSortedByTxn) {
  auto fig = sim::BuildFigure3c(PaperOptions());
  ASSERT_TRUE(fig.ok()) << fig.status().ToString();
  const auto& lm = fig->runner->engine().lock_manager();

  // f is S-held by T2 and T3; Holders emits txn-id order regardless of
  // grant order.
  const auto holders_f = lm.Holders(fig->f);
  ASSERT_EQ(holders_f.size(), 2u);
  EXPECT_EQ(holders_f[0].first, fig->t2);
  EXPECT_EQ(holders_f[0].second, LockMode::kShared);
  EXPECT_EQ(holders_f[1].first, fig->t3);
  EXPECT_EQ(holders_f[1].second, LockMode::kShared);

  // T1 X-holds x and y; entity-id order.
  const auto held_t1 = lm.HeldBy(fig->t1);
  ASSERT_GE(held_t1.size(), 2u);
  for (std::size_t i = 1; i < held_t1.size(); ++i) {
    EXPECT_LT(held_t1[i - 1].first, held_t1[i].first);
  }

  // T2 waits for x, T3 for y (each a queue of one).
  const auto queue_x = lm.WaitQueue(fig->x);
  ASSERT_EQ(queue_x.size(), 1u);
  EXPECT_EQ(queue_x[0].first, fig->t2);
  const auto queue_y = lm.WaitQueue(fig->y);
  ASSERT_EQ(queue_y.size(), 1u);
  EXPECT_EQ(queue_y[0].first, fig->t3);
}

}  // namespace
}  // namespace pardb
