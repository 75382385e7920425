// Self-tests of the benchmark's own engine loops: each must reproduce the
// program's report exactly, or the per-layer split would describe a
// different run from the one the end-to-end figures measure.

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "par/sharded_driver.h"
#include "perfbench/workloads.h"
#include "sim/driver.h"

namespace pardb::perfbench {
namespace {

void ExpectSameMetrics(const core::EngineMetrics& want,
                       const core::EngineMetrics& got) {
  const auto w = MetricsFields(want);
  const auto g = MetricsFields(got);
  ASSERT_EQ(w.size(), g.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i].second, g[i].second) << w[i].first;
  }
}

class ClosedLoopTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosedLoopTest, ReproducesRunSimulationFieldForField) {
  sim::SimOptions opt = SimOptionsFor(GetParam());
  opt.total_txns = 1500;
  opt.check_serializability = false;
  auto want = sim::RunSimulation(opt);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  // Instrumented or not, the loop must take the same decisions.
  obs::MetricsRegistry registry;
  for (obs::MetricsRegistry* reg : {&registry, (obs::MetricsRegistry*)nullptr}) {
    auto got = RunClosedLoop(opt, reg);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got.value().completed);
    EXPECT_TRUE(got.value().serializable);
    ExpectSameMetrics(want.value().metrics, got.value().metrics);
    EXPECT_EQ(want.value().journal_records, got.value().journal_records);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedLoopTest,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(ClosedLoopTest, ReproducesRunSimulationWithUniquePrograms) {
  sim::SimOptions opt = SimOptionsFor(3);
  opt.total_txns = 800;
  opt.workload.num_templates = 0;
  opt.check_serializability = false;
  auto want = sim::RunSimulation(opt);
  ASSERT_TRUE(want.ok());
  auto got = RunClosedLoop(opt, nullptr);
  ASSERT_TRUE(got.ok());
  ExpectSameMetrics(want.value().metrics, got.value().metrics);
}

TEST(ShardedLayersTest, LocalLoopReproducesEveryShard) {
  par::ShardedOptions opt = ShardedOptionsFor(Workload::kShardedLocal, 11);
  opt.total_txns = 3000;
  opt.check_serializability = false;
  auto want = par::RunSharded(opt);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  std::vector<core::EngineMetrics> shards;
  for (const par::ShardResult& s : want.value().shards) {
    shards.push_back(s.metrics);
  }
  const CallRecord layers = RunShardedLayers(opt);
  ASSERT_TRUE(layers.ok) << layers.error;
  EXPECT_EQ(ShardMetricsReport(shards), layers.shard_metrics);
  EXPECT_EQ(layers.Get("admits"), 3000.0);
  EXPECT_EQ(layers.Get("generated"), 3000.0);
  EXPECT_EQ(layers.Get("globals"), 0.0);
}

TEST(SubSeedTest, DeterministicAndDistinct) {
  EXPECT_EQ(SubSeed(1, 0), SubSeed(1, 0));
  EXPECT_NE(SubSeed(1, 0), SubSeed(1, 1));
  EXPECT_NE(SubSeed(1, 0), SubSeed(2, 0));
}

}  // namespace
}  // namespace pardb::perfbench
