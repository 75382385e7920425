"""Unit tests of the benchmark's percentile rules and ratio bases.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


def record(fields=None, counts=None, bounds=(), hist=(), report="r"):
    return {"ok": True, "completed": True, "serializable": True,
            "global_serializable": True, "error": "", "report": report,
            "shard_metrics": "", "fields": dict(fields or {}),
            "counts": dict(counts or {}), "e2e_bounds": list(bounds),
            "e2e_counts": list(hist)}


class PercentileTest(unittest.TestCase):
    def test_hist_quantile_is_nearest_rank_with_sample_count(self):
        bounds = [1, 2, 4, 8]
        counts = [0, 50, 49, 1, 0]  # 100 samples, none in overflow
        # Rank ceil(100 * 50 / 100) = 50 is the last sample in bucket (1, 2];
        # rank 51 is the first in (2, 4]. No interpolation.
        self.assertEqual(metrics.hist_quantile(bounds, counts, 7, 50),
                         (2, 100))
        self.assertEqual(metrics.hist_quantile(bounds, counts, 7, 51),
                         (4, 100))
        # The top bucket's bound is clamped to the observed max.
        self.assertEqual(metrics.hist_quantile(bounds, counts, 7, 100),
                         (7, 100))

    def test_hist_quantile_overflow_reports_max(self):
        self.assertEqual(metrics.hist_quantile([1, 2], [0, 1, 1], 900, 99),
                         (900, 2))

    def test_hist_quantile_empty(self):
        self.assertEqual(metrics.hist_quantile([1, 2], [0, 0, 0], 0, 50),
                         (0, 0))

    def test_merge_hist_sums_buckets_and_keeps_max_and_sum(self):
        a = record({"e2e_max": 3, "e2e_sum": 7}, bounds=[1, 2, 4],
                   hist=[1, 2, 0, 0])
        b = record({"e2e_max": 4, "e2e_sum": 19}, bounds=[1, 2, 4],
                   hist=[0, 1, 5, 0])
        self.assertEqual(metrics.merge_hist([a, b]),
                         ([1, 2, 4], [1, 3, 5, 0], 4, 26))
        c = record(bounds=[1, 3], hist=[1, 0, 0])
        with self.assertRaises(ValueError):
            metrics.merge_hist([a, c])


class RatioTest(unittest.TestCase):
    def test_zero_base_is_zero(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertEqual(metrics.ratio(1, 4), 0.25)


def sharded(wall, gen, execute, committed=1000, **counts):
    return record({"wall_s": wall, "generate_s": gen, "execute_s": execute,
                   "committed": committed, "attempted": committed},
                  counts)


class EndToEndTest(unittest.TestCase):
    def test_bases(self):
        timed = {0: [sharded(2.0, 0.5, 1.0), sharded(4.0, 0.5, 1.0),
                     sharded(1.0, 0.2, 0.6)]}
        hist = dict(bounds=[1, 2, 4, 8], hist=[0, 60, 39, 1, 0])
        checked = {0: [record({"wall_s": 3.0, "generate_s": 0.5,
                               "execute_s": 1.0, "committed": 1000,
                               "e2e_max": 9, "e2e_sum": 250},
                              dict(wasted_ops=10, ops=1000), **hist)]}
        m = metrics.end_to_end(timed, checked, checked, True,
                               setups=[1.0, 3.0, 2.0],
                               rss_kib=[2048, 1024, 4096], inputs=4,
                               passing=3)
        # Committed over the median wall of the input's calls: 1000 / 2.0.
        self.assertEqual(m["throughput_txn_s"], 500.0)
        # Checked residual 1.5 s minus the median timed residual 0.5 s,
        # per committed transaction of the input.
        self.assertAlmostEqual(m["verify_us_per_txn"], 1000.0)
        self.assertEqual(m["txn_latency_steps_p50"], 2)
        self.assertEqual(m["txn_latency_steps_p99"], 4)
        # Exact: sum of the samples over their count.
        self.assertEqual(m["txn_latency_steps_mean"], 2.5)
        self.assertEqual(m["wasted_work_frac"], 0.01)
        # Inputs without any failure over the run's inputs.
        self.assertEqual(m["txn_commit_frac"], 0.75)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["peak_rss_mib"], 2.0)

    def test_pooled_over_checked_inputs(self):
        work = {0: dict(wasted_ops=30, ops=100),
                1: dict(wasted_ops=10, ops=500),
                2: dict(wasted_ops=20, ops=400)}
        base = {}
        for s, counts in work.items():
            base[s] = [sharded(1.4, 0.1, 0.5, **counts)]
            base[s][0]["e2e_bounds"], base[s][0]["e2e_counts"] = [1], [1, 0]
            base[s][0]["fields"].update(e2e_sum=1, e2e_max=1)
        # Input 2 passed its checked call but not its timed calls; input 1
        # got no timed call, so it gives no verifier baseline.
        timed = {0: [sharded(1.0, 0.1, 0.5)], 1: []}
        checked = {s: base[s] for s in (0, 1)}
        m = metrics.end_to_end(timed, checked, base, True, [1.0], [1024],
                               4, 2)
        # Median over every input whose checked call passed of wasted /
        # ops: 0.3, 0.02, 0.05.
        self.assertEqual(m["wasted_work_frac"], 0.05)
        self.assertEqual(m["txn_latency_steps_mean"], 1.0)
        # 0.4 s over the 1000 committed transactions of input 0.
        self.assertAlmostEqual(m["verify_us_per_txn"], 400.0)
        self.assertEqual(m["txn_commit_frac"], 0.5)

    def test_throughput_counts_every_input_once(self):
        # Input 0 got three fast calls, inputs 1 and 2 one slow call each:
        # the median of 1000/s, 500/s and 250/s, not the median call's
        # 1000/s.
        timed = {0: [sharded(1.0, 0.1, 0.5)] * 3, 1: [sharded(2.0, 0.1, 0.5)],
                 2: [sharded(4.0, 0.1, 0.5)], 3: []}
        self.assertEqual(metrics.throughput(timed), 500.0)
        # Per input, the median over its calls.
        self.assertEqual(metrics.throughput(
            {0: [sharded(w, 0.1, 0.5) for w in (1.0, 4.0, 2.0)]}), 500.0)

    def test_single_engine_verifier_is_timed_directly(self):
        timed = {0: [record({"wall_s": 1.0, "committed": 100})]}
        checked = {0: [record({"verify_s": 0.01, "committed": 100},
                              {"wasted_ops": 1, "ops": 4},
                              bounds=[1], hist=[1, 0])],
                   1: [record({"verify_s": 0.03, "committed": 100},
                              {"wasted_ops": 1, "ops": 4},
                              bounds=[1], hist=[1, 0])]}
        m = metrics.end_to_end(timed, checked, checked, False, [1.0],
                               [1024], 2, 2)
        # Every checked input counts, with or without a timed call.
        self.assertAlmostEqual(m["verify_us_per_txn"], 200.0)


class PerLayerTest(unittest.TestCase):
    def test_bases(self):
        counts = dict(steps=3000, ops=2000, lock_waits=100, deadlocks=20,
                      cycles=50, rollbacks=40, partial_rollbacks=10,
                      compiles=900, compile_hits=100, epochs=30, merges=31,
                      global_txns=200, sub_txns=500, global_commits=200,
                      prepares=800, messages=4000, global_cycles=50,
                      distributed_rollbacks=25, journal_records=7000,
                      wasted_ops=10)
        fields = {"wall_s": 2.0, "generate_s": 0.5, "execute_s": 1.0,
                  "committed": 1000, "quanta": 120, "worker_util": 1.0,
                  "lock_requests": 4000, "prepare_ns_p50": 256,
                  "prepare_ns_p99": 1024, "lock_op_ns_p50": 128,
                  "detection_ns_p50": 512, "detection_ns_p99": 4096,
                  "rollback_apply_ns_p50": 2048, "peak_materialized": 1000,
                  "max_entity_copies": 9}
        traced = {0: [record(dict(fields, wall_s=2.2), counts)]}
        timed = {0: [record(fields, counts)]}
        bare = {0: [record(dict(fields, wall_s=1.6), counts)]}
        parallel = {0: [record(dict(fields, wall_s=0.8, worker_util=0.4),
                               counts)]}
        checked = {0: [record(dict(fields, wall_s=4.0), counts)]}
        layers = record({"generate_s": 0.01, "generated": 1000,
                         "route_s": 0.002, "split_s": 0.004, "globals": 200,
                         "compile_s": 0.003, "compile_calls": 1500,
                         "admit_s": 0.004, "admits": 800, "step_s": 0.3,
                         "steps": 3000})
        m = metrics.per_layer(timed, traced, bare, parallel, layers,
                              checked, checked, True)
        expect = {
            "sim.generate_us_per_txn": 10.0,      # per generated program
            "sim.materialized_programs_peak": 1000,
            "par.route_us_per_txn": 2.0,          # per routed program
            "par.execute_share": 0.5,             # execute / call wall
            "par.worker_util": 0.4,               # of the parallel calls
            "par.parallel_speedup": 2.5,          # 2.0 s one worker / 0.8 s
            "par.epochs_per_ktxn": 30.0,          # per 1000 committed
            "par.quanta_per_ktxn": 120.0,
            "xshard.split_us_per_global": 20.0,   # per split program
            "xshard.subs_per_global": 2.5,        # per admitted global
            "xshard.merges_per_ktxn": 31.0,
            "xshard.global_cycles_per_kglobal": 250.0,
            "xshard.dist_rollbacks_per_kglobal": 125.0,
            "xshard.messages_per_global": 20.0,
            "xshard.prepare_ns_p50": 256,
            "xshard.prepare_ns_p99": 1024,
            "xshard.commits_per_prepare": 0.25,   # global commits / prepares
            "txn.compile_us_per_program": 2.0,    # per CompileCache::Get
            "txn.compile_hit_ratio": 0.1,         # hits / (hits + compiles)
            "core.admit_us_per_txn": 5.0,         # per Engine::Spawn
            "core.step_ns": 100000.0,             # per engine step
            "core.steps_per_txn": 3.0,
            "core.ops_per_txn": 2.0,
            "lock.requests_per_txn": 4.0,
            "lock.waits_per_txn": 0.1,
            "lock.op_ns_p50": 128,
            "graph.deadlocks_per_txn": 0.02,
            "graph.cycles_per_deadlock": 2.5,
            "graph.detection_ns_p50": 512,
            "graph.detection_ns_p99": 4096,
            "rollback.rollbacks_per_txn": 0.04,
            "rollback.partial_frac": 0.25,        # partial / all rollbacks
            "rollback.wasted_work_frac_pooled": 0.005,  # wasted / all ops
            "rollback.apply_ns_p50": 2048,
            "rollback.max_entity_copies": 9,
            "analysis.verify_share": 0.5,         # (2.5 - 0.5) s / 4 s
            "obs.overhead_frac": 0.25,            # 2.0 s on / 1.6 s off - 1
            "obs.journal_records_per_txn": 7.0,
            "obs.trace_overhead_frac": 0.1,       # 2.2 s traced / 2.0 s - 1
        }
        self.assertEqual(set(m), set(metrics.LAYER_UNITS))
        for name, value in expect.items():
            self.assertAlmostEqual(m[name], value, msg=name)


if __name__ == "__main__":
    unittest.main()
