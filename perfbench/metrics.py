"""Turns the call records of one benchmark run into named metrics.

Pure functions only (no processes, no clocks), so test_metrics.py can pin
every percentile rule and every ratio's base on hand-made records.

A call record is the "record" object one pardb_perfbench request returns:
{"ok", "completed", "serializable", "global_serializable", "error",
 "report", "shard_metrics", "fields": {...}, "counts": {...},
 "e2e_bounds": [...], "e2e_counts": [...]}.
"""

import statistics

# Unit of every metric this module emits, by name.
E2E_UNITS = {
    "throughput_txn_s": "txn/s",
    "verify_us_per_txn": "us",
    "txn_latency_steps_p50": "steps",
    "txn_latency_steps_p99": "steps",
    "txn_latency_steps_mean": "steps",
    "wasted_work_frac": "ratio",
    "txn_commit_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "sim.generate_us_per_txn": "us",
    "sim.materialized_programs_peak": "count",
    "par.route_us_per_txn": "us",
    "par.execute_share": "ratio",
    "par.worker_util": "ratio",
    "par.parallel_speedup": "ratio",
    "par.epochs_per_ktxn": "1/ktxn",
    "par.quanta_per_ktxn": "1/ktxn",
    "xshard.split_us_per_global": "us",
    "xshard.subs_per_global": "ratio",
    "xshard.merges_per_ktxn": "1/ktxn",
    "xshard.global_cycles_per_kglobal": "1/kglobal",
    "xshard.dist_rollbacks_per_kglobal": "1/kglobal",
    "xshard.messages_per_global": "ratio",
    "xshard.prepare_ns_p50": "ns",
    "xshard.prepare_ns_p99": "ns",
    "xshard.commits_per_prepare": "ratio",
    "txn.compile_us_per_program": "us",
    "txn.compile_hit_ratio": "ratio",
    "core.admit_us_per_txn": "us",
    "core.step_ns": "ns",
    "core.steps_per_txn": "steps",
    "core.ops_per_txn": "ops",
    "lock.requests_per_txn": "ratio",
    "lock.waits_per_txn": "ratio",
    "lock.op_ns_p50": "ns",
    "graph.deadlocks_per_txn": "ratio",
    "graph.cycles_per_deadlock": "ratio",
    "graph.detection_ns_p50": "ns",
    "graph.detection_ns_p99": "ns",
    "rollback.rollbacks_per_txn": "ratio",
    "rollback.partial_frac": "ratio",
    "rollback.wasted_work_frac_pooled": "ratio",
    "rollback.apply_ns_p50": "ns",
    "rollback.max_entity_copies": "count",
    "analysis.verify_share": "ratio",
    "obs.overhead_frac": "ratio",
    "obs.journal_records_per_txn": "ratio",
    "obs.trace_overhead_frac": "ratio",
}


def ratio(num, base):
    """num / base; 0.0 when the base is 0 (the layer did no such work)."""
    return num / base if base else 0.0


def median(values):
    return statistics.median(values)


def hist_quantile(bounds, counts, hist_max, pct):
    """Nearest-rank percentile over a bucket histogram, as pardb's
    HistogramSnapshot::Quantile computes it: the inclusive upper bound of
    the bucket holding rank ceil(count * pct / 100), clamped to the
    observed max (the overflow bucket reports the max).

    Returns (value, count)."""
    total = sum(counts)
    if total == 0:
        return 0, 0
    rank = max(1, -(-total * pct // 100))  # ceil, in exact integers
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= rank:
            if i >= len(bounds):
                return hist_max, total
            return min(bounds[i], hist_max), total
    return hist_max, total


def merge_hist(records):
    """Bucket-wise sum of the e2e histograms of `records` (same bounds).
    Returns (bounds, counts, max, sum of the samples)."""
    bounds, counts, hmax, total = [], [], 0, 0
    for r in records:
        if not r["e2e_counts"]:
            continue
        if not counts:
            bounds = list(r["e2e_bounds"])
            counts = [0] * len(r["e2e_counts"])
        if r["e2e_bounds"] != bounds:
            raise ValueError("histograms with different bounds")
        counts = [a + b for a, b in zip(counts, r["e2e_counts"])]
        hmax = max(hmax, r["fields"].get("e2e_max", 0))
        total += r["fields"].get("e2e_sum", 0)
    return bounds, counts, hmax, total


def residual_s(rec):
    """Wall time of a sharded call beyond its reported generate + execute
    phases: aggregation, report assembly, teardown and, when checked, the
    serializability verifier."""
    f = rec["fields"]
    return f["wall_s"] - f["generate_s"] - f["execute_s"]


def verify_s(timed, checked, sharded):
    """Verifier seconds of one input: the median over its checked calls.
    Single-engine calls time IsConflictSerializable directly; a sharded
    call's verifier is its residual beyond the median residual of the
    unchecked timed calls of the same input."""
    if not sharded:
        return median([r["fields"]["verify_s"] for r in checked])
    base = median([residual_s(r) for r in timed])
    return median([residual_s(r) - base for r in checked])


def wasted_frac(rec):
    """wasted_ops / ops_executed of one call: the paper's loss of
    progress."""
    return ratio(rec["counts"]["wasted_ops"], rec["counts"]["ops"])


def throughput(timed):
    """Committed transactions per wall second: the median over inputs of
    each input's committed transactions over the median wall time of its
    timed calls. Every input counts once, however many timed calls it got;
    inputs of one seed differ in speed by up to a third, and on
    sharded_cross the few that complete near the livelock run up to eight
    times slower than the rest."""
    return median([ratio(recs[0]["fields"]["committed"],
                         median([r["fields"]["wall_s"] for r in recs]))
                   for recs in timed.values() if recs])


def sum_counts(records, name):
    return sum(r["counts"].get(name, 0) for r in records)


def sum_fields(records, name):
    return sum(r["fields"].get(name, 0) for r in records)


def end_to_end(timed, checked, base, sharded, setups, rss_kib, inputs,
               passing):
    """The end-to-end metrics of one untraced run.

    timed:   {sub: [records of timed calls]}, for inputs that passed
    checked: {sub: [checked record]}, for inputs that passed
    base:    {sub: [checked record]}, for inputs whose checked call passed;
             the deterministic metrics are taken over these
    sharded: True for RunSharded workloads (verifier from residuals)
    setups:  per-session seconds from process start to first timed call
    rss_kib: per-session peak resident set
    inputs, passing: inputs of the run / inputs without any failure

    wasted_work_frac is the median over inputs of wasted_ops / ops. On
    sharded_cross some inputs (4 of 48 for one seed) complete near the
    livelock after wasting 24-49% of their work, against 7% for the rest.
    Pooled over a run's inputs, they spread the ratio 0.33 over ten seeds.
    The pooled ratio is the per-layer rollback.wasted_work_frac_pooled;
    its counts are in the counts line.
    """
    subs = [s for s in checked if timed.get(s) or not sharded]
    committed = sum(checked[s][0]["fields"]["committed"] for s in subs)
    verify = sum(verify_s(timed.get(s, []), checked[s], sharded)
                 for s in subs)
    firsts = [recs[0] for recs in base.values()]
    bounds, counts, hmax, total = merge_hist(firsts)
    p50, _ = hist_quantile(bounds, counts, hmax, 50)
    p99, _ = hist_quantile(bounds, counts, hmax, 99)
    return {
        "throughput_txn_s": throughput(timed),
        "verify_us_per_txn": 1e6 * ratio(verify, committed),
        "txn_latency_steps_p50": p50,
        "txn_latency_steps_p99": p99,
        "txn_latency_steps_mean": ratio(total, sum(counts)),
        "wasted_work_frac": median([wasted_frac(r) for r in firsts]),
        "txn_commit_frac": ratio(passing, inputs),
        "setup_s": median(setups),
        "peak_rss_mib": median(rss_kib) / 1024.0,
    }


def per_layer(timed, traced, bare, parallel, layers, checked, base,
              sharded):
    """The per-layer metrics of one traced run.

    timed/traced/bare: {sub: [records]} of the interleaved observer pairs
    parallel: {sub: [records]} of the calls with a worker per CPU,
             interleaved with the timed calls (empty on hotspot_single)
    layers:  the layers-call record of one sub (sharded workloads) or the
             checked closed-loop record (hotspot_single)
    checked: {sub: [checked record]}, for inputs that passed
    base:    {sub: [checked record]}, for inputs whose checked call passed
    Every count-based rate is pooled over the checked calls of `base` and
    divides by their committed transactions; ns percentiles and observer
    overheads come from the traced, timed and bare calls.
    """
    subs = [s for s in traced if traced[s] and timed.get(s) and bare.get(s)]
    traced_reps = [traced[s][0] for s in subs]
    reps = [recs[0] for recs in base.values()]
    f = lambda name: sum_fields(reps, name)
    c = lambda name: sum_counts(reps, name)
    t = lambda name: median_field(traced_reps, name)
    committed = f("committed")
    globals_ = c("global_txns")
    L = layers["fields"]
    obs_pairs, trace_pairs, par_pairs = [], [], []
    for s in subs:
        for on, off, tr in zip(timed[s], bare[s], traced[s]):
            obs_pairs.append(ratio(on["fields"]["wall_s"],
                                   off["fields"]["wall_s"]) - 1.0)
            trace_pairs.append(ratio(tr["fields"]["wall_s"],
                                     on["fields"]["wall_s"]) - 1.0)
        for one, wide in zip(timed[s], parallel.get(s, [])):
            par_pairs.append(ratio(one["fields"]["wall_s"],
                                   wide["fields"]["wall_s"]))
    ck = [s for s in checked if timed.get(s)]
    verify_share = ratio(
        sum(verify_s(timed[s], checked[s], sharded) for s in ck),
        sum(median([r["fields"]["wall_s"] for r in checked[s]]) for s in ck))
    calls = [r for recs in timed.values() for r in recs]
    wide_calls = [r for recs in parallel.values() for r in recs]
    return {
        "sim.generate_us_per_txn": 1e6 * ratio(L["generate_s"],
                                               L["generated"]),
        "sim.materialized_programs_peak": max(
            r["fields"].get("peak_materialized", 0) for r in traced_reps),
        "par.route_us_per_txn": 1e6 * ratio(L.get("route_s", 0),
                                            L["generated"]),
        "par.execute_share": median([
            ratio(r["fields"].get("execute_s", 0), r["fields"]["wall_s"])
            for r in calls]) if sharded else 0.0,
        "par.worker_util": median([r["fields"].get("worker_util", 0)
                                   for r in wide_calls]) if wide_calls
                           else 0.0,
        "par.parallel_speedup": median(par_pairs) if par_pairs else 0.0,
        "par.epochs_per_ktxn": 1e3 * ratio(c("epochs"), committed),
        "par.quanta_per_ktxn": 1e3 * ratio(f("quanta"), committed),
        "xshard.split_us_per_global": 1e6 * ratio(L.get("split_s", 0),
                                                  L.get("globals", 0)),
        "xshard.subs_per_global": ratio(c("sub_txns"), globals_),
        "xshard.merges_per_ktxn": 1e3 * ratio(c("merges"), committed),
        "xshard.global_cycles_per_kglobal": 1e3 * ratio(c("global_cycles"),
                                                        globals_),
        "xshard.dist_rollbacks_per_kglobal": 1e3 * ratio(
            c("distributed_rollbacks"), globals_),
        "xshard.messages_per_global": ratio(c("messages"), globals_),
        "xshard.prepare_ns_p50": t("prepare_ns_p50"),
        "xshard.prepare_ns_p99": t("prepare_ns_p99"),
        "xshard.commits_per_prepare": ratio(c("global_commits"),
                                            c("prepares")),
        "txn.compile_us_per_program": 1e6 * ratio(L["compile_s"],
                                                  L["compile_calls"]),
        "txn.compile_hit_ratio": ratio(c("compile_hits"),
                                       c("compiles") + c("compile_hits")),
        "core.admit_us_per_txn": 1e6 * ratio(L["admit_s"], L["admits"]),
        "core.step_ns": 1e9 * ratio(L["step_s"], L["steps"]),
        "core.steps_per_txn": ratio(c("steps"), committed),
        "core.ops_per_txn": ratio(c("ops"), committed),
        "lock.requests_per_txn": ratio(f("lock_requests"), committed),
        "lock.waits_per_txn": ratio(c("lock_waits"), committed),
        "lock.op_ns_p50": t("lock_op_ns_p50"),
        "graph.deadlocks_per_txn": ratio(c("deadlocks"), committed),
        "graph.cycles_per_deadlock": ratio(c("cycles"), c("deadlocks")),
        "graph.detection_ns_p50": t("detection_ns_p50"),
        "graph.detection_ns_p99": t("detection_ns_p99"),
        "rollback.rollbacks_per_txn": ratio(c("rollbacks"), committed),
        "rollback.partial_frac": ratio(c("partial_rollbacks"),
                                       c("rollbacks")),
        "rollback.wasted_work_frac_pooled": ratio(c("wasted_ops"), c("ops")),
        "rollback.apply_ns_p50": t("rollback_apply_ns_p50"),
        "rollback.max_entity_copies": max(
            r["fields"].get("max_entity_copies", 0) for r in reps),
        "analysis.verify_share": verify_share,
        "obs.overhead_frac": median(obs_pairs),
        "obs.journal_records_per_txn": ratio(c("journal_records"), committed),
        "obs.trace_overhead_frac": median(trace_pairs),
    }


def median_field(records, name):
    return median([r["fields"].get(name, 0) for r in records])
