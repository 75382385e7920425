#!/usr/bin/env python3
"""pardb benchmark: one workload, one seed, one JSON result line.

  python3 perfbench/run.py --workload sharded_local --seed 1 --seconds 10 \\
      --trace 0

Builds pardb and the benchmark's session program from source with CMake
(into $CARGO_TARGET_DIR, else .bench_build, under the checkout root), then
drives session processes of pardb_perfbench. Every call into pardb runs in
a session process with a deadline; a session whose call misses it is killed
and its transactions count as failed. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics (see perfbench/README.md). The
last line of standard output is the result object; everything else goes to
standard error, except one "counts" line of exact work counts before it.
"""

import argparse
import collections
import json
import os
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

# sharded: RunSharded workload (verifier cost from call residuals).
# inputs: the run's fixed set of sub-runs, 0 .. inputs-1. Each gets one
#   checked call. The exact work counts and every deterministic metric are
#   taken over the inputs whose checked call passed, so they depend on
#   --seed alone. Timed calls cycle over those inputs until the time is
#   spent.
# deadline: seconds one call may take before its session is killed. A
#   healthy call takes a tenth of it or less.
# warmups: untimed calls a session makes before its first timed call. A
#   session's first calls run up to a third slower than later ones: a
#   sharded_local call faults in ~430 MiB of programs, and the first
#   second of short sharded_cross calls is slow.
Workload = collections.namedtuple("Workload",
                                  "sharded inputs deadline warmups")
WORKLOADS = {
    "sharded_local": Workload(sharded=True, inputs=8, deadline=30.0,
                              warmups=2),
    "sharded_cross": Workload(sharded=True, inputs=48, deadline=2.0,
                              warmups=4),
    "hotspot_single": Workload(sharded=False, inputs=16, deadline=30.0,
                               warmups=1),
}
# Session processes of the untraced timed phase; setup_s is the median of
# their set-up times.
SESSIONS = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (when not built yet) and builds pardb_perfbench; returns
    its path. A rebuild picks up changed and added sources by itself."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build_dir, "pardb_perfbench")
    if not os.path.exists(binary):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       cwd=ROOT, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "pardb_perfbench"],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    return binary


class Session:
    """One pardb_perfbench process answering call requests in order."""

    def __init__(self, binary, workload, seed):
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [binary, "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self.buf = b""
        self.rss_kib = None
        self.alive = True
        header = self._read_line(30.0)
        if header is None:
            self.close(kill=True)
            raise RuntimeError("session process did not start")
        self.txns_per_call = header["txns_per_call"]

    def _read_line(self, deadline):
        end = time.monotonic() + deadline
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return None
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, kind, sub, deadline):
        """The reply to one request, or None if it missed its deadline or
        the process died; the session is then stopped."""
        try:
            self.proc.stdin.write(f"{kind} {sub}\n".encode())
            self.proc.stdin.flush()
            reply = self._read_line(deadline)
        except (BrokenPipeError, OSError):
            reply = None
        if reply is None:
            self.close(kill=True)
        return reply

    def close(self, kill=False):
        """Ends the process and reaps it, keeping its peak resident set."""
        if not self.alive:
            return
        self.alive = False
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        if kill:
            self.proc.kill()
        end = time.monotonic() + 30.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > end:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_kib = usage.ru_maxrss


class Run:
    """Calls made in one benchmark run, and what went wrong in them."""

    def __init__(self, binary, name, seed):
        self.binary, self.name, self.seed = binary, name, seed
        self.cfg = WORKLOADS[name]
        self.inputs = list(range(self.cfg.inputs))
        self.calls = collections.defaultdict(list)  # (kind, sub) -> records
        self.hung = collections.Counter()  # sub -> calls past their deadline
        self.sessions = []
        self.txns_per_call = 0

    def session(self):
        s = Session(self.binary, self.name, self.seed)
        self.sessions.append(s)
        self.txns_per_call = s.txns_per_call
        return s

    def close_all(self):
        for s in self.sessions:
            s.close(kill=True)

    def call(self, s, kind, sub, label=None):
        """Makes one call, kept under `label` (default: kind); returns its
        reply, or None if it missed its deadline."""
        rep = s.call(kind, sub, self.cfg.deadline)
        if rep is None:
            log(f"{self.name}: {kind} call on sub-run {sub} missed its "
                f"deadline; session stopped, its transactions count as failed")
            self.hung[sub] += 1
            return None
        self.calls[(label or kind, sub)].append(rep["record"])
        return rep


def problems(run, sub, kinds, compare_counts_of):
    """Liveness failures and correctness violations of one input.

    Every call must commit every transaction by its deadline. Every call's
    report must be byte-identical to the first completed call's, the work
    counts of the `compare_counts_of` kinds must repeat exactly, and the
    checked call must report serializable and global_serializable. Returns
    (messages, violated); the input passes when there is no message."""
    messages, violated = [], False
    if run.hung[sub]:
        messages.append(f"{run.hung[sub]} call(s) missed the deadline")
    ref = None
    for kind in kinds:
        for rec in run.calls.get((kind, sub), []):
            f = rec["fields"]
            if not rec["ok"] or not rec["completed"] or \
                    f["committed"] != f["attempted"]:
                messages.append(f"{kind}: {rec['error'] or 'incomplete'} "
                                f"({int(f['committed'])}/"
                                f"{int(f['attempted'])} committed)")
                continue
            if ref is None:
                ref = rec
            wrong = []
            if rec["report"] != ref["report"]:
                wrong.append("report differs from the first call's")
            if kind in compare_counts_of and rec["counts"] != ref["counts"]:
                wrong.append("work counts differ from the first call's")
            if not rec["serializable"] or not rec["global_serializable"]:
                wrong.append("not serializable")
            messages += [f"{kind}: {w}" for w in wrong]
            violated = violated or bool(wrong)
    if not run.calls.get(("checked", sub)) and not run.hung[sub]:
        messages.append("no checked call")
        violated = True
    return messages, violated


def checked_inputs(run):
    """Inputs whose checked call passed: the set every deterministic figure
    is taken over. It depends on the seed alone."""
    return [sub for sub in run.inputs
            if not problems(run, sub, ("checked",), ("checked",))[0]]


def check_run(run, kinds, compare_counts_of):
    """Evaluates every input. Returns (inputs without any problem, whether
    no correctness violation was found)."""
    passing, correct = [], True
    for sub in run.inputs:
        messages, violated = problems(run, sub, kinds, compare_counts_of)
        for msg in messages:
            log(f"{run.name} sub-run {sub}: {msg}")
        correct = correct and not violated
        if not messages:
            passing.append(sub)
    return passing, correct


def checked_phase(run):
    """One checked call per input, in a session of its own (a new one
    after each call that misses its deadline)."""
    s = run.session()
    for sub in run.inputs:
        if not s.alive:
            s = run.session()
        run.call(s, "checked", sub)
    s.close()


def timed_phase(run, seconds, kinds, sessions, subs):
    """Interleaved calls of `kinds` over `sessions` session processes (one
    more after each missed deadline), until `seconds` of call time is spent
    and every input has had its turn. The calls cycle over `subs`; an input
    whose call missed its deadline has failed and leaves the cycle. Each
    session first makes the workload's untimed warm-up calls. Returns
    per-session set-up seconds (process start to first timed call) and
    peak resident sets."""
    setups, rss = [], []
    subs = list(subs)
    spent, cursor, rnd, started = 0.0, 0, 0, 0
    slot = seconds / sessions
    while subs and (spent < seconds or cursor < len(subs)):
        s = run.session()
        started += 1
        hung = None
        for i in range(run.cfg.warmups):
            sub = subs[(cursor + i) % len(subs)]
            if run.call(s, "timed", sub, label="warm") is None:
                hung = sub
                break
        if hung is not None:
            spent += run.cfg.deadline
            subs.remove(hung)
            continue
        session_spent, first = 0.0, True
        while subs and (spent + session_spent < seconds or
                        cursor < len(subs)) and \
                (started >= sessions or session_spent < slot):
            sub = subs[cursor % len(subs)]
            order = kinds[rnd % len(kinds):] + kinds[:rnd % len(kinds)]
            rnd += 1
            for kind in order:
                t0 = time.monotonic()
                rep = run.call(s, kind, sub)
                if rep is None:
                    session_spent += run.cfg.deadline
                    subs.remove(sub)
                    break
                session_spent += time.monotonic() - t0
                if first and kind == "timed":
                    setups.append(rep["start_mono"] - s.spawned)
                    first = False
            if not s.alive:
                break
            cursor += 1
        spent += session_spent
        s.close()
        if not first:
            rss.append(s.rss_kib)
    return setups, rss


def by_sub(run, kind, subs):
    return {sub: run.calls[(kind, sub)] for sub in subs}


def print_counts(run, subs, extra):
    """The exact work counts of the run: the sum over the checked calls of
    `subs` (the inputs whose checked call passed), plus `extra`."""
    counts = collections.Counter()
    for sub in subs:
        counts.update(run.calls[("checked", sub)][0]["counts"])
    firsts = [run.calls[("checked", sub)][0] for sub in subs]
    _, hist, _, _ = metrics.merge_hist(firsts)
    print(json.dumps({
        "counts": dict(counts), "inputs": len(run.inputs),
        "checked_inputs": len(subs), "latency_samples": sum(hist),
        "journal_dropped": metrics.sum_fields(firsts, "journal_dropped"),
        "txnlife_dropped": metrics.sum_fields(firsts, "txnlife_dropped"),
        **extra}), flush=True)


def untraced(run, seconds):
    checked_phase(run)
    base = checked_inputs(run)
    setups, rss = timed_phase(run, seconds, ["timed"], SESSIONS, base)
    kinds = ("checked", "warm", "timed")
    passing, correct = check_run(run, kinds, kinds)
    timed = by_sub(run, "timed", passing)
    if not any(timed.values()):
        return correct, passing, None
    values = metrics.end_to_end(
        timed, by_sub(run, "checked", passing), by_sub(run, "checked", base),
        run.cfg.sharded, setups, rss, len(run.inputs), len(passing))
    print_counts(run, base, {
        "timed_calls": sum(len(v) for v in timed.values()),
        "sessions": len(setups)})
    return correct, passing, values


def traced(run, seconds):
    checked_phase(run)
    base = checked_inputs(run)
    # parallel calls run the shards on a worker per CPU.
    counted = ["timed", "traced"] + (["parallel"] if run.cfg.sharded else [])
    timed_phase(run, seconds, counted + ["bare"], 1, base)
    # bare calls run without the journal, so only their reports compare.
    passing, correct = check_run(
        run, ("checked", "warm", *counted, "bare"),
        ("checked", "warm", *counted))
    traced_ = {s: v for s, v in by_sub(run, "traced", passing).items() if v}
    if not traced_:
        return correct, passing, None
    first = min(traced_)
    if run.cfg.sharded:
        s = run.session()
        rep = run.call(s, "layers", first)
        s.close()
        if rep is None or not rep["record"]["ok"]:
            log(f"{run.name}: layers call failed")
            return False, passing, None
        layers = rep["record"]
        # The layer calls must see the traced call's inputs, and with no
        # shard-spanning transactions the benchmark's own shard loops must
        # reproduce every shard of the traced call exactly.
        ref = run.calls[("traced", first)][0]
        globals_ = ref["counts"]["global_txns"]
        if layers["fields"]["generated"] != ref["fields"]["attempted"] or \
                layers["fields"]["globals"] != globals_ or \
                (globals_ == 0 and
                 layers["shard_metrics"] != ref["shard_metrics"]):
            log(f"{run.name}: layer calls diverge from the traced call")
            correct = False
    else:
        layers = run.calls[("checked", first)][0]
    values = metrics.per_layer(
        by_sub(run, "timed", passing), traced_, by_sub(run, "bare", passing),
        by_sub(run, "parallel", passing), layers,
        by_sub(run, "checked", passing), by_sub(run, "checked", base),
        run.cfg.sharded)
    print_counts(run, base, {})
    return correct, passing, values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    run = Run(binary, args.workload, args.seed)
    try:
        if args.trace:
            correct, passing, values = traced(run, args.seconds)
            units = metrics.LAYER_UNITS
        else:
            correct, passing, values = untraced(run, args.seconds)
            units = metrics.E2E_UNITS
    finally:
        run.close_all()
    if values is None:
        log(f"{args.workload}: no input passed; no metrics")
        values = {name: 0.0 for name in units}
    # Every input's transactions count once; all of them fail when any
    # call on that input failed.
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.inputs) * run.txns_per_call,
        "failed": (len(run.inputs) - len(passing)) * run.txns_per_call,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
