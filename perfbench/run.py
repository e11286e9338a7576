"""Closed-loop benchmark of the pogc command line, driven in process.

    python3 perfbench/run.py --workload band-complete --seed 1 --seconds 20 --trace 0

One client, one thread: each operation is one `pogc.cli.run(argv)` call
with stdout and stderr captured, and the next starts when it returns.
Inputs are generated from the seed into `.perfbench/` under the checkout
root, one pass of operation chains at a time; every output is judged
against the answer planted by construction (see families.py and
oracle.py).  The package is imported from `src/` of the same checkout;
without it the run exits with status 2 and prints no result.

Times are reported at a nominal machine speed: a fixed pure-Python
reference kernel is timed between chains (see SpeedMeter), and each
operation's time is scaled by REF_NOMINAL_S over the kernel's recent
time.  On a shared host the raw speed drifts by a factor of two within
a minute; the scaled times drift far less.  The raw wall-clock figures
are printed on the '#' lines.

--seconds fixes the amount of work: round(seconds / PASS_SECONDS)
passes.  --trace 0 runs them and reports the end-to-end metrics.
--trace 1 runs half as many once untraced and once with every package
function wrapped in a span recorder, reports the per-layer metrics, and
writes the spans and a report to `.perfbench/`.  The last stdout line is
the JSON result; the lines before it, starting with '#', give the run
context.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import deque, namedtuple
from pathlib import Path

import families
import spans

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "pogc"
SETUP_REPEATS = 3
# The tail is the highest of these percentiles with at least ten samples
# beyond it.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Reference kernel time on the nominal machine; timings per speed
# sample (the fastest counts); seconds between samples; samples in the
# median estimate.
REF_NOMINAL_S = 0.012
REF_REPEATS = 2
REF_PERIOD_S = 0.25
REF_WINDOW = 7

# Seconds budgeted per pass: about the wall time of one pass, checks and
# speed samples included, on the host the benchmark was defined on.  A
# run makes round(--seconds / PASS_SECONDS) passes, a fixed amount of
# work, so the sample count, and with it the tail percentile, is the
# same on every run and on every commit.
PASS_SECONDS = {"band-complete": 3.0, "band-refute": 0.4,
                "sparse-strong": 1.33, "sat-reduction": 1.43}

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# wall: raw seconds; scale: nominal seconds per raw second at the time
Record = namedtuple("Record", "pass_index label wall scale verdict why")


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return spans.unit_of(name)


def reference_kernel():
    """Fixed pure-Python work in the style of the package, never touching
    it: an argparse parser with subcommands built and used, as the CLI
    does per call; pair lookups in a frozenset through a helper and
    set-based searches on a small graph; a dict of a few thousand tuple
    keys sorted and probed, for a working set beyond the first-level
    cache."""
    top = argparse.ArgumentParser(prog="kernel")
    sub = top.add_subparsers(dest="command", required=True)
    for name in ("complete", "recognize", "check", "extend", "reduce", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--kind", choices=("a", "b", "c"))
        p.add_argument("file")
    for _ in range(5):
        top.parse_args(["check", "--kind", "b", "input"])
    n = 120
    pairs = frozenset((min(i, (i + d) % n), max(i, (i + d) % n))
                      for i in range(n) for d in (1, 2, 5))
    adj = {i: set() for i in range(n)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)

    def adjacent(i, j):
        return ((i, j) if i < j else (j, i)) in pairs

    hits = 0
    for i in range(n):
        for j in range(i + 1, i + 12):
            hits += adjacent(i, j % n)
    for s in range(0, n, 20):
        seen, stack = {s}, [s]
        while stack:
            for w in sorted(adj[stack.pop()]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    m = 2000
    table = {(i, (i + d) % m): i ^ d for i in range(m) for d in (1, 3, 7, 11)}
    keys = sorted(table, key=lambda k: (k[1], k[0]))
    lonely = {k[0] for k in keys if (k[1], k[0]) not in table}
    return hits + len(lonely) + sum(table[k] for k in keys)


class SpeedMeter:
    """Nominal seconds per raw second.  A sample times the reference
    kernel REF_REPEATS times and keeps the fastest; samples are taken at
    most every REF_PERIOD_S, and the estimate is the median of the last
    REF_WINDOW of them: the host drifts over seconds, while one sample
    is noisy."""

    def __init__(self):
        self.recent = deque(maxlen=REF_WINDOW)
        self.last = -float("inf")

    def sample(self):
        best = float("inf")
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
        self.recent.append(REF_NOMINAL_S / best)
        self.last = time.perf_counter()

    def scale(self):
        if time.perf_counter() - self.last >= REF_PERIOD_S:
            self.sample()
        return statistics.median(self.recent)


class Workdir:
    """Numbered files of one pass under the run's scratch directory."""

    def __init__(self, base):
        self.base = base
        self.count = 0

    def put(self, name, text):
        self.count += 1
        path = self.base / ("%05d-%s" % (self.count, name))
        path.write_text(text, encoding="utf-8")
        return str(path)


def import_cli():
    """Import the package afresh from this checkout's src/."""
    for name in [k for k in sys.modules
                 if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    import pogc.cli
    src = (ROOT / "src").resolve()
    if src not in Path(pogc.cli.__file__).resolve().parents:
        raise SystemExit("error: imported %s, not the checkout's src/"
                         % pogc.cli.__file__)
    return pogc.cli


def make_pass(workload, seed, index, base):
    """Chains of pass `index` as (generation index, chain), in a seeded
    execution order."""
    rng = random.Random("%s:%s:%d" % (workload, seed, index))
    pass_dir = base / ("pass%04d" % index)
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    chains = list(enumerate(families.WORKLOADS[workload](
        rng, Workdir(pass_dir).put)))
    rng.shuffle(chains)
    return chains


class Runner:
    def __init__(self, cli, meter, tracer=None):
        self.cli = cli
        self.meter = meter
        self.tracer = tracer
        self.records = []
        self.pass0 = []       # (chain, step, exit code, stdout) for the digest

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        cause = None
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(op.argv)
        except SystemExit as exc:       # argparse rejects the argv
            rc = exc.code
        except Exception as exc:        # a crash is a failed operation
            rc, cause = None, type(exc).__name__
        dt = time.perf_counter() - t0
        return rc, out.getvalue(), dt, cause

    @staticmethod
    def judge(op, rc, out, cause):
        if cause is not None:
            return "failed", cause
        if rc == 3:
            return "unsupported", None
        if rc == 2:
            return "failed", "exit 2"
        if op.expect == "valid":
            return ("ok", None) if rc == 0 and out == "valid\n" else \
                ("wrong", "certificate rejected")
        if op.expect == "no":
            return ("ok", None) if rc == 1 else ("wrong", "exit %r, planted no" % rc)
        if rc != 0:
            return "wrong", "exit %r, planted yes" % rc
        reason = op.check(out) if op.check is not None else None
        return ("ok", None) if reason is None else ("wrong", reason)

    def run_chain(self, pass_index, chain_index, chain):
        scale = self.meter.scale()
        step, result = 0, None
        while True:
            try:
                op = chain.send(result)
            except StopIteration:
                return
            rc, out, dt, cause = self.call(op)
            verdict, why = self.judge(op, rc, out, cause)
            self.records.append(Record(pass_index, op.label, dt, scale,
                                       verdict, why))
            if pass_index == 0:
                self.pass0.append((chain_index, step, rc, out))
            result = (verdict, out)
            step += 1

    def run_pass(self, workload, seed, index, base, chains=None):
        if chains is None:
            chains = make_pass(workload, seed, index, base)
        for chain_index, chain in chains:
            self.run_chain(index, chain_index, chain)

    def digest(self):
        """SHA-256 over exit codes and stdout of pass 0 in generation
        order, whatever order the chains ran in."""
        h = hashlib.sha256()
        for chain, step, rc, out in sorted(self.pass0, key=lambda e: e[:2]):
            h.update(("%d:%d:%r\n" % (chain, step, rc)).encode())
            h.update(out.encode())
        return h.hexdigest()


def setup(workload, seed, base, meter):
    """Import the package, warm up on the first chain of a pass drawn
    from a fixed seed (so set-up does the same work whatever --seed is)
    and generate pass 0.  Returns (cli, chains of pass 0, raw seconds,
    scale)."""
    for _ in range(REF_WINDOW):
        meter.sample()
    scale = meter.scale()
    t0 = time.perf_counter()
    cli = import_cli()
    warm = min(make_pass(workload, "warm-up", 0, base / "warm"))
    Runner(cli, meter).run_chain(-1, -1, warm[1])
    chains = make_pass(workload, seed, 0, base)
    return cli, chains, time.perf_counter() - t0, scale


def tail(samples):
    """(percentile, value) at the highest grid percentile with at least
    ten samples beyond its nearest-rank position."""
    xs = sorted(samples)
    best = (100.0, xs[-1])
    for p in TAIL_GRID:
        rank = max(1, math.ceil(len(xs) * p / 100))     # 1-based
        if len(xs) - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def latency_metrics(times):
    p, t = tail(times)
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": t * 1e3}, p


def verdicts(records):
    counts, causes = {}, {}
    for r in records:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
        if r.verdict in ("failed", "wrong"):
            key = "%s %s: %s" % (r.verdict, r.label, r.why)
            causes[key] = causes.get(key, 0) + 1
    attempted = len(records)
    failed = counts.get("failed", 0) + counts.get("wrong", 0)
    result = {"correct": counts.get("wrong", 0) == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    info = {"verdicts": counts, "failure_causes": causes,
            "failed_ratio": failed / attempted,
            "unsupported_ratio": counts.get("unsupported", 0) / attempted}
    return result, info


def pass_count(args):
    return max(1, round(args.seconds / PASS_SECONDS[args.workload]))


def untraced(cli, meter, args, base, chains):
    runner = Runner(cli, meter)
    start = time.perf_counter()
    passes = pass_count(args)
    for index in range(passes):
        runner.run_pass(args.workload, args.seed, index, base,
                        chains=chains if index == 0 else None)
        shutil.rmtree(base / ("pass%04d" % index), ignore_errors=True)
    recs = runner.records
    result, info = verdicts(recs)
    result["metrics"], p = latency_metrics([r.wall * r.scale for r in recs])
    raw, _ = latency_metrics([r.wall for r in recs])
    scales = [r.scale for r in recs]
    by_pass = {}
    for r in recs:
        by_pass.setdefault(r.pass_index, []).append(r.wall * r.scale)
    rates = [len(v) / sum(v) for v in by_pass.values()]
    info.update({
        "tail_percentile": p, "samples": len(recs),
        "passes": passes,
        "loop_wall_s": time.perf_counter() - start,
        "per_pass_ops_per_s": {"min": min(rates), "median": statistics.median(rates),
                               "max": max(rates)},
        "raw_wall_clock": raw,
        "speed_scale": {"min": min(scales), "median": statistics.median(scales),
                        "max": max(scales)},
        "digest_pass0": runner.digest(),
    })
    return result, info


def traced(cli, meter, args, base, chains, out_dir):
    """Half the untraced run's passes, once plain and once traced, so the
    whole run takes about as long as an untraced one."""
    passes = max(1, pass_count(args) // 2)
    plain = Runner(cli, meter)
    for index in range(passes):
        plain.run_pass(args.workload, args.seed, index, base,
                       chains=chains if index == 0 else None)
    tracer = spans.Tracer(PACKAGE)
    runner = Runner(cli, meter, tracer)
    tracer.install()
    try:
        for index in range(passes):
            runner.run_pass(args.workload, args.seed, index, base)
    finally:
        tracer.uninstall()

    result, info = verdicts(plain.records + runner.records)
    rate = lambda recs: len(recs) / sum(r.wall * r.scale for r in recs)
    metrics, report = spans.layer_metrics(
        tracer.spans, [r.label for r in runner.records],
        [r.scale for r in runner.records])
    metrics["cli.failed_ratio"] = info["failed_ratio"]
    metrics["cli.unsupported_ratio"] = info["unsupported_ratio"]
    metrics["trace.overhead_ratio"] = rate(plain.records) / rate(runner.records)
    result["metrics"] = metrics

    stem = "%s-seed%d" % (args.workload, args.seed)
    report_path = out_dir / ("report-%s.json" % stem)
    tracer.dump(out_dir / ("spans-%s.jsonl.gz" % stem))
    report.update({"passes": passes, "ops": len(runner.records),
                   "untraced_ops_per_s": rate(plain.records),
                   "traced_ops_per_s": rate(runner.records),
                   "metrics": metrics})
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    info.update({
        "trace_passes": passes, "traced_ops": len(runner.records),
        "builds_per_op_by_kind": {k: v["builds_per_op"]
                                  for k, v in report["by_kind"].items()},
        "top_self_by_kind": {k: [v["top_self"][0][0], round(v["top_self"][0][2], 3)]
                             for k, v in report["by_kind"].items() if v["top_self"]},
        "digest_pass0": plain.digest(),
        "report": str(report_path.relative_to(ROOT)),
    })
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(families.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "cli.py").is_file():
        print("error: no %s package under %s" % (PACKAGE, ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True     # every set-up compiles the same way

    out_dir = ROOT / ".perfbench"
    base = out_dir / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    setups = []
    meter = SpeedMeter()
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(base, ignore_errors=True)
            cli, chains, dt, scale = setup(args.workload, args.seed, base, meter)
            setups.append((dt, scale))
        gc.collect()
        if args.trace:
            result, info = traced(cli, meter, args, base, chains, out_dir)
        else:
            result, info = untraced(cli, meter, args, base, chains)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(dt * s for dt, s in setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in metrics.items()}
    info.update({
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_raw_s_each": [dt for dt, _ in setups],
        "setup_scale_each": [s for _, s in setups],
    })
    for key, val in info.items():
        print("# %s: %s" % (key, json.dumps(val, sort_keys=True)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
