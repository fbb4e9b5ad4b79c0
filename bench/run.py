#!/usr/bin/env python3
"""lfpp benchmark: three closed-loop workloads, end-to-end and per-layer.

    python3 bench/run.py --workload {mc_ladder,point_queries,cli_session}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; lfpp is imported from `src/` (pure Python,
nothing to build).  Each job runs in a fresh worker process (bench/worker.py)
with a fresh temporary directory under `.bench_tmp/`, so neither lfpp's
in-process estimate memo nor its disk cache carries over between jobs.
One client drives each workload and starts the next operation only when the
previous one has returned.

The number of operations in a run is fixed from S and the per-operation
times below, measured at the commit that defined this benchmark, so a run
measures about S seconds there and every version runs the same operations:
latency percentiles and per-layer counts then mean the same thing across
versions.  `--trace 0` runs with tracing off and prints every end-to-end
metric.  `--trace 1` runs each unit of work once untraced and once traced,
checks that the primary outputs are byte-identical, and prints every
per-layer metric.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when any
output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import TRACED  # noqa: E402  (stdlib-only module)

RUN_LIMIT_S = 170.0       # the whole run must end within 180 s
SETUP_SAMPLES = 3         # set-up is timed in at least this many processes
TAIL_BEYOND = 10          # samples a tail percentile must leave above it
LADDER_TRIALS = 20        # trials per rung (lfpp's floor for a CI estimate)
# Seconds per unit of work on the 2-core reference VM, untraced and traced
# (a traced unit runs untraced and then traced).
LADDER_JOB_S, TRACE_LADDER_S = 7.5, 20.0      # mc_ladder: one ladder job
QUERY_S, TRACE_QUERY_S = 1.0, 2.0             # point_queries: one 1024^2 query
SESSION_JOB_S, TRACE_SESSION_S = 15.0, 25.0   # cli_session: one session job
SHORT_PAIR = 0.25         # point_queries pairs closer than this are "short"

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("throughput_per_s", "1/s"))

PER_LAYER = tuple(
    (f"{layer}.{fn}.{part}", "count" if part == "calls" else "s")
    for layer, fn in TRACED for part in ("calls", "s", "self_s")
) + (("metric.settled", "count"), ("metric.settled_frac", "ratio"),
     ("renorm.trials", "count"), ("renorm.pool_efficiency", "ratio"),
     ("fieldio.bytes", "B"), ("cache.hits", "count"), ("cache.misses", "count"),
     ("trace.overhead_frac", "ratio"))

OPERATION = {"mc_ladder": "ladder call", "point_queries": "query",
             "cli_session": "command"}


class Runner:
    """Starts worker jobs, one at a time, inside one run's time limit."""

    def __init__(self, seed: int, tmp: str) -> None:
        self.start = time.perf_counter()
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.jobs = 0
        self.env = dict(os.environ)
        self.env.pop("LFPP_CACHE", None)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def seed(self) -> int:
        return self.rng.randrange(2 ** 32)

    def job(self, **job) -> dict:
        """Run one job in a fresh process; raise RuntimeError if it fails."""
        self.jobs += 1
        job["dir"] = os.path.join(self.tmp, f"job{self.jobs}")
        os.makedirs(job["dir"])
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise RuntimeError("run time limit reached")
        job["spawned"] = time.time()
        proc = subprocess.Popen([sys.executable, WORKER, json.dumps(job)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{job['workload']} job timed out")
        finally:
            # Pool workers share the job's session; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise RuntimeError(f"{job['workload']} job exited {proc.returncode}:\n"
                               + err[-2000:])
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise RuntimeError(f"{job['workload']} job printed no result:\n"
                               + err[-2000:])
        result["dir"] = job["dir"]
        return result


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct, n).

    With too few samples for such a percentile above the median, the maximum
    (p100) is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children include lfpp's pool workers.
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def shares(ops, key):
    total = sum(op["latency_s"] for op in ops)
    out = {}
    for op in ops:
        out[op[key]] = out.get(op[key], 0.0) + op["latency_s"] / total
    return {k: round(v, 4) for k, v in out.items()}


# ---------------------------------------------------------------------------
# workloads: each returns (operations, set-up samples, notes, trace summaries)
# ---------------------------------------------------------------------------

def units(seconds, unit_s):
    return max(1, round(seconds / unit_s))


def _setup_only(runner, workload, setups, seed=None):
    """Time set-up in fresh processes until there are SETUP_SAMPLES samples."""
    while len(setups) < SETUP_SAMPLES:
        job = runner.job(workload=workload, setup_only=True, trace=False,
                         seed=runner.seed() if seed is None else seed)
        setups.append(job["setup_s"])


def run_mc_ladder(runner, seconds, trace):
    workers = os.cpu_count() or 1
    ops, setups, traces, efficiency = [], [], [], [0.0, 0.0]
    for _ in range(units(seconds, TRACE_LADDER_S if trace else LADDER_JOB_S)):
        seed = runner.seed()
        plain = runner.job(workload="mc_ladder", seed=seed, trace=False,
                           trials=LADDER_TRIALS, threads=workers)
        ops += plain["ops"]
        setups.append(plain["setup_s"])
        if not trace:
            continue
        traced = runner.job(workload="mc_ladder", seed=seed, trace=True,
                            trials=LADDER_TRIALS, threads=1)
        ops += traced["ops"]
        traces.append(traced["trace"])
        if traced.get("sha256") != plain.get("sha256"):
            traced["ops"][0]["error"] = traced["ops"][0]["error"] or (
                "--threads 1 traced output differs from the parallel untraced bytes")
        layer = traced["trace"]["layers"]["renorm.estimate_a_eps"]
        efficiency[0] += layer["s"] - layer["self_s"]
        efficiency[1] += plain["ops"][0]["latency_s"] * workers
    if not trace:
        _setup_only(runner, "mc_ladder", setups)
    trials = [op["trials"] for op in ops]
    notes = {"workers": workers, "rungs": trials[0] // LADDER_TRIALS,
             "trials_per_rung": LADDER_TRIALS,
             "throughput": "trials per second"}
    if efficiency[1] > 0:
        notes["pool_efficiency"] = efficiency[0] / efficiency[1]
    return ops, setups, notes, traces


def run_point_queries(runner, seconds, trace):
    seed = runner.seed()
    queries = units(seconds, TRACE_QUERY_S if trace else QUERY_S)
    job = runner.job(workload="point_queries", seed=seed, trace=trace,
                     queries=queries)
    setups = [job["setup_s"]]
    if not trace:
        _setup_only(runner, "point_queries", setups, seed)
    seps = [op["separation"] for op in job["ops"] if "separation" in op]
    short = sum(s < SHORT_PAIR for s in seps) / max(1, len(seps))
    notes = {"throughput": "queries per second",
             "short_pair_share": round(short, 4),
             "macroscopic_pair_share": round(1.0 - short, 4)}
    return job["ops"], setups, notes, [job["trace"]] if trace else []


def run_cli_session(runner, seconds, trace):
    ops, setups, traces, sessions = [], [], [], []
    for _ in range(units(seconds, TRACE_SESSION_S if trace else SESSION_JOB_S)):
        seed = runner.seed()
        plain = runner.job(workload="cli_session", seed=seed, trace=False)
        sessions.append((seed, plain))
        ops += plain["ops"]
        setups.append(plain["setup_s"])
        if not trace:
            continue
        traced = runner.job(workload="cli_session", seed=seed, trace=True)
        ops += traced["ops"]
        traces.append(traced["trace"])
        if traced["outputs"] != plain["outputs"]:
            differ = sorted(k for k in set(traced["outputs"]) | set(plain["outputs"])
                            if traced["outputs"].get(k) != plain["outputs"].get(k))
            traced["ops"][-1]["error"] = f"traced outputs differ: {differ}"
    # The library cross-check of the first session runs after the timed loop.
    seed, first = sessions[0]
    check = runner.job(workload="cli_check", seed=seed, session_dir=first["dir"])
    for op in first["ops"]:
        if op["label"] in check["errors"] and op["error"] is None:
            op["error"] = check["errors"][op["label"]]
    if not trace:
        _setup_only(runner, "cli_session", setups)
    timed = [op for op in ops if op["error"] is None]
    notes = {"throughput": "commands per second", "sessions": len(sessions),
             "commands_per_session": len(first["ops"])}
    if timed:
        notes["time_share_by_eps"] = shares(
            [dict(op, eps=str(op["eps"])) for op in timed], "eps")
        notes["time_share_by_mode"] = shares(timed, "mode")
    return ops, setups, notes, traces


WORKLOADS = {"mc_ladder": run_mc_ladder, "point_queries": run_point_queries,
             "cli_session": run_cli_session}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(ops, setups):
    good = [op for op in ops if op["error"] is None]
    if not good:
        return {}, {}
    lat = [op["latency_s"] for op in good]
    work = sum(op.get("trials", 1) for op in good)
    tail_s, pct, n = tail(lat)
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb(),
              "op_p50_s": statistics.median(lat), "op_tail_s": tail_s,
              "throughput_per_s": work / sum(lat)}
    notes = {"op_tail_percentile": pct, "op_samples": n,
             "setup_samples": len(setups)}
    return values, notes


def per_layer(traces, notes):
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    counters, absent = {}, set()
    wall = overhead = 0.0
    for tr in traces:
        for fn, entry in tr["layers"].items():
            for part, v in entry.items():
                values[f"{fn}.{part}"] += v
        for name, v in tr["counters"].items():
            counters[name] = counters.get(name, 0) + v
        absent.update(tr["absent"])
        wall += tr["wall_s"]
        overhead += tr["overhead_s"]
    for name in ("renorm.trials", "fieldio.bytes", "cache.hits", "cache.misses",
                 "metric.settled"):
        values[name] = counters.get(name, 0)
    active = counters.get("metric.active", 0)
    values["metric.settled_frac"] = values["metric.settled"] / active if active else 0.0
    values["renorm.pool_efficiency"] = notes.pop("pool_efficiency", 0.0)
    values["trace.overhead_frac"] = overhead / wall if wall else 0.0
    if "metric.settled" in absent:
        absent.add("metric.settled_frac")
    for name in absent:
        values.pop(name, None)
    notes["absent_counters"] = sorted(absent)
    notes["traced_wall_s"] = wall
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lfpp", "__init__.py")):
        print("bench: no lfpp sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".bench_tmp", f"run{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    runner = Runner(args.seed, tmp)
    try:
        ops, setups, notes, traces = WORKLOADS[args.workload](
            runner, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [op for op in ops if op["error"] is not None]
    if args.trace:
        values = per_layer(traces, notes)
        units = dict(PER_LAYER)
    else:
        values, extra = end_to_end(ops, setups)
        notes.update(extra)
        units = dict(END_TO_END)
    notes["operation"] = OPERATION[args.workload]
    notes["fail_frac"] = len(failed) / len(ops)
    for op in failed[:10]:
        print(f"FAILED {op.get('label', OPERATION[args.workload])}: {op['error']}")
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    for name, value in notes.items():
        print(f"# {name}: {value}")
    correct = not failed and len(values) > 0
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
