"""Run one benchmark job in a fresh process and print its result as JSON.

Usage: python3 bench/worker.py '<job JSON>'  (with the repo's `src` on
PYTHONPATH).  `bench/run.py` starts one of these per job so that no
in-process memo (such as lfpp's estimate cache) and no disk cache carries
over from one job to the next.

Every job reports `setup_s`, the time from the parent's spawn of this
process until the first operation could start, and a list of operations,
each with its latency and whether it failed (raised, returned a non-zero
exit code or failed an output check).  Output checks never read solver
statistics such as `settled` from primary outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import time

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

import lfpp.cli
from lfpp import fieldio, gff, metric

from tracer import Tracer, span_cost

XI = 0.2
LADDER = (0.125, 0.0625, 0.03125, 0.015625)
LADDER_R = 0.5
LADDER_N = 512

QUERY_N = 1024
QUERY_EPS = 0.0625
REF_RTOL = 1e-12

SESSION_N = 512
SESSION_EPS = (0.125, 0.0625, 0.03125, 0.015625)
SESSION_AEPS = ("--xi", "0.2", "--eps", "0.25", "--n", "128", "--trials", "20")
WEYL_EPS = 0.03125
WEYL_PAIRS = 3


def _op(latency_s, error=None, **extra):
    return {"latency_s": latency_s, "error": error, **extra}


def _traced(tracer):
    return tracer.active() if tracer is not None else contextlib.nullcontext()


def _run_cli(argv, tracer):
    """Time one in-process lfpp command; returns (latency, error or None)."""
    error = None
    t0 = time.perf_counter()
    try:
        with _traced(tracer):
            code = lfpp.cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit code {code}"
    return latency, error


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _unit_square_point(rng, lo=1.5):
    u, v = rng.random(2)
    return (lo + float(u), lo + float(v))


# ---------------------------------------------------------------------------
# mc_ladder: one `lfpp ratio` call over the acceptance ladder
# ---------------------------------------------------------------------------

def ladder_rungs() -> int:
    return len(set(LADDER) | {e / LADDER_R for e in LADDER})


def _check_ratio(path) -> None:
    def reject(token):
        raise ValueError(f"non-finite number {token} in ratio output")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=reject)
    cells = [doc["q_hat_used"], doc["r"]] + [v for row in doc["rows"] for v in row]
    if len(doc["rows"]) != len(LADDER):
        raise ValueError(f"ratio output has {len(doc['rows'])} rows")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in cells):
        raise ValueError("ratio output holds a non-finite or missing cell")


def job_mc_ladder(job, ready):
    result = {"setup_s": ready(), "ops": []}
    if job.get("setup_only"):
        return result
    out = os.path.join(job["dir"], "ratio.json")
    argv = ["ratio", "--xi", str(XI), "--eps", ",".join(map(str, LADDER)),
            "--r", str(LADDER_R), "--n", str(LADDER_N),
            "--trials", str(job["trials"]), "--seed", str(job["seed"]),
            "--threads", str(job["threads"]), "--out", out]
    tracer = Tracer() if job["trace"] else None
    latency, error = _run_cli(argv, tracer)
    if error is None:
        try:
            _check_ratio(out)
            result["sha256"] = _sha(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"output check: {exc}"
    result["ops"] = [_op(latency, error, trials=job["trials"] * ladder_rungs())]
    if tracer is not None:
        result["trace"] = tracer.summary(span_cost())
    return result


# ---------------------------------------------------------------------------
# point_queries: dist_point on one fixed n = 1024 grid
# ---------------------------------------------------------------------------

def _pair_stream(spec, rng):
    """Pairs uniform in the central unit square, snapped to distinct sites."""
    while True:
        z = _unit_square_point(rng)
        w = _unit_square_point(rng)
        if spec.index_of(z) != spec.index_of(w):
            yield z, w


def reference_distances(grid, sources):
    """Full-lattice scipy Dijkstra on a graph built here from `site_cost`.

    An edge between 8-neighbour sites u and v weighs
    (cost[u] + cost[v]) / 2 * spacing * |offset|, the documented formula.
    """
    cost, mask = grid.site_cost, grid.mask
    n = cost.shape[0]
    idx = np.arange(n * n).reshape(n, n)
    heads, tails, weights = [], [], []
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
        rows = slice(0, n - di)
        a_cols = slice(max(0, -dj), n - max(0, dj))
        b_cols = slice(max(0, -dj) + dj, n - max(0, dj) + dj)
        keep = mask[rows, a_cols] & mask[di:, b_cols]
        heads.append(idx[rows, a_cols][keep])
        tails.append(idx[di:, b_cols][keep])
        pref = 0.5 * grid.spec.spacing * math.hypot(di, dj)
        weights.append((cost[rows, a_cols][keep] + cost[di:, b_cols][keep]) * pref)
    graph = coo_matrix((np.concatenate(weights),
                        (np.concatenate(heads), np.concatenate(tails))),
                       shape=(n * n, n * n)).tocsr()
    flat = [i * n + j for i, j in sources]
    return np.atleast_2d(dijkstra(graph, directed=False, indices=flat))


def _check_queries(grid, queries, pairs):
    """Bitwise (z, w) symmetry on queries 0 and 1, scipy reference on 2 and 3."""
    for k in range(min(2, len(queries))):
        z, w = pairs[k]
        if queries[k]["error"] is None:
            back = metric.dist_point(grid, w, z).value
            if back.hex() != queries[k]["value"]:
                queries[k]["error"] = f"asymmetric: {back!r} vs {queries[k]['value']}"
    ref = [k for k in range(2, min(4, len(queries))) if queries[k]["error"] is None]
    if not ref:
        return
    spec = grid.spec
    dist = reference_distances(grid, [spec.index_of(pairs[k][0]) for k in ref])
    for row, k in enumerate(ref):
        i, j = spec.index_of(pairs[k][1])
        want = float(dist[row, i * spec.n + j])
        got = float.fromhex(queries[k]["value"])
        if not abs(got - want) <= REF_RTOL * want:
            queries[k]["error"] = f"reference mismatch: {got!r} vs {want!r}"


def job_point_queries(job, ready):
    spec = gff.LatticeSpec(n=QUERY_N, spacing=4.0 / QUERY_N)
    rng = np.random.default_rng(job["seed"])
    field_seed = int(rng.integers(2 ** 32))
    tracer = Tracer() if job["trace"] else None
    with _traced(tracer):
        field = gff.sample_torus_gff(spec, field_seed)
        grid = metric.build_weighted_grid(gff.mollify(field, QUERY_EPS), XI)
    result = {"setup_s": ready(), "ops": []}
    if job.get("setup_only"):
        return result

    pairs, queries = [], []
    stream = _pair_stream(spec, rng)
    for _ in range(job["queries"]):
        z, w = next(stream)
        pairs.append((z, w))
        t0 = time.perf_counter()
        try:
            value = metric.dist_point(grid, z, w).value
        except Exception as exc:  # an operation that raises counts as failed
            queries.append(_op(time.perf_counter() - t0,
                               f"{type(exc).__name__}: {exc}"))
            continue
        query = _op(time.perf_counter() - t0, value=value.hex(),
                    separation=math.dist(z, w))
        if tracer is not None:
            with tracer.active():
                traced = metric.dist_point(grid, z, w).value
            if traced.hex() != query["value"]:
                query["error"] = f"traced value {traced!r} differs from untraced"
        queries.append(query)
    _check_queries(grid, queries, pairs)
    result["ops"] = queries
    if tracer is not None:
        result["trace"] = tracer.summary(span_cost())
    return result


# ---------------------------------------------------------------------------
# cli_session: a fixed script of lfpp commands against a fresh cache
# ---------------------------------------------------------------------------

def _disk_point(rng, center=(2.0, 2.0), radius=0.45):
    while True:
        p = _unit_square_point(rng)
        if math.dist(p, center) <= radius:
            return p


def session_script(d, seed):
    """(label, mode, eps, argv) per command; inputs drawn from `seed`."""
    rng = np.random.default_rng(seed)
    field_seed = int(rng.integers(2 ** 32))
    cache = os.path.join(d, "cache")
    field = os.path.join(d, "field.lfpf")
    sample = ["field", "sample", "--n", str(SESSION_N), "--seed", str(field_seed),
              "--cache-dir", cache, "--out"]
    script = [("field_sample", "field", None, sample + [field]),
              ("field_sample_again", "field", None,
               sample + [os.path.join(d, "field_again.lfpf")])]
    for eps in SESSION_EPS:
        base = ["dist", "--field", field, "--eps", str(eps), "--xi", str(XI),
                "--localized"]
        tag = f"{eps:g}"
        z, w = _unit_square_point(rng), _unit_square_point(rng)
        u, v = _disk_point(rng), _disk_point(rng)
        script += [
            (f"dist_point_{tag}", "point", eps,
             base + ["--from", "%r,%r" % z, "--to", "%r,%r" % w,
                     "--emit-path", os.path.join(d, f"path_point_{tag}.csv"),
                     "--out", os.path.join(d, f"dist_point_{tag}.json")]),
            (f"dist_crossing_{tag}", "crossing", eps,
             base + ["--crossing", "rect:1.5,1.5,2.5,2.5",
                     "--out", os.path.join(d, f"dist_crossing_{tag}.json")]),
            (f"dist_around_{tag}", "around", eps,
             base + ["--around", "annulus:2,2,0.25,0.5",
                     "--emit-path", os.path.join(d, f"path_around_{tag}.csv"),
                     "--out", os.path.join(d, f"dist_around_{tag}.json")]),
            (f"dist_within_{tag}", "within", eps,
             base + ["--from", "%r,%r" % u, "--to", "%r,%r" % v,
                     "--within", "disk:2,2,0.5",
                     "--out", os.path.join(d, f"dist_within_{tag}.json")]),
        ]
    weyl_cfg = os.path.join(d, "weyl.json")
    weyl = {"field": {"n": SESSION_N, "seed": field_seed}, "epsilon": WEYL_EPS,
            "c": 0.7, "xi": XI,
            "pairs": [[_unit_square_point(rng), _unit_square_point(rng)]
                      for _ in range(WEYL_PAIRS)]}
    script.append(("exp_weyl", "exp", None,
                   ["exp", "weyl_shift_test", "--config", weyl_cfg,
                    "--out", os.path.join(d, "weyl_report.json"),
                    "--csv", os.path.join(d, "weyl_rows.csv")]))
    aeps = ["a-eps", *SESSION_AEPS, "--seed", str(field_seed),
            "--cache-dir", cache, "--out"]
    script += [("a_eps", "a_eps", None, aeps + [os.path.join(d, "a_eps.json")]),
               ("a_eps_again", "a_eps", None,
                aeps + [os.path.join(d, "a_eps_again.json")])]
    return script, weyl_cfg, weyl


def _cache_state(cache):
    state = {}
    for dirpath, _, files in os.walk(cache):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            state[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return state


def _dist_flags(argv):
    flags = {}
    for k, tok in enumerate(argv):
        value = argv[k + 1] if k + 1 < len(argv) else "--"
        if tok.startswith("--") and not value.startswith("--"):
            flags[tok[2:]] = value
    return flags


def _library_dist(grid, flags):
    def point(text):
        x, y = text.split(",")
        return (float(x), float(y))

    def region(text):
        vals = [float(t) for t in text.partition(":")[2].split(",")]
        kind = text.partition(":")[0]
        if kind == "rect":
            return metric.Rect(lo=(vals[0], vals[1]), hi=(vals[2], vals[3]))
        if kind == "disk":
            return metric.Disk(center=(vals[0], vals[1]), radius=vals[2])
        return metric.Annulus(center=(vals[0], vals[1]), r_inner=vals[2],
                              r_outer=vals[3])

    want_path = "emit-path" in flags
    if "crossing" in flags:
        return metric.lr_crossing(grid, region(flags["crossing"]), want_path)
    if "around" in flags:
        return metric.dist_around_annulus(grid, region(flags["around"]), want_path)
    if "within" in flags:
        return metric.dist_internal(grid, point(flags["from"]), point(flags["to"]),
                                    region(flags["within"]), want_path)
    return metric.dist_point(grid, point(flags["from"]), point(flags["to"]), want_path)


def job_cli_check(job, ready):
    """Each dist JSON value and path of one finished session equals the
    library's result for the same inputs; returns errors by command label."""
    d = job["session_dir"]
    script, _, _ = session_script(d, job["seed"])
    field = fieldio.read_field(os.path.join(d, "field.lfpf"))
    errors = {}
    for eps in SESSION_EPS:
        grid = metric.build_weighted_grid(gff.mollify_localized(field, eps), XI)
        for label, mode, e, argv in script:
            if e != eps:
                continue
            flags = _dist_flags(argv)
            try:
                with open(flags["out"], encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                errors[label] = f"unreadable output: {exc}"
                continue
            res = _library_dist(grid, flags)
            want_path = None if res.path is None else [list(s) for s in res.path.sites]
            got_path = None if doc["path"] is None else doc["path"]["sites"]
            if doc["value"] != res.value or got_path != want_path:
                errors[label] = (f"value {doc['value']!r} vs library {res.value!r}, "
                                 f"paths equal: {got_path == want_path}")
    return {"setup_s": ready(), "ops": [], "errors": errors}


def _primary_outputs(d):
    """sha256 of every primary output file (manifests and cache excluded)."""
    return {name: _sha(os.path.join(d, name)) for name in sorted(os.listdir(d))
            if os.path.isfile(os.path.join(d, name))
            and not name.endswith(".manifest.json")}


def job_cli_session(job, ready):
    d = job["dir"]
    script, weyl_cfg, weyl = session_script(d, job["seed"])
    with open(weyl_cfg, "w", encoding="utf-8") as fh:
        json.dump(weyl, fh)
    cache = os.path.join(d, "cache")
    tracer = Tracer() if job["trace"] else None
    result = {"setup_s": ready(), "ops": []}
    if job.get("setup_only"):
        return result
    ops, cache_unchanged = [], {}
    for label, mode, eps, argv in script:
        before = _cache_state(cache)
        latency, error = _run_cli(argv, tracer)
        ops.append(_op(latency, error, label=label, mode=mode, eps=eps))
        cache_unchanged[label] = before == _cache_state(cache)

    by_label = {op["label"]: op for op in ops}
    for repeat, first, outputs in (
            ("field_sample_again", "field_sample", ("field.lfpf", "field_again.lfpf")),
            ("a_eps_again", "a_eps", ("a_eps.json", "a_eps_again.json"))):
        op = by_label[repeat]
        if op["error"] is not None or by_label[first]["error"] is not None:
            continue
        if not cache_unchanged[repeat]:
            op["error"] = "repeat was not a cache hit: the cache directory changed"
        elif _sha(os.path.join(d, outputs[0])) != _sha(os.path.join(d, outputs[1])):
            op["error"] = "cache hit returned different bytes"
    op = by_label["exp_weyl"]
    if op["error"] is None:
        with open(os.path.join(d, "weyl_report.json"), encoding="utf-8") as fh:
            verdict = json.load(fh)["verdict"]
        if verdict != "Pass":
            op["error"] = f"weyl_shift_test verdict {verdict}"

    result["ops"] = ops
    result["outputs"] = _primary_outputs(d)
    if tracer is not None:
        result["trace"] = tracer.summary(span_cost())
    return result


JOBS = {"mc_ladder": job_mc_ladder, "point_queries": job_point_queries,
        "cli_session": job_cli_session, "cli_check": job_cli_check}


def main() -> int:
    job = json.loads(sys.argv[1])
    ready = lambda: time.time() - job["spawned"]
    result = JOBS[job["workload"]](job, ready)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
