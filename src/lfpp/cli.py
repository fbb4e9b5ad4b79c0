"""Command-line front end.

Every command runs the library operation, writes the primary output files,
and drops a sidecar manifest (`<output>.manifest.json`) so any artifact can
be regenerated from its manifest alone.  The dispatcher builds every
manifest from the parsed flags: its resolved parameters are every flag
except `--threads` (recorded as `threads`) and `--cache-dir`, under
argparse's own names, plus the facts the command learned: the resolved
`spacing` (field sample, a-eps, ratio), `field_seed` and `mode` (dist),
`epsilons` (fit), the `q_hat` used (ratio) and `config_body` (exp).  Its
`master_seed` is `--seed` and its supercritical flag comes from `--xi`,
except that `exp` takes both from its report.  Primary outputs are
deterministic functions of the flags; `--threads` (on the commands that run
Monte Carlo pools: a-eps, ratio, exp) is a throughput setting that never
changes bytes, and wall-clock fields live only in the manifest.

Exit codes: 0 success, 1 usage or validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from . import __version__, cache, fieldio
from .errors import InvalidArgument, LfppError
from .gff import SAMPLERS, XI_CRIT_REF, Params, mollify, mollify_localized
from .metric import (
    Annulus,
    Disk,
    Rect,
    build_weighted_grid,
    dist_around_annulus,
    dist_internal,
    edge_weight,
    lr_crossing,
    region_box,
)
from .renorm import (
    MCConfig,
    MedianEstimate,
    _read_estimate,
    estimate_a_eps,
    estimate_cache_key,
    fit_exponent,
    scaling_ratio,
)
from .experiments import EXPERIMENTS, _cfg_field, _cfg_mc, _field_dists, run_experiment


def _parse_point(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _glued(argv: List[str]) -> List[str]:
    """argv with each value that starts with a minus sign and then a digit
    or a point, such as the point -2,-2, glued to the flag before it
    (`--origin=-2,-2`).  argparse reads a dash-led token as a flag unless it
    looks like one negative number, and what looks like one differs between
    Python versions; the `=` spelling reads the same on every version."""
    for k in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--\w[-\w]*", argv[k - 1]) and re.match(r"-\.?\d", argv[k]):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    return argv


def _parse_spacing(text: str):
    """`auto` or a number, as an experiment config spells a spacing."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"spacing must be a number or 'auto', got {text!r}") from None


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_region(text: str):
    """Region flag syntax: disk:cx,cy,r | annulus:cx,cy,r1,r2 | rect:x0,y0,x1,y1."""
    kind, _, rest = text.partition(":")
    try:
        vals = [float(tok) for tok in rest.split(",")]
    except ValueError:
        raise InvalidArgument(f"bad region numbers in {text!r}") from None
    if kind == "disk" and len(vals) == 3:
        return Disk(center=(vals[0], vals[1]), radius=vals[2])
    if kind == "annulus" and len(vals) == 4:
        return Annulus(center=(vals[0], vals[1]), r_inner=vals[2], r_outer=vals[3])
    if kind == "rect" and len(vals) == 4:
        return Rect(lo=(vals[0], vals[1]), hi=(vals[2], vals[3]))
    raise InvalidArgument(
        f"region must be disk:cx,cy,r or annulus:cx,cy,r1,r2 or rect:x0,y0,x1,y1, got {text!r}")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _json_num(x: float) -> Optional[float]:
    # JSON has no Infinity/NaN; non-finite cells serialize as null.
    return float(x) if math.isfinite(x) else None


def _cache_root(ns) -> Optional[str]:
    return ns.cache_dir or os.environ.get("LFPP_CACHE") or None


def _cached(ns, key: str, kind: str, compute: Callable[[], bytes]) -> bytes:
    """A verified cache hit, else compute() (stored when a cache root is set)."""
    root = _cache_root(ns)
    if root is not None:
        hit = cache.cache_lookup(root, key, kind)
        if hit is not None:
            return hit.read_bytes()
    payload = compute()
    if root is not None:
        cache.cache_store(root, key, kind, payload)
    return payload


def _gnuplot_script(csv_path: str, xcol: int, ycol: int) -> bytes:
    lines = [
        "set datafile separator ','",
        "set key off",
        f"plot '{os.path.basename(csv_path)}' using {xcol}:{ycol} with linespoints",
        "pause -1",
        "",
    ]
    return "\n".join(lines).encode("utf-8")


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# command handlers: each returns its outputs, a list of (path, bytes), and
# optionally "stdout", "stats" and the "facts" the manifest records
# ---------------------------------------------------------------------------

def _handle_field_sample(ns) -> dict:
    sample = _cfg_field(vars(ns))
    spec = sample.args[0]
    # the container version is part of the key: an older layout is never served
    core = {"kind": ns.kind, "n": ns.n, "spacing": spec.spacing,
            "origin": list(spec.origin), "seed": ns.seed,
            "lfpf_version": fieldio.VERSION}
    payload = _cached(ns, cache.cache_key("field_sample", core), "field",
                      lambda: fieldio.field_bytes(sample()))
    return {"outputs": [(ns.out, payload)], "facts": {"spacing": spec.spacing}}


def _path_csv_rows(grid, path):
    rows, cum = [], 0.0
    for k, site in enumerate(path.sites):
        if k:
            cum += edge_weight(grid, path.sites[k - 1], site)
        rows.append((k, *grid.spec.point_of(*site), cum))
    return rows


def _region_from_flag(text: Optional[str], kind=object, flag: str = ""):
    """The region a flag spells, or None when it is absent."""
    if text is None:
        return None
    region = _parse_region(text)
    if not isinstance(region, kind):
        raise InvalidArgument(f"{flag} takes only {kind.__name__.lower()} regions")
    return region


def _handle_dist(ns) -> dict:
    within = _region_from_flag(ns.within)
    around = _region_from_flag(ns.around, Annulus, "--around")
    crossing = _region_from_flag(ns.crossing, Rect, "--crossing")
    src, dst = getattr(ns, "from"), ns.to
    if around or crossing:
        if src or dst:
            raise InvalidArgument("--from/--to do not combine with --around or --crossing")
    elif src is None or dst is None:
        raise InvalidArgument("--from and --to are required unless "
                              "--around or --crossing is given")
    want_path = ns.emit_path is not None
    if ns.emit_gnuplot and not want_path:
        raise InvalidArgument("--emit-gnuplot needs --emit-path")

    field = fieldio.read_field(ns.field)
    spec, xi = field.spec, Params(xi=ns.xi).xi
    region = around or crossing or within
    if region is None:
        # `dist_point` on the whole lattice's grid, solved on its certified crop
        grid, res = _field_dists(field, ns.eps, xi, [(src, dst)], ns.localized, want_path)[0]
        mode = "point"
    else:
        # Either smoother's values on a box are bitwise the full lattice's
        # there, so a region query smooths only its region's box; a region
        # with no site smooths one, and its query reports it empty.
        smooth = mollify_localized if ns.localized else mollify
        box = region_box(spec, region) or (slice(0, 1), slice(0, 1))
        grid = build_weighted_grid(smooth(field, ns.eps, box=box), xi)
        if around:
            res = dist_around_annulus(grid, around, want_path=want_path)
            mode = "around"
        elif crossing:
            res = lr_crossing(grid, crossing, want_path=want_path)
            mode = "crossing"
        else:
            res = dist_internal(grid, src, dst, within, want_path=want_path)
            mode = "internal"

    doc = {
        "value": _json_num(res.value),
        "unreachable": res.unreachable,
        "path": None if res.path is None else {
            "sites": [[int(i), int(j)] for i, j in res.path.sites],
            "length": _json_num(res.path.length),
        },
    }
    outputs = [(ns.out, _json_bytes(doc))] if ns.out else []
    stdout = None if ns.out else json.dumps(doc, indent=2)
    if want_path:
        if res.path is None:
            raise InvalidArgument("no path to emit: the target is unreachable")
        rows = _path_csv_rows(grid, res.path)
        outputs.append((ns.emit_path, _csv_bytes(("idx", "x", "y", "cum_length"), rows)))
        if ns.emit_gnuplot:
            outputs.append((ns.emit_path + ".gnu", _gnuplot_script(ns.emit_path, 2, 3)))
    return {"outputs": outputs, "stdout": stdout, "stats": {"settled": res.settled},
            "facts": {"field_seed": field.seed, "mode": mode}}


def _mc_from_flags(ns) -> MCConfig:
    """The MCConfig of the shared Monte Carlo flags."""
    return replace(_cfg_mc(vars(ns)), workers=ns.threads)


def _handle_a_eps(ns) -> dict:
    params = Params(xi=ns.xi)
    mc = _mc_from_flags(ns)
    key = estimate_cache_key(ns.eps, params, mc)
    payload = _cached(ns, key, "a_eps", lambda: _json_bytes(
        estimate_a_eps(ns.eps, params, mc).to_dict()))
    return {"outputs": [(ns.out, payload)], "facts": {"spacing": mc.lattice.spacing}}


def _load_estimates(dir_path: str) -> List[MedianEstimate]:
    root = Path(dir_path)
    if not root.is_dir():
        raise InvalidArgument(f"--in directory {dir_path!r} does not exist")
    found = []
    for path in sorted(root.glob("*.json")):
        if path.name.endswith(".manifest.json"):
            continue
        try:
            found.append(_read_estimate(path))
        except InvalidArgument:   # not an estimate document
            continue
    if not found:
        raise InvalidArgument(f"no estimate JSON files found under {dir_path!r}")
    return found


def _handle_fit(ns) -> dict:
    estimates = _load_estimates(getattr(ns, "in"))
    doc = asdict(fit_exponent(estimates, Params(xi=ns.xi)))
    return {"outputs": [(ns.out, _json_bytes(doc))],
            "facts": {"epsilons": sorted(e.epsilon for e in estimates)}}


def _handle_ratio(ns) -> dict:
    mc = _mc_from_flags(ns)
    series = scaling_ratio(ns.eps, ns.r, Params(xi=ns.xi), mc, ns.q_hat)
    return {"outputs": [(ns.out, _json_bytes(asdict(series)))],
            "facts": {"spacing": mc.lattice.spacing, "q_hat": series.q_hat_used}}


def _report_doc(report) -> dict:
    # runtime_secs stays in the schema as null: wall time would break
    # byte-identical reruns, and the manifest's runtime_secs times the command.
    return {
        "name": report.name,
        "params": report.params,
        "rows": [[_json_num(v) if isinstance(v, float) else v for v in row]
                 for row in report.rows],
        "verdict": report.verdict.value,
        "runtime_secs": None,
        "stats": {k: _json_num(v) if isinstance(v, float) else v
                  for k, v in report.stats.items()},
    }


def _handle_exp(ns) -> dict:
    if ns.emit_gnuplot and not ns.csv:
        raise InvalidArgument("--emit-gnuplot needs --csv")
    with open(ns.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgument(f"malformed JSON at line {exc.lineno} "
                                  f"column {exc.colno}: {exc.msg}") from None
        # an int past the interpreter's digit limit, or nesting past the
        # parser's recursion limit
        except (ValueError, RecursionError) as exc:
            raise InvalidArgument(f"experiment config: {exc}") from None
    if not isinstance(cfg, dict):
        raise InvalidArgument("experiment config must be a JSON object")
    report = run_experiment(ns.name, cfg, workers=ns.threads)
    outputs = [(ns.out, _json_bytes(_report_doc(report)))]
    if ns.csv:
        outputs.append((ns.csv, _csv_bytes(EXPERIMENTS[ns.name].columns, report.rows)))
        if ns.emit_gnuplot:
            outputs.append((ns.csv + ".gnu", _gnuplot_script(ns.csv, 1, 2)))
    params = report.params
    seed = params["mc"]["master_seed"] if "mc" in params else params["field"]["seed"]
    return {"outputs": outputs, "facts": {"config_body": cfg}, "master_seed": seed,
            "supercritical": "xi" in params and Params(xi=params["xi"]).supercritical}


def _handle_cache_info(ns) -> dict:
    root = _cache_root(ns)
    if root is None:
        raise InvalidArgument("no cache root: pass --cache-dir or set LFPP_CACHE")
    entries = cache.cache_entries(root)
    lines = [f"cache root: {root}", f"entries: {len(entries)}"]
    for key, kind, name, mtime in entries:
        stamp = datetime.fromtimestamp(mtime, timezone.utc).isoformat()
        lines.append(f"  {key[:16]}  {kind:8s} {name}  {stamp}")
    return {"outputs": [], "stdout": "\n".join(lines)}


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `main` is also the
    in-process entry point, and parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="lfpp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lfpp {__version__}")
    sub = parser.add_subparsers(dest="command")

    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--threads", type=int, default=1,
                        help="Monte Carlo process-pool size; never changes output bytes")
    lattice = argparse.ArgumentParser(add_help=False)   # a LatticeSpec and the seed sampled on it
    lattice.add_argument("--n", type=int, required=True)
    lattice.add_argument("--spacing", type=_parse_spacing, default="auto")
    lattice.add_argument("--origin", type=_parse_point, default=(0.0, 0.0))
    lattice.add_argument("--seed", type=int, required=True)
    mc_flags = argparse.ArgumentParser(add_help=False, parents=[lattice, pooled])   # an MCConfig
    mc_flags.add_argument("--xi", type=float, required=True)
    mc_flags.add_argument("--trials", type=int, required=True)
    mc_flags.add_argument("--localized", action="store_true")
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--cache-dir", default=None,
                        help="cache root (overrides LFPP_CACHE)")

    p_field = sub.add_parser("field", help="field sampling commands")
    field_sub = p_field.add_subparsers(dest="field_command")
    p_sample = field_sub.add_parser("sample", parents=[lattice, cached],
                                    help="sample a field to an LFPF file")
    p_sample.add_argument("--kind", choices=tuple(SAMPLERS), default="torus")
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(handler=_handle_field_sample, command="field-sample")

    p_dist = sub.add_parser("dist", help="distances on a stored field")
    p_dist.add_argument("--field", required=True)
    p_dist.add_argument("--eps", type=float, required=True)
    p_dist.add_argument("--xi", type=float, required=True)
    p_dist.add_argument("--localized", action="store_true")
    p_dist.add_argument("--from", type=_parse_point, default=None)
    p_dist.add_argument("--to", type=_parse_point, default=None)
    region = p_dist.add_mutually_exclusive_group()
    region.add_argument("--within", default=None,
                        help="restrict paths to a region (internal metric), "
                             "e.g. annulus:0.5,0.5,0.1,0.3")
    region.add_argument("--around", default=None,
                        help="shortest separating cycle of an annulus")
    region.add_argument("--crossing", default=None,
                        help="left-right crossing of a rect:x0,y0,x1,y1")
    p_dist.add_argument("--emit-path", default=None,
                        help="write the geodesic as CSV (idx,x,y,cum_length)")
    p_dist.add_argument("--emit-gnuplot", action="store_true")
    p_dist.add_argument("--out", default=None)
    p_dist.set_defaults(handler=_handle_dist)

    p_aeps = sub.add_parser("a-eps", parents=[mc_flags, cached],
                            help="estimate the crossing-median normalizer")
    p_aeps.add_argument("--eps", type=float, required=True)
    p_aeps.add_argument("--out", required=True)
    p_aeps.set_defaults(handler=_handle_a_eps)

    p_fit = sub.add_parser("fit", help="fit the scaling exponent from estimate files")
    p_fit.add_argument("--in", required=True)
    p_fit.add_argument("--xi", type=float, required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(handler=_handle_fit)

    p_ratio = sub.add_parser("ratio", parents=[mc_flags],
                             help="scale-invariance ratios along a ladder")
    p_ratio.add_argument("--eps", type=_parse_floats, required=True,
                         help="comma-separated epsilon ladder")
    p_ratio.add_argument("--r", type=float, required=True)
    p_ratio.add_argument("--q-hat", type=float, default=None,
                         help="exponent to use; fitted from the ladder when absent")
    p_ratio.add_argument("--out", required=True)
    p_ratio.set_defaults(handler=_handle_ratio)

    p_exp = sub.add_parser("exp", parents=[pooled], help="run a named experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--csv", default=None)
    p_exp.add_argument("--emit-gnuplot", action="store_true")
    p_exp.set_defaults(handler=_handle_exp)

    p_info = sub.add_parser("cache-info", parents=[cached],
                            help="list cache entries")
    p_info.set_defaults(handler=_handle_cache_info)

    return parser


# Parsed names that are no parameter of an output: dispatch plumbing, the
# pool size (recorded as "threads") and the cache root (a deployment path).
_NOT_PARAMS = frozenset({"handler", "command", "field_command", "threads", "cache_dir"})


def _write_manifest(out_path: str, ns, result: dict, started_at: str,
                    runtime: float) -> None:
    """The manifest of one output, by the rule the module docstring states."""
    flags = {k: v for k, v in vars(ns).items() if k not in _NOT_PARAMS}
    xi = flags.get("xi")
    supercritical = result.get("supercritical",
                               xi is not None and Params(xi=xi).supercritical)
    manifest = {
        "command": ns.command,
        "resolved_params": {**flags, **result.get("facts", {})},
        "master_seed": result.get("master_seed", flags.get("seed")),
        "version": __version__,
        "libraries": cache.library_versions(),
        "started_at": started_at,
        "runtime_secs": runtime,
        "threads": getattr(ns, "threads", None),
        "artifact": os.path.basename(out_path),
        "warnings": [],
        "supercritical_xi": bool(supercritical),
    }
    if "stats" in result:   # solver statistics stay out of primary outputs
        manifest["stats"] = result["stats"]
    if manifest["supercritical_xi"]:
        manifest["warnings"].append(
            f"xi is at or above the reference threshold {XI_CRIT_REF}; "
            "estimates here are outside the calibrated regime")
    fieldio.atomic_write(out_path + ".manifest.json", _json_bytes(manifest))


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_glued(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:   # --help and --version exit 0, a usage error 2
        return 0 if exc.code in (0, None) else 1
    if getattr(ns, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1

    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        result = ns.handler(ns)
        runtime = time.perf_counter() - t0
        for out_path, payload in result["outputs"]:
            fieldio.atomic_write(out_path, payload)
        for out_path, _ in result["outputs"]:
            _write_manifest(out_path, ns, result, started_at, runtime)
        if result.get("stdout"):
            print(result["stdout"])
        return 0
    except LfppError as exc:
        print(f"lfpp: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lfpp: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a runtime failure
        print(f"lfpp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
