"""What the benchmark (`bench/worker.py`, `bench/tracer.py`) needs of lfpp.

The worker calls lfpp's modules by attribute, and the tracer patches
functions by name, reads their arguments by parameter name and reads
`grid.mask` to count the sites a solve could reach, so renaming a function
or a parameter or reshaping the mask would break benchmark runs without
failing any library test.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from lfpp import (Rect, build_weighted_grid, cli, experiments, metric,
                  mollify_localized, region_box, write_field)
from lfpp.metric import region_mask

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PY = BENCH / "tracer.py"

# The argument names the tracer's counters read from a traced call, by the
# (layer, function) they trace.
TRACER_BINDS = {
    ("metric", "dist_point"): {"grid"},
    ("metric", "lr_crossing"): {"grid", "square"},
    ("metric", "dist_internal"): {"grid", "sub"},
    ("metric", "dist_around_annulus"): {"grid", "ann"},
    ("fieldio", "read_field"): {"path"},
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def box_grid(field64):
    square = Rect(lo=(1.5, 1.5), hi=(2.5, 2.5))
    box = region_box(field64.spec, square)
    return square, build_weighted_grid(mollify_localized(field64, 0.25, box=box), 0.2)


def test_traced_functions_resolve(tracer):
    for layer, name in tracer.TRACED:
        assert callable(getattr(importlib.import_module("lfpp." + layer), name))


def test_tracer_binds_parameters_of_the_traced_functions():
    # names read as bound["name"], plus the region names _solve_active maps
    # each region solve to before it reads bound[region]
    tree = ast.parse(TRACER_PY.read_text(encoding="utf-8"))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "bound" and isinstance(node.slice, ast.Constant)}
    solve_active = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                        and node.name == "_solve_active")
    regions = {(key.value, value.value) for node in ast.walk(solve_active)
               if isinstance(node, ast.Dict) for key, value in zip(node.keys, node.values)}
    assert read | {name for _, name in regions} == set().union(*TRACER_BINDS.values())
    assert all(name in TRACER_BINDS[("metric", fn)] for fn, name in regions)
    for (layer, fn), names in TRACER_BINDS.items():
        params = inspect.signature(getattr(importlib.import_module("lfpp." + layer), fn))
        assert names <= set(params.parameters), f"{layer}.{fn}"


def test_worker_attributes_exist():
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("metric", "gff", "fieldio")}
    assert {layer for layer, _ in used} == {"metric", "gff", "fieldio"}
    missing = [f"{layer}.{name}" for layer, name in sorted(used)
               if not hasattr(importlib.import_module("lfpp." + layer), name)]
    assert not missing


def test_cli_main_takes_only_argv():
    # the worker calls lfpp.cli.main(argv) and the tracer wraps cli.main
    main = importlib.import_module("lfpp.cli").main
    assert list(inspect.signature(main).parameters) == ["argv"]


def test_box_grid_mask_is_its_box(box_grid):
    _, grid = box_grid
    n = grid.spec.n
    assert grid.mask.shape == (n, n) and grid.mask.dtype == bool
    want = np.zeros((n, n), dtype=bool)
    want[grid.box] = True
    assert np.array_equal(grid.mask, want)
    with pytest.raises(ValueError):
        grid.mask[0, 0] = True


def test_traced_region_solve_counts_its_sites(tracer, box_grid):
    square, grid = box_grid
    spans = tracer.Tracer()
    with spans.active():
        res = metric.lr_crossing(grid, square)
    assert spans.counters["metric.settled"] == res.settled
    assert spans.counters["metric.active"] == int(region_mask(grid.spec, square).sum())
    assert spans.summary(0.0)["layers"]["metric.lr_crossing"]["calls"] == 1


def _record_point_solves(monkeypatch):
    """Every result of `dist_point`, in call order, recorded wherever an
    `lfpp` module holds the function, as the tracer installs its wrappers;
    the tracer then wraps the recorder under the same names."""
    results = []
    real = metric.dist_point

    def recorder(grid, z, w, want_path=False):
        results.append(real(grid, z, w, want_path))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if name == "lfpp" or name.startswith("lfpp."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recorder)
    return results


def test_traced_pair_sweep_counts_every_solve(tracer, monkeypatch, field64):
    # each pair is two point solves: the pair's box for the upper bound,
    # then its certified crop; on a grid (`_pair_dists`) and from the raw
    # field, smoothing only the crops (`_field_dists`, weyl_shift_test's)
    grid = build_weighted_grid(mollify_localized(field64, 0.25), 0.2)
    pairs = [((1.0, 2.0), (3.0, 2.5)), ((2.0, 2.0), (2.25, 1.875))]
    results = _record_point_solves(monkeypatch)
    for sweep in (partial(experiments._pair_dists, grid, pairs),
                  partial(experiments._field_dists, field64, 0.25, 0.2, pairs)):
        results.clear()
        spans = tracer.Tracer()
        with spans.active():
            sweep()
        calls = spans.summary(0.0)["layers"]["metric.dist_point"]["calls"]
        assert calls == len(results) == 2 * len(pairs)
        assert spans.counters["metric.settled"] == sum(r.settled for r in results)


def test_weyl_smooths_only_its_crops(monkeypatch, tmp_path):
    # the cli_session weyl config (bench/worker.py `session_script`): each
    # field is smoothed on boxes only, fewer than n^2 sites in all
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    _, _, cfg = worker.session_script(str(tmp_path), 3701)
    n = cfg["field"]["n"]
    assert (n, cfg["epsilon"], len(cfg["pairs"])) == (512, 1.0 / 32.0, 3)
    smoothed = {}
    real = experiments.mollify_localized

    def spy(field, epsilon, box=None):
        assert box is not None
        (rs, cs) = box
        smoothed[id(field)] = smoothed.get(id(field), 0) + (rs.stop - rs.start) * (cs.stop - cs.start)
        return real(field, epsilon, box=box)

    monkeypatch.setattr(experiments, "mollify_localized", spy)
    rep = experiments.run_experiment("weyl_shift_test", json.loads(json.dumps(cfg)))
    assert rep.verdict is experiments.Verdict.PASS
    assert len(smoothed) == 2 and max(smoothed.values()) < n * n


@pytest.mark.parametrize("smoother", [[], ["--localized"]], ids=["plain", "localized"])
def test_traced_cli_point_query_counts_every_solve(tracer, monkeypatch, tmp_path,
                                                   field64, smoother):
    path = tmp_path / "f.lfpf"
    write_field(field64, path)
    results = _record_point_solves(monkeypatch)
    spans = tracer.Tracer()
    with spans.active():
        assert cli.main(["dist", "--field", str(path), "--eps", "0.25", "--xi", "0.2",
                         "--from", "1.0,2.0", "--to", "3.0,2.5",
                         "--out", str(tmp_path / "d.json"), *smoother]) == 0
    assert spans.summary(0.0)["layers"]["metric.dist_point"]["calls"] == len(results) == 2
    assert spans.counters["metric.settled"] == sum(r.settled for r in results)
