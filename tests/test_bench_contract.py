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
from pathlib import Path

import numpy as np
import pytest

from lfpp import Rect, build_weighted_grid, metric, mollify_localized, region_box
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
