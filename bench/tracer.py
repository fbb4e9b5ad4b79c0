"""Outside-in tracing of lfpp's public layer functions.

The tracer wraps each traced function in every `lfpp` module that holds a
reference to it (for example both `lfpp.renorm.mollify` and
`lfpp.gff.mollify`), so calls are caught where the callers look them up.
Spans live in memory; a function's self time is its span duration minus the
durations of its direct child spans.  Counters are read from arguments and
returned objects with `getattr`, and a counter whose field is missing is
reported as absent rather than as zero.  Counter bookkeeping runs inside a
`trace.count` span so that it is charged to tracing overhead, not to the
function that called the traced one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

# (layer module, function) pairs, in report order.
TRACED = (
    ("gff", "sample_torus_gff"),
    ("gff", "mollify"),
    ("gff", "mollify_localized"),
    ("metric", "build_weighted_grid"),
    ("metric", "dist_point"),
    ("metric", "lr_crossing"),
    ("metric", "dist_around_annulus"),
    ("metric", "dist_internal"),
    ("metric", "edge_weight"),
    ("renorm", "estimate_a_eps"),
    ("renorm", "fit_exponent"),
    ("renorm", "scaling_ratio"),
    ("fieldio", "read_field"),
    ("fieldio", "field_bytes"),
    ("cache", "cache_lookup"),
    ("cache", "cache_store"),
    ("cli", "main"),
    ("experiments", "run_experiment"),
)

COUNTERS = ("metric.settled", "metric.active", "renorm.trials", "fieldio.bytes",
            "cache.hits", "cache.misses")

_COUNT_SPAN = "trace.count"


def _solve_active(metric, name, bound):
    """Sites a distance solve could reach: the grid mask cut to its region."""
    grid = bound["grid"]
    region = {"lr_crossing": "square", "dist_internal": "sub",
              "dist_around_annulus": "ann"}.get(name)
    if region is None:
        return int(grid.mask.sum())
    sites = metric.region_mask(grid.spec, bound[region])
    if name != "dist_around_annulus":
        sites = sites & grid.mask
    return int(sites.sum())


class Tracer:
    """Spans and counters for one traced stretch of work."""

    def __init__(self) -> None:
        self.spans = []           # [name, parent index, start, end]
        self.counters = {name: 0 for name in COUNTERS}
        self.absent = set()
        self.wall_s = 0.0
        self._stack = []
        self._seen_estimates = {}
        self._patched = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = getattr(self, "_count_" + name.split(".", 1)[1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                cidx = self._open(_COUNT_SPAN)
                try:
                    counter(name, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    self._close(cidx)
            return result
        return traced

    # -- counters ---------------------------------------------------------

    def _count_settled(self, name, bound, result):
        settled = getattr(result, "settled", None)
        if settled is None:
            self.absent.add("metric.settled")
            return
        metric = sys.modules["lfpp.metric"]
        self.counters["metric.settled"] += int(settled)
        self.counters["metric.active"] += _solve_active(metric, name.split(".")[1],
                                                        bound)

    _count_dist_point = _count_settled
    _count_lr_crossing = _count_settled
    _count_dist_internal = _count_settled
    _count_dist_around_annulus = _count_settled

    def _count_estimate_a_eps(self, name, bound, result):
        # A memo hit hands back an estimate object already seen: no new trials.
        if id(result) in self._seen_estimates:
            return
        self._seen_estimates[id(result)] = result
        trials = getattr(result, "trials", None)
        if trials is None:
            self.absent.add("renorm.trials")
        else:
            self.counters["renorm.trials"] += int(trials)

    def _count_read_field(self, name, bound, result):
        self.counters["fieldio.bytes"] += os.path.getsize(bound["path"])

    def _count_field_bytes(self, name, bound, result):
        self.counters["fieldio.bytes"] += len(result)

    def _count_cache_lookup(self, name, bound, result):
        self.counters["cache.misses" if result is None else "cache.hits"] += 1

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        for layer, fname in TRACED:
            original = getattr(importlib.import_module("lfpp." + layer), fname)
            traced = self._wrap(f"{layer}.{fname}", original)
            for modname, module in list(sys.modules.items()):
                if modname != "lfpp" and not modname.startswith("lfpp."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_s += time.perf_counter() - t0
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    # -- summary ----------------------------------------------------------

    def summary(self, span_cost_s: float) -> dict:
        """Per-function calls, total and self seconds, plus counters.

        `span_cost_s` is the measured cost of one wrapper call; tracing
        overhead is that cost per span plus all counter bookkeeping.
        """
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers = {f"{layer}.{fname}": {"calls": 0, "s": 0.0, "self_s": 0.0}
                  for layer, fname in TRACED}
        count_s = 0.0
        for k, (name, _, start, end) in enumerate(self.spans):
            if name == _COUNT_SPAN:
                count_s += end - start
                continue
            entry = layers[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s[k]
        overhead = len(self.spans) * span_cost_s + count_s
        return {"layers": layers, "counters": dict(self.counters),
                "absent": sorted(self.absent), "wall_s": self.wall_s,
                "overhead_s": overhead}


def span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop():
        return None
    tracer = Tracer()
    traced = tracer._wrap("gff.noop", noop)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        traced()
    return max(0.0, (time.perf_counter() - t0 - plain) / repeats)
