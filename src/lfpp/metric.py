"""Shortest-path metrics on exponentially weighted lattice grids.

A smoothed field is turned into per-site costs exp(xi * value); edges of the
8-neighbor grid are weighted by spacing * hypot(du, dv) times the mean of the
endpoint costs (trapezoid rule along the segment).  Distances are infima of
edge-weight sums over lattice paths, computed with Dijkstra's algorithm.

A grid covers a box of the lattice, the whole lattice by default, and all
of the box's sites; a region restricts paths only in the query it is given
(`dist_internal`, `dist_sets`, `lr_crossing`, `dist_around_annulus`).
Every region becomes sites once, in `_region_crop`: the smallest box (its
crop) holding its sites, and those sites as a bool array over the crop; a
disk, annulus or rect is masked only on a box from its per-axis bounds.

Point, set and crossing distances share one solve between two endpoint
sets (a point is a one-site set).  It starts from the set whose
lexicographically first site (i, j) is smaller, so dist(a, b) and
dist(b, a) are the same float bit for bit and their paths are each other's
reverse; a crossing's left column comes first, so it starts there.  A solve
without a region runs Dijkstra over the whole box on the grid's graph,
built on first use and kept with the grid, so every point query on a grid
costs the same whatever the pair; a solve in a region runs on its crop.
One routine, `_dists_in_crops`, solves each of a list of pairs on the
crop `_point_crop` certifies gives the same float and path.  A floor on
the site costs over a box certifies a smaller box (a zero floor only the
whole one), so each crop is refined to a fixpoint by floors its caller
reads over the crop itself (before smoothing, the raw field's range over
the box's padded block; on a grid, its least cost there), then cut once
more by the built crop's own least cost.  It builds grids through its
caller twice: over the hull of the pairs' boxes and over the hull of
their crops.  Its callers are the two sweeps in `experiments`:
`_pair_dists` on a grid its caller holds, and `_field_dists`, the one
place that knows how a smoother feeds it (localized smoothing of boxes
only, floored by the raw range; one plain smooth of the lattice, floored
by its grid's least cost).

Graphs are scipy CSR matrices solved by scipy's csgraph Dijkstra; both
are imported on the first graph fill or solve (`_sparse`), so a process
that builds grids but never solves loads neither.

Every graph, of a grid's box or of a region's crop, comes from one rule:
`_mask_graph` fills a CSR skeleton of the crop (`indptr` and `indices`,
rows in site order, columns sorted) holding the entries whose two ends are
both active, weighing entry (u, v) as
(cost[u] + cost[v]) * 0.5 * spacing * |offset|.  Float addition commutes,
so both directions of an edge hold the same bits.  A crop whose sites are
all active has one skeleton per shape, kept for the process while the crop
is small (the crossing square of every Monte Carlo trial), so a query
fills weights only.  The annulus cover is the same rule's graph laid out
on two copies of the crop, its cut entries then moved across.  Geodesics
are deterministic too: ties break by walking back from the target, in the
graph the solve ran on, through the smallest-index predecessor u with
dist[u] + weight == dist[v] not yet visited, stepping back from a dead end
(a depth-first search, which finds a path even when weights below half an
ulp of a label tie sites in a loop); within a crop the smallest index is
the lexicographically smallest (i, j).

`dist_around_annulus` finds the shortest cycle separating the two boundary
circles of an annulus by lifting the annulus graph to a two-sheet cover in
which crossing the rightward horizontal ray from the center switches
sheets; the answer is the minimum over cut-adjacent sites of the distance
between the site's two copies, which equals the minimum over separating
cycles of their one-direction running weight sum.  One solve from the
sites where uncut edges straddle the ray's line bounds every such distance
from below, with no planarity needed, so only the sites whose bound does
not rule them out are solved, cheapest bound first; the smallest-index
minimizer wins, as if every site were solved in order.  Its cycle is
walked back by the same rule, in (sheet, i, j) order on the cover.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

import numpy as np

from ._rules import real, whole
from .errors import (
    DegenerateAnnulus,
    EmptyRegion,
    InvalidArgument,
    OutOfRegion,
)
from .gff import Box, LatticeSpec, MollifiedField, _box_bounds

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# A site's 8 neighbour offsets in node order, so in CSR column order.
_OFFSETS: Tuple[Tuple[int, int], ...] = ((-1, -1), (-1, 0), (-1, 1), (0, -1),
                                         (0, 1), (1, -1), (1, 0), (1, 1))
_FILL_SITES = 1 << 14     # sites per block of a weight fill (cache-sized slots)
_CACHED_SITES = 1 << 17   # full crops up to this size keep their skeleton
# The label a point solve may stop at.  `_dists_in_crops` sets it around
# each crop solve only, which stays a `dist_point` call, so whatever wraps
# `dist_point` (the benchmark's tracer) still sees every solve.
_CROP_LIMIT: ContextVar[float] = ContextVar("_CROP_LIMIT", default=math.inf)

_RECT_TOL = 1e-9   # relative to spacing; admits exactly aligned rect edges
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)   # the smallest normal float64


@lru_cache(maxsize=None)
def _sparse():
    """(csr_matrix, dijkstra), imported on the first graph fill or solve
    to keep start-up light: a process that never solves loads neither
    scipy.sparse nor its csgraph.  Later calls are one cache hit."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
    return csr_matrix, dijkstra


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    """Closed disk in plane coordinates."""

    center: Tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        for c in self.center:
            real(c, "disk center")
        real(self.radius, "disk radius", gt=0)


@dataclass(frozen=True)
class Annulus:
    """Open annulus r_inner < |x - center| < r_outer."""

    center: Tuple[float, float]
    r_inner: float
    r_outer: float

    def __post_init__(self) -> None:
        for c in self.center:
            real(c, "annulus center")
        real(self.r_inner, "annulus r_inner", gt=0)
        real(self.r_outer, "annulus r_outer", gt=self.r_inner)

    @property
    def width(self) -> float:
        return self.r_outer - self.r_inner


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned box [lo_x, hi_x] x [lo_y, hi_y]."""

    lo: Tuple[float, float]
    hi: Tuple[float, float]

    def __post_init__(self) -> None:
        for c in (*self.lo, *self.hi):
            real(c, "rect corner")
        if not (self.lo[0] < self.hi[0] and self.lo[1] < self.hi[1]):
            raise InvalidArgument(f"rect must have lo < hi, got {self.lo}, {self.hi}")


@dataclass(frozen=True, eq=False)
class Mask:
    """Explicit boolean site mask, shape (n, n)."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.mask, np.ndarray) or self.mask.dtype != bool:
            raise InvalidArgument("mask must be a boolean ndarray")


Region = Union[Disk, Annulus, Rect, Mask]


def region_mask(spec: LatticeSpec, region: Region,
                box: Optional[Tuple[slice, slice]] = None) -> np.ndarray:
    """Boolean (n, n) array of sites belonging to the region, or its
    (rows, columns) `box` of lattice sites, computed on the box alone.

    Disks are closed, annuli are open on both radii, rects are closed boxes
    with a relative 1e-9 tolerance so aligned edges are always included.
    """
    rows, cols = box or (slice(0, spec.n), slice(0, spec.n))
    xs, ys = spec.axis_coords()
    xs, ys = xs[cols], ys[rows]
    gx = np.broadcast_to(xs[None, :], (ys.size, xs.size))
    gy = np.broadcast_to(ys[:, None], (ys.size, xs.size))
    if isinstance(region, Disk):
        return np.hypot(gx - region.center[0], gy - region.center[1]) <= region.radius
    if isinstance(region, Annulus):
        d = np.hypot(gx - region.center[0], gy - region.center[1])
        return (d > region.r_inner) & (d < region.r_outer)
    if isinstance(region, Rect):
        tol = spec.spacing * _RECT_TOL
        return ((gx >= region.lo[0] - tol) & (gx <= region.hi[0] + tol)
                & (gy >= region.lo[1] - tol) & (gy <= region.hi[1] + tol))
    if isinstance(region, Mask):
        if region.mask.shape != (spec.n, spec.n):
            raise InvalidArgument(
                f"mask shape {region.mask.shape} does not match lattice ({spec.n}, {spec.n})")
        return region.mask[rows, cols].copy()
    raise InvalidArgument(f"unknown region type: {type(region).__name__}")


# ---------------------------------------------------------------------------
# grid and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightedGrid:
    """8-neighbor grid with per-site costs exp(xi * smoothed field value).

    `site_cost` covers a box of the lattice whose first site is `offset`
    (the whole lattice by default), and the grid's sites are exactly that
    box; a region restricts only the query it is given.  Sites and paths
    keep their lattice indices.  Solves reuse a graph built once from
    `site_cost`, so it is held read-only; an array its caller could still
    write is copied first.
    """

    spec: LatticeSpec
    site_cost: np.ndarray   # (h, w) float64 > 0 over the box
    offset: Tuple[int, int] = (0, 0)   # lattice site (i, j) of site_cost[0, 0]

    def __post_init__(self) -> None:
        if self.site_cost.ndim != 2:
            raise InvalidArgument("site_cost must be a 2-D array")
        _box_bounds(self.spec, self.box)
        cost = self.site_cost
        if cost.flags.writeable or cost.base is not None:
            cost = cost.copy()
            cost.flags.writeable = False
            object.__setattr__(self, "site_cost", cost)

    @property
    def box(self) -> Tuple[slice, slice]:
        """The lattice sites `site_cost` covers, as (rows, columns) slices."""
        (i, j), (h, w) = self.offset, self.site_cost.shape
        return (slice(i, i + h), slice(j, j + w))

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only (n, n) bool array of the grid's sites: True on the box."""
        mask = np.zeros((self.spec.n, self.spec.n), dtype=bool)
        mask[self.box] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def _full_graph(self):
        """CSR graph of the whole box, built on first use."""
        return _mask_graph(self, self.box, np.ones(self.site_cost.shape, dtype=bool))


@dataclass(frozen=True)
class Path:
    """Site sequence of a geodesic, with its weighted length."""

    sites: Tuple[Tuple[int, int], ...]   # grid indices (i, j)
    length: float


@dataclass(frozen=True)
class DistResult:
    """Distance value with optional geodesic.

    `unreachable` is the authoritative disconnection flag; `value` is set to
    math.inf in that case for arithmetic convenience.
    """

    value: float
    unreachable: bool
    path: Optional[Path]
    # Sites with a finite computed distance; for a separating cycle, the
    # base sites labelled at most its length on either sheet of the cover.
    settled: int


def _candidate_box(spec: LatticeSpec, region: Union[Disk, Annulus, Rect],
                   within: Box) -> Box:
    """A box in `within` holding every site there of a disk, annulus or rect,
    empty when none can be.  A site of the region has each coordinate within
    the region's bounds, tested with the float differences `region_mask`
    takes (np.hypot(dx, dy) is never below |dx| or |dy|, which are floats
    themselves); the sites that pass are clipped to `within`."""
    xs, ys = spec.axis_coords()
    if isinstance(region, Rect):
        tol = spec.spacing * _RECT_TOL
        inside = [(c >= lo - tol) & (c <= hi + tol) for c, lo, hi in
                  ((ys, region.lo[1], region.hi[1]), (xs, region.lo[0], region.hi[0]))]
    else:
        reach = region.radius if isinstance(region, Disk) else region.r_outer
        inside = [np.abs(c - at) <= reach
                  for c, at in ((ys, region.center[1]), (xs, region.center[0]))]
    hits = [np.flatnonzero(a) for a in inside]
    if any(h.size == 0 for h in hits):
        return (slice(0, 0), slice(0, 0))
    return tuple(slice(max(int(h[0]), w.start), min(int(h[-1]) + 1, w.stop))
                 for h, w in zip(hits, within))


def _region_crop(spec: LatticeSpec, region: Region, within: Box) -> Tuple[Box, np.ndarray]:
    """(crop, active): the smallest box of lattice sites holding every site
    of the region inside the box `within`, and those sites as a bool array
    over the crop; both are empty when there are none.  A Mask is masked on
    `within`, any other region only on its candidate box within it."""
    box = within if isinstance(region, Mask) else _candidate_box(spec, region, within)
    active = region_mask(spec, region, box)
    hits = [np.flatnonzero(active.any(axis=axis)) for axis in (1, 0)]
    if hits[0].size == 0:
        return (slice(0, 0), slice(0, 0)), active[:0, :0]
    inner = tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits)
    crop = tuple(slice(b.start + s.start, b.start + s.stop) for b, s in zip(box, inner))
    return crop, active[inner]


def region_box(spec: LatticeSpec, region: Region) -> Optional[Box]:
    """Smallest box of lattice sites holding all of the region's sites, as
    (rows, columns) slices; None when the region holds no site."""
    crop, active = _region_crop(spec, region, (slice(0, spec.n), slice(0, spec.n)))
    return crop if active.size else None


def build_weighted_grid(moll: MollifiedField, xi: float) -> WeightedGrid:
    """Exponentiate the smoothed field into site costs.

    The grid covers the sites `moll` covers (its box).  Queries restrict
    paths to a region through their own region arguments.
    """
    real(xi, "xi", gt=0)
    with np.errstate(over="ignore", under="ignore"):   # refused just below
        site_cost = np.exp(float(xi) * moll.values)
    if not (np.isfinite(site_cost) & (site_cost > 0.0)).all():
        raise InvalidArgument(
            "site cost exp(xi * value) overflowed or vanished on the grid")
    site_cost.flags.writeable = False
    return WeightedGrid(spec=moll.spec, site_cost=site_cost, offset=moll.offset)


def _cost_floor(xi: float, low: float, high: float) -> float:
    """A lower bound on every site cost `build_weighted_grid` makes from
    values in [low, high]; 0.0 when such a cost could overflow or vanish
    (xi * value above 709 or below -708): a zero floor certifies only the
    whole box (`_point_crop`), so a grid that could be refused is built
    whole and refused as it would be.  fl(xi * v) is nondecreasing in v
    for xi > 0; the scalar exp at fl(xi * low) less 16 eps relative leaves
    room for numpy's vector exp, which may round an ulp or so below the
    scalar one."""
    lo, hi = float(xi) * low, float(xi) * high
    if not (-708.0 <= lo and hi <= 709.0):
        return 0.0
    return math.exp(lo) * (1.0 - 16.0 * _EPS)


def edge_weight(grid: WeightedGrid, u: Tuple[int, int], v: Tuple[int, int]) -> float:
    """Weight of the grid edge between 8-neighbor sites u and v of its box."""
    for c in (*u, *v):
        if type(c) is not int:   # a path's own sites skip the rule's ABC check
            whole(c, "site index")
    di, dj = v[0] - u[0], v[1] - u[1]
    if max(abs(di), abs(dj)) != 1:
        raise InvalidArgument(f"{u} and {v} are not 8-neighbors")
    rows, cols = grid.box
    for i, j in (u, v):
        if not (rows.start <= i < rows.stop and cols.start <= j < cols.stop):
            raise InvalidArgument(f"site {(i, j)} lies outside the grid's box")
    pref = 0.5 * grid.spec.spacing * math.hypot(di, dj)
    i, j = grid.offset
    return (grid.site_cost[u[0] - i, u[1] - j] + grid.site_cost[v[0] - i, v[1] - j]) * pref


# ---------------------------------------------------------------------------
# solver core
# ---------------------------------------------------------------------------

def _neighbours(a: np.ndarray) -> List[np.ndarray]:
    """For each offset (di, dj) of _OFFSETS, the view of `a` moved by it:
    [i, j] reads a[i + di, j + dj], and zero (False) off the array."""
    h, w = a.shape
    pad = np.zeros((h + 2, w + 2), dtype=a.dtype)
    pad[1:-1, 1:-1] = a
    return [pad[1 + di:h + 1 + di, 1 + dj:w + 1 + dj] for di, dj in _OFFSETS]


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """CSR pattern of the 8-neighbour graph over the active sites of a crop.

    Slot k of site (i, j) is its edge to (i, j) + _OFFSETS[k]; `keep`, of
    shape (h, w, 8), marks the slots whose two ends are both active, and
    those are the entries.  `indptr` and `indices` list them row by row in
    site order (node i * w + j), and _OFFSETS runs in node order, so each
    row's columns come out sorted.  All three arrays are read-only, so
    graphs can share them.  Indices are int32: a crop holds at most
    `gff._MAX_N`^2 = 2^24 sites, so a skeleton has at most 2^27 entries and
    the annulus cover twice that.
    """

    keep: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def of(cls, active: np.ndarray) -> "_Skeleton":
        h, w = active.shape
        keep = np.empty((h, w, 8), dtype=bool)
        for k, nbr in enumerate(_neighbours(active)):
            np.logical_and(active, nbr, out=keep[..., k])
        step = np.array([di * w + dj for di, dj in _OFFSETS], dtype=np.int32)
        indices = (np.arange(h * w, dtype=np.int32)[:, None] + step)[keep.reshape(h * w, 8)]
        indptr = np.zeros(h * w + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=2, dtype=np.int32).ravel(), out=indptr[1:])
        for arr in (keep, indptr, indices):
            arr.flags.writeable = False
        return cls(keep=keep, indptr=indptr, indices=indices)

    def fill(self, cost: np.ndarray, spacing: float, sheets: int = 1) -> csr_matrix:
        """The graph with entry (u, v) weighted (cost[u] + cost[v]) * pref,
        pref = 0.5 * spacing * |offset| of the entry's direction, laid out on
        `sheets` copies of the crop: sheet s holds node s * h * w + u with
        u's entries, their columns moved by s * h * w too (the annulus
        cover before its cut).  One sheet shares the skeleton's read-only
        `indices` and `indptr`.

        Float addition commutes, so an edge weighs the same bits from either
        end.  Slots are filled in blocks of about _FILL_SITES sites, which
        stay in cache, and gathered through `keep` into every sheet.
        """
        (h, w, _), indices, indptr = self.keep.shape, self.indices, self.indptr
        nbrs = _neighbours(cost)
        prefs = [0.5 * spacing * math.hypot(di, dj) for di, dj in _OFFSETS]
        data = np.empty((sheets, indices.size))
        rows = max(1, _FILL_SITES // w)
        slots = np.empty((min(rows, h), w, 8))
        for r0 in range(0, h, rows):
            r1 = min(h, r0 + rows)
            block = slots[:r1 - r0]
            for k, nbr in enumerate(nbrs):
                np.add(cost[r0:r1], nbr[r0:r1], out=block[..., k])
                block[..., k] *= prefs[k]
            data[:, indptr[r0 * w]:indptr[r1 * w]] = block[self.keep[r0:r1]]
        if sheets > 1:   # sheet s's nodes and columns move by s * h * w
            move = np.arange(sheets, dtype=np.int32)[:, None]
            indptr = np.zeros(sheets * h * w + 1, dtype=np.int32)
            np.add(self.indptr[1:], move * indices.size, out=indptr[1:].reshape(sheets, -1))
            indices = (indices + move * (h * w)).ravel()
        csr, _ = _sparse()
        return csr((data.ravel(), indices, indptr), shape=(sheets * h * w,) * 2)


@lru_cache(maxsize=8)
def _box_skeleton(h: int, w: int) -> _Skeleton:
    return _Skeleton.of(np.ones((h, w), dtype=bool))


def _skeleton(active: np.ndarray) -> _Skeleton:
    """The skeleton of a crop's active sites.  A crop with every site active
    has one skeleton per shape, kept for the process when the crop has at
    most _CACHED_SITES sites (a crossing square on every trial) and built
    for each graph otherwise."""
    if active.size <= _CACHED_SITES and active.all():
        return _box_skeleton(*active.shape)
    return _Skeleton.of(active)


def _view(grid: WeightedGrid, box: Box) -> np.ndarray:
    """The read-only view of `grid`'s site costs over a box inside its box."""
    (rs, cs), (i, j) = box, grid.offset
    return grid.site_cost[rs.start - i:rs.stop - i, cs.start - j:cs.stop - j]


def _mask_graph(grid: WeightedGrid, crop: Box, active: np.ndarray, sheets: int = 1):
    """CSR graph of the active sites of a crop inside the grid's box, on
    `sheets` copies of the crop (`_Skeleton.fill`)."""
    return _skeleton(active).fill(_view(grid, crop), grid.spec.spacing, sheets)


def _flat(sites: np.ndarray, crop) -> np.ndarray:
    rs, cs = crop
    return (sites[:, 0] - rs.start) * (cs.stop - cs.start) + (sites[:, 1] - cs.start)


def _sites(crop: Box, active: np.ndarray) -> np.ndarray:
    """Lattice sites (k, 2) of a bool array over a crop, in lexicographic
    order."""
    return np.argwhere(active) + (crop[0].start, crop[1].start)


def _check_in(grid: WeightedGrid, site: Tuple[int, int], region, what: str) -> None:
    """OutOfRegion unless the site is active in `region` (the box when None)."""
    (rs, cs), active = region or (grid.box, None)
    inside = rs.start <= site[0] < rs.stop and cs.start <= site[1] < cs.stop
    if not inside or (active is not None and not active[site[0] - rs.start, site[1] - cs.start]):
        raise OutOfRegion(f"{what} site {tuple(site)} is outside the active region")


def _walk_back(graph: csr_matrix, dist: np.ndarray, target: int,
               sources, crop) -> List[Tuple[int, int]]:
    """Deterministic geodesic from a source node to `target`, as lattice sites.

    A tight step from node v goes to a neighbour u with
    dist[u] + weight == dist[v], reading neighbours and weights from v's row
    of the graph the solve ran on, so the sums are the solver's own, and a
    chain of tight steps from a source folds to dist[target] bit for bit.
    The walk steps to the smallest-index tight neighbour not yet visited and
    steps back from a dead end (a depth-first search).  A weight below half
    an ulp of a label leaves tight steps between equal labels, which can
    lead back to a visited node; the step Dijkstra labelled each node by is
    tight and comes from a node settled before it, so a source is always
    reached.  Node c is site divmod(c % (h * w), w) of the (h, w) crop, so
    on the annulus cover both sheets map to the same sites.
    """
    rs, cs = crop
    w = cs.stop - cs.start
    n_base = (rs.stop - rs.start) * w
    indptr, indices, weights = graph.indptr, graph.indices, graph.data
    chain = [target]
    seen = {target}
    while chain[-1] not in sources:
        v = chain[-1]
        row = slice(indptr[v], indptr[v + 1])
        nbrs = indices[row]
        tight = nbrs[dist[nbrs] + weights[row] == dist[v]].tolist()
        u = min((c for c in tight if c not in seen), default=None)
        if u is None:
            chain.pop()
        else:
            seen.add(u)
            chain.append(u)
    return [(i + rs.start, j + cs.start)
            for i, j in (divmod(c % n_base, w) for c in reversed(chain))]


def _between(grid: WeightedGrid, a_sites: np.ndarray, b_sites: np.ndarray,
             region, want_path: bool, limit: float = math.inf) -> DistResult:
    """Distance between two (k, 2) site arrays in lexicographic order, along
    paths through the active sites of `region`, a (crop, active) pair (the
    whole box when None, on the grid's own graph).

    The solve starts from the array whose first site is smaller; the target
    is the first minimum among the other's sites, and the path walked back
    from it is reversed when the start was b.  `limit`, at least the
    distance, stops the solve at that label: labels at or below it are the
    unbounded solve's, and the walk-back reads only those (a neighbour
    above the limit is never tight), so only `settled` drops.
    """
    swapped = tuple(b_sites[0]) < tuple(a_sites[0])
    sources, targets = (b_sites, a_sites) if swapped else (a_sites, b_sites)
    crop, graph = ((grid.box, grid._full_graph) if region is None
                   else (region[0], _mask_graph(grid, *region)))
    s_flat, t_flat = _flat(sources, crop), _flat(targets, crop)
    _, dijkstra = _sparse()
    dist = dijkstra(graph, directed=True, indices=s_flat, min_only=True, limit=limit)
    settled = int(np.isfinite(dist).sum())
    t_dist = dist[t_flat]
    best = int(np.argmin(t_dist))  # first minimum = lexicographically smallest
    value = float(t_dist[best])
    if not math.isfinite(value):
        return DistResult(value=math.inf, unreachable=True, path=None, settled=settled)
    path = None
    if want_path:
        sites = _walk_back(graph, dist, int(t_flat[best]),
                           frozenset(s_flat.tolist()), crop)
        if swapped:
            sites.reverse()
        path = Path(sites=tuple(sites), length=value)
    return DistResult(value=value, unreachable=False, path=path, settled=settled)


def _trivial_zero(site: Tuple[int, int], want_path: bool) -> DistResult:
    path = Path(sites=(site,), length=0.0) if want_path else None
    return DistResult(value=0.0, unreachable=False, path=path, settled=1)


# ---------------------------------------------------------------------------
# public distance operations
# ---------------------------------------------------------------------------

def dist_point(grid: WeightedGrid, z: Tuple[float, float], w: Tuple[float, float],
               want_path: bool = False) -> DistResult:
    """Distance between the sites nearest to the plane points z and w;
    bitwise symmetric in (z, w)."""
    return _point_dist(grid, z, w, None, want_path, _CROP_LIMIT.get())


def dist_internal(grid: WeightedGrid, z: Tuple[float, float],
                  w: Tuple[float, float], sub: Region,
                  want_path: bool = False) -> DistResult:
    """Distance along paths constrained to stay inside the region `sub`."""
    return _point_dist(grid, z, w, _region_crop(grid.spec, sub, grid.box), want_path)


def _point_dist(grid: WeightedGrid, z, w, region, want_path: bool,
                limit: float = math.inf) -> DistResult:
    sz = grid.spec.index_of(z)
    sw = grid.spec.index_of(w)
    _check_in(grid, sz, region, "source")
    _check_in(grid, sw, region, "target")
    if sz == sw:
        return _trivial_zero(sz, want_path)
    return _between(grid, np.array([sz]), np.array([sw]), region, want_path, limit)


def dist_sets(grid: WeightedGrid, region_a: Region, region_b: Region,
              want_path: bool = False) -> DistResult:
    """Distance between two site sets (0 when they intersect).

    Equals the minimum of dist_point over endpoint pairs, and is bitwise
    symmetric in the two sets.
    """
    sites_a, sites_b = (_sites(*_region_crop(grid.spec, r, grid.box))
                        for r in (region_a, region_b))
    if not (sites_a.size and sites_b.size):
        raise EmptyRegion("a distance endpoint set is empty")
    n = grid.spec.n
    common = np.intersect1d(sites_a @ (n, 1), sites_b @ (n, 1))
    if common.size:   # flat i * n + j, sorted: the first is the smallest (i, j)
        return _trivial_zero(divmod(int(common[0]), n), want_path)
    return _between(grid, sites_a, sites_b, None, want_path)


def lr_crossing(grid: WeightedGrid, square: Rect,
                want_path: bool = False) -> DistResult:
    """Shortest left-to-right crossing of a square, inside the square.

    Sources are the active sites of the leftmost occupied lattice column of
    the square, targets the rightmost; paths stay inside the square.
    """
    region = _region_crop(grid.spec, square, grid.box)
    sites = _sites(*region)
    if not sites.size:
        raise EmptyRegion("crossing square contains no active sites")
    jl, jr = sites[:, 1].min(), sites[:, 1].max()
    if jl == jr:
        raise InvalidArgument("crossing square spans a single lattice column")
    return _between(grid, sites[sites[:, 1] == jl], sites[sites[:, 1] == jr],
                    region, want_path)


# ---------------------------------------------------------------------------
# point crops
# ---------------------------------------------------------------------------

def _pair_box(within: Box, a: Tuple[int, int], b: Tuple[int, int]) -> Box:
    """The bounding box of sites a and b grown by 2 sites on each side, cut
    to `within`."""
    return tuple(slice(max(min(a[k], b[k]) - 2, w.start),
                       min(max(a[k], b[k]) + 3, w.stop))
                 for k, w in enumerate(within))


def _point_crop(spec: LatticeSpec, within: Box, a: Tuple[int, int],
                b: Tuple[int, int], upper: float, floor: float) -> Box:
    """A box B in the box `within`, C, on which a point solve between
    sites a and b gives the value and geodesic that it gives on the grid G,
    bit for bit, given upper >= D, G's float distance, and
    0 <= floor <= every site cost of G on C, where C holds every walk of G
    from a to b of at most 2N - 1 edges whose float sum is at most upper
    (N = n^2 >= G's node count, the walks that matter); B holds every such
    walk too.  G's whole box is such a C, so a floor over all of G
    certifies a crop, and a floor read over that crop certifies its own cut
    of it (`_refined_crop`).

    B is C cut to the ellipse of sites s with
    floor * spacing * (|s - a| + |s - b|) * (1 - 4 N eps) <= upper
    (lengths in sites, eps the float64 epsilon, u = eps / 2), cut by floor
    and ceil and padded by one site.  It is C when the reach
    upper / (floor * spacing * (1 - 4 N eps)) passes 4n sites, where the
    ellipse's box covers the lattice anyway, or when floor * spacing / 2 or
    spacing / 2 is below the smallest normal float, so that every weight
    below is a normal float.

    Why it is exact.  Say s is the solve's start (the smaller of a and b),
    t the other end, and B the grid over the box too; B's weights are G's,
    bit for bit.
    - The ellipse.  A walk of at most 2N - 1 edges from s to t whose float
      sum is at most upper lies in C, so each of its sites costs at least
      floor.  A weight is then at least floor * spacing * |step| * (1 - u)^4
      (fl(c_u + c_v) >= 2 * floor; hypot and two products round), the fold
      of k weights loses at most (1 - u)^(k - 1), the steps before and
      after a site r span at least |r - s| and |t - r|, and
      (1 - u)^(2N + 2) >= 1 - 4 N eps, so the walk stays in the ellipse,
      and so in B.  The box's own arithmetic is off by a few eps of a reach
      below 4n sites, far inside the pad.  The rest needs only that B
      holds every such walk.
    - Labels.  fl(x + w) is nondecreasing in x and at least x, so
      Dijkstra's label of a site v is F(v), the least left-fold float sum
      over walks from s to v, whatever the heap's order: by induction in
      settle order, a walk with a smaller sum would leave the settled set
      at a site with a smaller label.  Cutting a loop never raises a fold,
      so some path attains F(v); and F_B >= F_G on B, as B's walks are G's.
    - Value.  A path with sum D lies in B, so F_B(t) <= D = F_G(t).
    - Geodesic.  Both walk-backs (`_walk_back`) start at t and take the
      same steps, forward and back.  Say they have so far, so both hold
      the same visited sites and the same walk Q from its head v to t, of
      distinct sites with F_B = F_G on each and every step tight, so a
      walk that reaches v with sum F_G(v) and goes on along Q sums to D.
      If u is a neighbour with F_G(u) + w == F_G(v) in G, a G-optimal
      path P to u (fewer than N edges), then w, then Q sums to D, so it
      lies in B: u is in B and F_B(u) <= fold(P) = F_G(u).  If instead
      F_B(u) + w == F_B(v) in B, then
      F_G(v) <= fl(F_G(u) + w) <= fl(F_B(u) + w) = F_G(v).  Either way
      F_B(u) = F_G(u) and u is a candidate in both graphs.  So both see
      the same unvisited candidates; both step to the smallest node index,
      which in either grid is the lexicographically smallest site, or both
      step back to the same walk, and the claim holds after the step.
    """
    slack = 1.0 - 4.0 * spec.n ** 2 * _EPS
    scale = floor * spec.spacing * slack
    if not 0.5 * min(spec.spacing, scale) >= _TINY:
        return within
    reach = upper / scale
    if not reach <= 4.0 * spec.n:
        return within
    half2 = 0.25 * reach * reach
    di, dj = b[0] - a[0], b[1] - a[1]
    # the ellipse's half-extent along one axis is sqrt(half^2 - (other axis' gap / 2)^2)
    extents = (math.sqrt(max(half2 - 0.25 * dj * dj, 0.0)),
               math.sqrt(max(half2 - 0.25 * di * di, 0.0)))
    return tuple(slice(max(math.floor(0.5 * (a[k] + b[k]) - e) - 1, w.start),
                       min(math.ceil(0.5 * (a[k] + b[k]) + e) + 2, w.stop))
                 for k, (e, w) in enumerate(zip(extents, within)))


def _refined_crop(spec: LatticeSpec, box: Box, a: Tuple[int, int],
                  b: Tuple[int, int], upper: float,
                  floor_over: Callable[[Box], float]) -> Box:
    """The fixpoint of `_point_crop` from `box`, each step cut from the
    last with the floor `floor_over` reads over it: given a box that holds
    every walk `_point_crop` names, every step holds them too."""
    while True:
        crop = _point_crop(spec, box, a, b, upper, floor_over(box))
        if crop == box:
            return box
        box = crop


def _hull(boxes: List[Box]) -> Box:
    """The smallest box holding every one of `boxes`."""
    return tuple(slice(min(b[k].start for b in boxes), max(b[k].stop for b in boxes))
                 for k in range(2))


def _crop_grid(grid: WeightedGrid, box: Box) -> WeightedGrid:
    """The grid over a box inside `grid`'s box, with its site costs."""
    if box == grid.box:
        return grid
    return WeightedGrid(spec=grid.spec, offset=(box[0].start, box[1].start),
                        site_cost=_view(grid, box))


def _least_cost(grid: WeightedGrid, box: Box) -> float:
    """The least site cost of `grid` over a box inside its box: the exact
    floor there."""
    return float(_view(grid, box).min())


def _dists_in_crops(spec: LatticeSpec, grid_over: Callable[[Box], WeightedGrid],
                    within: Box, floor_over: Callable[[Box], float], pairs,
                    want_path: bool = False) -> List[Tuple[WeightedGrid, DistResult]]:
    """[(grid, result)] per pair (z, w) in order: `dist_point(G, z, w,
    want_path)` for the grid G over the box `within`, bit for bit but for
    `settled`, solved on the grid over the pair's certified crop.

    `grid_over(box)` is the grid over a box in `within` with G's costs
    there, and `floor_over(box)` is at most every cost of G on the box.
    Each pair's upper bound is its distance on the pair's box plus 2 sites,
    whose paths are G's (that solve refuses a site outside `within`), all
    read from one grid over the hull of those boxes.  Its crop is the
    fixpoint of `_point_crop` from `within` with `floor_over`'s floors
    (`_refined_crop`), then cut again, on one grid over the hull of those
    crops, by that grid's least cost over each; the pair is solved on that
    crop, stopping at its upper bound (`_between`'s `limit`).
    """
    ends = [(spec.index_of(z), spec.index_of(w)) for z, w in pairs]
    boxes = [_pair_box(within, a, b) for a, b in ends]
    near = grid_over(_hull(boxes))
    uppers = [dist_point(_crop_grid(near, box), z, w).value
              for box, (z, w) in zip(boxes, pairs)]
    crops = [_refined_crop(spec, within, a, b, upper, floor_over)
             for (a, b), upper in zip(ends, uppers)]
    hull = grid_over(_hull(crops))
    out = []
    for crop, (a, b), (z, w), upper in zip(crops, ends, pairs, uppers):
        grid = _crop_grid(hull, _refined_crop(spec, crop, a, b, upper,
                                               partial(_least_cost, hull)))
        bound = _CROP_LIMIT.set(upper)
        try:
            out.append((grid, dist_point(grid, z, w, want_path)))
        finally:
            _CROP_LIMIT.reset(bound)
    return out


# ---------------------------------------------------------------------------
# separating cycles
# ---------------------------------------------------------------------------

def _annulus_cover(spec: LatticeSpec, crop, cover: csr_matrix,
                   center: Tuple[float, float]):
    """Cut the crop's two-sheet graph along the rightward ray, in place.

    Takes the crop's graph on two sheets (`_mask_graph(..., sheets=2)`),
    moves its cut entries to the other sheet, and returns (sorted upper cut
    site array, sorted upper uncut site array).  Each entry is read as its
    edge a -> b with a < b (the entry itself when row < col).  An edge
    straddles when its endpoints lie on either side of the horizontal line
    y = center_y (one at or above, one strictly below); a straddling edge
    is a cut edge when its segment meets that line strictly right of the
    center.  The crop's row y values ys ascend, and every edge joins two
    sites of one row or of adjacent rows.  So with k the first row at or
    above the line (`searchsorted`), the straddling edges are those from
    row k - 1 to row k: among the entries of those two rows' nodes, one
    slice of each sheet's CSR arrays, the ones with a < k * w <= b.  No
    edge straddles when k is 0 or h.  Every straddling edge meets the line
    at the same fraction t = (center_y - ys[k - 1]) / (ys[k] - ys[k - 1])
    of the way from a to b, and is cut when xa + (xb - xa) * t > center_x.
    A cut edge leads to the other sheet, so traversing it switches sheets:
    a cut entry's column moves by h * w up on sheet 0 and down on sheet 1.
    The flags are exactly the crossings of a fixed arc from the inner hole
    to the outside, so a cycle's flag parity equals its winding parity
    around the center.  The upper end of a straddling edge is b: the upper
    cut sites are the b ends of the cut edges, and the upper uncut sites,
    the b ends of the straddling edges that are not cut, are the sources of
    `_cut_bounds`.
    """
    rs, cs = crop
    h, w = rs.stop - rs.start, cs.stop - cs.start
    n_base, indptr, col = h * w, cover.indptr, cover.indices
    cx, cy = center
    ys = spec.origin[1] + np.arange(rs.start, rs.stop) * spec.spacing
    k = int(np.searchsorted(ys, cy))
    lo, hi = ((k - 1) * w, (k + 1) * w) if 0 < k < h else (0, 0)
    band = slice(indptr[lo], indptr[hi])
    row = np.repeat(np.arange(lo, hi, dtype=col.dtype), np.diff(indptr[lo:hi + 1]))
    a, b = np.minimum(row, col[band]), np.maximum(row, col[band])
    straddle = (a < k * w) & (k * w <= b)
    t = (cy - ys[k - 1]) / (ys[k] - ys[k - 1]) if lo < hi else 0.0
    xa, xb = (spec.origin[0] + (c % w + cs.start) * spec.spacing for c in (a, b))
    cut = straddle & (xa + (xb - xa) * t > cx)
    col[band][cut] += n_base
    col[indptr[n_base]:][band][cut] -= n_base
    return np.unique(b[cut]), np.unique(b[straddle & ~cut])


def _cut_bounds(cover: csr_matrix, cut_sites: np.ndarray,
                uncut_sites: np.ndarray) -> np.ndarray:
    """Lower bounds on D(s), the cover distance from each upper cut site s
    to its twin on the other sheet, from one solve.

    With d_T the distances from the sheet-0 copies of the upper uncut sites
    T, the bound of s is (d_T[s] + d_T[s + n_base]) * (1 - 4 * N * eps),
    N the cover's node count and eps the float64 epsilon; it is inf when s
    cannot reach its twin.  It is at most D(s):

    - A walk from s to its twin projects to a closed walk with an odd
      number of cut crossings.  A closed walk changes side of the line
      y = center_y an even number of times, so it traverses a straddling
      edge that is not cut, and so visits a site t of T, on some sheet.
    - Swapping the two sheets maps the cover onto itself with the same
      weights, and the graph is symmetric, so the two legs s -> t and
      t -> twin are no shorter than the distances from t's sheet-0 copy
      to s's copies, one on each sheet: D(s) >= d_T[s] + d_T[s + n_base]
      in exact sums.
    - Each label is a left-fold float sum of fewer than N positive
      weights, within a relative N * eps / 2 (to first order) of its exact
      sum; the sum of the two labels and the product add two roundings of
      eps / 2 each.  So d_T[s] + d_T[s + n_base] exceeds the float D(s) by
      a relative N * eps + eps at most, and the factor 1 - 4 * N * eps
      takes back more than that.
    """
    n_base = cover.shape[0] // 2
    _, dijkstra = _sparse()
    d_t = dijkstra(cover, directed=True, indices=uncut_sites, min_only=True)
    return (d_t[cut_sites] + d_t[cut_sites + n_base]) * (1.0 - 4.0 * cover.shape[0] * _EPS)


def dist_around_annulus(grid: WeightedGrid, ann: Annulus,
                        want_path: bool = False) -> DistResult:
    """Shortest cycle in the annulus separating its two boundary circles.

    The annulus graph is lifted to a two-sheet cover where crossing the
    rightward horizontal ray from the center switches sheets; the shortest
    separating cycle is the minimum over upper cut sites s of D(s), the
    distance from s to its twin on the other sheet.  One solve gives each
    s a lower bound on D(s) (`_cut_bounds`).  The sites are solved in
    ascending bound order (a stable sort, so equal bounds keep site order),
    each with Dijkstra's limit at the best D so far; the search stops at
    the first bound above the best, or at an inf bound, whose site cannot
    reach its twin.  A site whose bound is above the best cannot have a
    D at or below it, so the minimum is exact, and the minimizer is the
    smallest-index site with D(s) equal to it: the same value and site as
    solving every cut site in index order.  The returned cycle stays
    inside the annulus and has odd crossing number with the ray (winding
    once for the minimizer); it is walked back on the cover from the twin
    of the minimizing site, with the module's tie rule.  `settled` counts
    the base sites with a label at most the cycle's length, on either
    sheet, in the minimizer's solve.  The crop's graph is filled once,
    straight onto two sheets, and cut in place along the one row pair that
    straddles the ray's line, so the peak memory is the cover's two sheets
    of entries while the skeleton they came from is alive: about 255 bytes
    per annulus site on a lattice-wide annulus at n = 512 (245 at 1024).
    """
    spec = grid.spec
    if ann.width < 3.0 * spec.spacing:
        raise DegenerateAnnulus(
            f"annulus width {ann.width} is below 3*spacing = {3.0 * spec.spacing}")
    crop, active = _region_crop(spec, ann, (slice(0, spec.n), slice(0, spec.n)))
    if not active.size:
        raise EmptyRegion("annulus contains no lattice sites")
    if not all(g.start <= b.start and b.stop <= g.stop for b, g in zip(crop, grid.box)):
        raise OutOfRegion("annulus leaves the grid's active region")
    cover = _mask_graph(grid, crop, active, sheets=2)
    n_base = cover.shape[0] // 2
    cut_sites, uncut_sites = _annulus_cover(spec, crop, cover, ann.center)
    if cut_sites.size == 0:
        raise DegenerateAnnulus("cut ray does not cross the annulus graph")

    bounds = _cut_bounds(cover, cut_sites, uncut_sites)
    _, dijkstra = _sparse()
    best, best_site, best_dist = math.inf, -1, None
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] > best or bounds[k] == math.inf:
            break
        s = int(cut_sites[k])
        dist = dijkstra(cover, directed=True, indices=s, limit=best)
        d = float(dist[s + n_base])
        if d < best or (d == best and s < best_site):
            best, best_site, best_dist = d, s, dist
    if not math.isfinite(best):
        return DistResult(value=math.inf, unreachable=True, path=None, settled=0)
    settled = int(((best_dist[:n_base] <= best) | (best_dist[n_base:] <= best)).sum())

    path = None
    if want_path:
        sites = _walk_back(cover, best_dist, best_site + n_base, {best_site}, crop)
        path = Path(sites=tuple(sites), length=best)
    return DistResult(value=best, unreachable=False, path=path, settled=settled)
