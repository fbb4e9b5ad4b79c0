"""Shortest-path metrics on exponentially weighted lattice grids.

A smoothed field is turned into per-site costs exp(xi * value); edges of the
8-neighbor grid are weighted by spacing * hypot(du, dv) times the mean of the
endpoint costs (trapezoid rule along the segment).  Distances are infima of
edge-weight sums over lattice paths, computed with Dijkstra's algorithm.

Point distances are solved from the lexicographically smaller endpoint, so
dist(z, w) and dist(w, z) are the same float bit for bit.  Geodesics are
deterministic too: ties break by walking back from the target through the
lexicographically smallest predecessor index that attains the settled
distance.  `dist_around_annulus` finds the shortest cycle separating the two
boundary circles of an annulus by lifting the annulus graph to a two-sheet
cover in which crossing the rightward horizontal ray from the center switches
sheets; the answer is the minimum over cut-adjacent sites of the distance
between the site's two copies, which equals the minimum over separating
cycles of their one-direction running weight sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import (
    DegenerateAnnulus,
    EmptyRegion,
    InvalidArgument,
    OutOfRegion,
)
from .gff import LatticeSpec, MollifiedField

# Neighbor offsets in lexicographic (di, dj) order; predecessor ties are
# resolved by scanning in exactly this order.
_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

# Undirected edge directions (each edge built once, then mirrored).
_EDGE_DIRS: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 0), (1, 1), (1, -1))

_RECT_TOL = 1e-9   # relative to spacing; admits exactly aligned rect edges

_NO_PRED = -9999   # scipy csgraph predecessor sentinel


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    """Closed disk in plane coordinates."""

    center: Tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidArgument(f"disk radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class Annulus:
    """Open annulus r_inner < |x - center| < r_outer."""

    center: Tuple[float, float]
    r_inner: float
    r_outer: float

    def __post_init__(self) -> None:
        ok = (math.isfinite(self.r_inner) and math.isfinite(self.r_outer)
              and 0 < self.r_inner < self.r_outer)
        if not ok:
            raise InvalidArgument(
                f"annulus radii must satisfy 0 < r_inner < r_outer, "
                f"got ({self.r_inner}, {self.r_outer})")

    @property
    def width(self) -> float:
        return self.r_outer - self.r_inner


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned box [lo_x, hi_x] x [lo_y, hi_y]."""

    lo: Tuple[float, float]
    hi: Tuple[float, float]

    def __post_init__(self) -> None:
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


def region_mask(spec: LatticeSpec, region: Region) -> np.ndarray:
    """Boolean (n, n) array of sites belonging to the region.

    Disks are closed, annuli are open on both radii, rects are closed boxes
    with a relative 1e-9 tolerance so aligned edges are always included.
    """
    xs, ys = spec.axis_coords()
    gx = np.broadcast_to(xs[None, :], (spec.n, spec.n))
    gy = np.broadcast_to(ys[:, None], (spec.n, spec.n))
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
        return region.mask.copy()
    raise InvalidArgument(f"unknown region type: {type(region).__name__}")


# ---------------------------------------------------------------------------
# grid and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeightedGrid:
    """8-neighbor grid with per-site costs exp(xi * smoothed field value)."""

    spec: LatticeSpec
    xi: float
    site_cost: np.ndarray   # (n, n) float64, strictly positive inside mask
    mask: np.ndarray        # (n, n) bool, active sites

    def __post_init__(self) -> None:
        if self.site_cost.shape != (self.spec.n, self.spec.n):
            raise InvalidArgument("site_cost shape does not match the lattice")
        if self.mask.shape != (self.spec.n, self.spec.n):
            raise InvalidArgument("mask shape does not match the lattice")


@dataclass(frozen=True)
class Path:
    """Site sequence of a geodesic, with its weighted length."""

    sites: Tuple[Tuple[int, int], ...]   # grid indices (i, j)
    length: float

    @property
    def closed(self) -> bool:
        return len(self.sites) > 1 and self.sites[0] == self.sites[-1]

    def points(self, spec: LatticeSpec) -> List[Tuple[float, float]]:
        return [spec.point_of(i, j) for (i, j) in self.sites]


@dataclass(frozen=True)
class DistResult:
    """Distance value with optional geodesic.

    `unreachable` is the authoritative disconnection flag; `value` is set to
    math.inf in that case for arithmetic convenience.
    """

    value: float
    unreachable: bool
    path: Optional[Path]
    settled: int                 # sites with a finite computed distance


def build_weighted_grid(moll: MollifiedField, xi: float,
                        region: Optional[Region] = None) -> WeightedGrid:
    """Exponentiate the smoothed field and restrict to a region mask.

    `region=None` keeps the whole lattice active.
    """
    if not (isinstance(xi, (int, float)) and math.isfinite(xi) and xi > 0):
        raise InvalidArgument(f"xi must be a positive finite real, got {xi}")
    spec = moll.spec
    if region is None:
        mask = np.ones((spec.n, spec.n), dtype=bool)
    else:
        mask = region_mask(spec, region)
    if not mask.any():
        raise EmptyRegion("region contains no lattice sites")
    site_cost = np.exp(float(xi) * moll.values)
    good = np.isfinite(site_cost) & (site_cost > 0.0)
    if not good[mask].all():
        raise InvalidArgument(
            "site cost exp(xi * value) overflowed or vanished inside the region")
    return WeightedGrid(spec=spec, xi=float(xi), site_cost=site_cost, mask=mask)


def edge_weight(grid: WeightedGrid, u: Tuple[int, int], v: Tuple[int, int]) -> float:
    """Weight of the grid edge between 8-neighbor sites u and v."""
    di, dj = v[0] - u[0], v[1] - u[1]
    if (di, dj) not in _OFFSETS:
        raise InvalidArgument(f"{u} and {v} are not 8-neighbors")
    pref = 0.5 * grid.spec.spacing * math.hypot(di, dj)
    return (grid.site_cost[u] + grid.site_cost[v]) * pref


# ---------------------------------------------------------------------------
# solver core
# ---------------------------------------------------------------------------

def _crop_box(mask: np.ndarray) -> Tuple[slice, slice]:
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return (slice(int(rows[0]), int(rows[-1]) + 1),
            slice(int(cols[0]), int(cols[-1]) + 1))


def _edge_arrays(cost: np.ndarray, mask: np.ndarray, spacing: float):
    """Directed (head, tail, weight) arrays over in-mask 8-neighbor pairs."""
    h, w = mask.shape
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    heads, tails, weights = [], [], []
    for di, dj in _EDGE_DIRS:
        r0, r1 = max(0, -di), h - max(0, di)
        c0, c1 = max(0, -dj), w - max(0, dj)
        a_sl = (slice(r0, r1), slice(c0, c1))
        b_sl = (slice(r0 + di, r1 + di), slice(c0 + dj, c1 + dj))
        keep = mask[a_sl] & mask[b_sl]
        if not keep.any():
            continue
        a = idx[a_sl][keep]
        b = idx[b_sl][keep]
        pref = 0.5 * spacing * math.hypot(di, dj)
        wgt = (cost[a_sl][keep] + cost[b_sl][keep]) * pref
        heads.extend((a, b))
        tails.extend((b, a))
        weights.extend((wgt, wgt))
    if not heads:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0, dtype=np.float64)
    return np.concatenate(heads), np.concatenate(tails), np.concatenate(weights)


def _solve(grid: WeightedGrid, sources: np.ndarray,
           sub_mask: Optional[np.ndarray] = None):
    """Multi-source Dijkstra over the (cropped) active mask.

    Returns (dist over crop, crop slices, cropped mask, cropped cost) so
    callers can read off targets and reconstruct geodesics.
    """
    mask = grid.mask if sub_mask is None else (grid.mask & sub_mask)
    if not mask.any():
        raise EmptyRegion("active region is empty")
    rs, cs = _crop_box(mask)
    m = mask[rs, cs]
    cost = grid.site_cost[rs, cs]
    h, w = m.shape
    heads, tails, weights = _edge_arrays(cost, m, grid.spec.spacing)
    graph = csr_matrix((weights, (heads, tails)), shape=(h * w, h * w))
    src_flat = (sources[:, 0] - rs.start) * w + (sources[:, 1] - cs.start)
    dist = _csgraph_dijkstra(graph, directed=True, indices=src_flat, min_only=True)
    return dist, (rs, cs), m, cost


def _sites_of_mask(mask: np.ndarray) -> np.ndarray:
    # Row-major argwhere = lexicographic (i, j) order.
    return np.argwhere(mask)


def _check_in(grid: WeightedGrid, site: Tuple[int, int],
              sub_mask: Optional[np.ndarray], what: str) -> None:
    ok = bool(grid.mask[site]) and (sub_mask is None or bool(sub_mask[site]))
    if not ok:
        raise OutOfRegion(f"{what} site {tuple(site)} is outside the active region")


def _walk_back(dist: np.ndarray, m: np.ndarray, cost: np.ndarray,
               spacing: float, target: Tuple[int, int],
               source_set: frozenset) -> List[Tuple[int, int]]:
    """Deterministic geodesic: lexicographically smallest optimal predecessor.

    Predecessor equality is checked with the exact float relaxation
    dist[u] + weight == dist[v]; edge weights here are bitwise the same
    expression as in the CSR builder, so the walk always finds the trail.
    """
    h, w = m.shape
    prefs = {off: 0.5 * spacing * math.hypot(*off) for off in _OFFSETS}
    rev: List[Tuple[int, int]] = [target]
    cur = target
    seen = {target}
    while cur not in source_set:
        ci, cj = cur
        dcur = dist[ci * w + cj]
        nxt = None
        for di, dj in _OFFSETS:
            ui, uj = ci + di, cj + dj
            if not (0 <= ui < h and 0 <= uj < w) or not m[ui, uj]:
                continue
            wgt = (cost[ui, uj] + cost[ci, cj]) * prefs[(di, dj)]
            if dist[ui * w + uj] + wgt == dcur:
                nxt = (ui, uj)
                break
        if nxt is None or nxt in seen:
            raise RuntimeError("geodesic reconstruction lost the trail")
        seen.add(nxt)
        rev.append(nxt)
        cur = nxt
    rev.reverse()
    return rev


def _result(dist: np.ndarray, crop, m: np.ndarray, cost: np.ndarray,
            spacing: float, targets: np.ndarray, sources: np.ndarray,
            want_path: bool, reverse_path: bool = False) -> DistResult:
    rs, cs = crop
    w = m.shape[1]
    t_flat = (targets[:, 0] - rs.start) * w + (targets[:, 1] - cs.start)
    t_dist = dist[t_flat]
    settled = int(np.isfinite(dist).sum())
    best = int(np.argmin(t_dist))  # first minimum = lexicographically smallest
    value = float(t_dist[best])
    if not math.isfinite(value):
        return DistResult(value=math.inf, unreachable=True, path=None, settled=settled)
    path = None
    if want_path:
        target = (int(targets[best, 0] - rs.start), int(targets[best, 1] - cs.start))
        src_local = frozenset((int(a - rs.start), int(b - cs.start))
                              for a, b in sources)
        sites_local = _walk_back(dist, m, cost, spacing, target, src_local)
        if reverse_path:
            sites_local.reverse()
        sites = tuple((i + rs.start, j + cs.start) for i, j in sites_local)
        path = Path(sites=sites, length=value)
    return DistResult(value=value, unreachable=False, path=path, settled=settled)


def _trivial_zero(site: Tuple[int, int], want_path: bool) -> DistResult:
    path = Path(sites=(site,), length=0.0) if want_path else None
    return DistResult(value=0.0, unreachable=False, path=path, settled=1)


# ---------------------------------------------------------------------------
# public distance operations
# ---------------------------------------------------------------------------

def dist_point(grid: WeightedGrid, z: Tuple[float, float], w: Tuple[float, float],
               want_path: bool = False) -> DistResult:
    """Distance between the sites nearest to the plane points z and w.

    Solved from the lexicographically smaller site, so the value is bitwise
    symmetric in (z, w).
    """
    return _point_dist(grid, z, w, None, want_path)


def dist_internal(grid: WeightedGrid, z: Tuple[float, float],
                  w: Tuple[float, float], sub: Region,
                  want_path: bool = False) -> DistResult:
    """Distance along paths constrained to stay inside the region `sub`."""
    sub_mask = region_mask(grid.spec, sub)
    return _point_dist(grid, z, w, sub_mask, want_path)


def _point_dist(grid: WeightedGrid, z, w, sub_mask, want_path: bool) -> DistResult:
    sz = grid.spec.index_of(z)
    sw = grid.spec.index_of(w)
    _check_in(grid, sz, sub_mask, "source")
    _check_in(grid, sw, sub_mask, "target")
    if sz == sw:
        return _trivial_zero(sz, want_path)
    swapped = sw < sz
    lo, hi = (sw, sz) if swapped else (sz, sw)
    sources = np.array([lo], dtype=np.int64)
    targets = np.array([hi], dtype=np.int64)
    dist, crop, m, cost = _solve(grid, sources, sub_mask=sub_mask)
    return _result(dist, crop, m, cost, grid.spec.spacing, targets, sources,
                   want_path, reverse_path=swapped)


def dist_sets(grid: WeightedGrid, region_a: Region, region_b: Region,
              want_path: bool = False) -> DistResult:
    """Distance between two site sets (0 when they intersect).

    Equals the minimum of dist_point over endpoint pairs; solved from the
    set holding the smaller lexicographic site so the value is symmetric.
    """
    mask_a = region_mask(grid.spec, region_a) & grid.mask
    mask_b = region_mask(grid.spec, region_b) & grid.mask
    if not mask_a.any() or not mask_b.any():
        raise EmptyRegion("a distance endpoint set is empty")
    common = mask_a & mask_b
    if common.any():
        site = tuple(int(v) for v in _sites_of_mask(common)[0])
        return _trivial_zero(site, want_path)
    sites_a = _sites_of_mask(mask_a)
    sites_b = _sites_of_mask(mask_b)
    swapped = tuple(sites_b[0]) < tuple(sites_a[0])
    sources, targets = (sites_b, sites_a) if swapped else (sites_a, sites_b)
    dist, crop, m, cost = _solve(grid, sources)
    return _result(dist, crop, m, cost, grid.spec.spacing, targets, sources,
                   want_path, reverse_path=swapped)


def lr_crossing(grid: WeightedGrid, square: Rect,
                want_path: bool = False) -> DistResult:
    """Shortest left-to-right crossing of a square, inside the square.

    Sources are the active sites of the leftmost occupied lattice column of
    the square, targets the rightmost; paths stay inside the square.
    """
    sub = region_mask(grid.spec, square) & grid.mask
    if not sub.any():
        raise EmptyRegion("crossing square contains no active sites")
    cols = np.flatnonzero(sub.any(axis=0))
    jl, jr = int(cols[0]), int(cols[-1])
    if jl == jr:
        raise InvalidArgument("crossing square spans a single lattice column")
    left = np.zeros_like(sub)
    left[:, jl] = sub[:, jl]
    right = np.zeros_like(sub)
    right[:, jr] = sub[:, jr]
    sources = _sites_of_mask(left)
    targets = _sites_of_mask(right)
    dist, crop, m, cost = _solve(grid, sources, sub_mask=sub)
    return _result(dist, crop, m, cost, grid.spec.spacing, targets, sources, want_path)


# ---------------------------------------------------------------------------
# separating cycles
# ---------------------------------------------------------------------------

def _annulus_cover(spec: LatticeSpec, m: np.ndarray, crop, cost: np.ndarray,
                   center: Tuple[float, float]):
    """Two-sheet cover of the annulus graph, cut along the rightward ray.

    Returns (csr cover graph on 2*h*w nodes, sorted upper cut site array).
    An edge is a cut edge when its endpoints straddle the horizontal line
    y = center_y (one at or above, one strictly below) and its segment meets
    that line strictly right of the center; traversing a cut edge switches
    sheets.  The flags are exactly the crossings of a fixed arc from the
    inner hole to the outside, so a cycle's flag parity equals its winding
    parity around the center.
    """
    rs, cs = crop
    h, w = m.shape
    delta = spec.spacing
    cx, cy = center
    ys = spec.origin[1] + np.arange(rs.start, rs.stop, dtype=np.float64) * delta
    xs = spec.origin[0] + np.arange(cs.start, cs.stop, dtype=np.float64) * delta
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    n_base = h * w
    heads, tails, weights = [], [], []
    upper: List[np.ndarray] = []
    for di, dj in _EDGE_DIRS:
        r0, r1 = max(0, -di), h - max(0, di)
        c0, c1 = max(0, -dj), w - max(0, dj)
        a_sl = (slice(r0, r1), slice(c0, c1))
        b_sl = (slice(r0 + di, r1 + di), slice(c0 + dj, c1 + dj))
        keep = m[a_sl] & m[b_sl]
        if not keep.any():
            continue
        a = idx[a_sl][keep]
        b = idx[b_sl][keep]
        pref = 0.5 * delta * math.hypot(di, dj)
        wgt = (cost[a_sl][keep] + cost[b_sl][keep]) * pref
        ya = np.broadcast_to(ys[r0:r1, None], keep.shape)[keep]
        yb = np.broadcast_to(ys[r0 + di:r1 + di, None], keep.shape)[keep]
        xa = np.broadcast_to(xs[None, c0:c1], keep.shape)[keep]
        xb = np.broadcast_to(xs[None, c0 + dj:c1 + dj], keep.shape)[keep]
        straddle = ((ya >= cy) & (yb < cy)) | ((yb >= cy) & (ya < cy))
        t = np.divide(cy - ya, yb - ya, out=np.zeros_like(ya), where=straddle)
        x_cross = xa + (xb - xa) * t
        cut = straddle & (x_cross > cx)
        sheet = cut.astype(np.int64) * n_base
        for u, v in ((a, b), (b, a)):
            # sheet 0 copy: cut edges land on sheet 1; sheet 1 mirrors back.
            heads.extend((u, u + n_base))
            tails.extend((v + sheet, v + n_base - sheet))
            weights.extend((wgt, wgt))
        if cut.any():
            for side, yside in ((a, ya), (b, yb)):
                pick = cut & (yside >= cy)
                if pick.any():
                    upper.append(side[pick])
    if not heads:
        return None, np.zeros(0, dtype=np.int64)
    graph = csr_matrix(
        (np.concatenate(weights), (np.concatenate(heads), np.concatenate(tails))),
        shape=(2 * n_base, 2 * n_base))
    cut_sites = (np.unique(np.concatenate(upper)) if upper
                 else np.zeros(0, dtype=np.int64))
    return graph, cut_sites


def dist_around_annulus(grid: WeightedGrid, ann: Annulus,
                        want_path: bool = False) -> DistResult:
    """Shortest cycle in the annulus separating its two boundary circles.

    The annulus graph is lifted to a two-sheet cover where crossing the
    rightward horizontal ray from the center switches sheets; the shortest
    separating cycle is the minimum over upper cut sites of the distance
    from the site to its twin on the other sheet.  The returned cycle stays
    inside the annulus and has odd crossing number with the ray (winding
    once for the minimizer).
    """
    spec = grid.spec
    delta = spec.spacing
    if ann.width < 3.0 * delta:
        raise DegenerateAnnulus(
            f"annulus width {ann.width} is below 3*spacing = {3.0 * delta}")
    region = region_mask(spec, ann)
    if not region.any():
        raise EmptyRegion("annulus contains no lattice sites")
    if (region & ~grid.mask).any():
        raise OutOfRegion("annulus leaves the grid's active region")
    rs, cs = _crop_box(region)
    m = region[rs, cs]
    cost = grid.site_cost[rs, cs]
    h, w = m.shape
    n_base = h * w

    cover, cut_sites = _annulus_cover(spec, m, (rs, cs), cost, ann.center)
    if cover is None or cut_sites.size == 0:
        raise DegenerateAnnulus("cut ray does not cross the annulus graph")

    best = math.inf
    best_site = -1
    settled = 0
    for s in cut_sites:
        s = int(s)
        limit = best if math.isfinite(best) else np.inf
        dist = _csgraph_dijkstra(cover, directed=True, indices=s, limit=limit)
        d = float(dist[s + n_base])
        if d < best:
            best = d
            best_site = s
            settled = int((np.isfinite(dist[:n_base])
                           | np.isfinite(dist[n_base:])).sum())
    if not math.isfinite(best):
        return DistResult(value=math.inf, unreachable=True, path=None, settled=settled)

    path = None
    if want_path:
        _, pred = _csgraph_dijkstra(cover, directed=True, indices=best_site,
                                    limit=best, return_predecessors=True)
        chain = [best_site + n_base]
        while chain[-1] != best_site:
            prev = int(pred[chain[-1]])
            if prev == _NO_PRED:
                raise RuntimeError("cycle reconstruction lost the trail")
            chain.append(prev)
        chain.reverse()
        sites = tuple(((c % n_base) // w + rs.start, (c % n_base) % w + cs.start)
                      for c in chain)
        path = Path(sites=sites, length=best)
    return DistResult(value=best, unreachable=False, path=path, settled=settled)
