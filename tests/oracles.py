"""Independent reference implementations used by the test suite.

Everything here is deliberately written against plain Python/numpy rather
than the package's solvers: shortest paths come from a sorted-edge
relaxation fixpoint (so the floating-point sums associate exactly like a
label-setting solver's left-to-right accumulation), separating cycles come
from exhaustive DFS enumeration with cost pruning, and geodesics from a walk
back over an adjacency list under the smallest-index tie rule, stepping back
from dead ends.  Localized smoothing is checked against scipy's own
wrap-mode correlation, the torus sampler and plain smoothing against one
real-input spectral expression each (and, to rounding, against the complex
full-plane transforms they replaced), ladder estimates against rung-by-rung
estimates that sample every trial's field afresh, the blocked bootstrap
against one draw of its whole index, lattice graphs and the annulus cover
against the COO edge-list builders that CSR skeletons replaced, and the
fixed-field experiments' rows and stats against one scalar solve per pair,
reduced in Python floats as the pairs go by.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

OFFSETS8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def grid_edges(cost: np.ndarray, mask: np.ndarray, spacing: float):
    """Undirected edge list [(u, v, w)] over 8-neighbor masked sites.

    Sites are flat indices i*n_cols + j; the weight expression mirrors the
    trapezoid rule term for term so sums can match the library bitwise.
    """
    n_rows, n_cols = cost.shape
    edges = []
    for i in range(n_rows):
        for j in range(n_cols):
            if not mask[i, j]:
                continue
            for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
                a, b = i + di, j + dj
                if 0 <= a < n_rows and 0 <= b < n_cols and mask[a, b]:
                    pref = 0.5 * spacing * math.hypot(di, dj)
                    w = (cost[i, j] + cost[a, b]) * pref
                    edges.append((i * n_cols + j, a * n_cols + b, w))
    return edges


def relax_single_source(n_sites: int, edges, sources: Sequence[int]) -> np.ndarray:
    """Shortest distances by repeated relaxation over a sorted edge list.

    Iterating dist[v] = min(dist[v], dist[u] + w) to a fixpoint yields, at
    every site, the minimum over paths of the left-associated float sum of
    edge weights, which is exactly what a Dijkstra solve produces.
    """
    order = sorted(edges)
    dist = np.full(n_sites, math.inf)
    for s in sources:
        dist[s] = 0.0
    changed = True
    while changed:
        changed = False
        for u, v, w in order:
            du, dv = dist[u], dist[v]
            if du + w < dv:
                dist[v] = du + w
                changed = True
            elif dv + w < du:
                dist[u] = dv + w
                changed = True
    return dist


def full_point_solve(cost: np.ndarray, mask: np.ndarray, spacing: float,
                     source: Tuple[int, int], target: Tuple[int, int]):
    """(distances from `source` over all flat sites, site chain or None).

    An unbounded scipy Dijkstra on a CSR graph built here from `grid_edges`,
    then `walk_back` from `target`; the chain is None when the target is
    unreachable.  The reference for the library's point solves.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    n_rows, n_cols = cost.shape
    n_sites = n_rows * n_cols
    edges = grid_edges(cost, mask, spacing)
    e = np.array(edges, dtype=np.float64).reshape(-1, 3)
    a, b = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
    graph = coo_matrix((np.concatenate((e[:, 2], e[:, 2])),
                        (np.concatenate((a, b)), np.concatenate((b, a)))),
                       shape=(n_sites, n_sites)).tocsr()
    s = source[0] * n_cols + source[1]
    t = target[0] * n_cols + target[1]
    dist = dijkstra(graph, directed=True, indices=s)
    if not math.isfinite(dist[t]):
        return dist, None
    return dist, [divmod(c, n_cols) for c in walk_back(edges, dist, t, {s})]


def edge_arrays_reference(cost: np.ndarray, mask: np.ndarray, spacing: float):
    """Undirected in-mask 8-neighbor edges (a, b, weight), each once with
    a < b, listed direction by direction; endpoints are flat indices
    i * w + j into the (h, w) crop."""
    h, w = mask.shape
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    heads, tails, weights = [], [], []
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
        r0, r1 = max(0, -di), h - max(0, di)
        c0, c1 = max(0, -dj), w - max(0, dj)
        a_sl = (slice(r0, r1), slice(c0, c1))
        b_sl = (slice(r0 + di, r1 + di), slice(c0 + dj, c1 + dj))
        keep = mask[a_sl] & mask[b_sl]
        pref = 0.5 * spacing * math.hypot(di, dj)
        heads.append(idx[a_sl][keep])
        tails.append(idx[b_sl][keep])
        weights.append((cost[a_sl][keep] + cost[b_sl][keep]) * pref)
    return np.concatenate(heads), np.concatenate(tails), np.concatenate(weights)


def _coo_graph_reference(a, b, weight, n_nodes: int):
    """CSR graph holding each undirected edge (a, b) in both directions:
    a COO-to-CSR conversion plus its transpose."""
    from scipy.sparse import csr_matrix

    one_way = csr_matrix((weight, (a, b)), shape=(n_nodes, n_nodes))
    return one_way + one_way.T


def reference_crop(grid, mask: np.ndarray):
    """(crop slices, cropped mask, crop costs) of an (n, n) mask inside the
    grid's box."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    rs = slice(int(rows[0]), int(rows[-1]) + 1)
    cs = slice(int(cols[0]), int(cols[-1]) + 1)
    i, j = grid.offset
    cost = grid.site_cost[rs.start - i:rs.stop - i, cs.start - j:cs.stop - j]
    return (rs, cs), mask[rs, cs], cost


def region_box_reference(spec, region, within=None):
    """Smallest (rows, columns) box of the region's sites inside the box
    `within` (the whole lattice when None), cropped from its whole-lattice
    (n, n) mask; None when there is no such site."""
    from lfpp.metric import region_mask
    mask = region_mask(spec, region)
    if within is not None:
        inside = np.zeros_like(mask)
        inside[within] = True
        mask &= inside
    if not mask.any():
        return None
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return (slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1))


def mask_graph_reference(grid, mask: np.ndarray):
    """(crop slices, CSR graph) of the sites of an (n, n) mask inside the
    grid's box, built as the library did before CSR skeletons: edge arrays
    per direction, COO to CSR, plus the transpose."""
    crop, m, cost = reference_crop(grid, mask)
    edges = edge_arrays_reference(cost, m, grid.spec.spacing)
    return crop, _coo_graph_reference(*edges, m.size)


def annulus_cover_reference(spec, crop, m: np.ndarray, edges, center):
    """(canonical CSR cover, sorted upper cut sites, sorted upper uncut
    sites) of the two-sheet cover built from undirected edge arrays
    (a, b, weight) with a < b: a cut edge moves its b end to the other
    sheet; the uncut sites are the upper ends of straddling edges that are
    not cut."""
    rs, cs = crop
    w = m.shape[1]
    n_base = m.size
    a, b, wgt = edges
    cx, cy = center
    ya, yb = (spec.origin[1] + (c // w + rs.start) * spec.spacing for c in (a, b))
    xa, xb = (spec.origin[0] + (c % w + cs.start) * spec.spacing for c in (a, b))
    straddle = ((ya >= cy) & (yb < cy)) | ((yb >= cy) & (ya < cy))
    t = np.divide(cy - ya, yb - ya, out=np.zeros_like(ya), where=straddle)
    cut = straddle & (xa + (xb - xa) * t > cx)
    sheet = cut.astype(np.int64) * n_base
    cover = _coo_graph_reference(np.concatenate((a, a + n_base)),
                                 np.concatenate((b + sheet, b + n_base - sheet)),
                                 np.concatenate((wgt, wgt)), 2 * n_base)
    uncut = straddle & ~cut
    upper = [np.unique(np.concatenate((a[f & (ya >= cy)], b[f & (yb >= cy)])))
             for f in (cut, uncut)]
    return cover, upper[0], upper[1]


def reference_cover(grid, ann):
    """(crop, cropped mask, reference cover, upper cut sites) of an annulus
    that holds sites and lies in the grid's box."""
    from lfpp.metric import region_mask

    crop, m, cost = reference_crop(grid, region_mask(grid.spec, ann))
    edges = edge_arrays_reference(cost, m, grid.spec.spacing)
    cover, cut_sites, _ = annulus_cover_reference(grid.spec, crop, m, edges, ann.center)
    return crop, m, cover, cut_sites


def twin_distances_reference(cover, cut_sites) -> List[Tuple[float, np.ndarray]]:
    """[(D(s), labels)] for each upper cut site s: an unlimited scipy
    Dijkstra from s on the cover, and its label at s's twin."""
    from scipy.sparse.csgraph import dijkstra

    n_base = cover.shape[0] // 2
    out = []
    for s in cut_sites.tolist():
        dist = dijkstra(cover, directed=True, indices=s)
        out.append((float(dist[s + n_base]), dist))
    return out


def around_reference(grid, ann):
    """(value, cycle sites, settled) of the shortest separating cycle on the
    reference cover: an unlimited scipy Dijkstra from every upper cut site
    to its twin in site order, the first minimizer kept, and the cycle
    walked back from its twin under the tie rule; settled counts the base
    sites labelled at most the value on either sheet in the minimizer's
    solve.  The annulus must hold sites and lie in the grid's box."""
    crop, m, cover, cut_sites = reference_cover(grid, ann)
    n_base = m.size
    best, best_site, best_dist = math.inf, -1, None
    for s, (d, dist) in zip(cut_sites.tolist(), twin_distances_reference(cover, cut_sites)):
        if d < best:
            best, best_site, best_dist = d, s, dist
    if not math.isfinite(best):
        return math.inf, None, 0
    settled = int(((best_dist[:n_base] <= best) | (best_dist[n_base:] <= best)).sum())
    coo = cover.tocoo()
    upper = coo.row < coo.col
    cover_edges = list(zip(coo.row[upper].tolist(), coo.col[upper].tolist(),
                           coo.data[upper].tolist()))
    chain = walk_back(cover_edges, best_dist, best_site + n_base, {best_site})
    w = m.shape[1]
    sites = [(i + crop[0].start, j + crop[1].start)
             for i, j in (divmod(c % n_base, w) for c in chain)]
    return best, sites, settled


def crossing_parity_edge(pa: Tuple[float, float], pb: Tuple[float, float],
                         center: Tuple[float, float]) -> bool:
    """True when segment pa->pb crosses the rightward horizontal ray from center.

    The straddle convention treats y == cy as the upper side, and the ray is
    open at the center: only intersections with x strictly greater than cx
    count.
    """
    (xa, ya), (xb, yb) = pa, pb
    cx, cy = center
    straddle = (ya >= cy > yb) or (yb >= cy > ya)
    if not straddle:
        return False
    t = (cy - ya) / (yb - ya)
    return xa + (xb - xa) * t > cx


def _cycle_graph(cost: np.ndarray, mask: np.ndarray, spacing: float,
                 origin: Tuple[float, float], center: Tuple[float, float]):
    """Adjacency with cut-crossing flags, plus the upper cut site set.

    Each neighbor entry is (weight, site, flips); `flips` is True when the
    edge crosses the rightward horizontal ray from the center, which toggles
    the separation parity of a walk.
    """
    n_rows, n_cols = cost.shape

    def point(i, j):
        return (origin[0] + j * spacing, origin[1] + i * spacing)

    adj: Dict[int, List[Tuple[float, int, bool]]] = {}
    cut_upper = set()
    cy = center[1]
    for i in range(n_rows):
        for j in range(n_cols):
            if not mask[i, j]:
                continue
            u = i * n_cols + j
            lst = []
            for di, dj in OFFSETS8:
                a, b = i + di, j + dj
                if 0 <= a < n_rows and 0 <= b < n_cols and mask[a, b]:
                    v = a * n_cols + b
                    pref = 0.5 * spacing * math.hypot(di, dj)
                    w = (cost[i, j] + cost[a, b]) * pref
                    flips = crossing_parity_edge(point(i, j), point(a, b), center)
                    lst.append((w, v, flips))
                    if flips:
                        if point(i, j)[1] >= cy:
                            cut_upper.add(u)
                        if point(a, b)[1] >= cy:
                            cut_upper.add(v)
            lst.sort()
            adj[u] = lst
    return adj, cut_upper


def brute_separating_cycle(cost: np.ndarray, mask: np.ndarray, spacing: float,
                           origin: Tuple[float, float],
                           center: Tuple[float, float],
                           cutoff: float = math.inf) -> float:
    """Exhaustive minimum separating cycle via pruned DFS.

    Enumerates simple cycles through every upper cut site (both directions),
    keeping a running left-associated sum and pruning branches at or above
    the best cycle found (seeded with `cutoff`).  A cycle separates iff it
    crosses the rightward ray from the center an odd number of times.  With a
    finite cutoff the return value is the cheapest separating cycle strictly
    below it, or inf when none exists.  Tractable only on small instances.
    """
    n_rows, n_cols = cost.shape
    adj, cut_upper = _cycle_graph(cost, mask, spacing, origin, center)
    best = float(cutoff)
    found = math.inf
    on_path = np.zeros(n_rows * n_cols, dtype=bool)

    def dfs(start: int, u: int, acc: float, parity: int):
        nonlocal best, found
        for w, v, flips in adj[u]:
            total = acc + w
            if total >= best:
                # neighbor lists are weight-sorted, so no later branch helps
                break
            if v == start:
                if parity ^ flips:
                    best = total
                    found = total
                continue
            if not on_path[v]:
                on_path[v] = True
                dfs(start, v, total, parity ^ flips)
                on_path[v] = False

    for s in sorted(cut_upper):
        on_path[:] = False
        on_path[s] = True
        dfs(s, s, 0.0, 0)
    return found


def _cover_edges(cost: np.ndarray, mask: np.ndarray, spacing: float,
                 origin: Tuple[float, float], center: Tuple[float, float]):
    """Undirected edges [(u, v, w)] of the two-sheet parity cover, plus the
    upper cut sites.  Site (i, j) of sheet k is node k*n_base + i*n_cols + j,
    so node order is (sheet, i, j) order; crossing the cut ray switches
    sheets.
    """
    n_rows, n_cols = cost.shape
    n_base = n_rows * n_cols
    adj, cut_upper = _cycle_graph(cost, mask, spacing, origin, center)
    edges = []
    for u, lst in adj.items():
        for w, v, flips in lst:
            if u < v:   # each undirected base edge once
                if flips:
                    edges.append((u, v + n_base, w))
                    edges.append((u + n_base, v, w))
                else:
                    edges.append((u, v, w))
                    edges.append((u + n_base, v + n_base, w))
    return edges, cut_upper


def _cover_best(cost, mask, spacing, origin, center):
    """(minimum, first cut site attaining it, its distances, edges)."""
    n_base = cost.size
    edges, cut_upper = _cover_edges(cost, mask, spacing, origin, center)
    best, best_site, best_dist = math.inf, None, None
    for s in sorted(cut_upper):
        dist = relax_single_source(2 * n_base, edges, [s])
        if dist[s + n_base] < best:
            best, best_site, best_dist = float(dist[s + n_base]), s, dist
    return best, best_site, best_dist, edges


def cover_relax_around(cost: np.ndarray, mask: np.ndarray, spacing: float,
                       origin: Tuple[float, float],
                       center: Tuple[float, float]) -> float:
    """Separating-cycle length via relaxation on the two-sheet parity cover.

    Builds the doubled graph (crossing the cut ray switches sheets) with
    plain dictionaries and runs the sorted-edge relaxation fixpoint from
    every upper cut site's sheet-0 copy to its sheet-1 copy, taking the
    minimum.  Independent of the library's cropped CSR pipeline but
    computes the same minimum over the same left-associated path sums.
    """
    return _cover_best(cost, mask, spacing, origin, center)[0]


def walk_back(edges, dist: np.ndarray, target: int, sources) -> List[int]:
    """Node chain from a source to `target` under the geodesic tie rule.

    From each node v it steps to the smallest-index neighbor u with
    dist[u] + w == dist[v] that it has not visited, scanning a plain
    adjacency list, and steps back from v when there is none.
    """
    nbrs: Dict[int, List[Tuple[int, float]]] = {}
    for u, v, w in edges:
        nbrs.setdefault(u, []).append((v, w))
        nbrs.setdefault(v, []).append((u, w))
    chain = [target]
    visited = {target}
    while chain[-1] not in sources:
        v = chain[-1]
        fresh = [u for u, w in nbrs[v] if dist[u] + w == dist[v] and u not in visited]
        if fresh:
            chain.append(min(fresh))
            visited.add(chain[-1])
        else:
            chain.pop()
    return chain[::-1]


def cover_walk_cycle(cost: np.ndarray, mask: np.ndarray, spacing: float,
                     origin: Tuple[float, float], center: Tuple[float, float]):
    """(length, sites) of the shortest separating cycle under the tie rule.

    The cycle runs from the first minimizing upper cut site to its twin on
    the other sheet, walked back from the twin in (sheet, i, j) order.
    """
    n_cols = cost.shape[1]
    best, site, dist, edges = _cover_best(cost, mask, spacing, origin, center)
    chain = walk_back(edges, dist, site + cost.size, {site})
    return best, [divmod(c % cost.size, n_cols) for c in chain]


def path_cycle_checks(sites, mask: np.ndarray, spacing: float,
                      origin: Tuple[float, float],
                      center: Tuple[float, float]) -> Tuple[bool, bool, int]:
    """(closed simple in-mask 8-neighbor cycle?, odd ray parity?, length).

    Used to validate a returned separating cycle independently.
    """
    def point(i, j):
        return (origin[0] + j * spacing, origin[1] + i * spacing)

    closed = len(sites) > 3 and sites[0] == sites[-1]
    interior = sites[:-1]
    simple = len(set(interior)) == len(interior)
    ok = closed and simple
    parity = 0
    for (i0, j0), (i1, j1) in zip(sites, sites[1:]):
        ok = ok and bool(mask[i0, j0]) and bool(mask[i1, j1])
        ok = ok and (abs(i1 - i0) <= 1 and abs(j1 - j0) <= 1 and (i0, j0) != (i1, j1))
        parity ^= crossing_parity_edge(point(i0, j0), point(i1, j1), center)
    return ok, bool(parity), len(sites) - 1


def torus_variogram(n: int, lag: Tuple[int, int]) -> float:
    """Mode-sum Var(h(x) - h(x + lag)) for the spectral torus field."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    k2 = kx * kx + ky * ky
    k2[0, 0] = np.inf
    def cov(di, dj):
        return float((np.cos(2 * np.pi * (kx * di + ky * dj) / n)
                      / (4 * np.pi ** 2 * k2)).sum())
    return 2.0 * (cov(0, 0) - cov(*lag))


def dirichlet_green(n: int, spacing: float, a: Tuple[int, int],
                    b: Tuple[int, int]) -> float:
    """Eigen-series Green's function of the zero-boundary square sampler."""
    side = (n - 1) * spacing
    p = np.arange(1, n - 1, dtype=np.float64)
    lam = (np.pi / side) ** 2 * (p[:, None] ** 2 + p[None, :] ** 2)
    def phi(site):
        i, j = site
        x, y = j * spacing, i * spacing
        return (2.0 / side) * np.outer(np.sin(p * np.pi * x / side),
                                       np.sin(p * np.pi * y / side))
    return float((phi(a) * phi(b) / lam).sum())


def bump_profile_ref(t: np.ndarray) -> np.ndarray:
    out = np.ones_like(t)
    out[t >= 1.0] = 0.0
    mid = (t > 0.5) & (t < 1.0)
    tm = t[mid]
    def f(s):
        r = np.zeros_like(s)
        pos = s > 0
        r[pos] = np.exp(-1.0 / s[pos])
        return r
    num = f(2.0 - 2.0 * tm)
    out[mid] = num / (num + f(2.0 * tm - 1.0))
    return out


def z_quadrature(eps: float) -> float:
    """Retained kernel mass by 2-D Cartesian Simpson quadrature."""
    from scipy.integrate import simpson
    rho = eps * math.log(1.0 / eps)
    half = rho + 8.0 * eps
    x = np.linspace(-half, half, 4001)
    gx, gy = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(gx, gy)
    kern = np.exp(-(r / eps) ** 2)
    num = simpson(simpson(bump_profile_ref(r / rho) * kern, x=x, axis=1), x=x)
    return float(num / (math.pi * eps * eps))


def _localized_quadrant(spacing: float, eps: float):
    """(m, quadrant of taps (p, q) for 0 <= p, q <= m, stencil sum) of the
    truncated stencil; the full (2m+1)^2 stencil mirrors the quadrant."""
    rho = eps * math.log(1.0 / eps)
    m = int(math.ceil(rho / spacing))
    off = np.arange(m + 1, dtype=np.float64) * spacing
    radius = np.hypot(off[:, None], off[None, :])
    quad = bump_profile_ref(radius / rho) * np.exp(-(radius / eps) ** 2)
    fold = np.abs(np.arange(-m, m + 1))
    return m, quad, quad[np.ix_(fold, fold)].sum()


def localized_reference(field, eps: float, box) -> np.ndarray:
    """Localized smoothing of the sites in `box` ((rows, columns) slices) by
    the quadrant rule over the whole torus, with `np.roll` for the wrap:
    from zero, for p = 0..m, V = x[r-p] + x[r+p] (x[r] at p = 0); for each
    q = 0..m with a tap above DBL_EPSILON, add tap * (V[c-q] + V[c+q]) (V[c]
    at q = 0); then divide by the stencil sum and cut to the box."""
    x = field.values
    m, quad, total = _localized_quadrant(field.spec.spacing, eps)
    acc = np.zeros_like(x)
    for p in range(m + 1):
        v = x if p == 0 else np.roll(x, p, axis=0) + np.roll(x, -p, axis=0)
        for q in range(m + 1):
            if quad[p, q] > np.finfo(np.float64).eps:
                pair = v if q == 0 else np.roll(v, q, axis=1) + np.roll(v, -q, axis=1)
                acc = acc + quad[p, q] * pair
    return (acc / total)[box]


def localized_correlate(field, eps: float, box) -> np.ndarray:
    """The same stencil applied by `scipy.ndimage.correlate(mode="wrap")`
    over the whole lattice, divided by the stencil sum, then cut to the box:
    the localized smoothing in another summation order."""
    from scipy import ndimage
    m, quad, total = _localized_quadrant(field.spec.spacing, eps)
    fold = np.abs(np.arange(-m, m + 1))
    full = ndimage.correlate(field.values, quad[np.ix_(fold, fold)], mode="wrap")
    return full[box] / total


def _remove_mean_ref(values: np.ndarray) -> np.ndarray:
    values = values - values.mean()
    values -= values.mean()
    return values


def _torus_axis_distances(n: int, spacing: float) -> np.ndarray:
    return np.minimum(np.arange(n), n - np.arange(n)) * spacing


def torus_gff_reference(n: int, seed: int) -> np.ndarray:
    """Torus field values as one real-input expression: the seed's white
    noise through np.fft.rfft2, times n/(2*pi*|k|) on the half plane (zero
    mode dropped), back through np.fft.irfft2, then the mean removed in two
    passes."""
    kmag = np.hypot(np.fft.fftfreq(n, d=1.0 / n)[:, None],
                    np.fft.rfftfreq(n, d=1.0 / n)[None, :])
    kmag[0, 0] = np.inf
    noise = np.random.default_rng(seed).standard_normal((n, n))
    return _remove_mean_ref(np.fft.irfft2(
        np.fft.rfft2(noise) * (n / (2.0 * np.pi * kmag)), s=(n, n)))


def torus_gff_full_plane(n: int, seed: int) -> np.ndarray:
    """The torus sampler before real-input transforms: the noise through
    np.fft.fft2, times n/(2*pi*|k|) over the full plane, np.fft.ifft2 and
    the real part.  Equal to `torus_gff_reference` up to rounding."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    kmag = np.hypot(k[:, None], k[None, :])
    kmag[0, 0] = np.inf
    noise = np.random.default_rng(seed).standard_normal((n, n))
    return _remove_mean_ref(np.ascontiguousarray(np.fft.ifft2(
        np.fft.fft2(noise) * (n / (2.0 * np.pi * kmag))).real))


def plain_mollify_reference(values: np.ndarray, spacing: float, eps: float) -> np.ndarray:
    """Plain smoothing of torus values as one real-input expression: with
    the 1-D heat kernel k1 = exp(-d^2/eps^2) at torus distances and
    g = np.fft.rfft(k1 / k1.sum()).real, the field's np.fft.rfft2 times g
    at each row's folded frequency, then times g along the columns, then
    np.fft.irfft2."""
    n = values.shape[0]
    k1 = np.exp(-_torus_axis_distances(n, spacing) ** 2 / eps ** 2)
    g = np.fft.rfft(k1 / k1.sum()).real
    folded = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(np.int64)
    return np.fft.irfft2(np.fft.rfft2(values) * g[folded][:, None] * g[None, :],
                         s=(n, n))


def plain_mollify_full_plane(values: np.ndarray, spacing: float, eps: float) -> np.ndarray:
    """Plain smoothing before real-input transforms: the 2-D heat kernel
    exp(-r^2/eps^2) at torus offsets, normalized to unit sum, applied by
    np.fft.ifft2(np.fft.fft2(values) * np.fft.fft2(kernel)).real.  Equal to
    `plain_mollify_reference` up to rounding."""
    d = _torus_axis_distances(values.shape[0], spacing)
    kernel = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / eps ** 2)
    kernel /= kernel.sum()
    return np.fft.ifft2(np.fft.fft2(values) * np.fft.fft2(kernel)).real


def per_rung_estimate(eps: float, xi: float, mc) -> Tuple[float, float, float]:
    """(median, ci_lo, ci_hi) of one rung's crossing distances, in one
    process: every trial samples its own field at this rung alone, smooths
    it with `plain_mollify_reference` (or the localized smoother on the
    crossing square's box), and crosses the square; then the median and
    the 1000-resample bootstrap on spawn key 0xB007 of the master seed."""
    from lfpp import (MollifiedField, build_weighted_grid, crossing_square,
                      lr_crossing, mollify_localized, region_box, sample_torus_gff,
                      trial_seed)
    lat = mc.lattice
    square = crossing_square(lat)
    values = []
    for i in range(mc.trials):
        field = sample_torus_gff(lat, trial_seed(mc.master_seed, i))
        if mc.localized:
            moll = mollify_localized(field, eps, region_box(lat, square))
        else:
            moll = MollifiedField(
                spec=lat, kind=field.kind, epsilon=eps, localized=False,
                values=plain_mollify_reference(field.values, lat.spacing, eps),
                z_epsilon=1.0, source_seed=field.seed)
        values.append(lr_crossing(build_weighted_grid(moll, xi), square).value)
    return bootstrap_reference(np.array(values, dtype=np.float64), mc.master_seed)


def bootstrap_reference(values: np.ndarray, master_seed: int) -> Tuple[float, float, float]:
    """(median, ci_lo, ci_hi) of one rung's trial values: the median and the
    1000-resample bootstrap on spawn key 0xB007 of the master seed, its
    whole (1000, trials) index drawn and gathered in one call."""
    trials = len(values)
    median = float(np.median(values))
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(0xB007,)))
    idx = rng.integers(0, trials, size=(1000, trials))
    lo, hi = np.percentile(np.median(values[idx], axis=1), [2.5, 97.5])
    return median, min(float(lo), median), max(float(hi), median)


# ---------------------------------------------------------------------------
# fixed-field experiments: one scalar solve per pair, reduced as it goes
# ---------------------------------------------------------------------------

def weyl_shift_reference(field, epsilon: float, c: float, pairs, xi: float):
    """(rows, stats) of `weyl_shift_test`: both distances of each pair in
    Python floats, the worst relative error folded in pair order."""
    from lfpp import add_function, build_weighted_grid, dist_point, mollify_localized
    grid0 = build_weighted_grid(mollify_localized(field, epsilon), xi)
    shifted = add_function(field, lambda x, y: c)
    grid1 = build_weighted_grid(mollify_localized(shifted, epsilon), xi)
    target = math.exp(xi * c)
    rows = []
    worst = 0.0
    for k, (z, w) in enumerate(pairs):
        d0 = dist_point(grid0, z, w).value
        d1 = dist_point(grid1, z, w).value
        ratio = d1 / d0
        rel = ratio / target - 1.0
        worst = max(worst, abs(rel))
        rows.append((k, float(z[0]), float(z[1]), float(w[0]), float(w[1]),
                     d0, d1, ratio, rel))
    return tuple(rows), {"max_rel_err": worst, "target_ratio": target}


def localized_gap_reference(field, eps_ladder, window, xi: float):
    """(rows, stats) of `localized_gap`: per rung, the window's field gap and
    the worst |d_localized / d_plain - 1| folded pair by pair."""
    from functools import partial

    from lfpp import build_weighted_grid, dist_point, mollify, mollify_localized
    from lfpp import experiments
    from lfpp.metric import region_mask
    sites = region_mask(field.spec, window)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=field.seed, spawn_key=(experiments._PAIR_KEY,)))
    pairs = experiments._draw_pairs(
        partial(experiments._apart_pair, rng, field.spec, window),
        experiments._N_GAP_PAIRS, window, "pairs")
    rows = []
    for eps in eps_ladder:
        plain = mollify(field, eps)
        loc = mollify_localized(field, eps)
        gap = float(np.abs(loc.values[sites] - plain.values[sites]).max())
        grid_p = build_weighted_grid(plain, xi)
        grid_l = build_weighted_grid(loc, xi)
        dev = 0.0
        for z, w in pairs:
            dp = dist_point(grid_p, z, w).value
            dl = dist_point(grid_l, z, w).value
            dev = max(dev, abs(dl / dp - 1.0))
        rows.append((float(eps), gap, dev))
    return tuple(rows), {"first_gap": rows[0][1], "last_gap": rows[-1][1],
                         "first_dev": rows[0][2], "last_dev": rows[-1][2]}


def convergence_reference(pairs, eps_ladder, xi: float, mc):
    """(rows, stats) of `convergence_diagnostic`: normalized distances filled
    one (pair, rung) cell at a time, then each transition's differences and
    maximum in pair order."""
    from lfpp import (Params, build_weighted_grid, dist_point, estimate_ladder,
                      mollify_localized, sample_torus_gff, trial_seed)
    from lfpp import experiments
    norms = [est.median for est in estimate_ladder(eps_ladder, Params(xi=xi), mc)]
    fld = sample_torus_gff(mc.lattice, trial_seed(mc.master_seed, experiments._FIELD_KEY))
    values = np.empty((len(pairs), len(eps_ladder)))
    for j, (eps, norm) in enumerate(zip(eps_ladder, norms)):
        grid = build_weighted_grid(mollify_localized(fld, eps), xi)
        for k, (z, w) in enumerate(pairs):
            values[k, j] = dist_point(grid, z, w).value / norm
    rows = []
    trans_idx = []
    diffs = []
    max_diffs = []
    for j in range(len(eps_ladder) - 1):
        worst = 0.0
        for k in range(len(pairs)):
            d = float(abs(values[k, j + 1] - values[k, j]))
            worst = max(worst, d)
            rows.append((float(eps_ladder[j]), float(eps_ladder[j + 1]), k,
                         float(values[k, j]), float(values[k, j + 1]), float(d)))
            trans_idx.append(j)
            diffs.append(d)
        max_diffs.append(worst)
    rho, p = experiments.spearman_trend(trans_idx, diffs)
    return tuple(rows), {"first_max_diff": max_diffs[0], "last_max_diff": max_diffs[-1],
                         "spearman_rho": rho, "spearman_p": p}


def small_segment_reference(field, ladder, zeta: float, window, xi: float, mc):
    """(rows, stats) of `small_segment_sup` on its rung ladder: per rung, the
    worst d / a_hat over that rung's near pairs, folded pair by pair."""
    from functools import partial

    from lfpp import (Params, build_weighted_grid, dist_point, estimate_ladder,
                      mollify_localized)
    from lfpp import experiments
    a_hats = [est.median for est in estimate_ladder(ladder, Params(xi=xi), mc)]
    rows = []
    for k, (eps, a_hat) in enumerate(zip(ladder, a_hats)):
        sep = 4.0 * eps ** (1.0 - zeta)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=field.seed, spawn_key=(experiments._SEG_KEY, k)))
        pairs = experiments._draw_pairs(partial(experiments._near_pair, rng, window, sep),
                                        experiments._N_SEG_PAIRS, window, "near pairs")
        grid = build_weighted_grid(mollify_localized(field, eps), xi)
        worst = 0.0
        for z, w in pairs:
            worst = max(worst, dist_point(grid, z, w).value / a_hat)
        rows.append((eps, sep, worst))
    return tuple(rows), {"first_sup": rows[0][2], "last_sup": rows[-1][2]}
