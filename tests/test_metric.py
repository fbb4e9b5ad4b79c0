"""Weighted-grid metrics: solver equivalence, exact identities, regions."""

import gc
import math
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import localized_fields, make_moll, random_grid, zero_grid
from lfpp import (
    Annulus,
    DegenerateAnnulus,
    Disk,
    EmptyRegion,
    InvalidArgument,
    LatticeSpec,
    LfppError,
    Mask,
    OutOfRegion,
    Rect,
    WeightedGrid,
    build_weighted_grid,
    dist_around_annulus,
    dist_internal,
    dist_point,
    dist_sets,
    edge_weight,
    lr_crossing,
    mollify,
    mollify_localized,
    region_box,
    sample_torus_gff,
)
from lfpp import gff, metric
from lfpp.metric import region_mask

# Shortest separating cycle of the zero-field 32x32 annulus (0.18, 0.30)
# about (0.5, 0.5): 24 axis steps + 12 diagonal steps at spacing 1/32,
# confirmed bitwise by the independent cover-relaxation oracle.
ZERO32_AROUND = 1.2803300858899105


class TestRegions:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            Disk(center=(0.0, 0.0), radius=0.0)
        with pytest.raises(InvalidArgument):
            Annulus(center=(0.0, 0.0), r_inner=0.3, r_outer=0.2)
        with pytest.raises(InvalidArgument):
            Annulus(center=(0.0, 0.0), r_inner=0.0, r_outer=0.2)
        with pytest.raises(InvalidArgument):
            Rect(lo=(0.0, 0.0), hi=(0.0, 1.0))
        with pytest.raises(InvalidArgument):
            Mask(mask=np.zeros((4, 4), dtype=np.int64))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_rejected(self, bad):
        for make in (lambda: Disk(center=(bad, 0.0), radius=0.5),
                     lambda: Annulus(center=(0.0, bad), r_inner=0.2, r_outer=0.4),
                     lambda: Rect(lo=(0.0, 0.0), hi=(bad, 1.0)),
                     lambda: Rect(lo=(bad, 0.0), hi=(1.0, 1.0)),
                     lambda: Rect(lo=(0.0, 0.0), hi=(1.0, bad))):
            with pytest.raises(InvalidArgument, match="must be finite"):
                make()

    def test_disk_closed_annulus_open(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        # site (0, 2) sits exactly on the disk boundary
        disk = region_mask(spec, Disk(center=(0.0, 0.0), radius=0.5))
        assert disk[0, 2] and disk[0, 0] and not disk[0, 3]
        ann = region_mask(spec, Annulus(center=(0.0, 0.0), r_inner=0.5, r_outer=1.0))
        assert not ann[0, 2]    # boundary excluded
        assert ann[0, 3] and not ann[0, 4]

    def test_rect_includes_aligned_edges(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        box = region_mask(spec, Rect(lo=(0.5, 0.5), hi=(1.0, 1.0)))
        assert box[2, 2] and box[4, 4] and not box[5, 4]
        assert box.sum() == 9

    def test_mask_region_shape_checked(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        with pytest.raises(InvalidArgument):
            region_mask(spec, Mask(mask=np.ones((8, 8), dtype=bool)))


class TestGridConstruction:
    def test_cost_is_exponential(self, field64, params02):
        moll = mollify(field64, 0.25)
        grid = build_weighted_grid(moll, params02.xi)
        assert np.array_equal(grid.site_cost, np.exp(params02.xi * moll.values))
        assert grid.mask.all()

    def test_xi_and_region_validation(self, field64):
        moll = mollify(field64, 0.25)
        with pytest.raises(InvalidArgument):
            build_weighted_grid(moll, 0.0)
        with pytest.raises(InvalidArgument):
            build_weighted_grid(moll, -0.1)
        # a region restricts the query it is given: an empty one fails there
        grid = build_weighted_grid(moll, 0.2)
        with pytest.raises(EmptyRegion):
            dist_sets(grid, Mask(np.zeros((64, 64), dtype=bool)),
                      Disk(center=(2.0, 2.0), radius=0.5))

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_overflow_rejected(self):
        spec = LatticeSpec(n=8, spacing=0.1)
        big = make_moll(spec, np.full((8, 8), 800.0))
        with pytest.raises(InvalidArgument):
            build_weighted_grid(big, 1.0)

    def test_edge_weight_formula(self):
        spec, grid = zero_grid(8, 0.25)
        assert edge_weight(grid, (0, 0), (0, 1)) == 0.25
        assert edge_weight(grid, (0, 0), (1, 1)) == 0.25 * math.sqrt(2.0)
        with pytest.raises(InvalidArgument):
            edge_weight(grid, (0, 0), (0, 2))
        for site in [("0", 0), (0.0, 0), (True, 0)]:   # a string, a float, a bool
            with pytest.raises(InvalidArgument):
                edge_weight(grid, site, (1, 1))


class TestOracleEquivalence:
    def test_matches_relaxation_fixpoint(self):
        """dist_point / lr_crossing / dist_sets == sorted-edge relaxation.

        25 random grids here; the acceptance suite runs the full 100.
        """
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.choice([4, 8]))
            spec, grid = random_grid(rng, n, float(rng.uniform(0.05, 0.4)))
            edges = oracles.grid_edges(grid.site_cost, grid.mask, spec.spacing)
            si = tuple(int(v) for v in rng.integers(0, n, 2))
            sj = tuple(int(v) for v in rng.integers(0, n, 2))
            if si == sj:
                sj = ((si[0] + 1) % n, si[1])
            lo, hi = min(si, sj), max(si, sj)
            dist = oracles.relax_single_source(n * n, edges, [lo[0] * n + lo[1]])
            got = dist_point(grid, spec.point_of(*si), spec.point_of(*sj))
            assert got.value == dist[hi[0] * n + hi[1]]

            square = Rect(lo=spec.point_of(0, 0), hi=spec.point_of(n - 1, n - 1))
            want = min(oracles.relax_single_source(
                n * n, edges, [i * n for i in range(n)])[i * n + n - 1]
                for i in range(n))
            assert lr_crossing(grid, square).value == want

            ma = np.zeros((n, n), dtype=bool)
            ma[0, 0] = ma[1, 1] = True
            mb = np.zeros((n, n), dtype=bool)
            mb[n - 1, n - 1] = mb[n - 2, n - 1] = True
            d_a = oracles.relax_single_source(n * n, edges, [0, n + 1])
            want2 = min(d_a[(n - 1) * n + n - 1], d_a[(n - 2) * n + n - 1])
            assert dist_sets(grid, Mask(ma), Mask(mb)).value == want2


class TestDistPoint:
    def test_bitwise_symmetry_and_path_reversal(self):
        rng = np.random.default_rng(11)
        spec, grid = random_grid(rng, 16, 0.25)
        pts = [spec.point_of(int(a), int(b))
               for a, b in rng.integers(0, 16, size=(30, 2))]
        for z, w in zip(pts[:15], pts[15:]):
            if spec.index_of(z) == spec.index_of(w):
                continue
            fwd = dist_point(grid, z, w, want_path=True)
            bwd = dist_point(grid, w, z, want_path=True)
            assert fwd.value == bwd.value
            assert fwd.path.sites == tuple(reversed(bwd.path.sites))

    def test_identity_is_exact_zero(self):
        rng = np.random.default_rng(12)
        spec, grid = random_grid(rng, 16, 0.25)
        res = dist_point(grid, (1.0, 2.0), (1.0, 2.0), want_path=True)
        assert res.value == 0.0 and res.settled == 1
        assert res.path.sites == (spec.index_of((1.0, 2.0)),)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        spec, grid = random_grid(rng, 32, 0.125)
        pts = rng.integers(0, 32, size=(200, 3, 2))
        for (a, b, c) in pts:
            pa = spec.point_of(int(a[0]), int(a[1]))
            pb = spec.point_of(int(b[0]), int(b[1]))
            pc = spec.point_of(int(c[0]), int(c[1]))
            d_ac = dist_point(grid, pa, pc).value
            d_ab = dist_point(grid, pa, pb).value
            d_bc = dist_point(grid, pb, pc).value
            assert d_ac <= d_ab + d_bc + 1e-9

    def test_zero_field_axis_distance_exact(self):
        spec, grid = zero_grid(64, 0.125)
        # 16 axis steps of exactly 0.125 sum to exactly 2.0
        res = dist_point(grid, (1.0, 3.0), (3.0, 3.0))
        assert res.value == 2.0
        diag = dist_point(grid, (1.0, 1.0), (2.0, 2.0)).value
        assert diag == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_weyl_sandwich_constant_shift(self):
        """Shifting the smoothed field by c multiplies distances by e^(xi c)."""
        rng = np.random.default_rng(14)
        spec = LatticeSpec(n=32, spacing=0.125)
        vals = rng.normal(size=(32, 32))
        xi, c = 0.3, 0.7
        g0 = build_weighted_grid(make_moll(spec, vals), xi)
        g1 = build_weighted_grid(make_moll(spec, vals + c), xi)
        factor = math.exp(xi * c)
        for a, b in rng.integers(0, 32, size=(10, 2, 2)):
            z = spec.point_of(int(a[0]), int(a[1]))
            w = spec.point_of(int(b[0]), int(b[1]))
            d0 = dist_point(g0, z, w).value
            d1 = dist_point(g1, z, w).value
            if d0 == 0.0:
                assert d1 == 0.0
                continue
            assert d1 / (factor * d0) == pytest.approx(1.0, abs=1e-12)

    def test_geodesic_consistency(self):
        rng = np.random.default_rng(15)
        spec, grid = random_grid(rng, 32, 0.125)
        for a, b in rng.integers(0, 32, size=(10, 2, 2)):
            z = spec.point_of(int(a[0]), int(a[1]))
            w = spec.point_of(int(b[0]), int(b[1]))
            if spec.index_of(z) == spec.index_of(w):
                continue
            res = dist_point(grid, z, w, want_path=True)
            sites = res.path.sites
            assert sites[0] == spec.index_of(z) and sites[-1] == spec.index_of(w)
            acc = 0.0
            for u, v in zip(sites, sites[1:]):
                assert max(abs(v[0] - u[0]), abs(v[1] - u[1])) == 1
                acc = acc + edge_weight(grid, u, v)
            assert acc == pytest.approx(res.value, rel=1e-9, abs=0.0)
            assert res.path.length == res.value

    def test_unreachable_between_components(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        m = np.zeros((16, 16), dtype=bool)
        m[0:3, 0:3] = True
        m[8:12, 8:12] = True   # separated by empty rows: no 8-adjacency
        vals = np.zeros((16, 16))
        grid = build_weighted_grid(make_moll(spec, vals), 0.2)
        res = dist_internal(grid, spec.point_of(0, 0), spec.point_of(9, 9), Mask(m),
                            want_path=True)
        assert res.unreachable and res.value == math.inf and res.path is None


@st.composite
def walled_grids(draw):
    """(grid, site a, site b, walls): high-variance costs on n = 8..32, and
    a site mask off on up to three full rows or columns, each with one gap
    or none, that is on at a and b."""
    n = draw(st.sampled_from([8, 16, 32]))
    spec = LatticeSpec(n=n, spacing=1.0 / n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = draw(st.sampled_from([0.0, 1.0, 3.0])) * rng.normal(size=(n, n))
    mask = np.ones((n, n), dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, n - 1))
        wall = mask[pos, :] if draw(st.booleans()) else mask[:, pos]
        wall[:] = False
        gap = draw(st.one_of(st.none(), st.integers(0, n - 1)))
        if gap is not None:
            wall[gap] = True
    site = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    a, b = draw(site), draw(site)
    if a == b:
        b = ((a[0] + 1) % n, a[1])
    mask[a] = mask[b] = True
    return build_weighted_grid(make_moll(spec, vals), 1.0), a, b, mask


def check_point_solve(grid, a, b, sub=None):
    """dist_point (or dist_internal in `sub`) from site a to b, against the
    full solve in tests/oracles.py: value and geodesic bitwise, and
    `settled` equal to the count of sites reachable from the smaller site."""
    spec = grid.spec
    m = grid.mask if sub is None else grid.mask & region_mask(spec, sub)
    lo, hi = min(a, b), max(a, b)
    t = hi[0] * spec.n + hi[1]
    dist, chain = oracles.full_point_solve(grid.site_cost, m, spec.spacing, lo, hi)
    z, w = spec.point_of(*a), spec.point_of(*b)
    if sub is None:
        res = dist_point(grid, z, w, want_path=True)
    else:
        res = dist_internal(grid, z, w, sub, want_path=True)
    assert res.value == dist[t]
    assert res.unreachable == (chain is None)
    if chain is not None:
        assert list(res.path.sites) == (chain if a == lo else chain[::-1])
    assert res.settled == int(np.isfinite(dist).sum())
    return res


class TestPointSolveMatchesOracle:
    """Point solves on the grid's cached graph equal an independent full solve."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(walled_grids())
    def test_dist_point_matches_full_solve(self, case):
        grid, a, b, walls = case
        check_point_solve(grid, a, b)
        check_point_solve(grid, a, b, sub=Mask(walls))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(walled_grids(), st.data())
    def test_dist_internal_matches_full_solve(self, case, data):
        grid, _, _, walls = case
        spec = grid.spec
        n = spec.n
        center = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        disk = Disk(center=spec.point_of(*center),
                    radius=data.draw(st.integers(1, n)) * spec.spacing)
        sub = region_mask(spec, disk) & walls
        sites = [tuple(int(v) for v in s) for s in np.argwhere(sub)]
        if len(sites) < 2:
            return
        pick = st.integers(0, len(sites) - 1)
        i, j = data.draw(pick), data.draw(pick)
        if i != j:
            check_point_solve(grid, sites[i], sites[j], sub=Mask(sub))

    def test_detour_through_distant_wall_gap(self):
        n = 32
        spec = LatticeSpec(n=n, spacing=1.0 / n)
        mask = np.ones((n, n), dtype=bool)
        mask[:, 8] = False
        mask[30, 8] = True      # the only gap, far below the pair
        vals = np.random.default_rng(5).normal(size=(n, n))
        grid = build_weighted_grid(make_moll(spec, vals), 1.0)
        for a, b in (((2, 4), (2, 12)), ((2, 12), (2, 4))):
            assert (30, 8) in check_point_solve(grid, a, b, Mask(mask)).path.sites

    def test_unreachable_pair(self):
        n = 16
        spec = LatticeSpec(n=n, spacing=1.0 / n)
        mask = np.ones((n, n), dtype=bool)
        mask[:, 6] = False
        vals = np.random.default_rng(6).normal(size=(n, n))
        grid = build_weighted_grid(make_moll(spec, vals), 1.0)
        check_point_solve(grid, (3, 2), (12, 10), Mask(mask))
        res = dist_internal(grid, spec.point_of(12, 10), spec.point_of(3, 2), Mask(mask))
        assert res.unreachable and res.value == math.inf

    def test_same_shape_grids_queried_alternately(self):
        # localized_gap's pattern: two grids of one lattice, pair by pair
        rng = np.random.default_rng(7)
        grids = [random_grid(rng, 32, 1.0 / 32, xi=1.0, scale=2.0)[1]
                 for _ in range(2)]
        for a, b in rng.integers(0, 32, size=(6, 2, 2)):
            a, b = tuple(int(v) for v in a), tuple(int(v) for v in b)
            if a != b:
                for grid in grids:
                    check_point_solve(grid, a, b)


@st.composite
def crop_cases(draw):
    """(grid, site a, site b): xi = 1 costs on n = 8..64 from a normal field
    at scale 1 or 3, a constant field (every path of one shape ties), sites
    of cost 1 and 1.2e6 at random (a maze of cheap sites), or a normal field
    at scale 40, whose costs span far more than 2^53, so that weights vanish
    against labels and tie sites in loops; the sites lie anywhere, on edges
    and corners often."""
    n = draw(st.sampled_from([8, 16, 32, 64]))
    spec = LatticeSpec(n=n, spacing=1.0 / n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["normal", "constant", "maze", "wide"]))
    if kind == "constant":
        vals = np.full((n, n), draw(st.floats(-5.0, 5.0)))
    elif kind == "maze":
        vals = 14.0 * (rng.random(size=(n, n)) < draw(st.floats(0.2, 0.6)))
    elif kind == "wide":
        vals = 40.0 * rng.normal(size=(n, n))
    else:
        vals = draw(st.sampled_from([1.0, 3.0])) * rng.normal(size=(n, n))
    coord = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    a, b = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord))
    return build_weighted_grid(make_moll(spec, vals), 1.0), a, b


def crop_solve(grid, z, w):
    """The point solve of z and w on its certified crop of `grid`."""
    return metric._dist_in_crop(grid.spec, partial(metric._crop_grid, grid), grid.box,
                                float(grid.site_cost.min()), z, w, want_path=True)[1]


class TestPointCrop:
    """A point solve on its certified crop of the grid (`metric._point_crop`,
    through `metric._dist_in_crop`) equals the full solve in
    tests/oracles.py bit for bit."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(crop_cases())
    def test_crop_solve_matches_full_solve(self, case):
        grid, a, b = case
        spec = grid.spec
        res = crop_solve(grid, spec.point_of(*a), spec.point_of(*b))
        if a == b:
            assert res.value == 0.0 and res.path.sites == (a,)
            return
        lo, hi = min(a, b), max(a, b)
        dist, chain = oracles.full_point_solve(grid.site_cost, grid.mask,
                                               spec.spacing, lo, hi)
        assert res.value == dist[hi[0] * spec.n + hi[1]]
        assert list(res.path.sites) == (chain if a == lo else chain[::-1])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(crop_cases())
    def test_crop_solve_stops_at_the_upper_bound(self, case):
        # The crop's solve stops at U, the distance on the pair's box: its
        # value and path are the full solve's, and it settles exactly the
        # crop sites whose unbounded labels are at most U.
        grid, a, b = case
        if a == b:
            return
        spec = grid.spec
        z, w = spec.point_of(*a), spec.point_of(*b)
        upper = dist_point(metric._crop_grid(grid, metric._pair_box(grid.box, a, b, 2)),
                           z, w).value
        (rs, cs) = crop = metric._point_crop(spec, grid.box, a, b, upper,
                                             float(grid.site_cost.min()))
        res = crop_solve(grid, z, w)
        lo, hi = min(a, b), max(a, b)
        dist, chain = oracles.full_point_solve(grid.site_cost, grid.mask,
                                               spec.spacing, lo, hi)
        assert res.value == dist[hi[0] * spec.n + hi[1]] <= upper
        assert list(res.path.sites) == (chain if a == lo else chain[::-1])
        cost = metric._crop_grid(grid, crop).site_cost
        labels, _ = oracles.full_point_solve(cost, np.ones(cost.shape, dtype=bool),
                                             spec.spacing, (lo[0] - rs.start, lo[1] - cs.start),
                                             (hi[0] - rs.start, hi[1] - cs.start))
        assert res.settled == int((labels <= upper).sum())

    def test_crop_is_smaller_than_the_lattice(self):
        # a near pair on a mildly rough field needs only a few rows
        spec, grid = random_grid(np.random.default_rng(3), 64, 1.0 / 64, scale=0.5)
        z, w = spec.point_of(30, 20), spec.point_of(32, 40)
        res = crop_solve(grid, z, w)
        full = dist_point(grid, z, w, want_path=True)
        assert (res.value, res.path) == (full.value, full.path)
        assert res.settled < full.settled == 64 * 64


@st.composite
def set_queries(draw):
    """(grid, site mask a, site mask b, rect): a walled grid's costs over the
    whole lattice or a box of it, disjoint masks with a site of each on the
    grid (they may reach past its box), and a rect drawn in lattice steps
    that may cross the box edge."""
    full = draw(walled_grids())[0]
    n, d = full.spec.n, full.spec.spacing
    grid = full
    if draw(st.booleans()):
        i0, j0 = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        i1, j1 = draw(st.integers(i0 + 2, n)), draw(st.integers(j0 + 2, n))
        grid = WeightedGrid(spec=full.spec, site_cost=full.site_cost[i0:i1, j0:j1],
                            offset=(i0, j0))
    rows, cols = grid.box
    on_grid = st.tuples(st.integers(rows.start, rows.stop - 1),
                        st.integers(cols.start, cols.stop - 1))
    sa = draw(on_grid)
    sb = draw(on_grid.filter(lambda s: s != sa))
    fill = draw(st.sampled_from([0.0, 0.02, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    label = rng.choice(3, size=(n, n), p=[1.0 - 2.0 * fill, fill, fill])
    label[sa], label[sb] = 1, 2
    x0 = draw(st.integers(cols.start - 1, cols.stop - 1))
    y0 = draw(st.integers(rows.start - 1, rows.stop - 1))
    dx, dy = draw(st.integers(1, n)), draw(st.integers(1, n))
    rect = Rect(lo=(x0 * d, y0 * d), hi=((x0 + dx) * d, (y0 + dy) * d))
    a, b = label == 1, label == 2
    return (grid, b, a, rect) if draw(st.booleans()) else (grid, a, b, rect)


def set_oracle(grid, m, sources, targets):
    """(value, site path, settled) of a multi-source relaxation over the
    grid's sites in mask m from `sources`, walked back from the first target
    at minimum distance (m is connected, so some target is reached)."""
    (i0, j0), (h, w) = grid.offset, grid.site_cost.shape
    edges = oracles.grid_edges(grid.site_cost, m[grid.box], grid.spec.spacing)
    src = {(i - i0) * w + (j - j0) for i, j in sources}
    dist = oracles.relax_single_source(h * w, edges, sorted(src))
    best = min(((i - i0) * w + (j - j0) for i, j in targets), key=lambda c: dist[c])
    chain = oracles.walk_back(edges, dist, best, src)
    return (dist[best], [(i0 + c // w, j0 + c % w) for c in chain],
            int(np.isfinite(dist).sum()))


def sites_of(mask):
    return [tuple(int(v) for v in s) for s in np.argwhere(mask)]


class TestSetSolveMatchesOracle:
    """Set and crossing solves equal a multi-source relaxation oracle run
    from the start set the module's rule picks."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(set_queries())
    def test_dist_sets_and_crossing_match_relaxation(self, case):
        grid, a, b, rect = case
        sa, sb = sites_of(a & grid.mask), sites_of(b & grid.mask)
        if sa[0] < sb[0]:
            value, path, settled = set_oracle(grid, grid.mask, sa, sb)
        else:
            value, path, settled = set_oracle(grid, grid.mask, sb, sa)
            path = path[::-1]
        fwd = dist_sets(grid, Mask(a), Mask(b), want_path=True)
        assert (fwd.value, list(fwd.path.sites), fwd.settled) == (value, path, settled)
        assert fwd.path.length == value
        bwd = dist_sets(grid, Mask(b), Mask(a), want_path=True)
        assert bwd.value == fwd.value and bwd.path.sites == fwd.path.sites[::-1]
        assert bwd.settled == settled
        # sets that meet are 0 apart, at their smallest common site (i, j)
        meet_a, meet_b = a | b, b | np.roll(a, 1, axis=1)
        first = sites_of(meet_a & meet_b & grid.mask)[0]
        for x, y in ((meet_a, meet_b), (meet_b, meet_a)):
            res = dist_sets(grid, Mask(x), Mask(y), want_path=True)
            assert (res.value, res.path.sites, res.settled) == (0.0, (first,), 1)

        square = region_mask(grid.spec, rect) & grid.mask
        cols = np.flatnonzero(square.any(axis=0))
        if cols.size < 2:
            with pytest.raises((EmptyRegion, InvalidArgument)):
                lr_crossing(grid, rect)
            return
        left, right = (sites_of(square & (np.arange(grid.spec.n) == j))
                       for j in (cols[0], cols[-1]))
        value, path, settled = set_oracle(grid, square, left, right)
        res = lr_crossing(grid, rect, want_path=True)
        assert (res.value, list(res.path.sites), res.settled) == (value, path, settled)


@st.composite
def skeleton_grids(draw, max_n: int = 64):
    """A grid over a random box of an n = 8..max_n lattice, with lognormal
    costs of a drawn spread and a drawn spacing."""
    n = draw(st.sampled_from([n for n in (8, 16, 32, 64) if n <= max_n]))
    spacing = draw(st.sampled_from([1.0 / n, 4.0 / n, 0.1, 1.0 / 3.0]))
    spec = LatticeSpec(n=n, spacing=spacing)
    r0, c0 = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
    h, w = draw(st.integers(2, n - r0)), draw(st.integers(2, n - c0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cost = np.exp(draw(st.sampled_from([0.0, 1.0, 3.0])) * rng.normal(size=(h, w)))
    return WeightedGrid(spec=spec, site_cost=cost, offset=(r0, c0)), rng


def graph_arrays(graph):
    return [(a.dtype, a.tobytes()) for a in (graph.indptr, graph.indices, graph.data)]


def annulus_case(case, on_box, data, spread: float = 1.0, small_holes: bool = False):
    """(grid, annulus) for the annulus properties: lognormal costs of the
    given spread on the whole lattice, or on the annulus's box; a center on
    a site or half-way between two; an inner radius of whole spacings, or
    with `small_holes` also of a fraction of one."""
    spec, rng = case[0].spec, case[1]
    n, d = spec.n, spec.spacing
    grid = WeightedGrid(spec=spec, site_cost=np.exp(spread * rng.normal(size=(n, n))))

    def coord():
        return (data.draw(st.integers(0, n - 1)) * d
                + data.draw(st.sampled_from([0.0, 0.5 * d])))

    steps = st.integers(1, n // 4)
    r_in = data.draw(st.sampled_from([0.25, 0.5, 0.75]) | steps if small_holes else steps) * d
    ann = Annulus(center=(coord(), coord()), r_inner=r_in,
                  r_outer=r_in + data.draw(st.integers(4, n // 2)) * d)
    if on_box:
        box = region_box(spec, ann)
        grid = WeightedGrid(spec=spec, site_cost=grid.site_cost[box],
                            offset=(box[0].start, box[1].start))
    return grid, ann


class TestSkeletonMatchesReference:
    """Graphs filled from CSR skeletons are the COO edge-list builder's of
    tests/oracles.py bit for bit, and so is the annulus cover up to the
    order of each row's columns."""

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(skeleton_grids(), st.sampled_from(["box", "disk", "annulus", "mask"]),
           st.data())
    def test_graph_equals_coo_reference(self, case, kind, data):
        grid, rng = case
        spec = grid.spec
        n, d = spec.n, spec.spacing

        def coord():   # on a site or half-way between two, maybe off the lattice
            return (data.draw(st.integers(-2, n + 1)) * d
                    + data.draw(st.sampled_from([0.0, 0.5 * d])))

        center = (coord(), coord())
        if kind == "box":
            crop, graph = grid.box, grid._full_graph
            want = oracles.mask_graph_reference(grid, grid.mask)
        else:
            if kind == "disk":
                region = Disk(center=center, radius=data.draw(st.integers(1, n)) * d)
            elif kind == "annulus":
                r_in = data.draw(st.integers(1, n // 2)) * d
                region = Annulus(center=center, r_inner=r_in,
                                 r_outer=r_in + data.draw(st.integers(1, n)) * d)
            else:
                region = Mask(rng.random((n, n)) < data.draw(
                    st.sampled_from([0.3, 0.7, 0.95])))
            crop, active = metric._region_crop(spec, region, grid.box)
            sites = region_mask(spec, region) & grid.mask
            if not sites.any():
                assert active.size == 0
                return
            graph = metric._mask_graph(grid, crop, active)
            want = oracles.mask_graph_reference(grid, sites)
        assert crop == want[0]
        assert graph_arrays(graph) == graph_arrays(want[1])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(skeleton_grids(max_n=32), st.booleans(), st.data())
    def test_annulus_cover_equals_coo_reference(self, case, on_box, data):
        """On the full lattice's grid, or on the grid over the annulus's box."""
        grid, ann = annulus_case(case, on_box, data)
        spec = grid.spec
        crop, active = metric._region_crop(spec, ann, grid.box)
        graph = metric._mask_graph(grid, crop, active)
        cover, cut, uncut = metric._annulus_cover(spec, crop, graph, ann.center)
        ref_crop, m, cost = oracles.reference_crop(grid, region_mask(spec, ann))
        edges = oracles.edge_arrays_reference(cost, m, spec.spacing)
        want, want_cut, want_uncut = oracles.annulus_cover_reference(
            spec, ref_crop, m, edges, ann.center)
        assert crop == ref_crop
        assert cut.tolist() == want_cut.tolist()
        assert uncut.tolist() == want_uncut.tolist()
        assert graph_arrays(cover.sorted_indices()) == graph_arrays(want)
        if cut.size == 0:
            with pytest.raises(DegenerateAnnulus):
                dist_around_annulus(grid, ann)
            return
        res = dist_around_annulus(grid, ann, want_path=True)
        value, sites, settled = oracles.around_reference(grid, ann)
        assert (res.value, res.settled) == (value, settled)
        assert (None if res.path is None else list(res.path.sites)) == sites

    def test_lattice_cap_keeps_indices_in_int32(self):
        """Skeletons index in int32: the annulus cover of the largest crop,
        two sheets of 8 entries per site, fits; raising the cap fails here."""
        assert 16 * gff._MAX_N ** 2 <= np.iinfo(np.int32).max
        skel = metric._Skeleton.of(np.ones((3, 4), dtype=bool))
        assert skel.indptr.dtype == skel.indices.dtype == np.int32


def _tie_ring(cost: np.ndarray, rows, cols, lower: float, upper: float) -> None:
    """Cost the boundary of a lattice rectangle: sites below row 32 at
    `lower`, the others at `upper`, corners at a quarter of that, cheap
    enough that no diagonal cuts a corner."""
    (r0, r1), (c0, c1) = rows, cols
    for i in range(r0, r1 + 1):
        for j in range(c0, c1 + 1):
            if i in rows or j in cols:
                c = upper if i >= 32 else lower
                cost[i, j] = c / 4 if (i in rows and j in cols) else c


class TestCutBounds:
    """The one-solve bounds never exceed the distances they prune, and the
    pruned search keeps the smallest-index minimizer."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(skeleton_grids(max_n=32), st.booleans(), st.data())
    def test_bound_at_most_twin_distance(self, case, on_box, data):
        """Annuli of the cover property's kind, with holes down to a
        fraction of a spacing and costs from constant to widely spread."""
        spread = data.draw(st.sampled_from([0.0, 1.0, 3.0]))
        grid, ann = annulus_case(case, on_box, data, spread, small_holes=True)
        spec = grid.spec
        crop, active = metric._region_crop(spec, ann, grid.box)
        cover, cut, uncut = metric._annulus_cover(
            spec, crop, metric._mask_graph(grid, crop, active), ann.center)
        if cut.size == 0:
            return
        bounds = metric._cut_bounds(cover, cut, uncut)
        _, _, ref_cover, ref_cut = oracles.reference_cover(grid, ann)
        assert cut.tolist() == ref_cut.tolist()
        twin = [t[0] for t in oracles.twin_distances_reference(ref_cover, ref_cut)]
        assert all(b <= t for b, t in zip(bounds.tolist(), twin))
        res = dist_around_annulus(grid, ann, want_path=True)
        value, sites, settled = oracles.around_reference(grid, ann)
        assert (res.value, res.settled) == (value, settled)
        assert (None if res.path is None else list(res.path.sites)) == sites

    def test_equal_cycles_keep_smallest_index(self):
        """Two rings around the center, of equal dyadic length: an inner
        one through cut site (32, 36) and an outer one through (32, 43).
        A cheap spur from the inner ring's upper arc to the outer ring
        gives (32, 43) the smaller bound, so it is solved first, yet the
        cycle through (32, 36) is kept."""
        n, d = 64, 1.0 / 64
        spec = LatticeSpec(n=n, spacing=d)
        cost = np.full((n, n), 256.0)
        _tie_ring(cost, (27, 36), (27, 36), 1.0, 1.0)
        _tie_ring(cost, (20, 43), (20, 43), 0.25, 0.5)
        cost[27, 31] = 1.375                      # evens the two lengths
        cost[35, 37:43] = (1.0,) + (1.0 / 16,) * 4 + (0.5,)   # the spur
        grid = WeightedGrid(spec=spec, site_cost=cost)
        ann = Annulus(center=(31.5 * d, 31.5 * d), r_inner=0.25 * d, r_outer=20 * d)

        crop, m, ref_cover, ref_cut = oracles.reference_cover(grid, ann)
        twin = [t[0] for t in oracles.twin_distances_reference(ref_cover, ref_cut)]
        at = {divmod(int(s), m.shape[1]): k for k, s in enumerate(ref_cut)}
        inner, outer = (at[(32 - crop[0].start, j - crop[1].start)] for j in (36, 43))
        assert twin[inner] == twin[outer] == 33.375 * d == min(twin)
        active = region_mask(spec, ann)[crop]
        bounds = metric._cut_bounds(*metric._annulus_cover(
            spec, crop, metric._mask_graph(grid, crop, active), ann.center))
        assert bounds[outer] < bounds[inner]

        res = dist_around_annulus(grid, ann, want_path=True)
        value, sites, settled = oracles.around_reference(grid, ann)
        assert res.value == value == 33.375 * d
        assert list(res.path.sites) == sites and sites[0] == (32, 36)
        assert res.settled == settled


class TestGraphCache:
    """A grid's cached graph always describes the grid's own arrays."""

    def test_grid_arrays_are_read_only(self):
        spec, grid = random_grid(np.random.default_rng(8), 16, 0.25)
        with pytest.raises(ValueError):
            grid.site_cost[0, 0] = 1.0
        with pytest.raises(ValueError):
            grid.mask[0, 0] = False

    def test_caller_arrays_are_copied(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        cost = np.ones((16, 16))
        grid = WeightedGrid(spec=spec, site_cost=cost)
        z, w = (0.5, 0.5), (3.0, 2.0)
        before = dist_point(grid, z, w, want_path=True)
        cost *= 10.0
        after = dist_point(grid, z, w, want_path=True)
        assert after.value == before.value and after.path == before.path
        assert (grid.site_cost == 1.0).all()

    def test_cached_graph_dies_with_grid(self):
        spec, grid = random_grid(np.random.default_rng(9), 16, 0.25)
        dist_point(grid, (0.5, 0.5), (3.0, 2.0))
        graph = weakref.ref(grid._full_graph)
        assert graph() is not None
        del grid
        gc.collect()
        assert graph() is None


@st.composite
def box_queries(draw):
    """(field, eps, region query) for a box grid against the full grid.

    Regions are drawn in lattice steps and may touch or cross the lattice
    edge; a query is (kind, region, endpoints or None)."""
    field, eps = draw(localized_fields())
    spec = field.spec
    n, d = spec.n, spec.spacing
    coord = st.integers(-2, n + 1).map(lambda k: k * d)
    center = draw(st.tuples(coord, coord))

    def square():
        size = draw(st.integers(1, n)) * d
        return Rect(lo=center, hi=(center[0] + size, center[1] + size))

    kind = draw(st.sampled_from(["crossing", "within", "around"]))
    ends = None
    if kind == "crossing":
        region = square()
    elif kind == "around":
        r_in = draw(st.integers(1, n // 4)) * d
        region = Annulus(center=center, r_inner=r_in,
                         r_outer=r_in + draw(st.integers(2, n // 2)) * d)
    else:
        region = (Disk(center=center, radius=draw(st.integers(1, n // 2)) * d)
                  if draw(st.booleans()) else square())
        any_site = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        inside = [tuple(int(v) for v in s) for s in np.argwhere(region_mask(spec, region))]
        # mostly sites of the region; sometimes any site, often outside it
        site = st.one_of(st.sampled_from(inside), any_site) if inside else any_site
        ends = (draw(site), draw(site))
    return field, eps, (kind, region, ends)


def solve_outcome(grid, query):
    """(value, unreachable, path, settled) of a region query, or the error."""
    kind, region, ends = query
    try:
        if kind == "crossing":
            res = lr_crossing(grid, region, want_path=True)
        elif kind == "around":
            res = dist_around_annulus(grid, region, want_path=True)
        else:
            z, w = (grid.spec.point_of(*e) for e in ends)
            res = dist_internal(grid, z, w, region, want_path=True)
    except LfppError as exc:
        return type(exc), str(exc)
    return res.value, res.unreachable, res.path, res.settled


class TestBoxGrid:
    """A grid over the box of a region's sites, smoothed only there, answers
    that region's queries exactly as the full-lattice grid does."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(box_queries())
    def test_region_queries_match_full_grid(self, case):
        field, eps, query = case
        box = region_box(field.spec, query[1])
        if box is None:     # no site to box: queries run on the full lattice
            return
        full = build_weighted_grid(mollify_localized(field, eps), 1.0)
        part = build_weighted_grid(mollify_localized(field, eps, box=box), 1.0)
        assert part.box == box and part.site_cost.shape == full.site_cost[box].shape
        assert solve_outcome(part, query) == solve_outcome(full, query)

    def test_region_box(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        assert region_box(spec, Rect(lo=(0.5, 0.75), hi=(1.0, 5.0))) == (
            slice(3, 16), slice(2, 5))
        assert region_box(spec, Rect(lo=(0.51, 0.51), hi=(0.55, 0.55))) is None

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.sampled_from([8, 16, 64, 256]),
           st.sampled_from(["disk", "annulus", "rect", "mask"]), st.data())
    def test_region_box_equals_full_mask_reference(self, n, kind, data):
        """Disks, annuli and rects anywhere near the lattice, clipped by its
        edge or holding no site, on or between sites, and random masks; and
        the crop of their sites, with those sites, inside a random box."""
        spacing = data.draw(st.sampled_from([1.0 / n, 4.0 / n, 0.3]))
        origin = data.draw(st.sampled_from([(0.0, 0.0), (0.5, -0.25), (-3.7, 1e3)]))
        spec = LatticeSpec(n=n, spacing=spacing, origin=origin)
        side = spec.side

        def coord(axis):
            on_site = data.draw(st.booleans())
            t = (data.draw(st.integers(-3, n + 2)) * spacing if on_site
                 else data.draw(st.floats(-0.2 * side, 1.2 * side)))
            return origin[axis] + t

        def length(lo=0.0):
            return lo + data.draw(st.sampled_from([0.01, 0.5, 1.0, 2.5, 0.5 * n])) * spacing

        if kind == "disk":
            region = Disk(center=(coord(0), coord(1)), radius=length())
        elif kind == "annulus":
            r_in = length()
            region = Annulus(center=(coord(0), coord(1)), r_inner=r_in,
                             r_outer=length(r_in))
        elif kind == "rect":
            x0, y0 = coord(0), coord(1)
            region = Rect(lo=(x0, y0), hi=(x0 + length(), y0 + length()))
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            region = Mask(rng.random((n, n)) < data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.9])))
        assert region_box(spec, region) == oracles.region_box_reference(spec, region)

        r0, c0 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        within = (slice(r0, data.draw(st.integers(r0 + 1, n))),
                  slice(c0, data.draw(st.integers(c0 + 1, n))))
        crop, active = metric._region_crop(spec, region, within)
        want = oracles.region_box_reference(spec, region, within)
        if want is None:
            assert crop == (slice(0, 0), slice(0, 0)) and active.shape == (0, 0)
        else:
            assert crop == want and np.array_equal(active, region_mask(spec, region)[want])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.sampled_from([8, 16, 64]), st.data())
    def test_hypot_never_below_either_leg(self, n, data):
        """`_candidate_box` keeps every site `region_mask` keeps only while
        np.hypot(dx, dy) >= |dx| and >= |dy|: on the coordinate differences
        region_mask forms about centers on or between sites, and on any
        finite floats."""
        spacing = data.draw(st.sampled_from([1.0 / n, 4.0 / n, 0.3]))
        origin = data.draw(st.sampled_from([(0.0, 0.0), (0.5, -0.25), (-3.7, 1e3)]))
        spec = LatticeSpec(n=n, spacing=spacing, origin=origin)
        xs, ys = spec.axis_coords()

        def coord(axis):
            t = (data.draw(st.integers(-3, n + 2)) * spacing if data.draw(st.booleans())
                 else data.draw(st.floats(-0.2 * spec.side, 1.2 * spec.side)))
            return origin[axis] + t

        gx = np.broadcast_to(xs[None, :], (n, n))
        gy = np.broadcast_to(ys[:, None], (n, n))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        legs = [(gx - coord(0), gy - coord(1)), (data.draw(finite), data.draw(finite))]
        with np.errstate(over="ignore"):
            for dx, dy in legs:
                d = np.hypot(dx, dy)
                assert np.all(d >= np.abs(dx)) and np.all(d >= np.abs(dy))

    def test_paths_and_edge_weights_in_lattice_indices(self, field64):
        box = (slice(20, 44), slice(8, 40))
        grid = build_weighted_grid(mollify_localized(field64, 0.25, box=box), 0.5)
        full = build_weighted_grid(mollify_localized(field64, 0.25), 0.5)
        assert grid.offset == (20, 8) and grid.mask.shape == (64, 64)
        assert grid.mask.sum() == 24 * 32 and grid.mask[box].all()
        res = lr_crossing(grid, Rect(lo=(0.75, 1.5), hi=(2.0, 2.5)), want_path=True)
        for u, v in zip(res.path.sites, res.path.sites[1:]):
            assert edge_weight(grid, u, v) == edge_weight(full, u, v)
        with pytest.raises(InvalidArgument):
            edge_weight(grid, (19, 8), (20, 8))
        # a point solve on a box grid stays in the box: sites (21, 10), (42, 38)
        res = dist_point(grid, (0.6, 1.3), (2.4, 2.6), want_path=True)
        assert res.settled == 24 * 32
        assert all(20 <= i < 44 and 8 <= j < 40 for i, j in res.path.sites)

    def test_grid_arrays_must_agree_on_the_box(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        WeightedGrid(spec=spec, site_cost=np.ones((4, 4)), offset=(2, 3))
        with pytest.raises(InvalidArgument):   # costs past the lattice edge
            WeightedGrid(spec=spec, site_cost=np.ones((4, 4)), offset=(13, 0))
        with pytest.raises(InvalidArgument):   # costs not over a box
            WeightedGrid(spec=spec, site_cost=np.ones(16))
        with pytest.raises(InvalidArgument):   # an empty box
            WeightedGrid(spec=spec, site_cost=np.ones((0, 4)))
        with pytest.raises(InvalidArgument):   # costs before the lattice's first site
            WeightedGrid(spec=spec, site_cost=np.ones((4, 4)), offset=(-1, 0))


class TestDistInternal:
    def test_monotone_under_region_growth(self):
        rng = np.random.default_rng(16)
        spec, grid = random_grid(rng, 32, 0.125)
        z, w = (1.0, 1.0), (2.5, 2.5)
        small = Rect(lo=(0.75, 0.75), hi=(2.75, 2.75))
        big = Rect(lo=(0.25, 0.25), hi=(3.5, 3.5))
        for _ in range(30):
            spec, grid = random_grid(rng, 32, 0.125)
            d_small = dist_internal(grid, z, w, small).value
            d_big = dist_internal(grid, z, w, big).value
            d_free = dist_point(grid, z, w).value
            assert d_small >= d_big >= d_free

    def test_path_stays_inside(self):
        rng = np.random.default_rng(17)
        spec, grid = random_grid(rng, 32, 0.125)
        sub = Rect(lo=(0.5, 0.5), hi=(3.0, 3.0))
        res = dist_internal(grid, (1.0, 1.0), (2.5, 2.5), sub, want_path=True)
        sub_mask = region_mask(spec, sub)
        assert all(sub_mask[s] for s in res.path.sites)

    def test_endpoint_outside_raises(self):
        rng = np.random.default_rng(18)
        spec, grid = random_grid(rng, 32, 0.125)
        sub = Rect(lo=(0.5, 0.5), hi=(1.5, 1.5))
        with pytest.raises(OutOfRegion):
            dist_internal(grid, (1.0, 1.0), (3.0, 3.0), sub)

    def test_corridor_forces_exact_sum(self):
        spec = LatticeSpec(n=16, spacing=0.25)
        m = np.zeros((16, 16), dtype=bool)
        m[4, 2:9] = True    # one-site-wide corridor, 6 axis edges
        vals = np.where(m, 0.0, -10.0)     # paths off the corridor are cheaper
        grid = build_weighted_grid(make_moll(spec, vals), 0.5)
        z, w = spec.point_of(4, 2), spec.point_of(4, 8)
        assert dist_internal(grid, z, w, Mask(m)).value == 6 * 0.25
        assert dist_point(grid, z, w).value < 6 * 0.25


class TestDistSets:
    def test_intersecting_sets_give_zero(self, field64, params02):
        grid = build_weighted_grid(mollify(field64, 0.25), params02.xi)
        a = Disk(center=(2.0, 2.0), radius=0.5)
        b = Disk(center=(2.4, 2.0), radius=0.5)
        res = dist_sets(grid, a, b, want_path=True)
        assert res.value == 0.0 and len(res.path.sites) == 1

    def test_empty_set_raises(self, field64, params02):
        grid = build_weighted_grid(mollify(field64, 0.25), params02.xi)
        # off-lattice center, radius below half the site spacing: no sites
        with pytest.raises(EmptyRegion):
            dist_sets(grid, Disk(center=(2.03, 2.03), radius=0.01),
                      Disk(center=(1.0, 1.0), radius=0.5))

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        spec, grid = random_grid(rng, 16, 0.25)
        a = Disk(center=(1.0, 1.0), radius=0.3)
        b = Disk(center=(3.0, 3.0), radius=0.3)
        assert dist_sets(grid, a, b).value == dist_sets(grid, b, a).value

    def test_path_endpoints_in_sets(self):
        rng = np.random.default_rng(20)
        spec, grid = random_grid(rng, 16, 0.25)
        a = Disk(center=(1.0, 1.0), radius=0.3)
        b = Disk(center=(3.0, 3.0), radius=0.3)
        res = dist_sets(grid, a, b, want_path=True)
        ma = region_mask(spec, a)
        mb = region_mask(spec, b)
        assert ma[res.path.sites[0]] and mb[res.path.sites[-1]]


class TestLrCrossing:
    def test_zero_field_unit_square_is_one(self):
        # spacing 4/128: the unit square spans 32 columns of exactly 1/32
        spec, grid = zero_grid(128, 4.0 / 128.0)
        square = Rect(lo=(1.5, 1.5), hi=(2.5, 2.5))
        assert lr_crossing(grid, square).value == 1.0

    def test_path_spans_square(self):
        rng = np.random.default_rng(21)
        spec, grid = random_grid(rng, 32, 0.125)
        square = Rect(lo=(1.0, 1.0), hi=(3.0, 3.0))
        res = lr_crossing(grid, square, want_path=True)
        cols = [j for _, j in res.path.sites]
        assert cols[0] == 8 and cols[-1] == 24   # 1.0/0.125 .. 3.0/0.125
        sub = region_mask(spec, square)
        assert all(sub[s] for s in res.path.sites)

    def test_single_column_square_rejected(self):
        spec, grid = zero_grid(16, 0.25)
        with pytest.raises(InvalidArgument):
            lr_crossing(grid, Rect(lo=(1.0, 1.0), hi=(1.1, 2.0)))


class TestTieRule:
    """Geodesics and cycles take the smallest-index optimal predecessor.

    The zero field ties many paths bitwise, so these pin the rule itself
    against a plain-Python walk over relaxation-fixpoint distances.
    """

    def test_point_path_follows_tie_rule(self):
        spec, grid = zero_grid(32, 1.0 / 32.0)
        z, w = spec.index_of((0.2, 0.3)), spec.index_of((0.7, 0.55))
        assert z < w
        res = dist_point(grid, (0.2, 0.3), (0.7, 0.55), want_path=True)
        edges = oracles.grid_edges(grid.site_cost, grid.mask, spec.spacing)
        dist = oracles.relax_single_source(32 * 32, edges, [z[0] * 32 + z[1]])
        chain = oracles.walk_back(edges, dist, w[0] * 32 + w[1], {z[0] * 32 + z[1]})
        assert res.value == dist[w[0] * 32 + w[1]]
        assert list(res.path.sites) == [divmod(c, 32) for c in chain]

    def test_cycle_follows_tie_rule(self):
        spec, grid = zero_grid(32, 1.0 / 32.0)
        ann = Annulus(center=(0.5, 0.5), r_inner=0.18, r_outer=0.30)
        res = dist_around_annulus(grid, ann, want_path=True)
        value, sites = oracles.cover_walk_cycle(
            grid.site_cost, region_mask(spec, ann), spec.spacing, spec.origin,
            (0.5, 0.5))
        assert res.value == value == ZERO32_AROUND
        assert sites[:2] == [(16, 22), (17, 22)]
        assert list(res.path.sites) == sites


class TestAroundAnnulus:
    def _grid(self, n, seed, eps, xi=0.25):
        spec = LatticeSpec(n=n, spacing=1.0 / n)
        moll = mollify(sample_torus_gff(spec, seed), eps)
        return spec, build_weighted_grid(moll, xi)

    def test_exact_cycle_enumeration_tiny(self):
        """Bitwise match with exhaustive DFS over all separating cycles."""
        for seed in (11, 12):
            spec, grid = self._grid(8, seed, eps=0.3125)
            ann = Annulus(center=(0.5, 0.5), r_inner=0.06, r_outer=0.44)
            res = dist_around_annulus(grid, ann)
            m = region_mask(spec, ann)
            brute = oracles.brute_separating_cycle(
                grid.site_cost, m, spec.spacing, spec.origin, (0.5, 0.5))
            cover = oracles.cover_relax_around(
                grid.site_cost, m, spec.spacing, spec.origin, (0.5, 0.5))
            assert res.value == brute == cover

    def test_cover_oracle_and_cycle_validity_random(self):
        spec, grid = self._grid(16, 2024, eps=0.125)
        ann = Annulus(center=(0.5, 0.5), r_inner=0.15, r_outer=0.36)
        res = dist_around_annulus(grid, ann, want_path=True)
        m = region_mask(spec, ann)
        cover = oracles.cover_relax_around(
            grid.site_cost, m, spec.spacing, spec.origin, (0.5, 0.5))
        assert res.value == cover
        ok, parity, n_edges = oracles.path_cycle_checks(
            list(res.path.sites), m, spec.spacing, spec.origin, (0.5, 0.5))
        assert ok and parity and n_edges >= 3
        acc = 0.0
        for u, v in zip(res.path.sites, res.path.sites[1:]):
            acc = acc + edge_weight(grid, u, v)
        assert acc == res.value
        # a cycle needs at least two edges of at least the cheapest weight
        w_min = 2.0 * grid.site_cost[m].min() * 0.5 * spec.spacing
        assert res.value >= 2.0 * w_min

    def test_zero_field_reference_instance(self):
        spec, grid = zero_grid(32, 1.0 / 32.0)
        ann = Annulus(center=(0.5, 0.5), r_inner=0.18, r_outer=0.30)
        res = dist_around_annulus(grid, ann, want_path=True)
        assert res.value == ZERO32_AROUND
        m = region_mask(spec, ann)
        cover = oracles.cover_relax_around(
            grid.site_cost, m, spec.spacing, spec.origin, (0.5, 0.5))
        assert res.value == cover
        # circumference heuristic: close to 2 pi 0.2 for a ring at that radius
        assert abs(res.value / (2.0 * math.pi * 0.2) - 1.0) <= 0.15
        ok, parity, _ = oracles.path_cycle_checks(
            list(res.path.sites), m, spec.spacing, spec.origin, (0.5, 0.5))
        assert ok and parity

    def test_constant_field_scales_like_weyl(self):
        spec, g0 = zero_grid(32, 1.0 / 32.0, xi=0.3)
        c = 1.1
        g1 = build_weighted_grid(
            make_moll(spec, np.full((32, 32), c)), 0.3)
        ann = Annulus(center=(0.5, 0.5), r_inner=0.18, r_outer=0.30)
        d0 = dist_around_annulus(g0, ann).value
        d1 = dist_around_annulus(g1, ann).value
        assert d1 / (math.exp(0.3 * c) * d0) == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        spec, grid = self._grid(16, 77, eps=0.125)
        ann = Annulus(center=(0.5, 0.5), r_inner=0.15, r_outer=0.36)
        a = dist_around_annulus(grid, ann, want_path=True)
        b = dist_around_annulus(grid, ann, want_path=True)
        assert a.value == b.value and a.path.sites == b.path.sites

    def test_narrow_annulus_rejected(self):
        spec, grid = zero_grid(16, 1.0 / 16.0)
        with pytest.raises(DegenerateAnnulus):
            dist_around_annulus(grid, Annulus(center=(0.5, 0.5),
                                              r_inner=0.2, r_outer=0.3))

    def test_annulus_outside_active_region_rejected(self, field64, params02):
        box = region_box(field64.spec, Disk(center=(2.0, 2.0), radius=0.4))
        grid = build_weighted_grid(mollify_localized(field64, 0.25, box=box),
                                   params02.xi)
        with pytest.raises(OutOfRegion):
            dist_around_annulus(grid, Annulus(center=(2.0, 2.0),
                                              r_inner=0.3, r_outer=0.8))
