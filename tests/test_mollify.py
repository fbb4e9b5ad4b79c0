"""Smoothing kernels: normalization, locality, retained-mass accounting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import localized_fields, widest_localized_eps
from lfpp import (
    InvalidArgument,
    LatticeSpec,
    MollificationTooFine,
    MollifiedField,
    InvalidSpec,
    add_function,
    bump,
    mollify,
    mollify_localized,
    normalizer_Z,
    sample_torus_gff,
)
from lfpp import gff
from lfpp.gff import FieldKind, FieldSample, _localized_range, _stencil_reach

# Retained-mass values frozen from the 2-D Cartesian Simpson oracle in
# tests/oracles.py (z_quadrature); the implementation integrates radially.
Z_FROZEN = {
    0.2: 0.7594550414943796,
    0.1: 0.9402938815292928,
    0.05: 0.9896826374075587,
    0.01: 0.9999417590514119,
}


def torus_ball_mask(spec: LatticeSpec, site, radius: float) -> np.ndarray:
    """Sites within torus distance < radius of the given site."""
    n = spec.n
    idx = np.arange(n)
    di = np.minimum(np.abs(idx - site[0]), n - np.abs(idx - site[0]))
    dj = np.minimum(np.abs(idx - site[1]), n - np.abs(idx - site[1]))
    dist = np.hypot(di[:, None], dj[None, :]) * spec.spacing
    return dist < radius


class TestBump:
    def test_plateau_support_and_range(self):
        eps = 0.1
        rho = eps * math.log(1.0 / eps)
        assert bump(0.0, eps) == 1.0
        assert bump(0.49 * rho, eps) == 1.0
        assert bump(rho, eps) == 0.0
        assert bump(1.7 * rho, eps) == 0.0
        xs = np.linspace(0.0, 1.2 * rho, 400)
        vals = bump(xs, eps)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        mid = vals[(xs > 0.5 * rho) & (xs < rho)]
        assert np.all(np.diff(mid) <= 1e-12)   # non-increasing through the ramp

    def test_epsilon_domain(self):
        with pytest.raises(InvalidArgument):
            bump(0.1, 0.5)   # >= 1/e
        with pytest.raises(InvalidArgument):
            bump(0.1, 0.0)


class TestNormalizerZ:
    def test_matches_quadrature_oracle(self):
        for eps, frozen in Z_FROZEN.items():
            got = normalizer_Z(eps, 1.0 / 128.0)
            assert got == pytest.approx(frozen, abs=1e-12)

    def test_live_quadrature_at_one_scale(self):
        # one live run of the independent Cartesian Simpson oracle; the other
        # scales in Z_FROZEN were frozen from the same oracle
        assert normalizer_Z(0.1, 1.0 / 128.0) == pytest.approx(
            oracles.z_quadrature(0.1), abs=1e-12)

    def test_complement_bound(self):
        # 1 - Z is controlled by the Gaussian tail beyond the plateau
        for eps in Z_FROZEN:
            z = normalizer_Z(eps, 1.0 / 128.0)
            assert 0.0 < z <= 1.0
            assert 1.0 - z <= math.exp(-math.log(1.0 / eps) ** 2 / 4.0)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            normalizer_Z(0.5, 0.01)
        with pytest.raises(InvalidArgument):
            normalizer_Z(0.1, 0.0)


class TestPlainMollify:
    def test_constant_passthrough(self, field64):
        # smoothing is linear and the kernel has unit sum
        base = mollify(field64, 0.25)
        moll = mollify(add_function(field64, lambda x, y: 2.5), 0.25)
        assert np.allclose(moll.values - base.values, 2.5, rtol=0.0, atol=1e-12)

    def test_matches_direct_convolution(self):
        """FFT smoothing vs a direct O(n^4) torus convolution, n=16."""
        spec = LatticeSpec(n=16, spacing=1.0 / 4.0)
        f = sample_torus_gff(spec, 31)
        eps = 0.8
        d = np.minimum(np.arange(16), 16 - np.arange(16)) * spec.spacing
        kernel = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / eps ** 2)
        kernel /= kernel.sum()
        idx = np.arange(16)
        direct = np.empty((16, 16))
        for i in range(16):
            for j in range(16):
                direct[i, j] = float(
                    (kernel * f.values[np.ix_((i - idx) % 16, (j - idx) % 16)]).sum())
        got = mollify(f, eps)
        assert np.allclose(got.values, direct, rtol=0.0, atol=1e-12)
        assert got.z_epsilon == 1.0 and not got.localized

    def test_floor(self, field64):
        with pytest.raises(MollificationTooFine):
            mollify(field64, 1.9 * field64.spec.spacing)

    def test_spectrum_of_another_shape_rejected(self, field64):
        values = field64.values
        for spectrum in (np.zeros((32, 17), dtype=complex),
                         np.fft.fft2(values),               # full plane
                         np.fft.rfft2(values).real,         # not complex
                         np.fft.rfft2(values).astype(np.complex64),
                         np.fft.rfft2(values).tolist()):
            with pytest.raises(InvalidSpec):
                mollify(field64, 0.25, spectrum=spectrum)


class TestPlainMatchesReference:
    """`mollify`, with its own field spectrum or a caller's, gives the
    one-expression real-input smoothing of tests/oracles.py bit for bit, and
    the 2-D kernel `fft2` smoothing it replaced to rounding."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.sampled_from((64, 128, 256)), st.integers(0, 2 ** 64 - 1), st.data())
    def test_values_equal_reference(self, n, seed, data):
        spec = LatticeSpec(n=n, spacing=4.0 / n)
        field = sample_torus_gff(spec, seed)
        eps = data.draw(st.floats(8.0 / n, 2.0))
        want = oracles.plain_mollify_reference(field.values, spec.spacing, eps).tobytes()
        assert mollify(field, eps).values.tobytes() == want
        spectrum = np.fft.rfft2(field.values)
        kept = spectrum.copy()
        assert mollify(field, eps, spectrum=spectrum).values.tobytes() == want
        assert spectrum.tobytes() == kept.tobytes()

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.sampled_from((64, 128, 256)), st.integers(0, 2 ** 64 - 1), st.data())
    def test_values_match_full_plane_smoothing(self, n, seed, data):
        spec = LatticeSpec(n=n, spacing=4.0 / n)
        field = sample_torus_gff(spec, seed)
        eps = data.draw(st.floats(8.0 / n, 2.0))
        want = oracles.plain_mollify_full_plane(field.values, spec.spacing, eps)
        assert np.abs(mollify(field, eps).values - want).max() <= 1e-12


class TestPlainBox:
    """Plain smoothing of a box is the full lattice's values there, bit for
    bit, with or without a caller's spectrum, from one row or column up to
    the whole lattice."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), with_spectrum=st.booleans(), data=st.data())
    def test_box_equals_full_lattice_slice(self, n, seed, with_spectrum, data):
        spec = LatticeSpec(n=n, spacing=4.0 / n)
        field = sample_torus_gff(spec, seed)
        eps = data.draw(st.floats(8.0 / n, 2.0))
        spectrum = np.fft.rfft2(field.values) if with_spectrum else None
        full = mollify(field, eps, spectrum=spectrum)
        row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        picks = [(slice(row, row + 1), slice(0, n)), (slice(0, n), slice(col, col + 1)),
                 (slice(0, n), slice(0, n)), data.draw(boxes(n))]
        for box in picks:
            part = mollify(field, eps, spectrum=spectrum, box=box)
            assert part.offset == (box[0].start, box[1].start) and part.box == box
            assert part.values.tobytes() == full.values[box].tobytes()
            assert not part.localized and part.z_epsilon == 1.0

    @pytest.mark.parametrize("box", [
        (slice(0, 0), slice(0, 4)), (slice(0, 65), slice(0, 4)),
        (slice(0, 4, 2), slice(0, 4)), "rows", (slice(True, 5), slice(0, 4)),
    ], ids=["empty", "past-edge", "strided", "not-slices", "bool-start"])
    def test_bad_boxes_rejected(self, field64, box):
        with pytest.raises(InvalidArgument):
            mollify(field64, 0.25, box=box)

    def test_numpy_integer_bounds_are_whole_numbers(self, field64):
        box = (slice(np.int64(3), np.int32(9)), slice(np.uint8(0), np.int64(4)))
        part = mollify(field64, 0.25, box=box)
        assert part.offset == (3, 0) and part.values.shape == (6, 4)


class TestLocalizedMollify:
    def test_constant_passthrough(self, field64):
        base = mollify_localized(field64, 0.25)
        shifted = mollify_localized(add_function(field64, lambda x, y: 1.25), 0.25)
        assert np.allclose(shifted.values - base.values, 1.25,
                           rtol=0.0, atol=1e-12)

    def test_exact_locality(self, field64):
        """Values outside the truncation ball never reach the output."""
        spec = field64.spec
        eps = 0.25
        rho = eps * math.log(1.0 / eps)
        base = mollify_localized(field64, eps)
        rng = np.random.default_rng(17)
        for _ in range(10):
            site = (int(rng.integers(spec.n)), int(rng.integers(spec.n)))
            keep = torus_ball_mask(spec, site, rho)
            clipped = field64.values.copy()
            clipped[~keep] = rng.normal(size=int((~keep).sum())) * 10.0
            hacked = type(field64)(spec=spec, kind=field64.kind, seed=field64.seed,
                                   values=np.ascontiguousarray(clipped),
                                   mean_removed=False, derived=True)
            out = mollify_localized(hacked, eps)
            assert out.values[site] == base.values[site]   # bitwise

    def test_z_epsilon_range_and_flags(self, field64):
        out = mollify_localized(field64, 0.25)
        assert out.localized and 0.0 < out.z_epsilon <= 1.0
        assert out.z_epsilon < 1.0   # the window genuinely truncates

    def test_gap_shrinks_along_ladder(self, field128):
        sups = []
        for eps in (0.25, 0.125, 0.0625):
            a = mollify(field128, eps)
            b = mollify_localized(field128, eps)
            sups.append(float(np.abs(a.values - b.values).max()))
        assert sups[2] < sups[0]

    def test_floors_and_window_cap(self, field64):
        with pytest.raises(MollificationTooFine):
            mollify_localized(field64, 1.9 * field64.spec.spacing)
        with pytest.raises(InvalidArgument):
            mollify_localized(field64, 0.4)   # >= 1/e
        # window wider than the torus: small n, large eps relative to side
        tiny = sample_torus_gff(LatticeSpec(n=8, spacing=0.01), 3)
        with pytest.raises(InvalidArgument):
            mollify_localized(tiny, 0.03)

    def test_determinism(self, field64):
        a = mollify_localized(field64, 0.25)
        b = mollify_localized(field64, 0.25)
        assert np.array_equal(a.values, b.values)
        assert a.z_epsilon == b.z_epsilon


@st.composite
def boxes(draw, n: int):
    """A non-empty (rows, columns) box of the n x n lattice."""
    def axis():
        lo = draw(st.integers(0, n - 1))
        return slice(lo, draw(st.integers(lo + 1, n)))
    return (axis(), axis())


def corner_boxes(n: int):
    """Boxes touching row or column 0 and n - 1, whole axes included."""
    return [(slice(0, 1), slice(0, 1)), (slice(n - 1, n), slice(n - 1, n)),
            (slice(0, n), slice(n - 3, n)), (slice(2, 5), slice(0, n))]


class TestBoxSmoothing:
    """Smoothing a box of the lattice is the full lattice's values there,
    bit for bit, wherever the box sits and however wide the stencil."""

    @staticmethod
    def check_boxes(field, eps, picks):
        full = mollify_localized(field, eps)
        for box in picks:
            part = mollify_localized(field, eps, box=box)
            assert part.offset == (box[0].start, box[1].start)
            assert part.box == box
            assert np.array_equal(part.values, full.values[box])   # bitwise
            assert part.z_epsilon == full.z_epsilon and part.localized

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(localized_fields(), st.data())
    def test_box_equals_full_lattice_slice(self, case, data):
        field, eps = case
        n = field.spec.n
        self.check_boxes(field, eps, corner_boxes(n) + [data.draw(boxes(n))])

    @pytest.mark.parametrize("n", [16, 32])
    def test_widest_stencil(self, n):
        # 2m + 1 = n - 1: every box but a single site reaches around the torus
        spec = LatticeSpec(n=n, spacing=1.0 / 64.0)
        eps = widest_localized_eps(n, spec.spacing) * (1.0 - 1e-12)
        assert 2 * math.ceil(eps * math.log(1.0 / eps) / spec.spacing) + 1 == n - 1
        self.check_boxes(sample_torus_gff(spec, 9), eps,
                         corner_boxes(n) + [(slice(3, 4), slice(7, 9))])

    def test_full_box_is_the_default(self, field64):
        n = field64.spec.n
        whole = mollify_localized(field64, 0.25, box=(slice(0, n), slice(0, n)))
        assert whole.offset == (0, 0)
        assert np.array_equal(whole.values, mollify_localized(field64, 0.25).values)

    @pytest.mark.parametrize("box", [
        (slice(0, 0), slice(0, 4)), (slice(-1, 4), slice(0, 4)),
        (slice(0, 65), slice(0, 4)), (slice(0, 4, 2), slice(0, 4)),
        (slice(0, 4),), "rows",
    ], ids=["empty", "negative", "past-edge", "strided", "one-axis", "not-slices"])
    def test_bad_boxes_rejected(self, field64, box):
        with pytest.raises(InvalidArgument):
            mollify_localized(field64, 0.25, box=box)

    @pytest.mark.parametrize("eps, error", [(math.nan, InvalidArgument),
                                            (math.inf, InvalidArgument),
                                            (0.1, MollificationTooFine)])
    def test_scale_floor_holds_on_construction(self, field64, eps, error):
        # the one floor, gff.check_scale: 2 * spacing = 0.125 here
        with pytest.raises(error):
            MollifiedField(spec=field64.spec, kind=FieldKind.TORUS_WHOLE_PLANE,
                           epsilon=eps, values=np.zeros((64, 64)), localized=False,
                           z_epsilon=1.0, source_seed=0)

    def test_box_values_must_fit_the_lattice(self, field64):
        with pytest.raises(InvalidArgument):
            MollifiedField(spec=field64.spec, kind=FieldKind.TORUS_WHOLE_PLANE,
                           epsilon=0.25, values=np.zeros((4, 4)), localized=True,
                           z_epsilon=0.5, source_seed=0, offset=(62, 0))


class TestLocalizedRange:
    """`gff._localized_range` bounds every value the localized smoother
    returns from the raw field alone; `lfpp dist --localized` point queries
    take their cost floor from it."""

    @staticmethod
    def check(spec, values, eps):
        """The smoothed values, once checked against the bounds."""
        field = FieldSample(spec=spec, kind=FieldKind.TORUS_WHOLE_PLANE, seed=0,
                            values=values, mean_removed=False, derived=True)
        lo, hi = _localized_range(field, eps)
        out = mollify_localized(field, eps).values
        assert lo <= out.min() and out.max() <= hi
        return out

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(localized_fields(), st.sampled_from(["field", "shifted", "constant"]),
           st.integers(-3, 250), st.floats(-1.0, 1.0))
    def test_range_holds_every_value(self, case, kind, power, t):
        # sampled fields, fields moved off zero, and constants of either
        # sign, at magnitudes from 1e-3 to 1e250
        field, eps = case
        size = 10.0 ** power
        if kind == "constant":
            values = np.full_like(field.values, size * t)
        else:
            values = size * (field.values + (5.0 * t if kind == "shifted" else 0.0))
        self.check(field.spec, values, eps)

    def test_positive_constant_smooths_below_itself(self):
        # rounding takes every value an ulp below h, so min(h) is no bound
        out = self.check(LatticeSpec(n=64, spacing=1.0 / 64.0), np.full((64, 64), 7.0), 0.05)
        assert out.max() < 7.0

    def test_checks_the_scale_as_the_smoother_does(self, field64):
        with pytest.raises(MollificationTooFine):
            _localized_range(field64, 1.9 * field64.spec.spacing)
        with pytest.raises(InvalidArgument):
            _localized_range(field64, 0.4)


class TestFoldMatchesCorrelate:
    """The tiled quadrant fold over the padded block gives the quadrant rule
    of tests/oracles.py over the whole torus bit for bit, and scipy's
    wrap-mode correlation, which sums the taps in another order, to
    rounding."""

    @staticmethod
    def check(field, eps, picks):
        for box in picks:
            got = mollify_localized(field, eps, box=box).values
            assert np.array_equal(got, oracles.localized_reference(field, eps, box))
            near = oracles.localized_correlate(field, eps, box)
            assert np.abs(got - near).max() <= 1e-13 * np.abs(near).max()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(localized_fields(), st.data())
    def test_fold_equals_reference(self, case, data):
        field, eps = case
        n = field.spec.n
        self.check(field, eps, [(slice(0, n), slice(0, n)), data.draw(boxes(n))])

    @pytest.mark.parametrize("n", [16, 32])
    def test_widest_stencil(self, n):
        # 2m + 1 = n - 1: the padded block repeats almost the whole torus
        spec = LatticeSpec(n=n, spacing=1.0 / 64.0)
        eps = widest_localized_eps(n, spec.spacing) * (1.0 - 1e-12)
        assert 2 * math.ceil(eps * math.log(1.0 / eps) / spec.spacing) + 1 == n - 1
        self.check(sample_torus_gff(spec, 12), eps,
                   [(slice(0, n), slice(0, n)), (slice(5, 9), slice(n - 2, n))])

    def test_taps_at_the_floor(self):
        # Here the cutoff's tail leaves nonzero taps at or below DBL_EPSILON;
        # folding them in too moves bits (not so at n = 128, nor here at eps
        # 1/16).
        spec = LatticeSpec(n=256, spacing=4.0 / 256)
        self.check(sample_torus_gff(spec, 21), 0.125,
                   [(slice(0, 256), slice(0, 256)), (slice(90, 170), slice(0, 40))])


class TestFoldTiles:
    """The fold runs tile by tile over the flat padded block, `_TILE_SITES`
    lanes at a time; where the tiles end moves no bit, and the pad lanes
    between rows print no floating-point warning."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(localized_fields(), st.data())
    def test_tile_budgets_equal_reference(self, case, data):
        # one padded row per tile; three rows per tile, which leaves a
        # partial last tile on the whole lattice (n is a power of 2); and
        # one tile for the whole box
        field, eps = case
        n = field.spec.n
        _, m = _stencil_reach(field.spec, eps)
        for box in [(slice(0, n), slice(0, n)), data.draw(boxes(n))]:
            h, wide = box[0].stop - box[0].start, box[1].stop - box[1].start + 2 * m
            want = oracles.localized_reference(field, eps, box)
            for budget in (1, 4 * wide - 1, (h + 1) * wide):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(gff, "_TILE_SITES", budget)
                    assert np.array_equal(mollify_localized(field, eps, box=box).values, want)

    def test_huge_values_warn_nowhere(self):
        # A few values of +-1.7e308: sums over pad lanes may overflow where
        # no real lane does.  Each field smooths to the quadrant rule bit for
        # bit, or is refused when a real lane overflows, and never warns.
        rng = np.random.default_rng(31)
        spec = LatticeSpec(n=32, spacing=1.0 / 64.0)
        outcomes = set()
        for _ in range(60):
            values = rng.normal(size=(32, 32))
            huge = rng.choice(values.size, size=rng.integers(1, 4), replace=False)
            values.flat[huge] = 1.7e308 * rng.choice([-1.0, 1.0], size=huge.size)
            field = FieldSample(spec=spec, kind=FieldKind.TORUS_WHOLE_PLANE, seed=0,
                                values=values, mean_removed=False, derived=True)
            eps = rng.uniform(2.0 / 64.0, widest_localized_eps(32, 1.0 / 64.0) * (1.0 - 1e-12))
            lo = rng.integers(0, 32, size=2)
            box = (slice(lo[0], rng.integers(lo[0] + 1, 33)),
                   slice(lo[1], rng.integers(lo[1] + 1, 33)))
            with np.errstate(all="ignore"):
                want = oracles.localized_reference(field, eps, box)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if np.isfinite(want).all():
                    assert np.array_equal(mollify_localized(field, eps, box=box).values, want)
                else:
                    with pytest.raises(InvalidSpec):
                        mollify_localized(field, eps, box=box)
            outcomes.add(bool(np.isfinite(want).all()))
        assert outcomes == {True, False}
