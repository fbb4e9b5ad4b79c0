"""Field samplers: determinism, covariance structure, evaluation helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lfpp import (
    InvalidArgument,
    InvalidSpec,
    LatticeSpec,
    OutOfDomain,
    Params,
    add_function,
    circle_average,
    heat_kernel,
    rescale_field,
    sample_dirichlet_gff,
    sample_torus_gff,
)
from lfpp.gff import FieldKind, _dyadic_exponent

# Mode-sum variogram values for the n=128 torus, frozen from tests/oracles.py
# (torus_variogram is an independent double sum over the spectrum).
VARIOGRAM_128 = {
    (0, 16): 1.2372651778674189,
    (16, 16): 1.339968149872369,
    (0, 32): 1.4334658919612677,
}

# Eigen-series Green's function for the n=32, spacing=1/32 Dirichlet square,
# frozen from tests/oracles.py.
GREEN_32 = {
    ((8, 8), (8, 8)): 0.5641542743882016,
    ((8, 8), (16, 16)): 0.06871326652841167,
}


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            LatticeSpec(n=12, spacing=0.1)     # not a power of two
        with pytest.raises(InvalidSpec):
            LatticeSpec(n=1, spacing=0.1)
        with pytest.raises(InvalidSpec):
            LatticeSpec(n=16, spacing=0.0)
        with pytest.raises(InvalidSpec):
            LatticeSpec(n=16, spacing=-1.0)
        with pytest.raises(InvalidSpec):
            LatticeSpec(n=16, spacing=0.1, origin=(math.nan, 0.0))

    def test_size_is_capped(self):
        assert LatticeSpec(n=4096, spacing=1.0).n == 4096
        with pytest.raises(InvalidSpec, match="at most 4096"):
            LatticeSpec(n=8192, spacing=1.0)

    def test_side_and_coords(self):
        spec = LatticeSpec(n=8, spacing=0.25, origin=(1.0, -2.0))
        assert spec.side == 2.0
        xs, ys = spec.axis_coords()
        assert xs[0] == 1.0 and xs[-1] == 1.0 + 7 * 0.25
        assert ys[0] == -2.0
        assert spec.point_of(2, 3) == (1.75, -1.5)

    def test_index_of_snaps_to_nearest(self):
        spec = LatticeSpec(n=8, spacing=0.5)
        assert spec.index_of((1.74, 0.2)) == (0, 3)
        assert spec.index_of((0.0, 0.0)) == (0, 0)

    def test_index_of_half_tie_takes_smaller_index(self):
        spec = LatticeSpec(n=8, spacing=0.5)
        # x = 0.25 sits exactly between columns 0 and 1
        assert spec.index_of((0.25, 0.25)) == (0, 0)
        assert spec.index_of((0.75, 1.25)) == (2, 1)

    def test_index_of_rejects_outside(self):
        spec = LatticeSpec(n=8, spacing=0.5)
        with pytest.raises(OutOfDomain):
            spec.index_of((3.8, 0.0))   # beyond last site + half spacing
        with pytest.raises(OutOfDomain):
            spec.index_of((0.0, -0.3))
        with pytest.raises(InvalidArgument):
            spec.index_of((math.inf, 0.0))

    @settings(max_examples=200, derandomize=True)
    @given(st.tuples(*[st.floats(-1.79e308, 1.79e308, allow_nan=False)] * 2),
           st.sampled_from([0.5, 1.0 / 512, 1e-300]),
           st.sampled_from([(0.0, 0.0), (-1e308, 1e308)]))
    def test_index_of_any_finite_point(self, point, spacing, origin):
        """A finite point snaps to a site or raises OutOfDomain, even where
        its offset in spacings overflows."""
        spec = LatticeSpec(n=8, spacing=spacing, origin=origin)
        try:
            i, j = spec.index_of(point)
        except OutOfDomain:
            return
        assert 0 <= i < 8 and 0 <= j < 8

    def test_index_of_overflow_is_out_of_domain(self):
        spec = LatticeSpec(n=64, spacing=1.0 / 64)
        for point in ((1e308, 1.0), (1.0, -1.79e308), (1.79e308, 1.79e308)):
            with pytest.raises(OutOfDomain):
                spec.index_of(point)

    @settings(max_examples=25, derandomize=True)
    @given(st.integers(0, 31), st.integers(0, 31))
    def test_point_index_roundtrip(self, i, j):
        spec = LatticeSpec(n=32, spacing=0.125, origin=(-1.0, 2.0))
        assert spec.index_of(spec.point_of(i, j)) == (i, j)


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            Params(xi=0.0)
        with pytest.raises(InvalidSpec):
            Params(xi=-0.2)
        with pytest.raises(InvalidSpec):
            Params(xi=math.nan)

    def test_supercritical_threshold(self):
        assert Params(xi=0.41).supercritical
        assert Params(xi=0.5).supercritical
        assert not Params(xi=0.40999).supercritical


class TestTorusSampler:
    def test_determinism_and_seed_sensitivity(self):
        spec = LatticeSpec(n=32, spacing=0.125)
        a = sample_torus_gff(spec, 99)
        b = sample_torus_gff(spec, 99)
        c = sample_torus_gff(spec, 100)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.kind == FieldKind.TORUS_WHOLE_PLANE and a.mean_removed

    def test_needs_n_at_least_8(self):
        with pytest.raises(InvalidSpec):
            sample_torus_gff(LatticeSpec(n=4, spacing=0.1), 1)

    def test_seed_range_checked(self):
        spec = LatticeSpec(n=16, spacing=0.1)
        with pytest.raises(InvalidArgument):
            sample_torus_gff(spec, -1)
        with pytest.raises(InvalidArgument):
            sample_torus_gff(spec, 2 ** 64)

    def test_mean_is_removed_to_rounding(self):
        f = sample_torus_gff(LatticeSpec(n=64, spacing=0.1), 3)
        assert abs(float(f.values.mean())) < 1e-15

    def test_variogram_matches_mode_sum(self):
        """Empirical increment variance vs the spectral oracle, 3 lags."""
        spec = LatticeSpec(n=128, spacing=1.0 / 32.0)
        lags = list(VARIOGRAM_128)
        per_trial = {lag: [] for lag in lags}
        for t in range(300):
            v = sample_torus_gff(spec, 10_000 + t).values
            for (di, dj) in lags:
                d = v - np.roll(np.roll(v, -di, axis=0), -dj, axis=1)
                per_trial[(di, dj)].append(float((d * d).mean()))
        for lag, frozen in VARIOGRAM_128.items():
            assert oracles.torus_variogram(128, lag) == pytest.approx(
                frozen, abs=1e-12)
            vals = np.array(per_trial[lag])
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - frozen) <= 4.0 * se, (
                f"lag {lag}: {vals.mean():.5f} vs {frozen:.5f} (se {se:.4f})")

    def test_log_growth_slope(self):
        """Variogram grows like (1/pi) log(lag) at small lags."""
        v = {d: oracles.torus_variogram(128, (0, d)) for d in (2, 4, 8, 16)}
        for d1, d2 in ((2, 4), (4, 8), (8, 16)):
            slope = (v[d2] - v[d1]) / math.log(d2 / d1)
            assert 0.95 < slope * math.pi < 1.01


class TestTorusSamplerMatchesReference:
    """The real-input torus sampler gives the one-expression `rfft2`
    synthesis of tests/oracles.py bit for bit, and the complex full-plane
    synthesis it replaced to rounding."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.sampled_from((8, 64, 128, 256)), st.integers(0, 2 ** 64 - 1))
    def test_values_equal_reference(self, n, seed):
        got = sample_torus_gff(LatticeSpec(n=n, spacing=4.0 / n), seed).values
        assert got.tobytes() == oracles.torus_gff_reference(n, seed).tobytes()

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.sampled_from((64, 128, 256)), st.integers(0, 2 ** 64 - 1))
    def test_values_match_full_plane_synthesis(self, n, seed):
        got = sample_torus_gff(LatticeSpec(n=n, spacing=4.0 / n), seed).values
        want = oracles.torus_gff_full_plane(n, seed)
        assert np.abs(got - want).max() <= 1e-12


class TestDirichletSampler:
    def test_boundary_zero_and_determinism(self):
        spec = LatticeSpec(n=32, spacing=0.03125)
        f = sample_dirichlet_gff(spec, 7)
        assert np.all(f.values[0] == 0.0) and np.all(f.values[-1] == 0.0)
        assert np.all(f.values[:, 0] == 0.0) and np.all(f.values[:, -1] == 0.0)
        g = sample_dirichlet_gff(spec, 7)
        assert np.array_equal(f.values, g.values)
        assert f.kind == FieldKind.DIRICHLET_SQUARE and not f.mean_removed

    def test_covariance_light(self):
        """Empirical covariance at 2 site pairs over 800 seeds, 4 SE band.

        The full 5-pair 4000-seed drill runs in the acceptance suite.
        """
        spec = LatticeSpec(n=32, spacing=0.03125)
        prods = {pair: [] for pair in GREEN_32}
        for s in range(800):
            v = sample_dirichlet_gff(spec, 50_000 + s).values
            for (a, b) in GREEN_32:
                prods[(a, b)].append(float(v[a] * v[b]))
        for (a, b), frozen in GREEN_32.items():
            assert oracles.dirichlet_green(32, 0.03125, a, b) == pytest.approx(
                frozen, abs=1e-12)
            vals = np.array(prods[(a, b)])
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - frozen) <= 4.0 * se


class TestEvaluationHelpers:
    def test_circle_average_is_linear_in_shifts(self):
        spec = LatticeSpec(n=32, spacing=0.125)
        f = sample_torus_gff(spec, 5)
        base = circle_average(f, (2.0, 2.0), 0.5)
        assert math.isfinite(base)
        shifted = circle_average(add_function(f, lambda x, y: x - 1.0), (2.0, 2.0), 0.5)
        # bilinear sampling is linear, so the plane shift passes through;
        # the x part averages to the center abscissa over the full circle
        assert shifted == pytest.approx(base + 2.0 - 1.0, abs=1e-9)

    def test_circle_average_domain_check(self):
        spec = LatticeSpec(n=32, spacing=0.125)
        f = sample_torus_gff(spec, 5)
        with pytest.raises(OutOfDomain):
            circle_average(f, (0.1, 2.0), 0.5)
        with pytest.raises(InvalidArgument):
            circle_average(f, (2.0, 2.0), -0.1)

    def test_heat_kernel_shape(self):
        assert heat_kernel(0.0, 0.5) == pytest.approx(1.0 / (2.0 * math.pi * 0.5))
        r = np.array([0.0, 0.3, 1.0])
        out = heat_kernel(r, 0.02)
        assert out.shape == (3,) and np.all(np.diff(out) < 0)
        # unit mass: 2*pi*int r p_t(r) dr = 1
        rr = np.linspace(0.0, 3.0, 20001)
        mass = np.trapezoid(2.0 * math.pi * rr * heat_kernel(rr, 0.02), rr)
        assert mass == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(InvalidArgument):
            heat_kernel(1.0, 0.0)


class TestAddFunction:
    def test_adds_plane_function(self, field64):
        g = add_function(field64, lambda x, y: 2.0 * x - y)
        xs, ys = field64.spec.axis_coords()
        want = field64.values + (2.0 * xs[None, :] - ys[:, None])
        assert np.allclose(g.values, want, atol=0.0, rtol=0.0)
        assert g.derived and not g.mean_removed

    def test_scalar_only_callable(self, field64):
        def f(x, y):
            if not np.isscalar(x) and getattr(x, "shape", ()) != ():
                raise TypeError("scalar arguments only")
            return float(x) + 1.0

        g = add_function(field64, f)
        xs, _ = field64.spec.axis_coords()
        assert g.values[0, 3] == pytest.approx(field64.values[0, 3] + xs[3] + 1.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_rejects_non_finite(self, field64):
        with pytest.raises(InvalidArgument):
            add_function(field64, lambda x, y: x * math.inf)


class TestRescaleField:
    def test_identity_at_a_1(self, field64):
        g = rescale_field(field64, 1.0, field64.spec.origin, q_hat=3.7)
        assert np.array_equal(g.values, field64.values)
        assert g.spec.n == field64.spec.n

    def test_composition_matches_single_step(self, field128):
        q = 2.5
        b = field128.spec.origin
        two = rescale_field(rescale_field(field128, 2.0, b, q), 2.0, b, q)
        four = rescale_field(field128, 4.0, b, q)
        assert two.spec.n == four.spec.n == 32
        assert np.allclose(two.values, four.values, rtol=0.0, atol=1e-12)

    def test_refine_then_coarsen_recovers_field(self, field128):
        q = 1.3
        b = field128.spec.origin
        down = rescale_field(field128, 0.5, b, q)
        back = rescale_field(down, 2.0, b, q)   # log(1/2) + log(2) cancel
        # interpolation lands on integer positions, so values are exact
        assert back.spec.n == 64
        assert np.allclose(back.values, field128.values[:64, :64],
                           rtol=0.0, atol=1e-12)

    def test_torus_wraps_dirichlet_does_not(self):
        corner_b = (63 * 0.125, 0.0)   # last lattice point: window wraps
        tor = sample_torus_gff(LatticeSpec(n=64, spacing=0.125), 8)
        wrapped = rescale_field(tor, 2.0, corner_b, 0.0)
        assert wrapped.spec.n == 32  # wraps, no error
        dir_f = sample_dirichlet_gff(LatticeSpec(n=64, spacing=0.125), 8)
        with pytest.raises(OutOfDomain):
            rescale_field(dir_f, 2.0, corner_b, 0.0)

    def test_validation(self, field64):
        b = field64.spec.origin
        with pytest.raises(InvalidArgument):
            rescale_field(field64, 3.0, b, 1.0)       # not a power of two
        with pytest.raises(InvalidArgument):
            rescale_field(field64, 16.0, b, 1.0)      # exceeds log2(n) - 3
        with pytest.raises(InvalidArgument):
            rescale_field(field64, 2.0, (b[0] + 0.01, b[1]), 1.0)  # off lattice
        with pytest.raises(InvalidArgument):
            rescale_field(field64, 2.0, b, math.nan)

    def test_scale_factor_is_an_exact_power_of_two(self, field64):
        b = field64.spec.origin
        near_two = 2.0 * (1.0 + 2.0 ** -45)    # log2 within 1e-12 of 1, yet not 2
        with pytest.raises(InvalidArgument):
            rescale_field(field64, near_two, b, 1.0)
        for k in range(-3, 4):                   # |k| <= log2(64) - 3
            assert rescale_field(field64, 2.0 ** k, b, 0.0).spec.n == 64 >> max(k, 0)
        assert [_dyadic_exponent(2.0 ** k) for k in range(-60, 61)] == list(range(-60, 61))

    def test_q_hat_shift_enters_additively(self, field64):
        b = field64.spec.origin
        g0 = rescale_field(field64, 2.0, b, 0.0)
        g1 = rescale_field(field64, 2.0, b, 4.0)
        assert np.allclose(g1.values - g0.values, 4.0 * math.log(2.0),
                           rtol=0.0, atol=1e-12)
