"""Acceptance gate: twelve criteria, one test (and one report line) each.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion.  Statistical criteria run at their stated scale with fixed seeds;
each test also enforces its wall-clock budget.  Criteria 7/8/11/12 share one
Monte Carlo configuration through the in-process estimate cache, mirroring
how a study would reuse normalizer estimates.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import oracles
from conftest import random_grid, zero_grid
from lfpp import (
    LatticeSpec,
    Mask,
    MCConfig,
    Params,
    Rect,
    clear_estimate_cache,
    dist_point,
    dist_sets,
    estimate_a_eps,
    estimate_ladder,
    fit_exponent,
    lr_crossing,
    mollify_localized,
    normalizer_Z,
    sample_dirichlet_gff,
    sample_torus_gff,
    scaling_ratio,
)
from lfpp.cli import main as cli_main
from lfpp.experiments import (
    Verdict,
    convergence_diagnostic,
    gmc_mass,
    localized_gap,
    weyl_shift_test,
)

PARAMS = Params(xi=0.2)
LAT512 = LatticeSpec(n=512, spacing=4.0 / 512.0)
MC512 = MCConfig(lattice=LAT512, trials=200, master_seed=1,
                 workers=min(8, os.cpu_count() or 1))
LADDER = [2.0 ** -k for k in range(3, 7)]            # 1/8 .. 1/64
UNIT = Rect(lo=(1.5, 1.5), hi=(2.5, 2.5))

# Z values of the truncation window, frozen from the independent 2-D
# Cartesian Simpson quadrature in oracles.z_quadrature (4001^2 nodes); the
# oracle is re-run live at one scale in test_mollify.
Z_QUADRATURE = {
    0.2: 0.7594550414943796,
    0.1: 0.9402938815292928,
    0.05: 0.9896826374075587,
    0.01: 0.9999417590514119,
}


@pytest.fixture(scope="module")
def ladder_fit():
    """Estimates and exponent fit shared by criteria 7, 8 and 12."""
    clear_estimate_cache()
    ests = estimate_ladder(LADDER, PARAMS, MC512)
    return ests, fit_exponent(ests, PARAMS)


@pytest.fixture(scope="module")
def field1024():
    return sample_torus_gff(LatticeSpec(n=1024, spacing=4.0 / 1024.0), 909)


def test_c01_small_grids_match_brute_force():
    """dist_point / dist_sets / lr_crossing equal an independent solver."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for trial in range(100):
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
    assert time.perf_counter() - t0 < 10.0


def test_c02_zero_field_distances_are_exact():
    """On the zero field, crossings and axis distances are exact binary sums."""
    t0 = time.perf_counter()
    spec, grid = zero_grid(512, 4.0 / 512.0, xi=PARAMS.xi)
    assert lr_crossing(grid, UNIT).value == 1.0
    assert dist_point(grid, (1.75, 2.0), (2.25, 2.0)).value == 0.5
    assert dist_point(grid, (2.0, 1.5), (2.0, 2.5)).value == 1.0
    assert time.perf_counter() - t0 < 5.0


def test_c03_weyl_shift_is_exact_to_1e10():
    """Adding c to the field multiplies distances by exp(xi*c) at 1e-10."""
    t0 = time.perf_counter()
    field = sample_torus_gff(LatticeSpec(n=256, spacing=4.0 / 256.0), 2025)
    rng = np.random.default_rng(3)
    pairs = []
    while len(pairs) < 20:
        z = tuple(rng.uniform(1.55, 2.43, 2))
        w = tuple(rng.uniform(1.55, 2.43, 2))
        if max(abs(z[0] - w[0]), abs(z[1] - w[1])) > 0.05:
            pairs.append((z, w))
    rep = weyl_shift_test(field, 0.125, 1.0, pairs, PARAMS)
    assert rep.verdict is Verdict.PASS
    assert len(rep.rows) == 20
    assert rep.stats["max_rel_err"] <= 1e-10
    assert time.perf_counter() - t0 < 30.0


def test_c04_normalizer_matches_quadrature_and_tail_bound():
    """Z agrees with 2-D quadrature at 1e-6; 1-Z obeys the Gaussian bound."""
    t0 = time.perf_counter()
    for eps, quad in Z_QUADRATURE.items():
        z = normalizer_Z(eps, 1.0 / 128.0)
        assert z == pytest.approx(quad, abs=1e-6)
        assert 1.0 - z <= math.exp(-math.log(1.0 / eps) ** 2 / 4.0)
    assert time.perf_counter() - t0 < 5.0


def test_c05_localized_smoothing_has_exact_support():
    """Zeroing the field beyond rho changes the smoothed value by exactly 0."""
    t0 = time.perf_counter()
    spec = LatticeSpec(n=128, spacing=4.0 / 128.0)
    field = sample_torus_gff(spec, 321)
    eps = 0.125
    rho = eps * math.log(1.0 / eps)
    base = mollify_localized(field, eps)
    xs, ys = spec.axis_coords()
    side = spec.n * spec.spacing
    rng = np.random.default_rng(17)
    for _ in range(10):
        i, j = (int(v) for v in rng.integers(0, spec.n, 2))
        dx = np.abs(xs - xs[j])
        dy = np.abs(ys - ys[i])
        dx = np.minimum(dx, side - dx)
        dy = np.minimum(dy, side - dy)
        ball = (dy[:, None] ** 2 + dx[None, :] ** 2) < rho ** 2
        hollowed = field.values.copy()
        hollowed[~ball] = 0.0
        redone = mollify_localized(
            type(field)(spec=spec, kind=field.kind, seed=field.seed,
                        values=hollowed, mean_removed=False), eps)
        assert redone.values[i, j] == base.values[i, j]
    assert time.perf_counter() - t0 < 10.0


def test_c06_dirichlet_covariance_matches_green_function():
    """Empirical covariance over 4000 seeds within 3 bootstrap SE of Green."""
    t0 = time.perf_counter()
    spec = LatticeSpec(n=32, spacing=0.03125)
    pairs = [((8, 8), (8, 8)), ((8, 8), (16, 16)), ((16, 16), (16, 16)),
             ((8, 16), (16, 8)), ((4, 4), (28, 28))]
    n_seeds = 4000
    prods = np.empty((len(pairs), n_seeds))
    for s in range(n_seeds):
        h = sample_dirichlet_gff(spec, 50_000 + s).values
        for k, (a, b) in enumerate(pairs):
            prods[k, s] = h[a] * h[b]
    rng = np.random.default_rng(8)
    idx = rng.integers(0, n_seeds, size=(1000, n_seeds))
    for k, (a, b) in enumerate(pairs):
        emp = prods[k].mean()
        se = prods[k][idx].mean(axis=1).std()
        green = oracles.dirichlet_green(spec.n, spec.spacing, a, b)
        assert abs(emp - green) <= 3.0 * se, (
            f"pair {a}-{b}: emp {emp:.5f} vs green {green:.5f}, 3se {3*se:.5f}")
    assert time.perf_counter() - t0 < 120.0


def test_c07_exponent_fit_certifies_q_above_two(ladder_fit):
    """OLS on the 512-lattice ladder: tight slope error and q_hat > 2."""
    t0 = time.perf_counter()
    ests, fit = ladder_fit
    assert len(ests) == 4 and all(e.trials == 200 for e in ests)
    assert fit.stderr_slope < 0.05
    # one-sided t test at 95%, df = 2: reject q <= 2
    t_stat = (fit.q_hat - 2.0) / (fit.stderr_slope / PARAMS.xi)
    assert t_stat > 2.92, f"q_hat {fit.q_hat:.3f}, t {t_stat:.2f}"
    assert time.perf_counter() - t0 < 1800.0


def test_c08_scale_ratio_tightens_toward_fine_scales(ladder_fit):
    """rho(eps, 1/2) ends closer to 1 at the fine end; rho(eps, 1) == 1."""
    t0 = time.perf_counter()
    _, fit = ladder_fit
    series = scaling_ratio(LADDER, 0.5, PARAMS, MC512, fit.q_hat)
    rows = series.rows
    assert abs(rows[-1][1] - 1.0) < abs(rows[0][1] - 1.0), rows
    ones = scaling_ratio(LADDER, 1.0, PARAMS, MC512, fit.q_hat)
    assert [rho for _, rho in ones.rows] == [1.0] * len(LADDER)
    assert time.perf_counter() - t0 < 1800.0


def test_c09_localized_gap_closes_down_the_ladder(field1024):
    """Field gap and distance-ratio deviation both fall along the ladder."""
    t0 = time.perf_counter()
    rep = localized_gap(field1024, LADDER, UNIT, PARAMS)
    assert rep.verdict is Verdict.PASS, rep.rows
    assert rep.stats["last_gap"] < rep.stats["first_gap"]
    assert rep.stats["last_dev"] < rep.stats["first_dev"]
    assert time.perf_counter() - t0 < 600.0


def test_c10_gmc_mass_settles_and_zero_coupling_is_exact(field1024):
    """Unit-coupling masses settle; the zero-coupling mass is the area."""
    t0 = time.perf_counter()
    ladder = [2.0 ** -k for k in range(3, 8)]
    rep = gmc_mass(field1024, 1.0, ladder, UNIT)
    assert rep.verdict is Verdict.PASS, rep.rows
    control = gmc_mass(field1024, 1e-9, ladder, UNIT)
    assert abs(control.stats["final_mass"] - 1.0) <= 1e-6
    assert time.perf_counter() - t0 < 300.0


def test_c11_normalized_distances_converge(ladder_fit):
    """Successive normalized-distance diffs shrink (Spearman at 10%)."""
    t0 = time.perf_counter()
    # Pairs are macroscopic: separations well above the coarsest smoothing
    # scale (1/8), where the Cauchy trend dominates near-field lattice noise.
    rng = np.random.default_rng(11)
    pairs = []
    while len(pairs) < 10:
        z = tuple(rng.uniform(1.52, 2.48, 2))
        w = tuple(rng.uniform(1.52, 2.48, 2))
        if max(abs(z[0] - w[0]), abs(z[1] - w[1])) > 0.5:
            pairs.append((z, w))
    rep = convergence_diagnostic(pairs, LADDER, PARAMS, MC512)
    assert rep.verdict is Verdict.PASS, rep.stats
    assert rep.stats["spearman_p"] <= 0.10
    assert time.perf_counter() - t0 < 1200.0


def test_c12_thread_count_never_changes_outputs(ladder_fit, tmp_path):
    """Pool sizes are throughput settings; primary outputs are byte-stable.

    Thread counts enter the library only as MCConfig.workers, the size of
    estimate_a_eps's process pool (runners receive it inside `mc` and are
    otherwise pure functions of their seeds, which the rerun checks in the
    module suites cover).  Here the parallel full-scale estimate from
    criterion 7 is reproduced serially and bit-compared, and a CLI run is
    byte-compared across thread counts.
    """
    t0 = time.perf_counter()
    ests, _ = ladder_fit
    serial_mc = MCConfig(lattice=LAT512, trials=200,
                         master_seed=MC512.master_seed, workers=1)
    clear_estimate_cache()
    serial = estimate_a_eps(LADDER[-1], PARAMS, serial_mc)
    parallel = ests[-1]
    assert (serial.median, serial.ci_lo, serial.ci_hi) == \
           (parallel.median, parallel.ci_lo, parallel.ci_hi)

    args = ["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "64",
            "--spacing", "auto", "--trials", "30", "--seed", "424242"]
    one = tmp_path / "one.json"
    four = tmp_path / "four.json"
    clear_estimate_cache()
    assert cli_main(args + ["--threads", "1", "--out", str(one)]) == 0
    clear_estimate_cache()
    assert cli_main(args + ["--threads", "4", "--out", str(four)]) == 0
    assert one.read_bytes() == four.read_bytes()
    assert json.loads(one.read_text())["median"] > 0
    assert time.perf_counter() - t0 < 600.0
