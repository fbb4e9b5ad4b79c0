"""Normalizer estimation: seeding, caching, fits, ratio and certificates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lfpp import (
    DegenerateFit,
    InsufficientTrials,
    InvalidArgument,
    LatticeSpec,
    MCConfig,
    MedianEstimate,
    MollificationTooFine,
    Params,
    clear_estimate_cache,
    estimate_a_eps,
    fit_exponent,
    ladders_overlap,
    log_correction_check,
    scaling_ratio,
)
from lfpp import cache
from lfpp.renorm import crossing_square, estimate_cache_key, trial_seed

PARAMS = Params(xi=0.2)
SMALL_MC = MCConfig(lattice=LatticeSpec(n=32, spacing=0.125),
                    trials=24, master_seed=90210)


def _up(x: float) -> float:
    """The next float above x."""
    return float(np.nextafter(x, math.inf))


def _lattice(**changes) -> MCConfig:
    return replace(SMALL_MC, lattice=replace(SMALL_MC.lattice, **changes))


# (eps, params, mc) of an estimate one input away from (0.5, PARAMS, SMALL_MC)
(OX, OY), SPACING = SMALL_MC.lattice.origin, SMALL_MC.lattice.spacing
KEY_MOVES = {
    "eps": (_up(0.5), PARAMS, SMALL_MC),
    "xi": (0.5, Params(xi=_up(PARAMS.xi)), SMALL_MC),
    "spacing": (0.5, PARAMS, _lattice(spacing=_up(SPACING))),
    "origin_x": (0.5, PARAMS, _lattice(origin=(_up(OX), OY))),
    "origin_y": (0.5, PARAMS, _lattice(origin=(OX, _up(OY)))),
    "n": (0.5, PARAMS, _lattice(n=64)),
    "trials": (0.5, PARAMS, replace(SMALL_MC, trials=SMALL_MC.trials + 1)),
    "seed": (0.5, PARAMS, replace(SMALL_MC, master_seed=SMALL_MC.master_seed + 1)),
    "localized": (0.5, PARAMS, replace(SMALL_MC, localized=True)),
}


def synthetic_ladder(eps_list, med_fn, rel_ci=0.05):
    out = []
    for e in eps_list:
        m = med_fn(e)
        out.append(MedianEstimate(epsilon=e, median=m, trials=50,
                                  ci_lo=m * (1 - rel_ci), ci_hi=m * (1 + rel_ci),
                                  master_seed=1))
    return out


class TestSeeding:
    def test_trial_seeds_distinct_and_stable(self):
        seeds = [trial_seed(12345, i) for i in range(200)]
        assert len(set(seeds)) == 200
        assert seeds == [trial_seed(12345, i) for i in range(200)]
        assert trial_seed(12345, 0) != trial_seed(12346, 0)

    def test_crossing_square_centered(self):
        sq = crossing_square(LatticeSpec(n=64, spacing=0.0625))
        assert sq.lo == (1.5, 1.5) and sq.hi == (2.5, 2.5)

    def test_crossing_square_needs_room(self):
        with pytest.raises(InvalidArgument):
            crossing_square(LatticeSpec(n=16, spacing=0.1))


class TestEstimate:
    def test_too_few_trials(self):
        mc = MCConfig(lattice=LatticeSpec(n=32, spacing=0.125),
                      trials=19, master_seed=1)
        with pytest.raises(InsufficientTrials):
            estimate_a_eps(0.5, PARAMS, mc)

    def test_epsilon_floor(self):
        with pytest.raises(MollificationTooFine):
            estimate_a_eps(0.2, PARAMS, SMALL_MC)   # 2 * spacing = 0.25

    def test_deterministic_without_cache(self):
        clear_estimate_cache()
        a = estimate_a_eps(0.5, PARAMS, SMALL_MC)
        clear_estimate_cache()
        b = estimate_a_eps(0.5, PARAMS, SMALL_MC)
        assert b is not a
        assert (a.median, a.ci_lo, a.ci_hi) == (b.median, b.ci_lo, b.ci_hi)
        assert a.ci_lo <= a.median <= a.ci_hi

    def test_cache_returns_same_object(self):
        clear_estimate_cache()
        a = estimate_a_eps(0.5, PARAMS, SMALL_MC)
        b = estimate_a_eps(0.5, PARAMS, SMALL_MC)
        assert b is a
        clear_estimate_cache()
        c = estimate_a_eps(0.5, PARAMS, SMALL_MC)
        assert c is not a and c.median == a.median

    def test_parallel_matches_serial_bitwise(self):
        clear_estimate_cache()
        serial = estimate_a_eps(0.5, PARAMS, SMALL_MC)
        clear_estimate_cache()
        par_mc = replace(SMALL_MC, workers=3)
        par = estimate_a_eps(0.5, PARAMS, par_mc)
        assert par is not serial
        assert (par.median, par.ci_lo, par.ci_hi) == \
               (serial.median, serial.ci_lo, serial.ci_hi)
        # the pool size is not part of an estimate's identity
        assert estimate_cache_key(0.5, PARAMS, par_mc) == \
               estimate_cache_key(0.5, PARAMS, SMALL_MC)

    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_workers_must_be_positive_integer(self, workers):
        with pytest.raises(InvalidArgument):
            MCConfig(lattice=SMALL_MC.lattice, trials=24, master_seed=1,
                     workers=workers)

    @pytest.mark.parametrize("moved", KEY_MOVES.values(), ids=KEY_MOVES.keys())
    def test_cache_key_sensitive_to_one_ulp(self, moved):
        # every input of an estimate is in its key, floats to the last bit;
        # test_parallel_matches_serial_bitwise checks that workers is not
        assert estimate_cache_key(*moved) != estimate_cache_key(0.5, PARAMS, SMALL_MC)

    def test_cache_key_tracks_numerics_version(self, monkeypatch):
        key = estimate_cache_key(0.5, PARAMS, SMALL_MC)
        monkeypatch.setattr(cache, "NUMERICS_VERSION", cache.NUMERICS_VERSION + 1)
        assert estimate_cache_key(0.5, PARAMS, SMALL_MC) != key


class TestFitExponent:
    LADDER = [2.0 ** -k for k in range(1, 6)]   # 0.5 .. 0.03125, span 16

    def test_recovers_exact_power_law(self):
        est = synthetic_ladder(self.LADDER, lambda e: 3.0 * e ** 0.45)
        fit = fit_exponent(est, PARAMS)
        assert fit.slope == pytest.approx(0.45, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.stderr_slope <= 1e-10
        assert fit.q_hat == pytest.approx((1.0 - 0.45) / 0.2, abs=1e-11)
        assert len(fit.points) == len(self.LADDER)

    def test_slope_invariant_under_prefactor(self):
        f1 = fit_exponent(synthetic_ladder(self.LADDER, lambda e: e ** 0.3), PARAMS)
        f2 = fit_exponent(synthetic_ladder(self.LADDER, lambda e: 9.0 * e ** 0.3),
                          PARAMS)
        assert abs(f1.slope - f2.slope) <= 1e-12

    def test_needs_four_points(self):
        est = synthetic_ladder([0.5, 0.25, 0.0625], lambda e: e ** 0.4)
        with pytest.raises(DegenerateFit):
            fit_exponent(est, PARAMS)

    def test_needs_wide_span(self):
        est = synthetic_ladder([0.5, 0.4, 0.3, 0.25], lambda e: e ** 0.4)
        with pytest.raises(DegenerateFit):
            fit_exponent(est, PARAMS)


class TestScalingRatio:
    def test_r_one_is_exactly_one(self):
        clear_estimate_cache()
        series = scaling_ratio([0.5, 0.25], 1.0, PARAMS, SMALL_MC, q_hat=2.5)
        assert [rho for _, rho in series.rows] == [1.0, 1.0]

    def test_common_random_numbers_reuse_cache(self):
        clear_estimate_cache()
        series = scaling_ratio([0.5], 0.5, PARAMS, SMALL_MC, q_hat=2.5)
        (eps0, rho0), = series.rows
        assert eps0 == 0.5 and math.isfinite(rho0) and rho0 > 0
        # the two medians behind rho are now cached; recomputing is free and
        # bit-identical
        again = scaling_ratio([0.5], 0.5, PARAMS, SMALL_MC, q_hat=2.5)
        assert again.rows == series.rows

    def test_non_pow2_scale_rejected(self):
        with pytest.raises(InvalidArgument):
            scaling_ratio([0.5], 0.3, PARAMS, SMALL_MC, q_hat=2.5)

    def test_scaled_ladder_hits_floor(self):
        with pytest.raises(MollificationTooFine):
            scaling_ratio([0.5], 4.0, PARAMS, SMALL_MC, q_hat=2.5)


class TestLogCorrection:
    LADDER = [2.0 ** -k for k in range(2, 10)]

    def test_pure_power_law_certifies(self):
        est = synthetic_ladder(self.LADDER, lambda e: 3.0 * e ** 0.5)
        rep = log_correction_check(est, PARAMS, b=0.5, q_hat=2.5)
        assert rep.certified
        assert rep.c_constant == rep.c_coarse
        assert len(rep.rows) == len(self.LADDER)

    def test_genuine_log_factor_fails(self):
        est = synthetic_ladder(
            self.LADDER, lambda e: 3.0 * e ** 0.5 * math.log(1.0 / e))
        rep = log_correction_check(est, PARAMS, b=0.5, q_hat=2.5)
        assert not rep.certified
        assert rep.c_constant > 1.05 * rep.c_coarse

    def test_b_must_be_positive(self):
        est = synthetic_ladder(self.LADDER, lambda e: e ** 0.5)
        with pytest.raises(InvalidArgument):
            log_correction_check(est, PARAMS, b=0.0, q_hat=2.5)


class TestLaddersOverlap:
    EPS = [0.5, 0.25, 0.125]

    def test_overlapping_true(self):
        a = synthetic_ladder(self.EPS, lambda e: e ** 0.4, rel_ci=0.10)
        b = synthetic_ladder(self.EPS, lambda e: 1.05 * e ** 0.4, rel_ci=0.10)
        assert ladders_overlap(a, b)

    def test_disjoint_false(self):
        a = synthetic_ladder(self.EPS, lambda e: e ** 0.4, rel_ci=0.01)
        b = synthetic_ladder(self.EPS, lambda e: 2.0 * e ** 0.4, rel_ci=0.01)
        assert not ladders_overlap(a, b)

    def test_mismatched_epsilons_raise(self):
        a = synthetic_ladder([0.5, 0.25], lambda e: e ** 0.4)
        b = synthetic_ladder([0.5, 0.125], lambda e: e ** 0.4)
        with pytest.raises(InvalidArgument):
            ladders_overlap(a, b)
