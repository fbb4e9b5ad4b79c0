"""Normalizer estimation: seeding, caching, fits, ratio and certificates."""

import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    estimate_ladder,
    fit_exponent,
    scaling_ratio,
)
from lfpp import annulus_event_stats, cache, renorm, scale_covariance_test
from lfpp.renorm import crossing_square, estimate_cache_key, run_trials, trial_seed

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


def synthetic_ladder(eps_list, med_fn):
    out = []
    for e in eps_list:
        m = med_fn(e)
        out.append(MedianEstimate(epsilon=e, median=m, trials=50,
                                  ci_lo=0.95 * m, ci_hi=1.05 * m,
                                  master_seed=1))
    return out


class TestSeeding:
    def test_trial_seeds_distinct_and_stable(self):
        seeds = [trial_seed(12345, i) for i in range(200)]
        assert len(set(seeds)) == 200
        assert seeds == [trial_seed(12345, i) for i in range(200)]
        assert trial_seed(12345, 0) != trial_seed(12346, 0)

    def test_trial_cap_sits_below_every_reserved_spawn_key(self):
        # one-word spawn keys of a master or field seed; the small-segment
        # streams use two words, (_SEG_KEY, rung), and never meet a trial's (i,)
        from lfpp import experiments
        reserved = (renorm._BOOT_KEY, experiments._PAIR_KEY, experiments._FIELD_KEY)
        assert renorm._MAX_TRIALS < min(reserved)
        MCConfig(lattice=SMALL_MC.lattice, trials=renorm._MAX_TRIALS, master_seed=1)
        with pytest.raises(InvalidArgument):
            MCConfig(lattice=SMALL_MC.lattice, trials=renorm._MAX_TRIALS + 1,
                     master_seed=1)

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

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_is_invalid(self, eps):
        with pytest.raises(InvalidArgument):
            estimate_a_eps(eps, PARAMS, SMALL_MC)

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

    @pytest.mark.parametrize("workers", [0, -1, 1.5, renorm._MAX_WORKERS + 1])
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

    @pytest.mark.parametrize("library", [np, scipy], ids=["numpy", "scipy"])
    def test_cache_key_tracks_library_versions(self, library, monkeypatch):
        # an upgrade may move FFT or exp bits, so it must not hit old entries
        key = estimate_cache_key(0.5, PARAMS, SMALL_MC)
        monkeypatch.setattr(library, "__version__", library.__version__ + ".post1")
        assert estimate_cache_key(0.5, PARAMS, SMALL_MC) != key

    def test_cache_key_tracks_numpy_dispatch(self, monkeypatch):
        # numpy's vector kernels round differently on different targets,
        # so an AVX2 host must not hit an AVX-512 host's entries
        from numpy._core import _multiarray_umath as umath
        if not umath.__cpu_dispatch__:
            pytest.skip("this numpy dispatches to no target")
        key = estimate_cache_key(0.5, PARAMS, SMALL_MC)
        target = umath.__cpu_dispatch__[-1]
        monkeypatch.setitem(umath.__cpu_features__, target,
                            not umath.__cpu_features__.get(target))
        assert estimate_cache_key(0.5, PARAMS, SMALL_MC) != key


@st.composite
def small_mc(draw, n, min_trials):
    """A seeded MCConfig on the n x n lattice of side 4, one worker."""
    return MCConfig(lattice=LatticeSpec(n=n, spacing=4.0 / n),
                    trials=draw(st.integers(min_trials, min_trials + 4)),
                    master_seed=draw(st.integers(0, 2 ** 64 - 1)))


def _dyadic_eps(draw, mc, finest_k, coarsest_k=0):
    """2^-k for k in [coarsest_k, finest_k], k no finer than the 2*spacing floor."""
    floor_k = int(math.log2(1.0 / (2.0 * mc.lattice.spacing)))
    return 2.0 ** -draw(st.integers(coarsest_k, min(finest_k, floor_k)))


@st.composite
def estimate_runs(draw):
    mc = replace(draw(small_mc(draw(st.sampled_from((32, 64))), 20)),
                 localized=draw(st.booleans()))
    eps = _dyadic_eps(draw, mc, 3, coarsest_k=2 if mc.localized else 0)
    return partial(estimate_a_eps, eps, Params(xi=draw(st.floats(0.05, 0.4)))), mc


@st.composite
def covariance_runs(draw):
    mc = draw(small_mc(draw(st.sampled_from((32, 64))), 20))
    a = draw(st.sampled_from((1.0, 2.0)))
    eps = a * _dyadic_eps(draw, mc, 3, coarsest_k=1)
    return partial(scale_covariance_test, a, eps, Params(xi=draw(st.floats(0.05, 0.4))),
                   q_hat=draw(st.floats(0.0, 5.0))), mc


@st.composite
def annulus_runs(draw):
    # smaller n, smaller r or alpha above 0.9 leave annuli too thin for a cycle
    mc = draw(small_mc(64, 3))
    eps = draw(st.sampled_from((0.25, 0.125)))
    return partial(annulus_event_stats, eps, [2.0], draw(st.floats(0.88, 0.9)),
                   Params(xi=draw(st.floats(0.05, 0.4)))), mc


class TestRunTrialsPoolSize:
    """Every caller of `run_trials` gives the same bits at 1 and 2 workers:
    trials are seeded by index and their results keep trial order."""

    @pytest.mark.parametrize("runs", [estimate_runs, covariance_runs, annulus_runs],
                             ids=["estimate_a_eps", "scale_covariance_test",
                                  "annulus_event_stats"])
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_same_bits_at_one_and_two_workers(self, runs, data):
        run, mc = data.draw(runs())
        clear_estimate_cache()
        one = run(mc)
        clear_estimate_cache()     # else the memo answers the pooled side
        two = run(replace(mc, workers=2))
        assert repr(two) == repr(one)   # repr round-trips every float bit

    def test_pool_never_exceeds_the_trial_count(self, monkeypatch):
        """A pool starts all its workers up front, so 64 workers for 20
        trials would start 44 idle processes."""
        sizes = []

        class SerialPool:   # records its size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(renorm, "ProcessPoolExecutor", SerialPool)
        mc = MCConfig(lattice=SMALL_MC.lattice, trials=20, master_seed=3, workers=64)
        assert run_trials(str, mc) == [str(trial_seed(3, i)) for i in range(20)]
        assert sizes == [20]


@st.composite
def bootstrap_inputs(draw):
    """(values, mc): 20..5000 positive trial values, continuous or on 1-8
    levels (so resample medians tie), under any master seed."""
    trials = draw(st.one_of(st.sampled_from((20, 21, 1048, 1049, 5000)),
                            st.integers(20, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from((0, 1, 2, 8)))
    values = (rng.integers(1, levels + 1, size=trials).astype(np.float64) if levels
              else rng.exponential(size=trials) + 0.5)
    return values, MCConfig(lattice=SMALL_MC.lattice, trials=trials,
                            master_seed=draw(st.integers(0, 2 ** 64 - 1)))


class TestBootstrap:
    """The bootstrap draws and reduces its resamples in row blocks, which
    bounds its memory, and keeps the bits of one whole-index draw."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(bootstrap_inputs())
    def test_ci_equals_the_one_call_reference(self, run):
        values, mc = run
        est = renorm._median_estimate(0.5, values, mc)
        assert (repr((est.median, est.ci_lo, est.ci_hi))
                == repr(oracles.bootstrap_reference(values, mc.master_seed)))

    def test_memory_is_bounded_at_the_trial_cap(self):
        """A one-call draw and gather at 2^15 trials peaks near 800 MB."""
        trials = renorm._MAX_TRIALS
        values = np.random.default_rng(5).exponential(size=trials) + 0.5
        mc = MCConfig(lattice=SMALL_MC.lattice, trials=trials, master_seed=5)
        tracemalloc.start()
        try:
            renorm._median_estimate(0.5, values, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20


@st.composite
def ladder_runs(draw):
    """2-4 dyadic rungs (repeats allowed) at n 128 or 256, plain or localized,
    at 1 or 2 workers, and whether the last rung is memoized beforehand."""
    n = draw(st.sampled_from((128, 256)))
    mc = MCConfig(lattice=LatticeSpec(n=n, spacing=4.0 / n), trials=20,
                  master_seed=draw(st.integers(0, 2 ** 64 - 1)),
                  localized=draw(st.booleans()), workers=draw(st.sampled_from((1, 2))))
    # localized smoothing needs eps < 1/e; every rung keeps eps >= 2*spacing
    ks = st.integers(2 if mc.localized else 0, int(math.log2(n / 8)))
    ladder = [2.0 ** -k for k in draw(st.lists(ks, min_size=2, max_size=4))]
    return ladder, Params(xi=draw(st.floats(0.05, 0.4))), mc, draw(st.booleans())


class TestLadderMatchesPerRung:
    """`estimate_ladder`, which samples each trial's field once for all its
    rungs and takes its spectrum once, gives every rung the bits of a
    rung-by-rung estimate that samples afresh (tests/oracles.py)."""

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(ladder_runs())
    def test_every_rung_equals_the_per_rung_oracle(self, run):
        ladder, params, mc, prefill = run
        clear_estimate_cache()
        if prefill:
            estimate_a_eps(ladder[-1], params, mc)
        want = {eps: oracles.per_rung_estimate(eps, params.xi, mc) for eps in ladder}
        for eps, est in zip(ladder, estimate_ladder(ladder, params, mc), strict=True):
            assert est.epsilon == eps
            assert ([v.hex() for v in (est.median, est.ci_lo, est.ci_hi)]
                    == [v.hex() for v in want[eps]])

    def test_rungs_are_memoized_one_by_one(self):
        clear_estimate_cache()
        ladder = estimate_ladder([0.5, 0.25, 0.5], PARAMS, SMALL_MC)
        assert ladder[0] is ladder[2]
        assert [estimate_a_eps(eps, PARAMS, SMALL_MC) for eps in (0.5, 0.25)] == ladder[:2]

    def test_every_rung_checked_before_any_trial(self, monkeypatch):
        import lfpp.renorm as renorm
        monkeypatch.setattr(renorm, "run_trials",
                            lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(MollificationTooFine):
            estimate_ladder([0.5, 0.2], PARAMS, SMALL_MC)


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


    def test_vanishing_xi_gives_no_finite_q_hat(self):
        """xi = 5e-324, the least subnormal, is admitted; (1 - slope) / xi
        overflows, and the fit says so."""
        est = synthetic_ladder(self.LADDER, lambda e: e ** 0.45)
        with pytest.raises(DegenerateFit, match="not finite"):
            fit_exponent(est, Params(xi=5e-324))

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

    def test_fits_q_hat_of_its_eps_rungs_when_none_is_given(self):
        ladder = [4.0, 2.0, 1.0, 0.5]   # four rungs spanning a factor 8
        clear_estimate_cache()
        fitted = scaling_ratio(ladder, 2.0, PARAMS, SMALL_MC)
        q_hat = fit_exponent(estimate_ladder(ladder, PARAMS, SMALL_MC), PARAMS).q_hat
        clear_estimate_cache()
        given_q = scaling_ratio(ladder, 2.0, PARAMS, SMALL_MC, q_hat=q_hat)
        assert fitted.q_hat_used == given_q.q_hat_used == q_hat
        assert fitted.rows == given_q.rows

    def test_two_rungs_cannot_fit_q_hat(self):
        with pytest.raises(DegenerateFit):
            scaling_ratio([1.0, 0.5], 2.0, PARAMS, SMALL_MC)

    @pytest.mark.parametrize("ladder", [[1.0, 0.5], [1.0, 0.9, 0.8, 0.7], [0.5, 0.25]])
    def test_unfittable_ladder_fails_before_any_trial(self, ladder, monkeypatch):
        """Too few rungs or too narrow a span raise DegenerateFit from the
        epsilons alone, before a single Monte Carlo trial runs, and before
        a rung below the smoothing-scale floor (0.25 / 2) is reported."""
        calls = []
        monkeypatch.setattr(renorm, "run_trials",
                            lambda trial, mc: calls.append(mc.trials) or [])
        clear_estimate_cache()
        with pytest.raises(DegenerateFit):
            scaling_ratio(ladder, 2.0, PARAMS, SMALL_MC)
        assert calls == []

    @pytest.mark.parametrize("run", [
        partial(scaling_ratio, [0.5], 4.0, PARAMS, q_hat=2.5),
        partial(scale_covariance_test, 4.0, 0.5, PARAMS, q_hat=2.5),
    ], ids=["scaling_ratio", "scale_covariance_test"])
    def test_too_few_trials_reported_before_a_too_fine_rung(self, run, monkeypatch):
        """Rung 0.5 / 4 is below the floor; `estimate_ladder` checks the
        trial count first, and no trial runs."""
        calls = []
        monkeypatch.setattr(renorm, "run_trials",
                            lambda trial, mc: calls.append(mc.trials) or [])
        clear_estimate_cache()
        with pytest.raises(InsufficientTrials):
            run(mc=replace(SMALL_MC, trials=5))
        assert calls == []

    def test_non_pow2_scale_rejected(self):
        with pytest.raises(InvalidArgument):
            scaling_ratio([0.5], 0.3, PARAMS, SMALL_MC, q_hat=2.5)

    def test_scaled_ladder_hits_floor(self):
        with pytest.raises(MollificationTooFine):
            scaling_ratio([0.5], 4.0, PARAMS, SMALL_MC, q_hat=2.5)

    @pytest.mark.parametrize("ladder, error", [
        ([1.0, 0.5, 0.25], MollificationTooFine),     # 0.25 / 2 is below the floor
        ([1.0, math.nan], InvalidArgument),
    ], ids=["floor", "nan"])
    def test_every_rung_checked_before_any_estimate(self, ladder, error, monkeypatch):
        import lfpp.renorm as renorm
        monkeypatch.setattr(renorm, "estimate_a_eps",
                            lambda *args: pytest.fail("an estimate ran"))
        with pytest.raises(error):
            scaling_ratio(ladder, 2.0, PARAMS, SMALL_MC, q_hat=2.5)
