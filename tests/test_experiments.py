"""Experiment runners: exact identities, trend machinery, config dispatch."""

import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import LFPP, lfpp_env

from lfpp import (
    EmptyRegion,
    InvalidArgument,
    LatticeSpec,
    MCConfig,
    MollificationTooFine,
    Params,
    Rect,
    clear_estimate_cache,
    sample_torus_gff,
)
from lfpp import experiments
from lfpp.experiments import (
    EXPERIMENTS,
    Verdict,
    _non_increasing,
    annulus_event_stats,
    convergence_diagnostic,
    field_continuity_check,
    field_sup_bound_check,
    gmc_mass,
    localized_gap,
    run_experiment,
    scale_covariance_test,
    small_segment_sup,
    spearman_trend,
    weyl_shift_test,
)

PARAMS = Params(xi=0.2)
WINDOW = Rect(lo=(1.6, 1.6), hi=(2.3, 2.3))
UNIT = Rect(lo=(1.5, 1.5), hi=(2.5, 2.5))
PAIRS =ap = [((1.6, 1.7), (2.3, 2.2)), ((1.5, 1.6), (2.4, 2.3))]
ONE_SITE = [2.0, 2.0, 2.001, 2.001]   # every point snaps to one site at n=64


class TestWeylShift:
    def test_zero_shift_gives_exact_ones(self, field64):
        rep = weyl_shift_test(field64, 0.25, 0.0, PAIRS, PARAMS)
        assert rep.verdict is Verdict.PASS
        assert [row[7] for row in rep.rows] == [1.0, 1.0]
        assert rep.stats["target_ratio"] == 1.0

    def test_unit_shift_passes(self, field64):
        rep = weyl_shift_test(field64, 0.25, 1.0, PAIRS, PARAMS)
        assert rep.verdict is Verdict.PASS
        assert rep.stats["max_rel_err"] <= 1e-10
        assert rep.stats["target_ratio"] == pytest.approx(math.exp(0.2))
        assert rep.params["statement_type"] == "exact-identity"

    def test_rerun_is_pure(self, field64):
        a = weyl_shift_test(field64, 0.25, 0.7, PAIRS, PARAMS)
        b = weyl_shift_test(field64, 0.25, 0.7, PAIRS, PARAMS)
        assert a.rows == b.rows and a.verdict is b.verdict

    def test_pair_outside_window_rejected(self, field64):
        bad = [((0.5, 0.5), (2.0, 2.0))]
        with pytest.raises(InvalidArgument):
            weyl_shift_test(field64, 0.25, 1.0, bad, PARAMS)


class TestScaleCovariance:
    MC = MCConfig(lattice=LatticeSpec(n=32, spacing=0.125),
                  trials=20, master_seed=7)

    def test_identity_scale_is_bitwise(self):
        rep = scale_covariance_test(1.0, 0.5, PARAMS, self.MC, q_hat=2.5)
        assert rep.verdict is Verdict.INFORMATIONAL
        assert all(lhs == rhs for _, lhs, rhs in rep.rows)
        assert rep.stats["mw_p"] == 1.0
        assert rep.stats["median_lhs"] == rep.stats["median_rhs"]

    def test_non_pow2_scale_rejected(self):
        with pytest.raises(InvalidArgument):
            scale_covariance_test(0.3, 0.5, PARAMS, self.MC, q_hat=2.5)

    def test_scaled_epsilon_floor(self):
        with pytest.raises(MollificationTooFine):
            scale_covariance_test(4.0, 0.5, PARAMS, self.MC, q_hat=2.5)


class TestLocalizedGap:
    def test_gap_shrinks_down_the_ladder(self, field64):
        rep = localized_gap(field64, [0.25, 0.125], WINDOW, PARAMS)
        assert rep.verdict is Verdict.PASS
        assert rep.stats["last_gap"] < rep.stats["first_gap"]
        assert rep.stats["last_dev"] < rep.stats["first_dev"]
        assert len(rep.rows) == 2

    def test_window_must_sit_in_central_quarter(self, field64):
        with pytest.raises(InvalidArgument):
            localized_gap(field64, [0.25, 0.125],
                          Rect(lo=(0.1, 0.1), hi=(0.6, 0.6)), PARAMS)

    def test_one_site_window_raises_instead_of_hanging(self):
        code = (
            "from lfpp import EmptyRegion, LatticeSpec, Params, Rect\n"
            "from lfpp import localized_gap, sample_torus_gff\n"
            "f = sample_torus_gff(LatticeSpec(n=64, spacing=0.0625), seed=404)\n"
            "try:\n"
            f"    localized_gap(f, [0.25, 0.125], Rect(lo={tuple(ONE_SITE[:2])}, "
            f"hi={tuple(ONE_SITE[2:])}), Params(xi=0.2))\n"
            "except EmptyRegion:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=lfpp_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestConvergenceDiagnostic:
    MC = MCConfig(lattice=LatticeSpec(n=256, spacing=1.0 / 64.0),
                  trials=20, master_seed=11)
    LADDER = [0.25, 0.125, 0.0625, 0.03125]
    CPAIRS = [((1.6, 1.7), (2.3, 2.2)), ((1.5, 1.5), (2.4, 2.4)),
              ((1.8, 2.1), (2.2, 1.6))]

    def test_smoke_and_purity(self):
        clear_estimate_cache()
        rep = convergence_diagnostic(self.CPAIRS, self.LADDER, PARAMS, self.MC)
        assert rep.verdict in (Verdict.PASS, Verdict.FAIL)
        assert set(rep.stats) == {"first_max_diff", "last_max_diff",
                                  "spearman_rho", "spearman_p"}
        # one row per (transition, pair)
        assert len(rep.rows) == (len(self.LADDER) - 1) * len(self.CPAIRS)
        again = convergence_diagnostic(self.CPAIRS, self.LADDER, PARAMS, self.MC)
        assert again.rows == rep.rows

    def test_needs_halving_ladder(self):
        with pytest.raises(InvalidArgument):
            convergence_diagnostic(self.CPAIRS, [0.25, 0.1, 0.05, 0.025],
                                   PARAMS, self.MC)
        with pytest.raises(InvalidArgument):
            convergence_diagnostic(self.CPAIRS, [0.25, 0.125, 0.0625],
                                   PARAMS, self.MC)


class TestAnnulusEventStats:
    MC = MCConfig(lattice=LatticeSpec(n=128, spacing=1.0 / 32.0),
                  trials=20, master_seed=13)

    def test_smoke(self):
        rep = annulus_event_stats(0.25, [1.0, 1.5], 0.9, PARAMS, self.MC)
        assert rep.verdict is Verdict.INFORMATIONAL
        assert len(rep.rows) == 40
        for key in ("ratio3_q50", "ratio3_q90", "ratio1_q50", "A_hat"):
            assert math.isfinite(rep.stats[key])
        # ratio1 compares a distance against a finer-scale proxy of itself
        assert 0.1 < rep.stats["ratio1_q50"] < 10.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([8, 16, 32, 64, 128, 256, 512]),
           spacing=st.floats(1e-3, 10.0),
           origin=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
           t=st.floats(1e-9, 1.0), alpha=st.floats(0.875, 1.0, exclude_min=True,
                                                    exclude_max=True))
    def test_both_rings_hold_sites(self, n, spacing, origin, t, alpha):
        """The boundary rings of every admissible radius are non-empty, so
        no ring check runs before the trials."""
        lat = LatticeSpec(n=n, spacing=spacing, origin=origin)
        r = t * 0.5 * lat.side
        seen = []

        def spy(trial, mc):
            seen.extend(trial.keywords["annuli"])
            raise StopIteration

        with mock.patch.object(experiments, "run_trials", spy), \
                pytest.raises(StopIteration):
            annulus_event_stats(2.0 * spacing, [r], alpha, PARAMS,
                                MCConfig(lattice=lat, trials=20, master_seed=1))
        (_, _, inner, outer), = seen
        assert inner.mask.any() and outer.mask.any()

    def test_alpha_range_enforced(self):
        with pytest.raises(InvalidArgument):
            annulus_event_stats(0.25, [1.0], 0.5, PARAMS, self.MC)
        with pytest.raises(InvalidArgument):
            annulus_event_stats(0.25, [1.0], 1.0, PARAMS, self.MC)


class TestGmcMass:
    LADDER = [0.5, 0.25, 0.125]

    def test_zero_coupling_limit_gives_window_area(self, field128):
        rep = gmc_mass(field128, 1e-9, self.LADDER, UNIT)
        assert rep.verdict is Verdict.PASS
        assert rep.stats["window_sites"] == 1024   # 32 x 32 half-open
        assert abs(rep.stats["final_mass"] - 1.0) <= 1e-6

    def test_unit_coupling_masses_settle(self, field128):
        rep = gmc_mass(field128, 1.0, self.LADDER, UNIT)
        assert rep.verdict is Verdict.PASS
        assert rep.stats["last_rel_diff"] < rep.stats["first_rel_diff"]

    def test_validation(self, field128):
        with pytest.raises(InvalidArgument):
            gmc_mass(field128, 2.5, self.LADDER, UNIT)
        with pytest.raises(InvalidArgument):
            gmc_mass(field128, 1.0, [0.5, 0.3, 0.125], UNIT)
        with pytest.raises(InvalidArgument):
            gmc_mass(field128, 1.0, [0.5, 0.25], UNIT)
        with pytest.raises(EmptyRegion):
            gmc_mass(field128, 1.0, self.LADDER,
                     Rect(lo=(2.001, 2.001), hi=(2.002, 2.002)))


class TestFieldContinuity:
    def test_single_constant_fits_ladder(self, field64):
        rep = field_continuity_check(field64, 0.5, [8, 10, 15], WINDOW)
        assert rep.verdict is Verdict.PASS
        assert rep.stats["C_plain"] > 0 and rep.stats["C_localized"] > 0
        assert len(rep.rows) == 3

    def test_validation(self, field64):
        with pytest.raises(InvalidArgument):
            field_continuity_check(field64, -1.0, [8, 10], WINDOW)
        with pytest.raises(InvalidArgument):
            field_continuity_check(field64, 0.5, [10, 8], WINDOW)
        with pytest.raises(MollificationTooFine):
            field_continuity_check(field64, 0.5, [8, 100], WINDOW)
        with pytest.raises(InvalidArgument):   # no float holds it
            field_continuity_check(field64, 0.5, [8, 10 ** 400], WINDOW)


class TestFieldSupBound:
    def test_constant_stops_growing(self, field128):
        rep = field_sup_bound_check(field128, [0.25, 0.125, 0.0625], 0.1, WINDOW)
        assert rep.verdict is Verdict.PASS
        assert math.isfinite(rep.stats["C_plain"])
        assert math.isfinite(rep.stats["C_localized"])

    def test_eta_must_be_positive(self, field128):
        with pytest.raises(InvalidArgument):
            field_sup_bound_check(field128, [0.25, 0.125, 0.0625], 0.0, WINDOW)


class TestSmallSegmentSup:
    def test_smoke(self, field64):
        clear_estimate_cache()
        mc = MCConfig(lattice=field64.spec, trials=20, master_seed=17)
        rep = small_segment_sup(field64, 0.25, 0.5, UNIT, PARAMS, mc)
        # trend verdict is statistical; at this toy scale only the
        # machinery is asserted
        assert rep.verdict in (Verdict.PASS, Verdict.FAIL)
        assert len(rep.rows) == 2
        assert rep.stats["first_sup"] > 0 and rep.stats["last_sup"] > 0
        assert rep.params["statement_type"] == "fixed-seed-trend"

    def test_zeta_range(self, field64):
        mc = MCConfig(lattice=field64.spec, trials=20, master_seed=17)
        with pytest.raises(InvalidArgument):
            small_segment_sup(field64, 0.25, 1.5, UNIT, PARAMS, mc)

    def test_one_site_window_exits_one_instead_of_hanging(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"field": {"n": 64, "spacing": 0.0625, "seed": 404},
             "epsilon": 0.25, "zeta": 0.5, "window": [2, 2, 2.0000001, 2.0000001],
             "xi": 0.2, "mc": {"n": 64, "trials": 20, "seed": 17}}),
            encoding="utf-8")
        proc = subprocess.run(
            LFPP + ["exp", "small_segment_sup", "--config", str(cfg),
                    "--out", str(tmp_path / "rep.json")],
            env=lfpp_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "pairs closer than" in proc.stderr
        assert not (tmp_path / "rep.json").exists()


def _small_field(n: int, seed: int, side: float = 4.0):
    return sample_torus_gff(LatticeSpec(n=n, spacing=side / n), seed)


def _same_bits(report, rows, stats) -> bool:
    # repr keeps every float bit and tells a Python float from a numpy scalar
    return repr(report.rows) == repr(rows) and repr(report.stats) == repr(stats)


class TestPairSweepMatchesScalarLoops:
    """The four fixed-field runners sweep their pairs into one array and
    reduce it with array expressions; rows and stats equal the scalar
    per-pair loops of `oracles` bit for bit."""

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(n=st.sampled_from([32, 64]), seed=st.integers(0, 2 ** 16),
           eps=st.sampled_from([0.3, 0.25, 0.125]), c=st.floats(-2.0, 2.0),
           ends=st.lists(st.tuples(*[st.floats(1.5, 2.5)] * 4), min_size=1, max_size=4))
    def test_weyl_shift(self, n, seed, eps, c, ends):
        field = _small_field(n, seed)
        pairs = [((zx, zy), (wx, wy)) for zx, zy, wx, wy in ends]
        assume(eps >= 2.0 * field.spec.spacing)
        assume(all(field.spec.index_of(z) != field.spec.index_of(w) for z, w in pairs))
        rep = weyl_shift_test(field, eps, c, pairs, PARAMS)
        assert _same_bits(rep, *oracles.weyl_shift_reference(field, eps, c, pairs, 0.2))

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(n=st.sampled_from([32, 64]), seed=st.integers(0, 2 ** 16),
           ladder=st.sampled_from([[0.3, 0.25], [0.25, 0.125], [0.3, 0.2, 0.125]]),
           lo=st.tuples(st.floats(1.0, 2.4), st.floats(1.0, 2.4)),
           size=st.floats(0.3, 0.8))
    def test_localized_gap(self, n, seed, ladder, lo, size):
        field = _small_field(n, seed)
        assume(ladder[-1] >= 2.0 * field.spec.spacing)
        window = Rect(lo=lo, hi=(min(lo[0] + size, 3.0), min(lo[1] + size, 3.0)))
        rep = localized_gap(field, ladder, window, PARAMS)
        assert _same_bits(rep, *oracles.localized_gap_reference(field, ladder, window, 0.2))

    # four halving rungs below 1/e and above the 2 * spacing floor need
    # n = 128 on the smallest domain the crossing square admits (side 2)
    @settings(max_examples=5, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), localized=st.booleans(),
           ends=st.lists(st.tuples(*[st.floats(0.1, 1.9)] * 4), min_size=1, max_size=4))
    def test_convergence_diagnostic(self, seed, localized, ends):
        mc = MCConfig(lattice=LatticeSpec(n=128, spacing=1.0 / 64.0), trials=20,
                      master_seed=seed, localized=localized)
        pairs = [((zx, zy), (wx, wy)) for zx, zy, wx, wy in ends]
        assume(all(mc.lattice.index_of(z) != mc.lattice.index_of(w) for z, w in pairs))
        ladder = [0.25, 0.125, 0.0625, 0.03125]
        rep = convergence_diagnostic(pairs, ladder, PARAMS, mc)
        assert _same_bits(rep, *oracles.convergence_reference(pairs, ladder, 0.2, mc))

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(n=st.sampled_from([32, 64]), seed=st.integers(0, 2 ** 16),
           mc_seed=st.integers(0, 2 ** 16), eps=st.sampled_from([0.3, 0.25]),
           zeta=st.floats(0.2, 0.8), lo=st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)),
           size=st.floats(0.4, 0.8))
    def test_small_segment_sup(self, n, seed, mc_seed, eps, zeta, lo, size):
        field = _small_field(n, seed, side=2.0)
        window = Rect(lo=lo, hi=(lo[0] + size, lo[1] + size))
        mc = MCConfig(lattice=field.spec, trials=20, master_seed=mc_seed)
        rep = small_segment_sup(field, eps, zeta, window, PARAMS, mc)
        assert _same_bits(rep, *oracles.small_segment_reference(
            field, rep.params["ladder"], zeta, window, 0.2, mc))


class TestDispatch:
    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidArgument):
            run_experiment("not_an_experiment", {})

    def test_config_driven_run(self):
        cfg = {"field": {"n": 64, "spacing": 0.0625, "seed": 404},
               "epsilon": 0.25, "c": 1.0, "xi": 0.2,
               "pairs": [[[1.6, 1.7], [2.3, 2.2]], [[1.5, 1.6], [2.4, 2.3]]]}
        rep = run_experiment("weyl_shift_test", cfg)
        assert rep.verdict is Verdict.PASS
        assert rep.name == "weyl_shift_test"

    def test_sampled_pairs_from_one_site_window_exit_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"field": {"n": 64, "spacing": 0.0625, "seed": 404},
             "epsilon": 0.25, "c": 1.0, "xi": 0.2,
             "pairs": {"window": ONE_SITE, "seed": 7, "count": 4}}),
            encoding="utf-8")
        proc = subprocess.run(
            LFPP + ["exp", "weyl_shift_test", "--config", str(cfg),
                    "--out", str(tmp_path / "rep.json")],
            env=lfpp_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "distinct lattice sites" in proc.stderr
        assert not (tmp_path / "rep.json").exists()


class TestErrorExits:
    """Each runner's argument checks raise an error naming what is wrong."""

    MC = MCConfig(lattice=LatticeSpec(n=64, spacing=0.0625), trials=20, master_seed=17)

    @pytest.mark.parametrize("run, error, message", [
        (lambda f, mc: localized_gap(f, [0.25, 0.125],   # a window between sites
                                     Rect(lo=(2.01, 2.01), hi=(2.04, 2.04)), PARAMS),
         EmptyRegion, "no lattice sites"),
        (lambda f, mc: localized_gap(f, [0.125, 0.25], WINDOW, PARAMS),
         InvalidArgument, "must decrease"),
        (lambda f, mc: weyl_shift_test(f, 0.25, 1.0, [((2.0, 2.0), (2.001, 2.001))],
                                       PARAMS),
         InvalidArgument, "single lattice site"),
        (lambda f, mc: small_segment_sup(f, 0.001, 0.5, UNIT, PARAMS, mc),
         MollificationTooFine, "below 4\\*spacing"),
        (lambda f, mc: small_segment_sup(f, 0.1, 0.5, UNIT, PARAMS, mc),
         InvalidArgument, "at least 2 rungs"),
    ], ids=["empty-window", "rising-ladder", "one-site-pair", "too-fine",
            "too-coarse"])
    def test_runner_rejects(self, run, error, message, field64):
        with pytest.raises(error, match=message):
            run(field64, self.MC)

    def test_unknown_field_kind_names_its_key(self):
        cfg = {"field": {"n": 64, "spacing": 0.0625, "seed": 404, "kind": "cubic"},
               "epsilon": 0.25, "c": 1.0, "xi": 0.2, "pairs": [[[1.6, 1.7], [2.3, 2.2]]]}
        with pytest.raises(InvalidArgument, match="'field'.*unknown field kind 'cubic'"):
            run_experiment("weyl_shift_test", cfg)


class TestSpearmanTrend:
    def test_decreasing_sequence_detected(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        rho, p = spearman_trend(xs, [9.0, 7.0, 5.0, 4.0, 2.0, 1.0])
        assert rho == pytest.approx(-1.0)
        assert p <= 0.10

    def test_increasing_sequence_not_flagged(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        rho, p = spearman_trend(xs, [1.0, 2.0, 4.0, 5.0, 7.0, 9.0])
        assert rho == pytest.approx(1.0)
        assert p > 0.10


class TestNonIncreasing:
    """`localized_gap`'s trend rule: at most one uptick, of at most 5 %."""

    @pytest.mark.parametrize("seq, ok", [
        ([], True),
        ([1.0], True),
        ([4.0, 2.0, 2.0, 1.0], True),
        ([2.0, 1.0, 1.05, 0.5], True),      # one uptick of exactly 5 %
        ([2.0, 1.0, 1.04, 0.5], True),
        ([2.0, 1.0, 1.06, 0.5], False),     # one uptick above 5 %
        ([2.0, 1.0, 1.01, 0.5, 0.505], False),   # two small upticks
    ])
    def test_table(self, seq, ok):
        assert _non_increasing(seq) is ok


DOCS = Path(__file__).resolve().parents[1] / "docs" / "experiments.md"


def _doc_sections():
    parts = re.split(r"^## (.+)$", DOCS.read_text(encoding="utf-8"), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


class TestDocsMatchRegistry:
    def test_sections_are_exactly_the_registered_names(self):
        assert sorted(_doc_sections()) == sorted(EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_csv_columns_line(self, name):
        cols = re.search(r"CSV columns: `([^`]*)`", _doc_sections()[name]).group(1)
        assert [c.strip() for c in cols.split(",")] == list(EXPERIMENTS[name].columns)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_config_sentence_names_every_key(self, name):
        # `params` is read from the top-level `xi`
        sentence = re.search(r"Config: (.*?)\.(?:\s|$)", _doc_sections()[name],
                             re.S).group(1)
        named = set(re.findall(r"`([a-z_]+)`", sentence))
        required = [p.name for p in
                    inspect.signature(EXPERIMENTS[name].run).parameters.values()
                    if p.default is p.empty]
        assert named == {"xi" if k == "params" else k for k in required}
