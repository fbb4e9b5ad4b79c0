"""Command-line driver: exit codes, manifests, caching, byte determinism."""

import argparse
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import LFPP, lfpp_env

from lfpp import (
    Annulus,
    FieldKind,
    FieldSample,
    LatticeSpec,
    clear_estimate_cache,
    estimate_a_eps,
    MCConfig,
    Params,
    build_weighted_grid,
    dist_around_annulus,
    mollify,
    mollify_localized,
    read_field,
    sample_torus_gff,
    write_field,
)
from lfpp import cli
from lfpp.cli import main
from lfpp.errors import InvalidArgument
from lfpp.experiments import EXPERIMENTS, run_experiment


def zero_field(n=64, spacing=0.0625):
    return FieldSample(spec=LatticeSpec(n=n, spacing=spacing),
                       kind=FieldKind.TORUS_WHOLE_PLANE, seed=0,
                       values=np.zeros((n, n)), mean_removed=True)


def load_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The max_workers of every process pool lfpp starts, in order."""
    import lfpp.renorm as renorm
    sizes = []
    real = renorm.ProcessPoolExecutor

    def pool(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(renorm, "ProcessPoolExecutor", pool)
    return sizes


class TestBasics:
    def test_version_exits_zero(self):
        assert main(["--version"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["dist", "--nonsense"]) == 1

    def test_import_leaves_scipy_stats_and_integrate_unloaded(self):
        # each is imported by the one function that uses it
        code = ("import sys, lfpp.cli; print([m for m in ('scipy.stats', "
                "'scipy.integrate') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env=lfpp_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_bad_threads_rejected(self, tmp_path):
        code = main(["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "32",
                     "--trials", "20", "--seed", "7", "--threads", "0",
                     "--out", str(tmp_path / "a.json")])
        assert code == 1
        assert not (tmp_path / "a.json").exists()


    @pytest.mark.parametrize("argv, cfg", [
        (["field", "sample", "--n", "8192", "--seed", "1", "--out", "f.lfpf"], None),
        (["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "8192", "--trials", "20",
          "--seed", "7", "--out", "a.json"], None),
        (["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "1", "--q-hat", "2.5",
          "--n", "8192", "--trials", "20", "--seed", "7", "--out", "r.json"], None),
        (["exp", "weyl_shift_test", "--config", "cfg.json", "--out", "rep.json"],
         {"field": {"n": 8192, "seed": 404}, "epsilon": 0.25, "c": 1.0, "xi": 0.2,
          "pairs": [[[1.6, 1.7], [2.3, 2.2]]]}),
        (["exp", "scale_covariance_test", "--config", "cfg.json", "--out", "rep.json"],
         {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
          "mc": {"n": 8192, "trials": 20, "seed": 7}}),
    ], ids=["field-sample", "a-eps", "ratio", "exp-field", "exp-mc"])
    def test_lattice_above_the_cap_exits_one_before_any_sample(self, argv, cfg, capsys,
                                                               tmp_path, monkeypatch):
        import lfpp.experiments as experiments
        import lfpp.renorm as renorm

        def no_sampler(*args, **kwargs):
            pytest.fail("a sampler or trial ran")

        for module in (cli, experiments):
            monkeypatch.setattr(module, "SAMPLERS",
                                dict.fromkeys(module.SAMPLERS, no_sampler))
        for module in (experiments, renorm):
            monkeypatch.setattr(module, "sample_torus_gff", no_sampler)
            monkeypatch.setattr(module, "run_trials", no_sampler)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        clear_estimate_cache()
        assert main(argv) == 1
        assert "n must be at most 4096, got 8192" in capsys.readouterr().err
        assert not (tmp_path / argv[argv.index("--out") + 1]).exists()

    @pytest.mark.parametrize("argv", [
        ["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "32", "--trials", "20",
         "--seed", "7", "--out", "a.json"],
        ["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "1", "--q-hat", "2.5",
         "--n", "32", "--trials", "20", "--seed", "7", "--out", "r.json"],
        ["exp", "annulus_event_stats", "--config", "cfg.json", "--out", "rep.json"],
    ], ids=["a-eps", "ratio", "exp"])
    def test_threads_above_the_cap_exit_one_before_any_pool(self, argv, capsys, tmp_path,
                                                             monkeypatch):
        """Each command would ask for a pool of min(threads, 20 trials)."""
        import lfpp.renorm as renorm
        asked = []

        def no_pool(max_workers=None, **kwargs):   # records the call, starts nothing
            asked.append(max_workers)
            raise RuntimeError("a process pool was asked for")

        monkeypatch.setattr(renorm, "ProcessPoolExecutor", no_pool)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            TestExperimentGoldenBytes.CASES["annulus_event_stats"][0]), encoding="utf-8")
        clear_estimate_cache()
        assert main(argv + ["--threads", str(renorm._MAX_WORKERS + 1)]) == 1
        assert asked == []
        assert f"1..{renorm._MAX_WORKERS}" in capsys.readouterr().err
        assert not (tmp_path / argv[argv.index("--out") + 1]).exists()

    @pytest.mark.parametrize("argv", [
        ["field", "sample", "--n", "32", "--seed", "1", "--out", "f.lfpf"],
        ["dist", "--field", "f.lfpf", "--eps", "0.25", "--xi", "0.2"],
        ["fit", "--in", "est", "--xi", "0.2", "--out", "fit.json"],
        ["cache-info", "--cache-dir", "cache"],
    ], ids=["field-sample", "dist", "fit", "cache-info"])
    def test_threads_only_where_a_pool_runs(self, argv, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--threads", "2"]) == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "32", "--trials", "20",
         "--seed", "7", "--out", "a.json"],
        ["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "1", "--q-hat", "2.5",
         "--n", "32", "--trials", "20", "--seed", "7", "--out", "r.json"],
        ["exp", "weyl_shift_test", "--config", "cfg.json", "--out", "rep.json"],
    ], ids=["a-eps", "ratio", "exp"])
    def test_threads_accepted_where_a_pool_runs(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(TestExp.CFG), encoding="utf-8")
        assert main(argv + ["--threads", "1"]) == 0
        out = argv[argv.index("--out") + 1]
        assert load_json(tmp_path / f"{out}.manifest.json")["threads"] == 1


class TestFieldSample:
    def test_round_trip_and_manifest(self, tmp_path):
        out = tmp_path / "f.lfpf"
        code = main(["field", "sample", "--kind", "torus", "--n", "32",
                     "--spacing", "0.125", "--seed", "99", "--out", str(out)])
        assert code == 0
        direct = sample_torus_gff(LatticeSpec(n=32, spacing=0.125), 99)
        assert np.array_equal(read_field(out).values, direct.values)
        manifest = load_json(tmp_path / "f.lfpf.manifest.json")
        assert manifest["command"] == "field-sample"
        assert manifest["master_seed"] == 99
        assert set(manifest) >= {"command", "resolved_params", "master_seed",
                                 "version", "started_at", "runtime_secs"}
        assert manifest["libraries"] == {"numpy": np.__version__,
                                         "scipy": scipy.__version__}

    def test_auto_spacing_resolves_to_4_over_n(self, tmp_path):
        out = tmp_path / "f.lfpf"
        assert main(["field", "sample", "--n", "64", "--seed", "1",
                     "--out", str(out)]) == 0
        manifest = load_json(tmp_path / "f.lfpf.manifest.json")
        assert manifest["resolved_params"]["spacing"] == 4.0 / 64.0

    def test_validation_error_exits_one(self, tmp_path):
        out = tmp_path / "f.lfpf"
        assert main(["field", "sample", "--n", "3", "--seed", "1",
                     "--out", str(out)]) == 1

    @pytest.mark.parametrize("n, spacing, message", [
        ("0", "auto", "n must be"), ("64", "wide", "spacing must be")])
    def test_bad_lattice_flags_exit_one(self, n, spacing, message, tmp_path,
                                        capsys):
        assert main(["field", "sample", "--n", n, "--spacing", spacing,
                     "--seed", "1", "--out", str(tmp_path / "f.lfpf")]) == 1
        assert message in capsys.readouterr().err

    def test_origin_survives_for_point_queries(self, tmp_path):
        out = tmp_path / "f.lfpf"
        assert main(["field", "sample", "--n", "64", "--origin", "1,1",
                     "--seed", "3", "--out", str(out)]) == 0
        assert read_field(out).spec.origin == (1.0, 1.0)
        # (4.9, 4.9) lies in [1, 5)^2 but outside the (0, 0) frame's [0, 4)^2
        assert main(["dist", "--field", str(out), "--eps", "0.25", "--xi", "0.2",
                     "--from", "4.9,4.9", "--to", "3,3",
                     "--out", str(tmp_path / "d.json")]) == 0
        assert load_json(tmp_path / "d.json")["value"] > 0

    def test_unwritable_output_exits_two(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "f.lfpf"
        assert main(["field", "sample", "--n", "32", "--seed", "1",
                     "--out", str(out)]) == 2


class TestDist:
    @pytest.fixture()
    def zero_path(self, tmp_path):
        path = tmp_path / "zero.lfpf"
        write_field(zero_field(), path)
        return path

    def test_point_mode_json_and_path_csv(self, zero_path, tmp_path):
        out = tmp_path / "d.json"
        csv_out = tmp_path / "path.csv"
        code = main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--from", "1.0,2.0", "--to", "2.0,2.0",
                     "--out", str(out), "--emit-path", str(csv_out),
                     "--emit-gnuplot"])
        assert code == 0
        doc = load_json(out)
        assert doc["value"] == 1.0      # zero field: 16 axis steps of 1/16
        assert not doc["unreachable"]
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "idx,x,y,cum_length"
        assert float(lines[-1].split(",")[-1]) == doc["value"]
        gnu = (tmp_path / "path.csv.gnu").read_text()
        assert "path.csv" in gnu
        # one manifest per output file; solver statistics live there only
        assert "settled" not in doc
        manifest = load_json(tmp_path / "d.json.manifest.json")
        assert manifest["stats"]["settled"] == 64 * 64
        assert (tmp_path / "path.csv.manifest.json").is_file()

    def test_crossing_mode(self, zero_path, tmp_path):
        out = tmp_path / "c.json"
        code = main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--crossing", "rect:1.5,1.5,2.5,2.5",
                     "--out", str(out)])
        assert code == 0
        assert load_json(out)["value"] == 1.0

    def test_around_mode(self, zero_path, tmp_path):
        out = tmp_path / "a.json"
        code = main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--around", "annulus:2,2,0.4,0.8",
                     "--out", str(out)])
        assert code == 0
        value = load_json(out)["value"]
        assert value is not None and value > 0

    def test_within_mode(self, zero_path, tmp_path):
        out = tmp_path / "w.json"
        code = main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--from", "1.0,2.0", "--to", "2.0,2.0",
                     "--within", "rect:0.5,1.5,2.5,2.5", "--out", str(out)])
        assert code == 0
        assert load_json(out)["value"] == 1.0

    @pytest.mark.parametrize("flags, box", [
        (["--crossing", "rect:1.5,1.5,2.5,2.5"], (slice(24, 41), slice(24, 41))),
        (["--around", "annulus:2,2,0.4,0.8"], (slice(20, 45), slice(20, 45))),
        (["--from", "1.5,2.0", "--to", "2.5,2.0", "--within", "disk:2,2,0.75"],
         (slice(20, 45), slice(20, 45))),
        (["--from", "1.0,2.0", "--to", "2.0,2.0"], None),
    ], ids=["crossing", "around", "within", "point"])
    def test_localized_regions_smooth_only_their_box(self, zero_path, tmp_path,
                                                     monkeypatch, flags, box):
        import lfpp.cli as cli
        boxes = []
        real = cli.mollify_localized

        def spy(field, eps, box=None):
            boxes.append(box)
            return real(field, eps, box=box)

        monkeypatch.setattr(cli, "mollify_localized", spy)
        assert main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--localized", "--out",
                     str(tmp_path / "x.json")] + flags) == 0
        assert boxes == [box]

    def test_point_mode_needs_endpoints(self, zero_path, tmp_path):
        assert main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--out", str(tmp_path / "x.json")]) == 1

    def test_without_out_prints_the_document(self, zero_path, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--from", "1.0,2.0", "--to", "2.0,2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"value": 1.0, "unreachable": False, "path": None}
        assert [p.name for p in tmp_path.iterdir()] == ["zero.lfpf"]   # no manifest

    @pytest.mark.parametrize("flag, kind", [("--around", "annulus"), ("--crossing", "rect")])
    def test_region_of_the_wrong_kind(self, flag, kind, zero_path, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", flag, "disk:2,2,0.5", "--out", str(out)]) == 1
        assert f"{flag} takes only {kind} regions" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_region_spelling(self, zero_path, tmp_path):
        assert main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--around", "annulus:2,2,oops",
                     "--out", str(tmp_path / "x.json")]) == 1

    ANNULUS = ["--around", "annulus:2,2,0.4,0.8"]
    RECT = ["--crossing", "rect:1.5,1.5,2.5,2.5"]
    DISK = ["--within", "disk:2,2,0.75"]
    ENDS = ["--from", "1.0,2.0", "--to", "2.0,2.0"]

    @pytest.mark.parametrize("flags", [
        ANNULUS + RECT, ANNULUS + DISK, RECT + DISK, ENDS + ANNULUS, ENDS + RECT,
        ENDS + ["--emit-gnuplot"],
    ], ids=["around+crossing", "around+within", "crossing+within",
            "ends+around", "ends+crossing", "gnuplot-without-path"])
    def test_flags_that_would_be_ignored_exit_one(self, flags, zero_path, tmp_path):
        out = tmp_path / "x.json"
        assert main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--out", str(out)] + flags) == 1
        assert not out.exists()

    def test_supercritical_xi_flagged_in_manifest(self, zero_path, tmp_path):
        out = tmp_path / "s.json"
        code = main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.41", "--from", "1.0,2.0", "--to", "2.0,2.0",
                     "--out", str(out)])
        assert code == 0
        manifest = load_json(tmp_path / "s.json.manifest.json")
        assert manifest["supercritical_xi"] is True
        assert any("0.41" in w for w in manifest["warnings"])


class TestDistErrorPaths:
    """Region queries on a sampled field fail, or agree with the library on
    the full lattice, the same way with either smoother."""

    @pytest.fixture(scope="class")
    def field_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("field") / "f.lfpf"
        assert main(["field", "sample", "--n", "64", "--seed", "11",
                     "--out", str(path)]) == 0
        return path

    def _dist(self, field_path, tmp_path, *flags):
        return main(["dist", "--field", str(field_path), "--eps", "0.25",
                     "--xi", "0.2", "--out", str(tmp_path / "x.json"), *flags])

    SMOOTHERS = pytest.mark.parametrize("smoother", [[], ["--localized"]],
                                        ids=["plain", "localized"])

    def test_endpoint_overflowing_the_lattice(self, field_path, tmp_path, capsys):
        code = main(["dist", "--field", str(field_path), "--eps", "0.125",
                     "--xi", "0.2", "--from", "1e308,1", "--to", "0.5,0.5",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "snaps outside the lattice" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("flags, what", [
        (["--crossing", "rect:0,0,inf,1"], "rect corner"),
        (["--crossing", "rect:nan,0,1,1"], "rect corner"),
        (["--around", "annulus:nan,1,0.2,0.4"], "annulus center"),
        (["--around", "annulus:2,-inf,0.4,0.8"], "annulus center"),
        (["--within", "disk:inf,2,0.75", "--from", "1.0,2.0", "--to", "2.0,2.0"],
         "disk center"),
    ], ids=["rect-inf", "rect-nan", "annulus-nan", "annulus-inf", "disk-inf"])
    def test_region_with_non_finite_coordinate(self, field_path, tmp_path, capsys,
                                               flags, what):
        assert self._dist(field_path, tmp_path, *flags) == 1
        assert f"{what} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @SMOOTHERS
    @pytest.mark.parametrize("ends, which", [
        (["--from", "1.0,2.0", "--to", "2.0,2.0"], "source"),
        (["--from", "2.0,2.0", "--to", "1.0,2.0"], "target"),
    ], ids=["source", "target"])
    def test_within_endpoint_outside_disk(self, field_path, tmp_path, capsys,
                                          smoother, ends, which):
        code = self._dist(field_path, tmp_path, *smoother, *ends,
                          "--within", "disk:2,2,0.75")
        assert code == 1
        assert (f"{which} site (32, 16) is outside the active region"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.json").exists()

    @SMOOTHERS
    @pytest.mark.parametrize("rect", ["rect:1.51,1.51,1.55,1.55",
                                      "rect:10,10,11,11"],
                             ids=["between-sites", "off-lattice"])
    def test_crossing_rect_without_sites(self, field_path, tmp_path, capsys,
                                         smoother, rect):
        code = self._dist(field_path, tmp_path, *smoother, "--crossing", rect)
        assert code == 1
        assert "crossing square contains no active sites" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @SMOOTHERS
    @pytest.mark.parametrize("ann", [(0.2, 2.0, 0.4, 0.8), (0.5, 2.0, 0.2, 0.8),
                                     (0.5, 0.5, 0.2, 0.8)],
                             ids=["hole-clipped", "edge", "corner"])
    def test_around_annulus_clipped_by_lattice_edge(self, field_path, tmp_path,
                                                    capsys, smoother, ann):
        code = self._dist(field_path, tmp_path, *smoother,
                          "--around", "annulus:%r,%r,%r,%r" % ann,
                          "--emit-path", str(tmp_path / "p.csv"))
        field = read_field(field_path)
        moll = (mollify_localized if smoother else mollify)(field, 0.25)
        want = dist_around_annulus(build_weighted_grid(moll, 0.2),
                                   Annulus(center=ann[:2], r_inner=ann[2],
                                           r_outer=ann[3]), want_path=True)
        if want.unreachable:   # a clipped hole leaves no separating cycle
            assert code == 1
            assert "no path to emit" in capsys.readouterr().err
            return
        assert code == 0
        doc = load_json(tmp_path / "x.json")
        assert doc["value"] == want.value
        assert doc["path"]["sites"] == [list(s) for s in want.path.sites]


class TestAEps:
    ARGS = ["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "32",
            "--spacing", "0.125", "--trials", "20", "--seed", "7"]

    def test_matches_library_estimate(self, tmp_path):
        clear_estimate_cache()
        out = tmp_path / "a.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        doc = load_json(out)
        mc = MCConfig(lattice=LatticeSpec(n=32, spacing=0.125),
                      trials=20, master_seed=7)
        clear_estimate_cache()
        est = estimate_a_eps(0.5, Params(xi=0.2), mc)
        assert doc["median"] == est.median
        assert doc["ci_lo"] == est.ci_lo and doc["ci_hi"] == est.ci_hi
        assert load_json(tmp_path / "a.json.manifest.json")["master_seed"] == 7

    def test_thread_count_never_changes_bytes(self, tmp_path):
        clear_estimate_cache()
        one = tmp_path / "one.json"
        assert main(self.ARGS + ["--threads", "1", "--out", str(one)]) == 0
        clear_estimate_cache()
        four = tmp_path / "four.json"
        assert main(self.ARGS + ["--threads", "4", "--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_trials_above_the_cap_exit_one_before_any_trial(self, tmp_path, monkeypatch):
        import lfpp.renorm as renorm
        calls = []
        monkeypatch.setattr(renorm, "run_trials",
                            lambda trial, mc: calls.append(mc.trials) or [])
        args = list(self.ARGS)
        args[args.index("--trials") + 1] = str(renorm._MAX_TRIALS + 1)
        clear_estimate_cache()
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 1
        assert calls == [] and not (tmp_path / "a.json").exists()

    def test_insufficient_trials_exit_one(self, tmp_path):
        args = list(self.ARGS)
        args[args.index("--trials") + 1] = "5"
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 1

    @pytest.mark.parametrize("eps", ["0.2", "nan", "inf"])
    def test_eps_off_the_scale_floor_exits_one(self, eps, tmp_path):
        args = list(self.ARGS)
        args[args.index("--eps") + 1] = eps
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 1
        assert not (tmp_path / "a.json").exists()


class TestFit:
    def write_estimates(self, root, slope=0.45):
        root.mkdir(exist_ok=True)
        for k in range(1, 6):
            eps = 2.0 ** -k
            med = 3.0 * eps ** slope
            doc = {"epsilon": eps, "median": med, "trials": 50,
                   "ci_lo": med * 0.9, "ci_hi": med * 1.1, "master_seed": 1}
            (root / f"a{k}.json").write_text(json.dumps(doc), encoding="utf-8")

    def test_fit_recovers_slope(self, tmp_path):
        est_dir = tmp_path / "est"
        self.write_estimates(est_dir)
        # distractors that the loader must skip
        (est_dir / "a1.json.manifest.json").write_text('{"command": "a-eps"}')
        (est_dir / "junk.json").write_text("{not json")
        out = tmp_path / "fit.json"
        assert main(["fit", "--in", str(est_dir), "--xi", "0.2",
                     "--out", str(out)]) == 0
        doc = load_json(out)
        assert doc["slope"] == pytest.approx(0.45, abs=1e-12)
        assert doc["q_hat"] == pytest.approx((1 - 0.45) / 0.2, abs=1e-11)
        assert len(doc["points"]) == 5

    def test_missing_xi_is_usage_error(self, tmp_path):
        est_dir = tmp_path / "est"
        self.write_estimates(est_dir)
        assert main(["fit", "--in", str(est_dir),
                     "--out", str(tmp_path / "f.json")]) == 1

    def test_empty_dir_exits_one(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["fit", "--in", str(empty), "--xi", "0.2",
                     "--out", str(tmp_path / "f.json")]) == 1


class TestRatio:
    def test_r_one_rows_are_exactly_one(self, tmp_path):
        clear_estimate_cache()
        out = tmp_path / "r.json"
        code = main(["ratio", "--xi", "0.2", "--eps", "0.5,0.25", "--r", "1.0",
                     "--n", "32", "--spacing", "0.125", "--trials", "20",
                     "--seed", "7", "--q-hat", "2.5", "--out", str(out)])
        assert code == 0
        doc = load_json(out)
        assert [row[1] for row in doc["rows"]] == [1.0, 1.0]
        assert doc["q_hat_used"] == 2.5

    def test_unfittable_ladder_exits_one_before_any_trial(self, tmp_path, monkeypatch):
        import lfpp.renorm as renorm
        calls = []
        monkeypatch.setattr(renorm, "run_trials",
                            lambda trial, mc: calls.append(mc.trials) or [])
        clear_estimate_cache()
        out = tmp_path / "r.json"
        assert main(["ratio", "--xi", "0.2", "--eps", "0.5,0.25", "--r", "0.5",
                     "--n", "32", "--spacing", "0.125", "--trials", "20",
                     "--seed", "7", "--out", str(out)]) == 1
        assert calls == [] and not out.exists()

    def test_non_pow2_r_exits_one(self, tmp_path):
        assert main(["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "0.3",
                     "--n", "32", "--spacing", "0.125", "--trials", "20",
                     "--seed", "7", "--q-hat", "2.5",
                     "--out", str(tmp_path / "r.json")]) == 1


class TestExp:
    CFG = {"field": {"n": 64, "spacing": 0.0625, "seed": 404},
           "epsilon": 0.25, "c": 1.0, "xi": 0.2,
           "pairs": [[[1.6, 1.7], [2.3, 2.2]], [[1.5, 1.6], [2.4, 2.3]]]}

    def test_report_csv_and_gnuplot(self, tmp_path):
        cfg_path = tmp_path / "w.json"
        cfg_path.write_text(json.dumps(self.CFG), encoding="utf-8")
        out = tmp_path / "rep.json"
        csv_out = tmp_path / "rep.csv"
        code = main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                     "--out", str(out), "--csv", str(csv_out),
                     "--emit-gnuplot"])
        assert code == 0
        doc = load_json(out)
        assert doc["verdict"] == "Pass"
        assert doc["runtime_secs"] is None   # wall time lives in the manifest
        header = csv_out.read_text().splitlines()[0]
        assert header == ",".join(EXPERIMENTS["weyl_shift_test"].columns)
        assert (tmp_path / "rep.csv.gnu").is_file()
        manifest = load_json(tmp_path / "rep.json.manifest.json")
        assert manifest["runtime_secs"] > 0
        assert manifest["master_seed"] == 404

    def test_rerun_byte_identical_primary_output(self, tmp_path):
        cfg_path = tmp_path / "w.json"
        cfg_path.write_text(json.dumps(self.CFG), encoding="utf-8")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                     "--out", str(a)]) == 0
        assert main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_reports_position(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"field": }', encoding="utf-8")
        code = main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_key_exits_one_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "w.json"
        cfg = {k: v for k, v in self.CFG.items() if k != "epsilon"}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")]) == 1
        assert "experiment config is missing 'epsilon'" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_whole_floats_read_as_integers(self, tmp_path):
        reports = []
        for label, n, seed in (("int", 64, 404), ("float", 64.0, 404.0)):
            cfg_path = tmp_path / f"{label}.cfg.json"
            cfg_path.write_text(json.dumps(
                dict(self.CFG, field=dict(self.CFG["field"], n=n, seed=seed))),
                encoding="utf-8")
            out = tmp_path / f"{label}.json"
            assert main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_unknown_experiment_name(self, tmp_path):
        assert main(["exp", "bogus", "--config", "x",
                     "--out", str(tmp_path / "y.json")]) == 1

    @pytest.mark.parametrize("name, cfg, seed, flagged", [
        # gmc_mass never reads xi, so a stray one is no part of its run
        ("gmc_mass", {"field": {"n": 64, "seed": 404, "kind": "dirichlet"},
                      "gamma": 1.0, "eps_ladder": [0.5, 0.25, 0.125],
                      "window": [1.5, 1.5, 2.5, 2.5], "xi": 0.5}, 404, False),
        ("weyl_shift_test", dict(CFG, xi=0.45), 404, True),
        ("scale_covariance_test", {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
                                   "mc": {"n": 32, "trials": 20, "seed": 7}}, 7, False),
    ], ids=["gmc-stray-xi", "weyl-xi-0.45", "covariance-mc-seed"])
    def test_manifest_facts_come_from_the_report(self, name, cfg, seed, flagged,
                                                 tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        clear_estimate_cache()
        assert main(["exp", name, "--config", str(cfg_path),
                     "--out", str(tmp_path / "r.json")]) == 0
        manifest = load_json(tmp_path / "r.json.manifest.json")
        assert manifest["master_seed"] == seed
        assert manifest["supercritical_xi"] is flagged
        assert bool(manifest["warnings"]) is flagged

    def test_threads_reach_the_runner_pools(self, tmp_path, pool_sizes):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
             "mc": {"n": 32, "trials": 20, "seed": 7}}), encoding="utf-8")
        # one pool for the estimates at eps and eps/a, one for the trials
        for threads, want in (("1", []), ("2", [2, 2])):
            clear_estimate_cache()
            pool_sizes.clear()
            assert main(["exp", "scale_covariance_test", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.json"), "--threads", threads]) == 0
            assert pool_sizes == want, threads

    def test_report_bytes_independent_of_pool_size(self, tmp_path):
        # `--threads` and the retired `mc.parallel` key never reach the report
        mc = {"n": 32, "trials": 20, "seed": 7}
        runs = {"t1": (mc, "1"), "t2": (mc, "2"),
                "old_key": (dict(mc, parallel=True), "1")}
        reports = {}
        for label, (mc_cfg, threads) in runs.items():
            cfg_path = tmp_path / f"{label}.cfg.json"
            cfg_path.write_text(json.dumps(
                {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5, "mc": mc_cfg}),
                encoding="utf-8")
            out = tmp_path / f"{label}.json"
            clear_estimate_cache()
            assert main(["exp", "scale_covariance_test", "--config", str(cfg_path),
                         "--out", str(out), "--threads", threads]) == 0
            reports[label] = out.read_bytes()
        assert reports["t2"] == reports["t1"]
        assert reports["old_key"] == reports["t1"]

    def test_emit_gnuplot_needs_csv(self, tmp_path):
        cfg_path = tmp_path / "w.json"
        cfg_path.write_text(json.dumps(self.CFG), encoding="utf-8")
        assert main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json"), "--emit-gnuplot"]) == 1
        assert not (tmp_path / "rep.json").exists()

    GAP_CFG = {"field": {"n": 64, "seed": 404}, "eps_ladder": [0.25, 0.125],
               "window": [1.6, 1.6, 2.3, 2.3], "xi": 0.2}
    SCALE_CFG = {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
                 "mc": {"n": 32, "trials": 20, "seed": 7}}
    CONTINUITY_CFG = {"field": {"n": 64, "seed": 404, "origin": [0.5, 0.5]},
                      "a": 0.5, "n_ladder": [8, 10, 15], "window": [1.6, 1.6, 2.3, 2.3]}

    @pytest.mark.parametrize("name, path, value, key", [
        ("weyl_shift_test", ("field", "n"), "abc", "field"),
        ("weyl_shift_test", ("field", "spacing"), "wide", "spacing"),
        ("weyl_shift_test", ("epsilon",), "x", "epsilon"),
        ("weyl_shift_test", ("pairs",), [[1.6, 1.7]], "pairs"),
        ("localized_gap", ("eps_ladder",), 0.25, "eps_ladder"),
        ("localized_gap", ("window",), [1.6, 1.6, 2.3, 2.3, 9.0], "window"),
        ("weyl_shift_test", ("field", "origin"), [0.0, 0.0, 0.0], "origin"),
        ("weyl_shift_test", ("pairs",), [[[1.6, 1.7, 5], [2.3, 2.2]]], "pairs"),
        ("weyl_shift_test", ("field", "n"), 64.5, "n"),
        ("weyl_shift_test", ("field", "seed"), True, "seed"),
        ("scale_covariance_test", ("mc", "trials"), 20.5, "trials"),
        ("scale_covariance_test", ("mc", "localized"), "false", "localized"),
        ("field_continuity_check", ("n_ladder",), [8, 10.5, 15], "n_ladder"),
        ("weyl_shift_test", ("pairs",),
         {"window": [1.6, 1.6, 2.3, 2.3], "seed": 7, "count": 2.5}, "count"),
    ])
    def test_malformed_value_exits_one_naming_key(self, name, path, value, key,
                                                  tmp_path, capsys):
        cfg = json.loads(json.dumps({
            "weyl_shift_test": self.CFG, "localized_gap": self.GAP_CFG,
            "scale_covariance_test": self.SCALE_CFG,
            "field_continuity_check": self.CONTINUITY_CFG}[name]))
        node = cfg
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["exp", name, "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)
        assert not (tmp_path / "rep.json").exists()

    def test_oversize_integer_exits_one_naming_key(self, tmp_path, capsys):
        # float() of a 401-digit integer raises OverflowError
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(
            {"a": 10 ** 400, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
             "mc": {"n": 32, "trials": 20, "seed": 7}}), encoding="utf-8")
        code = main(["exp", "scale_covariance_test", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "config key 'a' is malformed" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()


class TestEmptyInputs:
    """An empty pair list, radius set or ladder is a validation error, never
    a report over zero rows."""

    W = [1.6, 1.6, 2.3, 2.3]
    FIELD = {"field": {"n": 64, "seed": 404}, "epsilon": 0.25, "c": 1.0, "xi": 0.2}
    LADDER = {"eps_ladder": [0.25, 0.125, 0.0625, 0.03125], "xi": 0.2,
              "mc": {"n": 256, "trials": 20, "seed": 11}}
    RATIO = ["ratio", "--xi", "0.2", "--r", "0.5", "--n", "32", "--spacing", "0.125",
             "--trials", "20", "--seed", "7", "--q-hat", "1"]

    @pytest.mark.parametrize("argv, cfg", [
        (["exp", "weyl_shift_test"], dict(FIELD, pairs=[])),
        (["exp", "weyl_shift_test"],
         dict(FIELD, pairs={"window": W, "seed": 7, "count": 0})),
        (["exp", "convergence_diagnostic"], dict(LADDER, pairs=[])),
        (["exp", "convergence_diagnostic"],
         dict(LADDER, pairs={"window": W, "seed": 7, "count": 0})),
        (["exp", "annulus_event_stats"],
         {"epsilon": 0.25, "r_set": [], "alpha": 0.9, "xi": 0.2,
          "mc": {"n": 64, "trials": 20, "seed": 13}}),
        (RATIO + ["--eps", ","], None),
    ], ids=["weyl-pairs", "weyl-count-0", "convergence-pairs", "convergence-count-0",
            "annulus-r-set", "ratio-eps"])
    def test_exits_one_and_writes_nothing(self, argv, cfg, tmp_path):
        out = tmp_path / "out.json"
        argv = argv + ["--out", str(out)]
        if cfg is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            argv += ["--config", str(cfg_path), "--csv", str(tmp_path / "out.csv")]
        clear_estimate_cache()
        assert main(argv) == 1
        assert not out.exists() and not (tmp_path / "out.csv").exists()


class TestExperimentGoldenBytes:
    # sha256 of (report JSON, CSV rows) for one small admissible config per
    # experiment, run through `lfpp exp`.  A change to any of them changes
    # an experiment's numerics or its output schema and must be deliberate.
    W = [1.6, 1.6, 2.3, 2.3]
    F64 = {"n": 64, "seed": 404}
    CASES = {
        "weyl_shift_test": (
            {"field": F64, "epsilon": 0.25, "c": 1.0, "xi": 0.2,
             "pairs": {"window": W, "seed": 7, "count": 3}},
            "6a426f8754d066c21f846b9bc889b2b26c480599286d6277d89d64e70740e27e",
            "7794f220b486e5d44be482e94dfa017c8aa085e04bda2dbc8b406837b6057067"),
        "scale_covariance_test": (
            {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
             "mc": {"n": 64, "trials": 20, "seed": 7}},
            "8a51a51b993dc31da12e1a13c1afe64e711f6aa80ed408850d5720157bd4ff50",
            "a8ce6d5293703787b3bbccc944a09440d11ac24e87644a2ea7f746d4cccc3b63"),
        "localized_gap": (
            {"field": {"n": 64, "spacing": 0.0625, "seed": 404},
             "eps_ladder": [0.25, 0.125], "window": W, "xi": 0.2},
            "58af7a23502f7f19d84f1ec643bdbda8d87ec93e3bbf780fe3b175161375f1b6",
            "0f5e068a7529c7ce963baf9e334ea6c1eeb24cd6ffc566c137fbe35ffb31eb0a"),
        "convergence_diagnostic": (
            {"pairs": [[[1.6, 1.7], [2.3, 2.2]], [[1.5, 1.5], [2.4, 2.4]]],
             "eps_ladder": [0.25, 0.125, 0.0625, 0.03125], "xi": 0.2,
             "mc": {"n": 256, "trials": 20, "seed": 11}},
            "2873d970186db35862baf27874f2cde78bd0b73b32026b220302e842ac7ae930",
            "371f0706f4ec676abba911b01f51e42b9fd4cd03ee2767b86cf3f1c2e934f121"),
        "annulus_event_stats": (
            {"epsilon": 0.25, "r_set": [2.0], "alpha": 0.9, "xi": 0.2,
             "mc": {"n": 64, "trials": 20, "seed": 13}},
            "7c83131dcb12f444020f7bbf55606e2eea9b4e3ff526b28ed96c474ae36f19ef",
            "1604cebf39cb242d574ff495396394bf951866845d621eef20394fffe755ecf8"),
        "gmc_mass": (
            {"field": {"n": 64, "seed": 404, "kind": "dirichlet"}, "gamma": 1.0,
             "eps_ladder": [0.5, 0.25, 0.125], "window": [1.5, 1.5, 2.5, 2.5]},
            "da7742f0ddc609d1343a3914ee9d0ae6fa6d412f4a607e4e499319bfc1e9ba13",
            "58e90e6cb6cf6bc37643001df93d88572dfb423028dca047eea17de7272518fe"),
        "field_continuity_check": (
            {"field": {"n": 64, "seed": 404, "origin": [0.5, 0.5]},
             "a": 0.5, "n_ladder": [8, 10, 15], "window": W},
            "b3a535080a57a69742d5fdd17fd8e112c4f045fef00b59f54a63c75013151744",
            "3ea434a6c384617b0dfc112b5cc83ba3d4b0f7c95d87ad11935b7d3c9051d422"),
        "field_sup_bound_check": (
            {"field": {"n": 64, "spacing": 0.03125, "seed": 404},
             "eps_ladder": [0.25, 0.125, 0.0625], "eta": 0.1,
             "window": [0.6, 0.6, 1.4, 1.4]},
            "6fbb56f21d904aa1e8606c27b4b27f5dd84ae299e19d62e93132c1c18143a673",
            "0c8fae266c6f40d66eab82896d6294cdf35f4cde0d1af00f71881d3ffd682e94"),
        "small_segment_sup": (
            {"field": F64, "epsilon": 0.25, "zeta": 0.5,
             "window": [1.5, 1.5, 2.5, 2.5], "xi": 0.2,
             "mc": {"n": 64, "trials": 20, "seed": 17}},
            "443d4a5971930ce9d1f7b38fe5d74443752858c41ab2a20c8233ae54cd53da39",
            "e0c1fb86aeeef9be431cd15a22823af5f064d9aeee3ddc382e843f6c4f7ea125"),
    }

    def test_every_experiment_has_a_case(self):
        assert set(self.CASES) == set(EXPERIMENTS)

    def _digests(self, name, tmp_path, *flags):
        clear_estimate_cache()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.CASES[name][0]), encoding="utf-8")
        assert main(["exp", name, "--config", str(cfg_path),
                     "--out", str(tmp_path / "r.json"),
                     "--csv", str(tmp_path / "r.csv"), *flags]) == 0
        return [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("r.json", "r.csv")]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_and_csv_match_golden_hashes(self, name, tmp_path):
        assert self._digests(name, tmp_path) == list(self.CASES[name][1:])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pool_size_checked_before_the_config_is_parsed(self, name, monkeypatch):
        """Every experiment, with or without an `mc` block, rejects a bad
        pool size before its config is parsed, which samples any `field`."""
        import lfpp.experiments as experiments
        import lfpp.renorm as renorm

        def no_sampler(*args, **kwargs):
            pytest.fail("a sampler or trial ran")

        monkeypatch.setattr(experiments, "SAMPLERS",
                            dict.fromkeys(experiments.SAMPLERS, no_sampler))
        for module in (experiments, renorm):
            monkeypatch.setattr(module, "sample_torus_gff", no_sampler)
            monkeypatch.setattr(module, "run_trials", no_sampler)
        with pytest.raises(InvalidArgument):
            run_experiment(name, self.CASES[name][0], workers=0)

    def test_trial_pool_keeps_annulus_bytes(self, tmp_path, pool_sizes):
        assert (self._digests("annulus_event_stats", tmp_path, "--threads", "2")
                == list(self.CASES["annulus_event_stats"][1:]))
        assert pool_sizes == [2]    # its per-trial loop ran in the pool


class TestCaching:
    SAMPLE = ["field", "sample", "--n", "32", "--spacing", "0.125",
              "--seed", "99"]

    def test_cache_hit_returns_same_bytes(self, tmp_path):
        cdir = tmp_path / "cache"
        first = tmp_path / "f1.lfpf"
        second = tmp_path / "f2.lfpf"
        assert main(self.SAMPLE + ["--cache-dir", str(cdir),
                                   "--out", str(first)]) == 0
        assert main(self.SAMPLE + ["--cache-dir", str(cdir),
                                   "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(list(cdir.iterdir())) == 1   # output path is not in the key

    def test_one_ulp_spacing_is_a_different_entry(self, tmp_path):
        cdir = tmp_path / "cache"
        bumped = repr(float(np.nextafter(0.125, 1.0)))
        assert main(self.SAMPLE + ["--cache-dir", str(cdir),
                                   "--out", str(tmp_path / "a.lfpf")]) == 0
        assert main(["field", "sample", "--n", "32", "--spacing", bumped,
                     "--seed", "99", "--cache-dir", str(cdir),
                     "--out", str(tmp_path / "b.lfpf")]) == 0
        assert len(list(cdir.iterdir())) == 2

    def test_corrupt_entry_evicted_and_regenerated(self, tmp_path, capsys):
        cdir = tmp_path / "cache"
        out1 = tmp_path / "f1.lfpf"
        assert main(self.SAMPLE + ["--cache-dir", str(cdir),
                                   "--out", str(out1)]) == 0
        artifacts = [p for p in cdir.iterdir() if p.suffix == ".lfpf"]
        artifacts[0].write_bytes(artifacts[0].read_bytes()[:40])
        out2 = tmp_path / "f2.lfpf"
        assert main(self.SAMPLE + ["--cache-dir", str(cdir),
                                   "--out", str(out2)]) == 0
        assert "evicted" in capsys.readouterr().err
        assert out2.read_bytes() == out1.read_bytes()

    def test_env_var_cache_root(self, tmp_path, monkeypatch):
        cdir = tmp_path / "envcache"
        monkeypatch.setenv("LFPP_CACHE", str(cdir))
        assert main(self.SAMPLE + ["--out", str(tmp_path / "f.lfpf")]) == 0
        assert [p.suffix for p in cdir.iterdir()] == [".lfpf"]

    def test_cache_info(self, tmp_path, capsys):
        cdir = tmp_path / "cache"
        assert main(self.SAMPLE + ["--cache-dir", str(cdir),
                                   "--out", str(tmp_path / "f.lfpf")]) == 0
        assert main(["cache-info", "--cache-dir", str(cdir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out and "field" in out

    def test_cache_info_without_root(self, monkeypatch):
        monkeypatch.delenv("LFPP_CACHE", raising=False)
        assert main(["cache-info"]) == 1

    @pytest.mark.parametrize("argv", [
        ["dist", "--field", "f.lfpf", "--eps", "0.25", "--xi", "0.2"],
        ["fit", "--in", "est", "--xi", "0.2", "--out", "fit.json"],
        ["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "0.5", "--n", "32",
         "--trials", "20", "--seed", "7", "--out", "r.json"],
        ["exp", "weyl_shift_test", "--config", "cfg.json", "--out", "rep.json"],
    ], ids=["dist", "fit", "ratio", "exp"])
    def test_cache_dir_only_where_a_cache_is_used(self, argv, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--cache-dir", "cache"]) == 1
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err


def _dir_state(root):
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.iterdir()}


class TestConcurrentCache:
    # 8 processes on one cache root: more than the cores of a small machine,
    # so stores from different runs interleave.
    SEEDS = (1, 2, 3, 4, 5, 6, 7, 7)

    def _sample_argv(self, cdir, seed, out):
        return ["field", "sample", "--n", "64", "--seed", str(seed),
                "--cache-dir", str(cdir), "--out", str(out)]

    def test_parallel_runs_keep_every_entry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LFPP_CACHE", raising=False)
        cdir = tmp_path / "cache"
        outs = [tmp_path / f"f{k}.lfpf" for k in range(len(self.SEEDS))]
        procs = [subprocess.Popen(LFPP + self._sample_argv(cdir, seed, out),
                                  env=lfpp_env(), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for seed, out in zip(self.SEEDS, outs)]
        try:
            for proc in procs:
                _, err = proc.communicate(timeout=180)
                assert proc.returncode == 0, err
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert outs[-1].read_bytes() == outs[-2].read_bytes()

        assert main(["cache-info", "--cache-dir", str(cdir)]) == 0
        assert "entries: 7" in capsys.readouterr().out

        before = _dir_state(cdir)
        for k, seed in enumerate(self.SEEDS):
            again = tmp_path / f"again{k}.lfpf"
            assert main(self._sample_argv(cdir, seed, again)) == 0
            assert again.read_bytes() == outs[k].read_bytes()
        assert _dir_state(cdir) == before   # every rerun was a hit
        assert not list(cdir.glob("*.tmp"))


def _replay_argv(manifest, in_dir, out_dir):
    """argv that regenerates an artifact from its manifest alone, writing
    every output under out_dir (and an exp config body under in_dir)."""
    resolved = dict(manifest["resolved_params"])
    command = manifest["command"]
    argv = ["field", "sample"] if command == "field-sample" else [command]
    if command == "exp":
        argv.append(resolved.pop("name"))
        config = in_dir / "cfg.json"
        config.write_text(json.dumps(resolved.pop("config_body")), encoding="utf-8")
        resolved["config"] = str(config)
    for key in ("field_seed", "mode", "epsilons"):   # recorded facts, not flags
        resolved.pop(key, None)
    for key, value in resolved.items():
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            argv.append(flag)
        elif key in ("out", "emit_path", "csv"):
            argv += [flag, str(out_dir / Path(value).name)]
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return argv


def _option_dests(argv):
    """The dests of the options of the (sub)parser argv's leading command
    words select, minus --threads and --cache-dir."""
    parser = cli._build_parser()
    for word in argv:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs or word not in subs[0].choices:
            break
        parser = subs[0].choices[word]
    return {a.dest for a in parser._actions
            if not isinstance(a, argparse._HelpAction)} - {"threads", "cache_dir"}


class TestManifestReplay:
    # The facts each command records under names that no flag of it has.
    FACTS = {"dist": {"field_seed", "mode"}, "fit": {"epsilons"}, "exp": {"config_body"}}

    def test_manifest_regenerates_primary_outputs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LFPP_CACHE", raising=False)
        orig, replay, cfg_dir, est = (tmp_path / d for d in ("orig", "replay", "in", "est"))
        for d in (orig, replay, cfg_dir, est):
            d.mkdir()
        f = str(orig / "f.lfpf")
        cfg = cfg_dir / "w.json"
        cfg.write_text(json.dumps(TestExp.CFG), encoding="utf-8")
        for k, eps in enumerate(("2", "1", "0.5", "0.25")):   # a ladder fit can carry
            assert main(["a-eps", "--xi", "0.2", "--eps", eps, "--n", "32", "--trials",
                         "20", "--seed", "5", "--out", str(est / f"a{k}.json")]) == 0
        runs = {
            "f.lfpf": ["field", "sample", "--n", "64", "--seed", "11"],
            "d.json": ["dist", "--field", f, "--eps", "0.25", "--xi", "0.2",
                       "--from", "1.2,1.5", "--to", "2.6,2.4",
                       "--emit-path", str(orig / "p.csv"), "--emit-gnuplot"],
            "r.json": ["dist", "--field", f, "--eps", "0.25", "--xi", "0.2",
                       "--localized", "--around", "annulus:2,2,0.4,0.8"],
            "c.json": ["dist", "--field", f, "--eps", "0.25", "--xi", "0.2",
                       "--localized", "--crossing", "rect:1.5,1.5,2.5,2.5",
                       "--emit-path", str(orig / "cp.csv")],
            "w.json": ["dist", "--field", f, "--eps", "0.25", "--xi", "0.2",
                       "--localized", "--from", "1.5,1.8", "--to", "2.5,2.2",
                       "--within", "disk:2,2,0.75"],
            "a.json": ["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "32",
                       "--trials", "20", "--seed", "5", "--origin", "0.5,0.25"],
            "q.json": ["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "0.5",
                       "--q-hat", "2.5", "--n", "32", "--trials", "20",
                       "--seed", "5"],
            "e.json": ["exp", "weyl_shift_test", "--config", str(cfg),
                       "--csv", str(orig / "e.csv"), "--emit-gnuplot"],
            "fit.json": ["fit", "--in", str(est), "--xi", "0.2"],
        }
        for out, argv in runs.items():
            assert main(argv + ["--out", str(orig / out)]) == 0, out
        for out, argv in runs.items():
            clear_estimate_cache()
            manifest = load_json(orig / f"{out}.manifest.json")
            assert set(manifest["resolved_params"]) == (
                _option_dests(argv) | self.FACTS.get(argv[0], set())), out
            assert main(_replay_argv(manifest, cfg_dir, replay)) == 0, out

        def outputs(d):
            return {p.name: p.read_bytes() for p in d.iterdir()
                    if not p.name.endswith(".manifest.json")}
        assert set(outputs(orig)) == {*runs, "p.csv", "p.csv.gnu", "cp.csv",
                                      "e.csv", "e.csv.gnu"}
        assert outputs(replay) == outputs(orig)


    # Flag combinations of the replay property: each `dist` mode's flags,
    # and two experiments, one of which runs its trials in the pool.
    DIST_MODES = {
        "point": ["--from", "1.2,1.5", "--to", "2.6,2.4"],
        "internal": ["--from", "1.5,1.8", "--to", "2.5,2.2", "--within", "disk:2,2,0.75"],
        "crossing": ["--crossing", "rect:1.5,1.5,2.5,2.5"],
        "around": ["--around", "annulus:2,2,0.4,0.8"],
    }
    EXP_CONFIGS = {
        "weyl_shift_test": TestExp.CFG,
        "annulus_event_stats": {"epsilon": 0.25, "r_set": [2.0], "alpha": 0.9,
                                "xi": 0.2, "mc": {"n": 64, "trials": 8, "seed": 13}},
    }

    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_random_dist_and_exp_flags_replay(self, tmp_path, monkeypatch, data):
        """A `dist` or `exp` run with any admissible mix of its flags is
        regenerated bit for bit from its manifest; an `exp` replays at one
        worker whatever --threads it ran with."""
        monkeypatch.delenv("LFPP_CACHE", raising=False)
        field = tmp_path / "f.lfpf"
        if not field.exists():
            assert main(["field", "sample", "--n", "64", "--seed", "11",
                         "--out", str(field)]) == 0
        case = Path(tempfile.mkdtemp(dir=tmp_path))
        orig, replay, cfg_dir = (case / d for d in ("orig", "replay", "in"))
        for d in (orig, replay, cfg_dir):
            d.mkdir()
        if data.draw(st.sampled_from(["dist", "exp"])) == "dist":
            argv = ["dist", "--field", str(field), "--eps", "0.25", "--xi", "0.2",
                    *self.DIST_MODES[data.draw(st.sampled_from(sorted(self.DIST_MODES)))]]
            if data.draw(st.booleans()):
                argv.append("--localized")
            if data.draw(st.booleans()):
                argv += ["--emit-path", str(orig / "p.csv")]
                if data.draw(st.booleans()):
                    argv.append("--emit-gnuplot")
        else:
            name = data.draw(st.sampled_from(sorted(self.EXP_CONFIGS)))
            cfg = orig / "cfg.json"
            cfg.write_text(json.dumps(self.EXP_CONFIGS[name]), encoding="utf-8")
            argv = ["exp", name, "--config", str(cfg),
                    "--threads", str(data.draw(st.integers(1, 2)))]
            if data.draw(st.booleans()):
                argv += ["--csv", str(orig / "e.csv")]
                if data.draw(st.booleans()):
                    argv.append("--emit-gnuplot")
        clear_estimate_cache()
        assert main(argv + ["--out", str(orig / "out.json")]) == 0
        clear_estimate_cache()
        manifest = load_json(orig / "out.json.manifest.json")
        assert main(_replay_argv(manifest, cfg_dir, replay)) == 0

        def outputs(d):
            return {p.name: p.read_bytes() for p in d.iterdir()
                    if not p.name.endswith(".manifest.json") and p.name != "cfg.json"}
        assert outputs(replay) == outputs(orig)
        assert "out.json" in outputs(orig)


class TestGoldenBytes:
    # sha256 of small fixed-seed primary outputs, one `dist` per mode.  A
    # change to the float bits of any of them is a numerics change and must
    # bump lfpp.cache.NUMERICS_VERSION; a deliberate format change (such as
    # a new LFPF header or a key leaving a JSON document) is re-recorded
    # here and listed in CHANGES.md.
    GOLDEN = {
        "f.lfpf": "6929a8c51271c54445e6f5734b89e38a29e2ebb9c0cd869933e1b05a3836fcc0",
        "a.json": "86c9a760191f91e2d6b6b9a63f9e39a1acc56479b41104d30e16a8ca7c9e906c",
        "la.json": "789ec6809e58ae271d02f095fdd53a8a3cd056dd97b0c63553d8c57e0b5aa85c",
        "d.json": "81546350ce48fa432a05ec652c195564dc336058f77babd37d84081766d292cf",
        "p.csv": "8c9bb20fa36b44877922d532b8015272447f62c969cce5f69e78bd8b543e9109",
        "c.json": "932eab7de64e1f3c7561f1b1a6a8dfc1bfe03d88ecb0a274bd6748c482d6d465",
        "w.json": "88f08217bceada70f2bc1a2d8984d078157864d32ace8e15bd41f58ec626020d",
        "wp.csv": "92edd4da9f0630ac2bfbb418e7d2c38eec97a03ad4631a9ce6f7a88739721830",
        "r.json": "928ad9327865a025863a2551ee42d77dfd3b3ef966b62292ce94aed2baf2d7c4",
        "rp.csv": "697da152b13abf612f780de044d22084da09c73d7667efe52d15a679e942167c",
        "ld.json": "bf015f5aabefe32c293ca4905d0d2c3d73871e74ee18d75b0f1224fbc28898dc",
        "ldp.csv": "095c17a4bed0988d16beeab557ced5feb923bd36bcb891384c3bf83cae151d28",
        "lc.json": "b9efe6efec8cba30d66ef098c4296c4d88c6585ab35897b85f462dcbf4fe6ee1",
        "lcp.csv": "349cd4e1a40be5b656645bab29b755203b8a5c89f0347d2a961a9b996a7314c1",
        "lw.json": "b933e0a789da58b6a718561a7d04e674312e82f4954fdc37deed182cd9449c3d",
        "lwp.csv": "dc24cad06abe4477bd5661b9fce9ec652597aa6e375df2bd898065b0b1595488",
        "lr.json": "89854f157bd6420772d4edbd504cc5143978339af202a92bcd588904e83558c4",
        "lrp.csv": "615628338d8d79229d1af6a058cd35d47664e1183348a4eebe08e45dedb5c671",
    }
    DIST = {
        "d.json": ["--from", "1.2,1.5", "--to", "2.6,2.4", "--emit-path", "p.csv"],
        "c.json": ["--crossing", "rect:1.5,1.5,2.5,2.5"],
        "w.json": ["--from", "1.5,1.8", "--to", "2.5,2.2",
                   "--within", "disk:2,2,0.75", "--emit-path", "wp.csv"],
        "r.json": ["--around", "annulus:2,2,0.4,0.8", "--emit-path", "rp.csv"],
        # localized smoothing; each region plus the stencil margin (6 sites
        # at eps 0.25) is strictly smaller than the 64-site lattice
        "ld.json": ["--localized", "--from", "1.2,1.5", "--to", "2.6,2.4",
                    "--emit-path", "ldp.csv"],
        "lc.json": ["--localized", "--crossing", "rect:1.5,1.5,2.5,2.5",
                    "--emit-path", "lcp.csv"],
        "lw.json": ["--localized", "--from", "1.5,1.8", "--to", "2.5,2.2",
                    "--within", "disk:2,2,0.75", "--emit-path", "lwp.csv"],
        "lr.json": ["--localized", "--around", "annulus:2,2,0.4,0.8",
                    "--emit-path", "lrp.csv"],
    }

    def _run(self, d, cache):
        d.mkdir()
        f = str(d / "f.lfpf")
        assert main(["field", "sample", "--n", "64", "--seed", "11",
                     "--out", f] + cache) == 0
        assert main(["a-eps", "--xi", "0.2", "--eps", "0.5", "--n", "32",
                     "--trials", "20", "--seed", "5",
                     "--out", str(d / "a.json")] + cache) == 0
        assert main(["a-eps", "--xi", "0.2", "--eps", "0.25", "--n", "32",
                     "--trials", "20", "--seed", "5", "--localized",
                     "--out", str(d / "la.json")] + cache) == 0
        for out, flags in self.DIST.items():
            flags = [str(d / v) if v.endswith(".csv") else v for v in flags]
            assert main(["dist", "--field", f, "--eps", "0.25", "--xi", "0.2",
                         "--out", str(d / out)] + flags) == 0
        return {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
                for name in self.GOLDEN}

    @pytest.mark.parametrize("runs", [("plain",), ("miss", "hit")])
    def test_primary_outputs_match_golden_hashes(self, runs, tmp_path,
                                                 monkeypatch):
        monkeypatch.delenv("LFPP_CACHE", raising=False)
        for label in runs:
            clear_estimate_cache()
            cache = [] if label == "plain" else ["--cache-dir",
                                                 str(tmp_path / "cache")]
            assert self._run(tmp_path / label, cache) == self.GOLDEN, label

    # `fit` on TestFit's synthetic estimates; `ratio` fitting q_hat from its
    # ladder, then at a given q_hat
    FIT_RATIO = {
        "fit.json": "69befd5443c274d7141b4b07a80c876bb79df4f925d7bd70453632caa3b5dbf6",
        "ratio.json": "8afa9663fe9b47b1018955cc44f47ffa69f1e65ee82888d29ef9cf0b859b2a86",
        "ratio_q.json": "c87e7d6dc62b4ca065fe7a6cbf6122af8b042ab4f164e5eef8431bd8ecba289f",
    }

    def test_fit_and_ratio_match_golden_hashes(self, tmp_path):
        clear_estimate_cache()
        TestFit().write_estimates(tmp_path / "est")
        assert main(["fit", "--in", str(tmp_path / "est"), "--xi", "0.2",
                     "--out", str(tmp_path / "fit.json")]) == 0
        ratio = ["ratio", "--xi", "0.2", "--eps", "2,1,0.5,0.25", "--r", "2",
                 "--n", "64", "--trials", "20", "--seed", "5"]
        assert main(ratio + ["--out", str(tmp_path / "ratio.json")]) == 0
        assert main(ratio + ["--q-hat", "2.5", "--out", str(tmp_path / "ratio_q.json")]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in self.FIT_RATIO} == self.FIT_RATIO

    # `ratio` at n = 128: fitted, at a given q_hat, and localized, on a
    # larger lattice than the n = 64 outputs above.  exp(xi * h) absorbs most
    # one-ulp moves of h, so these bytes rarely show a last-bit slip in
    # sampling or smoothing; the bitwise properties against tests/oracles.py
    # (TestTorusSamplerMatchesReference, TestPlainMatchesReference) are the
    # detectors for that.
    RATIO_128 = {
        "ratio128.json": "3643dd862073d498ba970cfe6833c69f35bc2a6197dc2059263f206adcb2d155",
        "ratio128_q.json": "70ff56d70a68291f496aaa62be7e91ede0895fbd9796126072cdb3805eda568d",
        "ratio128_loc.json": "03469e6d27515f1ee1f962062cbf38981cefc00f419e5048d70f32bed15115d2",
    }
    RATIO_128_ARGV = {
        "ratio128.json": ["--eps", "0.5,0.25,0.125,0.0625", "--r", "0.5"],
        "ratio128_q.json": ["--eps", "0.5,0.25,0.125,0.0625", "--r", "0.5",
                            "--q-hat", "2.5"],
        "ratio128_loc.json": ["--eps", "0.25,0.125", "--r", "2", "--q-hat", "2.5",
                              "--localized"],
    }

    def test_ratio_at_n128_matches_golden_hashes(self, tmp_path):
        clear_estimate_cache()
        for name, flags in self.RATIO_128_ARGV.items():
            assert main(["ratio", "--xi", "0.2", "--n", "128", "--trials", "20",
                         "--seed", "28", "--out", str(tmp_path / name)] + flags) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in self.RATIO_128} == self.RATIO_128
