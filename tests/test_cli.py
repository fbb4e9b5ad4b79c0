"""Command-line driver: exit codes, manifests, caching, byte determinism."""

import argparse
import functools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden
import oracles
from conftest import LFPP, lfpp_env, localized_fields

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
    edge_weight,
    mollify,
    mollify_localized,
    read_field,
    sample_torus_gff,
    write_field,
)
from lfpp import cli
from lfpp.cli import main
from lfpp.errors import InvalidArgument
from lfpp.gff import _localized_range
from lfpp.metric import _cost_floor
from lfpp.experiments import EXPERIMENTS, run_experiment


def zero_field(n=64, spacing=0.0625):
    return FieldSample(spec=LatticeSpec(n=n, spacing=spacing),
                       kind=FieldKind.TORUS_WHOLE_PLANE, seed=0,
                       values=np.zeros((n, n)), mean_removed=True)


def load_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def no_trial(*args, **kwargs):
    pytest.fail("a trial ran")


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

    @pytest.mark.parametrize("argv, stderr", [
        (["--bogus"], "usage: lfpp [-h] [--version] {field,dist,a-eps,fit,ratio,exp,cache-info} "
                      "...\nlfpp: error: unrecognized arguments: --bogus\n"),
        (["fit", "--xi", "0.2"], "usage: lfpp fit [-h] --in IN --xi XI --out OUT\nlfpp fit: "
                                 "error: the following arguments are required: --in, --out\n"),
    ], ids=["top-level", "subcommand"])
    def test_usage_error_prints_usage_and_message(self, argv, stderr, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")   # argparse wraps usage to the terminal
        assert main(argv) == 1
        assert capsys.readouterr().err == stderr

    def test_import_leaves_scipy_stats_and_integrate_unloaded(self):
        # each is imported by the code that uses it
        code = ("import sys, lfpp.cli; print([m for m in ('scipy.stats', "
                "'scipy.integrate', 'scipy.fft', 'scipy.special', 'scipy.sparse', "
                "'scipy.sparse.csgraph') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env=lfpp_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, loaded, unloaded", [
        (["--version"], [], ["scipy.fft", "scipy.sparse"]),
        (["field", "sample", "--n", "16", "--seed", "1", "--out", "g.lfpf"], [],
         ["scipy.fft", "scipy.sparse"]),
        (["dist", "--field", "f.lfpf", "--eps", "0.5", "--xi", "0.2", "--from", "1,1",
          "--to", "2,2"], ["scipy.sparse.csgraph"], ["scipy.fft"]),
        (["field", "sample", "--kind", "dirichlet", "--n", "16", "--seed", "1",
          "--out", "g.lfpf"], ["scipy.fft"], []),
    ], ids=["version", "field-sample", "dist", "dirichlet"])
    def test_commands_load_only_the_scipy_they_use(self, argv, loaded, unloaded,
                                                  tmp_path):
        assert main(["field", "sample", "--n", "16", "--seed", "1",
                     "--out", str(tmp_path / "f.lfpf")]) == 0
        code = ("import json, sys; from lfpp.cli import main; code = main(sys.argv[1:]); "
                "print(json.dumps([code, sorted(m for m in sys.modules "
                "if m.startswith('scipy.'))]))")
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=lfpp_env(),
                              capture_output=True, text=True, timeout=120, cwd=tmp_path)
        status, modules = json.loads(proc.stdout.splitlines()[-1])
        assert status == 0, proc.stderr
        assert set(loaded) <= set(modules)
        assert not set(unloaded) & set(modules)

    def test_a_pool_starts_after_the_solver_is_loaded(self, tmp_path, monkeypatch):
        """Forked workers share the parent's csgraph instead of each
        importing it: the parent has it when the pool is asked for."""
        import lfpp.metric as metric
        import lfpp.renorm as renorm
        loaded = []

        def no_pool(max_workers=None, **kwargs):   # records, starts nothing
            loaded.append("scipy.sparse.csgraph" in sys.modules)
            raise RuntimeError("a process pool was asked for")

        monkeypatch.setattr(renorm, "ProcessPoolExecutor", no_pool)
        monkeypatch.delitem(sys.modules, "scipy.sparse.csgraph", raising=False)
        metric._sparse.cache_clear()
        clear_estimate_cache()
        try:
            assert main(["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "0.5",
                         "--q-hat", "2.5", "--n", "32", "--trials", "20", "--seed", "7",
                         "--threads", "2", "--out", str(tmp_path / "r.json")]) == 2
        finally:
            metric._sparse.cache_clear()
        assert loaded == [True]

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
            golden.EXP_STEPS["annulus_event_stats"].config), encoding="utf-8")
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


class TestMalformedInput:
    """Each spelling error exits 1 with a message naming what is wrong,
    before any field is read."""

    DIST = ["dist", "--field", "{tmp}/absent.lfpf", "--eps", "0.25", "--xi", "0.2"]

    @pytest.mark.parametrize("argv, message", [
        (DIST + ["--from", "1,2,3", "--to", "2,2"], "expected 'x,y'"),
        (DIST + ["--from", "1,2", "--to", "2,2", "--within", "blob:1,2"],
         "region must be disk"),
        (["fit", "--in", "{tmp}/absent", "--xi", "0.2"], "does not exist"),
        (["exp", "weyl_shift_test", "--config", "{tmp}/list.json"],
         "must be a JSON object"),
    ], ids=["point-arity", "region-kind", "fit-dir", "config-list"])
    def test_exits_one_naming_it(self, argv, message, tmp_path, capsys):
        (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "x.json")]) == 1
        assert message in capsys.readouterr().err


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
        from numpy._core import _multiarray_umath as umath
        dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
        assert manifest["libraries"] == {"numpy": np.__version__,
                                         "scipy": scipy.__version__,
                                         "numpy_dispatch": dispatch}

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

    @pytest.mark.parametrize("flags", [
        ["field", "sample", "--n", "64", "--seed", "5", "--origin", "-2,-2"],
        ["dist", "--field", "{field}", "--eps", "0.25", "--xi", "0.2",
         "--from", "-1,-1", "--to", "1,1"],
        ["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "0.5", "--q-hat", "2.5",
         "--n", "32", "--trials", "20", "--seed", "5", "--origin", "-2,-2"]],
        ids=["field-origin", "dist-from-to", "ratio-origin"])
    def test_negative_coordinates_after_a_space(self, flags, tmp_path):
        """A point flag's negative value may follow the flag as its own
        word, and reads as the `=` spelling does, byte for byte."""
        field = tmp_path / "g.lfpf"
        assert main(["field", "sample", "--n", "64", "--seed", "5",
                     "--origin=-2,-2", "--out", str(field)]) == 0
        flags = [f.format(field=field) for f in flags]
        glued = []   # the same flags, each negative value spelled --flag=value
        for word in flags:
            if word[0] == "-" and word[1].isdigit():
                glued[-1] += "=" + word
            else:
                glued.append(word)
        outs = []
        for k, argv in enumerate((flags, glued)):
            clear_estimate_cache()
            outs.append(tmp_path / f"out{k}")
            assert main(argv + ["--out", str(outs[-1])]) == 0, argv
        assert outs[0].read_bytes() == outs[1].read_bytes()

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
        # The solve ran on its certified crop.  Every cost is 1 = the least
        # cost and the pair's box gives D = 1.0 exactly, so the ellipse of
        # sites with |s - a| + |s - b| <= D / spacing (16 sites, a touch more
        # for rounding) is the segment on row 32 from column 16 to 32; floor
        # and ceil of its hair-thin extents take one site more each way and
        # the pad one more: rows 30..34, columns 14..34.  The solve stops at
        # D, 16 axis steps from (32, 16): row 32 settles columns 14..32 and
        # each other row columns 14..31, as leaving row 32 takes a diagonal
        # step (sqrt 2 axis steps) per row, which puts column 32 beyond D.
        assert manifest["stats"]["settled"] == 19 + 4 * 18
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

    @pytest.mark.parametrize("flags, boxes", [
        (["--crossing", "rect:1.5,1.5,2.5,2.5"], [(slice(24, 41), slice(24, 41))]),
        (["--around", "annulus:2,2,0.4,0.8"], [(slice(20, 45), slice(20, 45))]),
        (["--from", "1.5,2.0", "--to", "2.5,2.0", "--within", "disk:2,2,0.75"],
         [(slice(20, 45), slice(20, 45))]),
        # the pair's box plus 2 sites for the upper bound, then the crop,
        # here the same box (see test_point_mode_json_and_path_csv)
        (["--from", "1.0,2.0", "--to", "2.0,2.0"],
         [(slice(30, 35), slice(14, 35))] * 2),
    ], ids=["crossing", "around", "within", "point"])
    def test_localized_regions_smooth_only_their_box(self, zero_path, tmp_path,
                                                     monkeypatch, flags, boxes):
        import lfpp.cli as cli
        seen = []
        real = cli.mollify_localized

        def spy(field, eps, box=None):
            seen.append(box)
            return real(field, eps, box=box)

        monkeypatch.setattr(cli, "mollify_localized", spy)
        assert main(["dist", "--field", str(zero_path), "--eps", "0.25",
                     "--xi", "0.2", "--localized", "--out",
                     str(tmp_path / "x.json")] + flags) == 0
        assert seen == boxes

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


def _point_through_main(field, eps, xi, a, b, *flags):
    """(exit code, JSON document, path CSV rows as floats) of `lfpp dist`
    from site a to site b of a field written to a fresh directory."""
    spec = field.spec
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_field(field, tmp / "f.lfpf")
        ends = ["%r,%r" % spec.point_of(*site) for site in (a, b)]
        code = main(["dist", "--field", str(tmp / "f.lfpf"), "--eps", repr(eps),
                     "--xi", repr(xi), "--from", ends[0], "--to", ends[1],
                     "--out", str(tmp / "d.json"), "--emit-path", str(tmp / "p.csv"),
                     *flags])
        if code:
            return code, None, None
        rows = [[float(v) for v in line.split(",")]
                for line in (tmp / "p.csv").read_text().splitlines()[1:]]
        return code, load_json(tmp / "d.json"), rows


def _assert_full_solve(field, eps, xi, a, b, doc, rows):
    """The document and path CSV of a point query from site a to site b are
    `oracles.full_point_solve`'s value and path on the whole localized
    grid, with the cumulative lengths of that grid's edge weights."""
    spec = field.spec
    full = build_weighted_grid(mollify_localized(field, eps), xi)
    if a == b:
        assert doc["value"] == 0.0 and doc["path"]["sites"] == [list(a)]
        return
    lo, hi = min(a, b), max(a, b)
    dist, chain = oracles.full_point_solve(full.site_cost, full.mask,
                                           spec.spacing, lo, hi)
    sites = chain if a == lo else chain[::-1]
    assert doc["value"] == dist[hi[0] * spec.n + hi[1]]
    assert doc["path"]["sites"] == [list(s) for s in sites]
    cum = [0.0]
    for u, v in zip(sites, sites[1:]):
        cum.append(cum[-1] + edge_weight(full, u, v))
    assert rows == [[k, *spec.point_of(*s), c]
                    for k, (s, c) in enumerate(zip(sites, cum))]


class TestLocalizedPointQuery:
    """`lfpp dist --localized` in point mode smooths only the boxes its crop
    asks for, with the floor from the raw field, and gives the value and
    path of `oracles.full_point_solve` on the whole localized grid."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(localized_fields(), st.sampled_from(["field", "shifted", "constant"]),
           st.floats(-1.0, 1.0), st.sampled_from([0.5, 2.0, 8.0]), st.data())
    def test_matches_full_solve(self, case, kind, t, size, data):
        # sampled fields, fields moved off zero, and constants of either
        # sign, whose floor is the least cost itself when negative
        field, eps = case
        if kind == "constant":
            values = np.full_like(field.values, size * t)
        else:
            values = size * (field.values + (5.0 * t if kind == "shifted" else 0.0))
        field = FieldSample(spec=field.spec, kind=FieldKind.TORUS_WHOLE_PLANE, seed=0,
                            values=values, mean_removed=False, derived=True)
        spec, xi = field.spec, 1.0
        assert _cost_floor(xi, *_localized_range(field, eps)) > 0
        coord = st.one_of(st.sampled_from([0, spec.n - 1]), st.integers(0, spec.n - 1))
        a, b = data.draw(st.tuples(coord, coord)), data.draw(st.tuples(coord, coord))
        code, doc, rows = _point_through_main(field, eps, xi, a, b, "--localized")
        assert code == 0
        _assert_full_solve(field, eps, xi, a, b, doc, rows)

    @staticmethod
    def _well(depth):
        """A 64^2 zero field at spacing 1/16 with one site at `depth`."""
        field = zero_field()
        values = field.values.copy()
        values[20, 30] = depth
        return replace(field, values=values, mean_removed=False, derived=True)

    @pytest.mark.parametrize("a, b", [((20, 10), (20, 50)), ((50, 5), (3, 60)),
                                      ((40, 40), (45, 44))],
                             ids=["through-the-well", "across", "away"])
    def test_field_whose_range_could_vanish_a_cost(self, a, b):
        """The raw range allows a cost that vanishes, so no floor above 0
        bounds the costs and the crop is the whole lattice; the smoothed
        field itself is accepted, and the query gives the full solve."""
        field, eps, xi = self._well(-900.0), 0.25, 1.0
        assert not _cost_floor(xi, *_localized_range(field, eps))
        code, doc, rows = _point_through_main(field, eps, xi, a, b, "--localized")
        assert code == 0
        _assert_full_solve(field, eps, xi, a, b, doc, rows)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("smoother", [[], ["--localized"]], ids=["plain", "localized"])
    def test_field_whose_costs_overflow_is_refused(self, smoother, capsys):
        field = replace(zero_field(), values=np.full((64, 64), 800.0),
                        mean_removed=False, derived=True)
        code, _, _ = _point_through_main(field, 0.25, 1.0, (20, 10), (20, 50), *smoother)
        assert code == 1
        assert "overflowed or vanished" in capsys.readouterr().err


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

    @pytest.mark.filterwarnings("error")
    def test_coupling_whose_costs_overflow_exits_one_quietly(self, field_path, tmp_path,
                                                            capsys):
        code = main(["dist", "--field", str(field_path), "--eps", "0.125",
                     "--xi", "1e300", "--from", "1,1", "--to", "2,2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "overflowed or vanished" in capsys.readouterr().err
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
    @pytest.mark.parametrize("flags, message", [
        (["--crossing", "rect:10,10,11,11"], "crossing square contains no active sites"),
        (["--around", "annulus:10,10,0.2,0.5"], "annulus contains no lattice sites"),
        (["--within", "disk:10,10,0.5", "--from", "1.0,2.0", "--to", "2.0,2.0"],
         "source site (32, 16) is outside the active region"),
    ], ids=["crossing", "around", "within"])
    def test_empty_region_smooths_one_site(self, field_path, tmp_path, capsys,
                                           monkeypatch, smoother, flags, message):
        seen = []
        for name in ("mollify", "mollify_localized"):
            def spy(field, eps, box=None, _real=getattr(cli, name)):
                seen.append(box)
                return _real(field, eps, box=box)

            monkeypatch.setattr(cli, name, spy)
        assert self._dist(field_path, tmp_path, *smoother, *flags) == 1
        assert capsys.readouterr().err == f"lfpp: error: {message}\n"
        assert seen and all(box is not None and all(s.stop - s.start == 1 for s in box)
                            for box in seen)
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
    def test_fit_recovers_slope(self, tmp_path):
        est_dir = tmp_path / "est"
        golden.write_estimates(est_dir)
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
        golden.write_estimates(est_dir)
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

    def test_overflowing_power_exits_one_before_any_trial(self, tmp_path, capsys,
                                                            monkeypatch):
        import lfpp.renorm as renorm
        monkeypatch.setattr(renorm, "run_trials", no_trial)
        clear_estimate_cache()
        out = tmp_path / "r.json"
        assert main(["ratio", "--xi", "0.2", "--eps", "0.125,0.0625", "--r", "0.5",
                     "--q-hat", "1e308", "--n", "128", "--trials", "20", "--seed", "1",
                     "--out", str(out)]) == 1
        assert "r ** (1 - xi*q_hat)" in capsys.readouterr().err
        assert not out.exists()

    def test_non_pow2_r_exits_one(self, tmp_path):
        assert main(["ratio", "--xi", "0.2", "--eps", "0.5", "--r", "0.3",
                     "--n", "32", "--spacing", "0.125", "--trials", "20",
                     "--seed", "7", "--q-hat", "2.5",
                     "--out", str(tmp_path / "r.json")]) == 1


class TestExp:
    CFG = {"field": {"n": 64, "spacing": 0.0625, "seed": 404},
           "epsilon": 0.25, "c": 1.0, "xi": 0.2,
           "pairs": [[[1.6, 1.7], [2.3, 2.2]], [[1.5, 1.6], [2.4, 2.3]]]}
    SCALE_CFG = {"a": 2, "epsilon": 0.5, "xi": 0.2, "q_hat": 2.5,
                 "mc": {"n": 32, "trials": 20, "seed": 7}}

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
        ("scale_covariance_test", SCALE_CFG, 7, False),
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
        cfg_path.write_text(json.dumps(self.SCALE_CFG), encoding="utf-8")
        # one pool for the estimates at eps and eps/a, one for the trials
        for threads, want in (("1", []), ("2", [2, 2])):
            clear_estimate_cache()
            pool_sizes.clear()
            assert main(["exp", "scale_covariance_test", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r.json"), "--threads", threads]) == 0
            assert pool_sizes == want, threads

    def test_report_bytes_independent_of_pool_size(self, tmp_path):
        # `--threads` and the retired `mc.parallel` key never reach the report
        mc = self.SCALE_CFG["mc"]
        runs = {"t1": (mc, "1"), "t2": (mc, "2"),
                "old_key": (dict(mc, parallel=True), "1")}
        reports = {}
        for label, (mc_cfg, threads) in runs.items():
            cfg_path = tmp_path / f"{label}.cfg.json"
            cfg_path.write_text(json.dumps(dict(self.SCALE_CFG, mc=mc_cfg)), encoding="utf-8")
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
        cfg = json.loads(json.dumps(golden.EXP_STEPS[name].config))
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

    def test_overflowing_prefactor_exits_one_before_any_trial(self, tmp_path, capsys,
                                                                monkeypatch):
        import lfpp.experiments as experiments
        import lfpp.renorm as renorm
        for module in (experiments, renorm):
            monkeypatch.setattr(module, "run_trials", no_trial)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.SCALE_CFG, "q_hat": -1e308}),
                            encoding="utf-8")
        clear_estimate_cache()
        code = main(["exp", "scale_covariance_test", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "a ** (1 - xi*q_hat)" in capsys.readouterr().err
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

    def test_integer_past_the_digit_limit_exits_one(self, tmp_path, capsys):
        # json.load refuses an int literal of more than 4300 digits
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(golden.EXP_STEPS["scale_covariance_test"].config).replace(
            '"a": 2', '"a": 1' + "0" * 5000), encoding="utf-8")
        code = main(["exp", "scale_covariance_test", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "experiment config" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_nesting_past_the_recursion_limit_exits_one(self, tmp_path, capsys):
        # json.load raises RecursionError on arrays nested 100000 deep
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text('{"a": ' + "[" * 100000 + "]" * 100000 + "}",
                            encoding="utf-8")
        code = main(["exp", "weyl_shift_test", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "experiment config" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()


class TestEmptyInputs:
    """An empty pair list, radius set or ladder is a validation error, never
    a report over zero rows."""

    NO_PAIRS = {"window": [1.6, 1.6, 2.3, 2.3], "seed": 7, "count": 0}
    RATIO = ["ratio", "--xi", "0.2", "--r", "0.5", "--n", "32", "--spacing", "0.125",
             "--trials", "20", "--seed", "7", "--q-hat", "1"]

    @pytest.mark.parametrize("argv, empty", [   # empty: the golden config's keys it empties
        (["exp", "weyl_shift_test"], {"pairs": []}),
        (["exp", "weyl_shift_test"], {"pairs": NO_PAIRS}),
        (["exp", "convergence_diagnostic"], {"pairs": []}),
        (["exp", "convergence_diagnostic"], {"pairs": NO_PAIRS}),
        (["exp", "annulus_event_stats"], {"r_set": []}),
        (RATIO + ["--eps", ","], None),
    ], ids=["weyl-pairs", "weyl-count-0", "convergence-pairs", "convergence-count-0",
            "annulus-r-set", "ratio-eps"])
    def test_exits_one_and_writes_nothing(self, argv, empty, tmp_path):
        out = tmp_path / "out.json"
        argv = argv + ["--out", str(out)]
        if empty is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**golden.EXP_STEPS[argv[1]].config, **empty}),
                                encoding="utf-8")
            argv += ["--config", str(cfg_path), "--csv", str(tmp_path / "out.csv")]
        clear_estimate_cache()
        assert main(argv) == 1
        assert not out.exists() and not (tmp_path / "out.csv").exists()


class TestExperimentGoldenBytes:
    """The golden table's experiment steps (TestGoldenBytes checks their digests)."""

    def test_every_experiment_has_a_case(self):
        assert set(golden.EXP_STEPS) == set(EXPERIMENTS)
        # and no output name is recorded twice
        assert len(golden.DIGESTS) == sum(len(step.digests) for step in golden.STEPS)

    @pytest.mark.parametrize("name", sorted(golden.EXP_STEPS))
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
            run_experiment(name, golden.EXP_STEPS[name].config, workers=0)

    def test_trial_pool_keeps_annulus_bytes(self, tmp_path, pool_sizes):
        step = golden.EXP_STEPS["annulus_event_stats"]
        assert golden.run(tmp_path / "run", [step], {"exp": ["--threads", "2"]}) == step.digests
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


def _subcommands(parser):
    """{word: subparser} of a parser's commands; empty for a leaf command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs[0].choices if subs else {}


def _options(argv):
    """{dest: action} of the options of the (sub)parser argv's leading
    command words select."""
    parser = cli._build_parser()
    for word in argv:
        if word not in _subcommands(parser):
            break
        parser = _subcommands(parser)[word]
    return {a.dest: a for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def _option_dests(argv):
    """The dests of the options of the (sub)parser argv's leading command
    words select, minus --threads and --cache-dir."""
    return set(_options(argv)) - {"threads", "cache_dir"}


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

    def test_negative_coordinates_replay(self, tmp_path, monkeypatch):
        """A manifest holding negative coordinates (a lattice origin, a
        point query's ends) replays as flag and value words."""
        monkeypatch.delenv("LFPP_CACHE", raising=False)
        orig, replay = tmp_path / "orig", tmp_path / "replay"
        orig.mkdir()
        replay.mkdir()
        f = str(orig / "g.lfpf")
        runs = {"g.lfpf": ["field", "sample", "--n", "64", "--seed", "5", "--origin=-2,-2"],
                "d.json": ["dist", "--field", f, "--eps", "0.25", "--xi", "0.2",
                           "--from=-1,-1", "--to=1,-0.5"]}
        for out, argv in runs.items():
            assert main(argv + ["--out", str(orig / out)]) == 0, out
        for out, point, value in (("g.lfpf", "origin", -2.0), ("d.json", "from", -1.0)):
            manifest = load_json(orig / f"{out}.manifest.json")
            assert manifest["resolved_params"][point] == [value, value]
            argv = _replay_argv(manifest, tmp_path, replay)
            assert f"--{point}" in argv and argv[argv.index(f"--{point}") + 1][0] == "-"
            assert main(argv) == 0, out
        for out in runs:
            assert (replay / out).read_bytes() == (orig / out).read_bytes(), out

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


# variant -> the golden steps it runs.  The cache variants add --cache-dir
# to the commands that take it, cache_hit on the root cache_miss filled.
GOLDEN_VARIANTS = {"plain": golden.STEPS, "cache_miss": golden.PIPELINE,
                   "cache_hit": golden.PIPELINE}


@pytest.fixture(scope="module")
def golden_digests(tmp_path_factory):
    """variant -> {output name: sha256}, each variant run once, in order."""
    cache = ["--cache-dir", str(tmp_path_factory.mktemp("golden-cache"))]
    cached = {"field": cache, "a-eps": cache}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("LFPP_CACHE", raising=False)
        return {variant: golden.run(tmp_path_factory.mktemp(variant), steps,
                                    {} if variant == "plain" else cached)
                for variant, steps in GOLDEN_VARIANTS.items()}


def _lower_dispatch_levels():
    """[(level, dispatch targets to disable)] for each x86-64 level numpy can
    run at below this host's own, from numpy's runtime table: a level keeps
    the dispatch targets up to itself, in dispatch order."""
    from numpy._core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    levels = [t for t in umath.__cpu_baseline__ + enabled if re.fullmatch(r"X86_V\d", t)]
    return [(level, enabled[enabled.index(level) + 1 if level in enabled else 0:])
            for level in levels[:-1]]


# golden.run in a child process: argv[1] the run directory, argv[2] the
# JSON file it writes {"digests": ..., "dispatch": its enabled targets}
_GOLDEN_CHILD = """
import json, sys
from pathlib import Path
import golden
from lfpp.cache import library_versions
digests = golden.run(Path(sys.argv[1]))
Path(sys.argv[2]).write_text(json.dumps(
    {"digests": digests, "dispatch": library_versions()["numpy_dispatch"]}))
"""


class TestGoldenBytes:
    @pytest.mark.parametrize("variant, output", [
        (variant, output) for variant, steps in GOLDEN_VARIANTS.items()
        for step in steps for output in step.digests])
    def test_output_matches_its_digest(self, golden_digests, variant, output):
        assert golden_digests[variant][output] == golden.DIGESTS[output]

    @pytest.mark.xfail(strict=True, reason="the golden bytes depend on numpy's dispatch "
                       "level until ROADMAP item 1 (an exp from IEEE add and multiply) lands")
    def test_golden_table_holds_at_lower_dispatch_levels(self, tmp_path):
        """Every step run under each x86-64 level below the host's own, one
        child process per level, compared with the table output by output."""
        levels = _lower_dispatch_levels()
        if not levels:
            pytest.skip("numpy runs at no x86-64 level below this host's own")
        moved = {}
        for level, disabled in levels:
            env = {**lfpp_env(), "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
            env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
            out = tmp_path / f"{level}.json"
            proc = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD, str(tmp_path / level),
                                   str(out)], env=env, capture_output=True, text=True,
                                  timeout=600)
            assert proc.returncode == 0, proc.stderr
            got = json.loads(out.read_text(encoding="utf-8"))
            assert not set(got["dispatch"]) & set(disabled), got["dispatch"]
            moved[level] = sorted(name for name, digest in got["digests"].items()
                                  if digest != golden.DIGESTS[name])
        assert not any(moved.values()), f"outputs off the golden table, by level: {moved}"


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the largest float
        return False


def _commands(parser, words=()):
    """(words, parser) of every leaf command, such as (("field", "sample"), p)."""
    subs = _subcommands(parser)
    if not subs:
        return [(words, parser)]
    return [leaf for word, sub in subs.items() for leaf in _commands(sub, words + (word,))]


@pytest.fixture()
def no_work(monkeypatch):
    """Recording fakes for every sampler, trial loop and process pool; the
    list holds the name of each one that was called."""
    import lfpp.experiments as experiments
    import lfpp.renorm as renorm
    calls = []

    def fake(name):
        return lambda *args, **kwargs: calls.append(name)

    for module in (cli, experiments):
        monkeypatch.setattr(module, "SAMPLERS",
                            {kind: fake(kind) for kind in module.SAMPLERS})
    for module in (experiments, renorm):
        monkeypatch.setattr(module, "sample_torus_gff", fake("sample_torus_gff"))
        monkeypatch.setattr(module, "run_trials", fake("run_trials"))
    monkeypatch.setattr(renorm, "ProcessPoolExecutor", fake("ProcessPoolExecutor"))
    monkeypatch.delenv("LFPP_CACHE", raising=False)
    clear_estimate_cache()
    return calls


class TestOneNumberRule:
    """Every number that reaches lfpp from a command line or an experiment
    config obeys one rule: a whole number is an integer that is not a bool,
    a finite real is a finite number that is not a bool, a boolean is
    exactly a bool, and a string is never a number.  A value its rule
    rejects exits 1 before any field is sampled, trial run or pool started.

    The tables below state each input's rule on its own, apart from lfpp's
    code; a value they admit may still be refused later (a pair outside the
    lattice, a scale below its floor), and is not run here."""

    VALUES = [-1, 0, math.nan, math.inf, 1e308, 2 ** 63, True, False, "64", "0.25",
              [], 10 ** 400]

    # -- the command line: argparse parses a flag's text by its type first
    WHOLE_FLAGS = {
        "n": lambda v: 2 <= v <= 4096 and v & (v - 1) == 0,
        "seed": lambda v: 0 <= v < 2 ** 64,
        "trials": lambda v: 1 <= v <= 2 ** 15,
        "threads": lambda v: 1 <= v <= 256,
    }
    REAL_FLAGS = {   # every base command smooths at spacing 4/32: floor 0.25
        "xi": lambda v: v > 0, "eps": lambda v: v >= 0.25,
        "r": lambda v: math.frexp(v)[0] == 0.5, "q_hat": lambda v: True,
        "spacing": lambda v: v > 0,
        "origin": lambda v: True, "from": lambda v: True, "to": lambda v: True,
    }
    POINT_FLAGS = {"origin", "from", "to"}   # the value goes in as "v,1.0"
    TEXT_FLAGS = {"out", "field", "config", "csv", "in", "cache_dir", "kind", "name",
                  "within", "around", "crossing", "emit_path", "emit_gnuplot",
                  "localized"}
    BASE = {   # {dir} is the test's directory
        ("field", "sample"): ["--n", "32", "--seed", "1", "--out", "{dir}/o.lfpf"],
        ("dist",): ["--field", "{dir}/f.lfpf", "--eps", "0.5", "--xi", "0.2",
                    "--from", "1,1", "--to", "2,2", "--out", "{dir}/o.json"],
        ("a-eps",): ["--xi", "0.2", "--eps", "0.5", "--n", "32", "--trials", "20",
                     "--seed", "7", "--out", "{dir}/o.json"],
        ("fit",): ["--in", "{dir}/est", "--xi", "0.2", "--out", "{dir}/o.json"],
        ("ratio",): ["--xi", "0.2", "--eps", "0.5", "--r", "1", "--q-hat", "2.5",
                     "--n", "32", "--trials", "20", "--seed", "7",
                     "--out", "{dir}/o.json"],
        ("exp",): ["weyl_shift_test", "--config", "{dir}/cfg.json",
                   "--out", "{dir}/o.json"],
        ("cache-info",): ["--cache-dir", "{dir}/cache"],
    }

    @classmethod
    def _flag_admits(cls, dest, text):
        try:
            value = int(text) if dest in cls.WHOLE_FLAGS else float(text)
        except ValueError:
            return False
        rule = cls.WHOLE_FLAGS.get(dest) or cls.REAL_FLAGS[dest]
        return (dest in cls.WHOLE_FLAGS or _finite(value)) and rule(value)

    @classmethod
    @functools.cache
    def _flag_cases(cls):
        """(command words, option string, text) for every numeric option
        of every command and every value its rule rejects."""
        cases = []
        for words, parser in _commands(cli._build_parser()):
            for dest, action in _options(words).items():
                if dest in cls.TEXT_FLAGS:
                    continue
                for value in cls.VALUES:
                    text = str(value) + (",1.0" if dest in cls.POINT_FLAGS else "")
                    if not cls._flag_admits(dest, str(value)):
                        cases.append((words, action.option_strings[0], text))
        return cases

    # -- experiment configs: JSON values as json.load reads them
    WHOLE_KEYS = {
        "n": lambda v: 2 <= v <= 4096 and v & (v - 1) == 0,
        "seed": lambda v: 0 <= v < 2 ** 64,
        "trials": lambda v: 1 <= v <= 2 ** 15,
        "count": lambda v: 1 <= v <= 2 ** 15,
        "n_ladder": lambda v: True,
    }
    REAL_KEYS = {"xi": lambda v: v > 0, "spacing": lambda v: v > 0,
                 **dict.fromkeys(("origin", "window", "pairs", "eps_ladder", "r_set",
                                  "epsilon", "c", "a", "q_hat", "alpha", "gamma",
                                  "eta", "zeta"), lambda v: True)}

    @classmethod
    def _key_admits(cls, key, value):
        if key == "localized":
            return isinstance(value, bool)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if key in cls.WHOLE_KEYS:
            if isinstance(value, float) and value.is_integer():
                value = int(value)   # JSON's 64.0 reads as 64
            return isinstance(value, int) and cls.WHOLE_KEYS[key](value)
        return _finite(value) and cls.REAL_KEYS[key](value)

    @staticmethod
    def _filled(cfg):
        """The config with every optional lattice and Monte Carlo key spelled
        out at its default, so that each is a path to replace."""
        cfg = json.loads(json.dumps(cfg))
        for key in ("field", "mc"):
            if key in cfg:
                cfg[key] = {"spacing": 4.0 / cfg[key]["n"], "origin": [0.0, 0.0],
                            **cfg[key]}
        if "mc" in cfg:
            cfg["mc"].setdefault("localized", False)
        return cfg

    @classmethod
    def _leaves(cls, node, path=(), key=None):
        """(path, key) of every number and bool in a config, key being the
        last dict key on the path."""
        if isinstance(node, dict):
            return [leaf for k, v in node.items() for leaf in cls._leaves(v, path + (k,), k)]
        if isinstance(node, list):
            return [leaf for i, v in enumerate(node)
                    for leaf in cls._leaves(v, path + (i,), key)]
        return [(path, key)] if isinstance(node, (bool, int, float)) else []

    @classmethod
    @functools.cache
    def _config_cases(cls):
        cases = []
        for name, step in golden.EXP_STEPS.items():
            for path, key in cls._leaves(cls._filled(step.config)):
                cases += [(name, path, value) for value in cls.VALUES
                          if not cls._key_admits(key, value)]
        return cases

    def test_every_input_has_a_rule(self):
        flags = {dest for words, _ in _commands(cli._build_parser())
                 for dest in _options(words)}
        assert flags == set(self.WHOLE_FLAGS) | set(self.REAL_FLAGS) | self.TEXT_FLAGS
        assert set(self.BASE) == {words for words, _ in _commands(cli._build_parser())}
        from lfpp.experiments import _PARSERS
        configs = [step.config for step in golden.EXP_STEPS.values()]
        keys = {key for cfg in configs for _, key in self._leaves(self._filled(cfg))}
        assert keys == set(self.WHOLE_KEYS) | set(self.REAL_KEYS) | {"localized"}
        top = {key for cfg in configs for key in cfg}
        assert top == {"xi" if key == "params" else key for key in _PARSERS}

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A directory holding the files the base commands read."""
        d = tmp_path_factory.mktemp("inputs")
        assert main(["field", "sample", "--n", "32", "--seed", "3",
                     "--out", str(d / "f.lfpf")]) == 0
        (d / "est").mkdir()
        for k, eps in enumerate((0.5, 0.25, 0.125, 0.0625)):
            (d / "est" / f"e{k}.json").write_text(json.dumps(
                {"epsilon": eps, "median": eps ** 0.5, "trials": 20, "ci_lo": 0.9 * eps ** 0.5,
                 "ci_hi": 1.1 * eps ** 0.5, "master_seed": 1}), encoding="utf-8")
        (d / "cfg.json").write_text(json.dumps(
            golden.EXP_STEPS["weyl_shift_test"].config), encoding="utf-8")
        return d

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_rejected_flag_exits_one_before_any_work(self, inputs, no_work, data):
        words, option, text = data.draw(st.sampled_from(self._flag_cases()))
        argv = [*words, *(a.format(dir=inputs) for a in self.BASE[words]),
                f"{option}={text}"]
        no_work.clear()
        assert main(argv) == 1, argv
        assert no_work == [], argv
        assert not (inputs / "o.json").exists() and not (inputs / "o.lfpf").exists()

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_rejected_config_value_exits_one_before_any_work(self, tmp_path, no_work,
                                                             data):
        name, path, value = data.draw(st.sampled_from(self._config_cases()))
        cfg = self._filled(golden.EXP_STEPS[name].config)
        node = cfg
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        no_work.clear()
        assert main(["exp", name, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o.json")]) == 1, (name, path, value)
        assert no_work == [], (name, path, value)
        assert not (tmp_path / "o.json").exists()

    def test_pair_count_above_the_cap_exits_one_before_any_draw(self, tmp_path,
                                                               monkeypatch, capsys):
        import lfpp.experiments as experiments
        draws = []
        monkeypatch.setattr(experiments, "_draw_pairs",
                            lambda *args: draws.append(args) or [])
        cfg = dict(golden.EXP_STEPS["weyl_shift_test"].config)
        cfg["pairs"] = dict(cfg["pairs"], count=2 ** 40)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["exp", "weyl_shift_test", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert draws == []
        assert "count must be a whole number in 1..32768" in capsys.readouterr().err
