"""Inputs from library callers: one number rule, and a public surface whose
every name resolves."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lfpp
from lfpp import (
    Annulus,
    Disk,
    FieldKind,
    FieldSample,
    InvalidArgument,
    InvalidSpec,
    LatticeSpec,
    LfppError,
    MCConfig,
    MedianEstimate,
    Params,
    Rect,
    build_weighted_grid,
    estimate_a_eps,
    mollify,
    rescale_field,
    sample_dirichlet_gff,
    sample_torus_gff,
    scaling_ratio,
)
from lfpp.experiments import _cfg_mc

SPEC = LatticeSpec(n=8, spacing=0.5)
MC = MCConfig(lattice=SPEC, trials=20, master_seed=1)
ZERO = FieldSample(spec=SPEC, kind=FieldKind.TORUS_WHOLE_PLANE, seed=0,
                   values=np.zeros((8, 8)), mean_removed=True)
EST = MedianEstimate(epsilon=0.5, median=1.0, trials=20, ci_lo=0.9, ci_hi=1.1,
                     master_seed=1)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the largest float
        return False


def _is_whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and _finite(value))


def test_every_exported_name_resolves():
    for name in lfpp.__all__:
        assert getattr(lfpp, name, None) is not None, name


@pytest.mark.parametrize("make, error", [
    (lambda: Params(xi=True), InvalidSpec),
    (lambda: MCConfig(lattice=SPEC, trials=True, master_seed=False), InvalidArgument),
    (lambda: LatticeSpec(n=8, spacing=True), InvalidSpec),
    (lambda: Disk(center=(0.0, 0.0), radius=True), InvalidArgument),
    (lambda: sample_torus_gff(SPEC, True), InvalidArgument),
    (lambda: Rect(lo=("0", "0"), hi=(1.0, 1.0)), InvalidArgument),
    (lambda: Disk(center=(0.0, 0.0), radius="1"), InvalidArgument),
    (lambda: LatticeSpec(n=8, spacing=0.5, origin=("0", "0")), InvalidSpec),
    (lambda: SPEC.index_of(("1", 1.0)), InvalidArgument),
    (lambda: _cfg_mc({"n": "64", "trials": "20", "seed": "3"}), InvalidArgument),
    (lambda: _cfg_mc({"n": 64, "trials": 20, "seed": 3, "spacing": "0.25"}),
     InvalidArgument),
    (lambda: _cfg_mc({"n": 64, "trials": 20, "seed": 3, "spacing": True}),
     InvalidArgument),
], ids=["params-xi-bool", "mc-bools", "spacing-bool", "radius-bool", "seed-bool",
        "rect-strings", "radius-string", "origin-strings", "point-string",
        "config-strings", "config-spacing-string", "config-spacing-bool"])
def test_bools_and_strings_are_not_numbers(make, error):
    with pytest.raises(error):
        make()


def test_an_int_past_the_digit_limit_is_named_briefly():
    """An int whose repr the interpreter refuses (past 4300 digits) is
    still reported in a short message."""
    with pytest.raises(InvalidSpec, match="^n must be a whole number >= 2, got ") as exc:
        LatticeSpec(n=-10 ** 5000, spacing=0.5)
    assert len(str(exc.value)) < 200


def test_constructors_check_but_never_convert():
    assert type(LatticeSpec(n=8, spacing=1).spacing) is int
    assert type(Params(xi=1).xi) is int
    assert type(_cfg_mc({"n": 64.0, "trials": 20, "seed": 3,
                         "spacing": 1}).lattice.spacing) is float


# Each library input with its rule, stated apart from lfpp's code: the call
# that hands lfpp the value and whether the rule admits it.  The Monte Carlo
# calls run with `run_trials` replaced, so an admitted value is never run.
INPUTS = {
    "Params.xi": (lambda v: Params(xi=v), lambda v: _is_real(v) and v > 0),
    "LatticeSpec.n": (lambda v: LatticeSpec(n=v, spacing=0.5),
                      lambda v: _is_whole(v) and 2 <= v <= 4096 and v & (v - 1) == 0),
    "LatticeSpec.spacing": (lambda v: LatticeSpec(n=8, spacing=v),
                            lambda v: _is_real(v) and v > 0),
    "LatticeSpec.origin": (lambda v: LatticeSpec(n=8, spacing=0.5, origin=(0.0, v)),
                           _is_real),
    "LatticeSpec.index_of": (lambda v: SPEC.index_of((v, 1.0)),
                             lambda v: _is_real(v) and -0.25 < v <= 3.75),
    "FieldSample.seed": (lambda v: replace(ZERO, seed=v),
                         lambda v: _is_whole(v) and 0 <= v < 2 ** 64),
    "sample_torus_gff.seed": (lambda v: sample_torus_gff(SPEC, v),
                              lambda v: _is_whole(v) and 0 <= v < 2 ** 64),
    "sample_dirichlet_gff.seed": (lambda v: sample_dirichlet_gff(SPEC, v),
                                  lambda v: _is_whole(v) and 0 <= v < 2 ** 64),
    "mollify.epsilon": (lambda v: mollify(ZERO, v), lambda v: _is_real(v) and v >= 1.0),
    "build_weighted_grid.xi": (lambda v: build_weighted_grid(mollify(ZERO, 1.0), v),
                               lambda v: _is_real(v) and v > 0),
    "rescale_field.a": (lambda v: rescale_field(ZERO, v, (0.0, 0.0), 0.0),
                        lambda v: _is_real(v) and v == 1),
    "rescale_field.q_hat": (lambda v: rescale_field(ZERO, 1.0, (0.0, 0.0), v), _is_real),
    "MCConfig.trials": (lambda v: replace(MC, trials=v),
                        lambda v: _is_whole(v) and 1 <= v <= 2 ** 15),
    "MCConfig.master_seed": (lambda v: replace(MC, master_seed=v),
                             lambda v: _is_whole(v) and 0 <= v < 2 ** 64),
    "MCConfig.workers": (lambda v: replace(MC, workers=v),
                         lambda v: _is_whole(v) and 1 <= v <= 256),
    "MCConfig.localized": (lambda v: replace(MC, localized=v),
                           lambda v: isinstance(v, bool)),
    "estimate_a_eps.epsilon": (lambda v: estimate_a_eps(v, Params(xi=0.2), MC),
                               lambda v: _is_real(v) and v >= 1.0),
    "scaling_ratio.q_hat": (lambda v: scaling_ratio([1.0], 1.0, Params(xi=0.2), MC, v),
                            _is_real),
    "Disk.radius": (lambda v: Disk(center=(0.0, 0.0), radius=v),
                    lambda v: _is_real(v) and v > 0),
    "Disk.center": (lambda v: Disk(center=(v, 0.0), radius=1.0), _is_real),
    "Annulus.r_outer": (lambda v: Annulus(center=(0.0, 0.0), r_inner=0.5, r_outer=v),
                        lambda v: _is_real(v) and v > 0.5),
    "Rect.hi": (lambda v: Rect(lo=(0.0, 0.0), hi=(1.0, v)),
                lambda v: _is_real(v) and v > 0),
    "MedianEstimate.epsilon": (lambda v: replace(EST, epsilon=v),
                               lambda v: _is_real(v) and v > 0),
    "MedianEstimate.median": (lambda v: replace(EST, median=v),   # inside [ci_lo, ci_hi]
                              lambda v: _is_real(v) and 0.9 <= v <= 1.1),
    "MedianEstimate.trials": (lambda v: replace(EST, trials=v),
                              lambda v: _is_whole(v) and 1 <= v <= 2 ** 15),
    "MedianEstimate.ci_lo": (lambda v: replace(EST, ci_lo=v), lambda v: _is_real(v) and v <= 1),
    "MedianEstimate.ci_hi": (lambda v: replace(EST, ci_hi=v), lambda v: _is_real(v) and v >= 1),
    "MedianEstimate.master_seed": (lambda v: replace(EST, master_seed=v),
                                   lambda v: _is_whole(v) and 0 <= v < 2 ** 64),
}
VALUES = [-1, 0, math.nan, math.inf, 1e308, 2 ** 63, True, False, "64", "0.25", [],
          10 ** 400, np.float64(0.5)]
REJECTED = [(name, value) for name, (_, admits) in INPUTS.items() for value in VALUES
            if not admits(value)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(REJECTED))
def test_a_rejected_input_raises_before_any_trial(monkeypatch, case):
    """A value its input's rule rejects raises an LfppError, and no Monte
    Carlo trial runs."""
    import lfpp.renorm as renorm
    trials = []
    monkeypatch.setattr(renorm, "run_trials", lambda *args: trials.append(args))
    name, value = case
    make, _ = INPUTS[name]
    with pytest.raises(LfppError):
        make(value)
    assert trials == []
