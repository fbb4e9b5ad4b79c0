"""Shared fixtures and small builders for the test suite."""

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import lfpp
from lfpp import LatticeSpec, Params, build_weighted_grid, sample_torus_gff
from lfpp.gff import FieldKind, FieldSample, MollifiedField


LFPP = [sys.executable, "-m", "lfpp"]


def lfpp_env() -> dict:
    """Environment for a child interpreter that imports this lfpp package.

    Tests that can hang or race run the code in a child process with a
    timeout, so a regression fails the test instead of stalling the suite.
    """
    env = dict(os.environ)
    src = str(Path(lfpp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("LFPP_CACHE", None)
    return env


def make_moll(spec: LatticeSpec, values: np.ndarray,
              epsilon: float = None) -> MollifiedField:
    """Wrap raw values as an already-smoothed field (test injection).

    Lets metric tests pin exact site costs without running a smoother.
    """
    eps = 2.0 * spec.spacing if epsilon is None else epsilon
    return MollifiedField(spec=spec, kind=FieldKind.TORUS_WHOLE_PLANE,
                          epsilon=eps, values=np.ascontiguousarray(values),
                          localized=False, z_epsilon=1.0, source_seed=0)


def zero_grid(n: int, spacing: float, xi: float = 0.3):
    """Unit-cost weighted grid (zero field) over the full lattice."""
    spec = LatticeSpec(n=n, spacing=spacing)
    return spec, build_weighted_grid(make_moll(spec, np.zeros((n, n))), xi)


def random_grid(rng: np.random.Generator, n: int, spacing: float,
                xi: float = 0.3, scale: float = 1.0):
    spec = LatticeSpec(n=n, spacing=spacing)
    vals = scale * rng.normal(size=(n, n))
    return spec, build_weighted_grid(make_moll(spec, vals), xi)


def widest_localized_eps(n: int, spacing: float) -> float:
    """Largest eps whose localized stencil, 2m+1 sites with
    m = ceil(eps*log(1/eps) / spacing), still fits n: bisection on the
    increasing eps*log(1/eps) over (0, 1/e)."""
    reach = ((n - 1) // 2) * spacing
    lo, hi = 0.0, math.exp(-1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * math.log(1.0 / mid) <= reach else (lo, mid)
    return lo


@st.composite
def localized_fields(draw, spacing: float = 1.0 / 64.0):
    """(field, eps): a torus field with n in 16..64 at `spacing` and an eps
    that `mollify_localized` admits, from 2*spacing up to the widest stencil
    that fits the torus (t = 1 makes 2m+1 reach n or n - 1)."""
    n = draw(st.sampled_from([16, 32, 64]))
    field = sample_torus_gff(LatticeSpec(n=n, spacing=spacing),
                             draw(st.integers(0, 2 ** 16)))
    lo = 2.0 * spacing
    hi = min(widest_localized_eps(n, spacing) * (1.0 - 1e-12), math.exp(-1.0) - 1e-9)
    t = draw(st.floats(0.0, 1.0))
    return field, lo + t * (hi - lo)


@pytest.fixture(scope="session")
def params02() -> Params:
    return Params(xi=0.2)


@pytest.fixture(scope="session")
def field64() -> FieldSample:
    return sample_torus_gff(LatticeSpec(n=64, spacing=1.0 / 16.0), seed=404)


@pytest.fixture(scope="session")
def field128() -> FieldSample:
    return sample_torus_gff(LatticeSpec(n=128, spacing=1.0 / 32.0), seed=505)
