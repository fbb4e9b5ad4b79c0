"""Monte Carlo estimation of the crossing-distance normalizer and exponent fits.

The normalizer at scale epsilon is the median over independent field samples
of the left-right crossing distance of a unit square placed at the center of
the torus (so the square sits in the central quarter, away from wrap-around
correlations).

`run_trials` is the one Monte Carlo trial loop, here and in the experiments:
trial i is seeded by its index through a spawn key of the master seed, and
results keep trial order, so estimates and reports are bit for bit the same
at any pool size (`MCConfig.workers`); medians and bootstrap confidence
intervals are reduced in trial-index order.

`estimate_ladder` estimates a whole epsilon ladder from one pass over the
trials: trial i samples its field once (and, for plain smoothing, takes its
`rfft2` once) and serves every rung not yet estimated, and one process pool
runs the ladder.  Each rung is still reduced and keyed on its own, so an
estimate's bits do not depend on the ladder it was computed in;
`estimate_a_eps` is the one-rung case.

A small in-process memo keyed by `estimate_cache_key`, one entry per rung,
lets ratio and diagnostic code reuse estimates; cached and fresh values are
identical.  The CLI's disk cache uses the same key, so an estimate has one
identity.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._rules import boolean, real, uint64, whole
from .cache import cache_key
from .errors import DegenerateFit, InsufficientTrials, InvalidArgument
from .gff import (
    LatticeSpec,
    Params,
    _dyadic_exponent,
    check_scale,
    mollify,
    mollify_localized,
    sample_torus_gff,
)
from .metric import Rect, _sparse, build_weighted_grid, lr_crossing, region_box

_MIN_TRIALS = 20          # floor for any CI-bearing estimate
# Trial i runs on spawn key (i,) of the master seed.  The cap keeps i below
# every other one-word spawn key (_BOOT_KEY here, the pair and fixed-field
# keys of the experiments), so no trial shares a SeedSequence with them.
_MAX_TRIALS = 2 ** 15
_MAX_WORKERS = 256        # a pool starts all its processes up front
_BOOT_RESAMPLES = 1000
_BOOT_BLOCK = 2 ** 20     # bootstrap index entries drawn and gathered at a time
_BOOT_KEY = 0xB007        # spawn key reserved for the bootstrap stream
_FIT_MIN_POINTS = 4
_FIT_MIN_SPAN = 8.0       # required max/min ratio of the epsilon ladder


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def _check_workers(workers: int) -> None:
    """The pool-size rule (`--threads`): a whole number in 1.._MAX_WORKERS."""
    whole(workers, "workers (--threads)", 1, _MAX_WORKERS)


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run configuration for normalizer estimates."""

    lattice: LatticeSpec
    trials: int
    master_seed: int
    localized: bool = False   # smooth with the truncated kernel instead
    workers: int = 1          # process-pool size; never part of an estimate

    def __post_init__(self) -> None:
        whole(self.trials, "trials", 1, _MAX_TRIALS)
        _check_workers(self.workers)
        uint64(self.master_seed, "master_seed")
        boolean(self.localized, "localized")


@dataclass(frozen=True)
class MedianEstimate:
    """Sample median of the unit-square crossing distance at one epsilon."""

    epsilon: float
    median: float
    trials: int
    ci_lo: float      # 95% bootstrap percentile interval
    ci_hi: float
    master_seed: int

    def __post_init__(self) -> None:
        real(self.epsilon, "epsilon", gt=0)
        real(self.median, "median", gt=0)
        whole(self.trials, "trials", 1, _MAX_TRIALS)
        real(self.ci_lo, "ci_lo")
        real(self.ci_hi, "ci_hi")
        uint64(self.master_seed, "master_seed")
        if not (self.ci_lo <= self.median <= self.ci_hi):
            raise InvalidArgument("confidence interval must bracket the median")

    def to_dict(self) -> Dict[str, object]:
        """The estimate's JSON document: its fields in declaration order."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "MedianEstimate":
        """Inverse of to_dict: the fields of `doc`, unchanged and checked by
        the constructor; InvalidArgument when doc is not a dict holding
        every field."""
        if not isinstance(doc, dict):
            raise InvalidArgument(f"an estimate must be a JSON object, got {type(doc).__name__}")
        for f in fields(cls):
            if f.name not in doc:
                raise InvalidArgument(f"estimate is missing {f.name!r}")
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


def _read_estimate(path) -> MedianEstimate:
    """The estimate a JSON file holds, by `MedianEstimate.from_dict`;
    InvalidArgument when the file cannot be read or holds no estimate.  The
    one reader of estimate files: the disk cache's entry check and
    `lfpp fit --in` both use it."""
    # unreadable, not UTF-8, not JSON, or nested past the parser's recursion limit
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidArgument(f"{path} holds no estimate: {exc}") from None
    return MedianEstimate.from_dict(doc)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log median against log epsilon."""

    slope: float          # estimate of the epsilon exponent
    intercept: float
    stderr_slope: float
    q_hat: float          # (1 - slope) / xi
    points: Tuple[Tuple[float, float], ...]   # (log eps, log median), eps ascending


@dataclass(frozen=True)
class RatioSeries:
    """Scale-invariance diagnostic rho(eps, r) along an epsilon ladder."""

    r: float
    rows: Tuple[Tuple[float, float], ...]     # (epsilon, rho)
    q_hat_used: float


# ---------------------------------------------------------------------------
# seeding and the crossing square
# ---------------------------------------------------------------------------

def trial_seed(master_seed: int, index: int) -> int:
    """Derived uint64 seed for one trial; stable across platforms."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def crossing_square(lattice: LatticeSpec) -> Rect:
    """Unit square centered on the lattice domain.

    Requires side length >= 2 so the square stays inside the central quarter
    of the torus.
    """
    if lattice.side < 2.0:
        raise InvalidArgument(
            f"lattice side {lattice.side} cannot embed a central unit square")
    cx = lattice.origin[0] + 0.5 * lattice.side
    cy = lattice.origin[1] + 0.5 * lattice.side
    return Rect(lo=(cx - 0.5, cy - 0.5), hi=(cx + 0.5, cy + 0.5))


def _crossing_trial(seed: int, lattice: LatticeSpec, epsilons: Tuple[float, ...],
                    xi: float, localized: bool) -> Tuple[float, ...]:
    """One trial: sample once, then smooth the central unit square's box and
    cross the square at every rung."""
    field = sample_torus_gff(lattice, seed)
    square = crossing_square(lattice)
    box = region_box(lattice, square)
    if localized:
        smooth = partial(mollify_localized, field, box=box)
    else:
        smooth = partial(mollify, field, spectrum=np.fft.rfft2(field.values), box=box)
    return tuple(lr_crossing(build_weighted_grid(smooth(eps), xi), square).value
                 for eps in epsilons)


def run_trials(trial: Callable[[int], object], mc: MCConfig) -> list:
    """[trial(trial_seed(mc.master_seed, i)) for i in range(mc.trials)], in a
    pool of min(mc.workers, mc.trials) processes when both exceed 1 (a pool
    starts all its workers up front); results keep trial order.  The parent
    loads the solver first, so forked workers share its import."""
    seeds = [trial_seed(mc.master_seed, i) for i in range(mc.trials)]
    if mc.workers > 1 and mc.trials > 1:
        _sparse()
        with ProcessPoolExecutor(max_workers=min(mc.workers, mc.trials)) as pool:
            return list(pool.map(trial, seeds))
    return list(map(trial, seeds))


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

_est_cache: Dict[str, MedianEstimate] = {}


def estimate_cache_key(epsilon: float, params: Params, mc: MCConfig) -> str:
    """Exact-bit key of one estimate for the memo and the disk cache; the
    pool size is omitted because it never changes an estimate."""
    lat = mc.lattice
    return cache_key("a_eps", {
        "eps": float(epsilon), "xi": float(params.xi), "n": lat.n,
        "spacing": float(lat.spacing), "origin": [float(c) for c in lat.origin],
        "trials": mc.trials, "seed": mc.master_seed, "localized": bool(mc.localized)})


def clear_estimate_cache() -> None:
    _est_cache.clear()


def _median_estimate(epsilon: float, values: np.ndarray, mc: MCConfig) -> MedianEstimate:
    """The sample median of one rung's trial values, with its bootstrap CI."""
    median = float(np.median(values))
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=mc.master_seed, spawn_key=(_BOOT_KEY,)))
    # Resamples are drawn and reduced in row blocks of at most _BOOT_BLOCK
    # index entries, which bounds memory at any trial count; the generator
    # yields the same stream in blocks as in one call, so the bits do not
    # depend on the block size.
    rows = max(1, _BOOT_BLOCK // mc.trials)
    boots = np.concatenate([
        np.median(values[rng.integers(0, mc.trials, size=(size, mc.trials))], axis=1)
        for size in np.diff([*range(0, _BOOT_RESAMPLES, rows), _BOOT_RESAMPLES])])
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return MedianEstimate(epsilon=epsilon, median=median, trials=mc.trials,
                          ci_lo=min(float(lo), median), ci_hi=max(float(hi), median),
                          master_seed=mc.master_seed)


def _fill_estimates(epsilons: Sequence[float], params: Params, mc: MCConfig) -> List[str]:
    """Check every rung, estimate those not in the memo in one run of the
    trials, and return the rungs' memo keys."""
    if mc.trials < _MIN_TRIALS:
        raise InsufficientTrials(
            f"{mc.trials} trials requested; CI-bearing estimates need >= {_MIN_TRIALS}")
    for eps in epsilons:
        check_scale(mc.lattice, eps)
    keys = [estimate_cache_key(eps, params, mc) for eps in epsilons]
    missing = {key: float(eps) for key, eps in zip(keys, epsilons)
               if key not in _est_cache}
    if missing:
        trial = partial(_crossing_trial, lattice=mc.lattice,
                        epsilons=tuple(missing.values()), xi=params.xi,
                        localized=mc.localized)
        columns = np.array(run_trials(trial, mc), dtype=np.float64).T
        for (key, eps), values in zip(missing.items(), columns):
            _est_cache[key] = _median_estimate(eps, values, mc)
    return keys


def estimate_a_eps(epsilon: float, params: Params, mc: MCConfig) -> MedianEstimate:
    """Median unit-square crossing distance over mc.trials field samples.

    Memoized pure function of (epsilon, params, mc): the one-rung case of
    `estimate_ladder`.
    """
    key, = _fill_estimates([epsilon], params, mc)
    return _est_cache[key]


def estimate_ladder(epsilons: Sequence[float], params: Params,
                    mc: MCConfig) -> List[MedianEstimate]:
    """`estimate_a_eps` at every rung, from one run of the trials.

    Every rung is checked before any trial runs.  The rungs not yet in the
    memo share each trial's field sample and one process pool; each is
    reduced and memoized on its own, bit for bit as `estimate_a_eps` alone
    would give it.  The estimates are handed back through `estimate_a_eps`,
    in the order of `epsilons`.
    """
    _fill_estimates(epsilons, params, mc)
    return [estimate_a_eps(eps, params, mc) for eps in epsilons]


# ---------------------------------------------------------------------------
# fits and diagnostics
# ---------------------------------------------------------------------------

def _ladder_arrays(estimates: Sequence[MedianEstimate]):
    eps = np.array([e.epsilon for e in estimates], dtype=np.float64)
    med = np.array([e.median for e in estimates], dtype=np.float64)
    order = np.argsort(eps)
    return eps[order], med[order]


def _check_ladder(eps: np.ndarray) -> None:
    if len(np.unique(eps)) < _FIT_MIN_POINTS:
        raise DegenerateFit(
            f"need >= {_FIT_MIN_POINTS} distinct epsilons, got {len(np.unique(eps))}")
    span = eps.max() / eps.min()
    if span < _FIT_MIN_SPAN * (1.0 - 1e-12):
        raise DegenerateFit(
            f"epsilon ladder spans a factor {span:.3g}, need >= {_FIT_MIN_SPAN}")


def fit_exponent(estimates: Sequence[MedianEstimate], params: Params) -> ExponentFit:
    """Ordinary least squares of log median on log epsilon."""
    eps, med = _ladder_arrays(estimates)
    _check_ladder(eps)
    x = np.log(eps)
    y = np.log(med)
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    stderr = float(math.sqrt(float((resid ** 2).sum()) / dof / sxx)) if dof > 0 else 0.0
    q_hat = (1.0 - slope) / params.xi
    if not math.isfinite(q_hat):
        raise DegenerateFit(f"q_hat is not finite (slope {slope}, xi {params.xi})")
    points = tuple(zip(x.tolist(), y.tolist()))
    return ExponentFit(slope=slope, intercept=intercept, stderr_slope=stderr,
                       q_hat=q_hat, points=points)


def _scale_power(base: float, xi: float, q_hat: float, what: str) -> float:
    """base ** (1 - xi*q_hat), the dilation factor of a D ratio at scale
    `base`; InvalidArgument naming `what` when it overflows a float."""
    expo = 1.0 - xi * q_hat
    try:
        power = base ** expo
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise InvalidArgument(f"{what} ** (1 - xi*q_hat) = {base} ** {expo} overflows")
    return power


def scaling_ratio(eps_ladder: Sequence[float], r: float, params: Params,
                  mc: MCConfig, q_hat: Optional[float] = None) -> RatioSeries:
    """rho(eps, r) = r^(1 - xi*q_hat) * median(eps/r) / median(eps).

    Both estimates per row share mc.master_seed, so the same field samples
    enter numerator and denominator (common random numbers); at r = 1 the
    cache returns the identical estimate and rho is exactly 1.  The rungs
    eps and eps/r are estimated in one `estimate_ladder` call.  Without a
    q_hat, it is `fit_exponent` of the eps rungs' estimates (DegenerateFit
    when they cannot carry a fit, raised before any trial runs).
    """
    if q_hat is not None:
        real(q_hat, "q_hat")
    if not eps_ladder:
        raise InvalidArgument("ladder needs at least one rung")
    _dyadic_exponent(r, "scale factor r")
    for eps in eps_ladder:   # `estimate_ladder` checks each rung's scale floor
        real(eps, "epsilon")
    if q_hat is None:   # the fit's ladder check needs no trial
        _check_ladder(np.asarray(eps_ladder, dtype=np.float64))
    else:   # nor does the power of a given q_hat
        power = _scale_power(r, params.xi, q_hat, "r")
    estimates = estimate_ladder([*eps_ladder, *(eps / r for eps in eps_ladder)],
                                params, mc)
    if q_hat is None:
        q_hat = fit_exponent(estimates[:len(eps_ladder)], params).q_hat
        power = _scale_power(r, params.xi, q_hat, "r")
    rows = [(float(eps), power * (a2.median / a1.median))
            for eps, a1, a2 in zip(eps_ladder, estimates, estimates[len(eps_ladder):])]
    return RatioSeries(r=float(r), rows=tuple(rows), q_hat_used=float(q_hat))
