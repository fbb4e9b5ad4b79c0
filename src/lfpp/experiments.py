"""Verification harnesses tying together fields, metrics, and normalizers.

Each experiment is a pure function of its arguments (seeds included): the
returned report carries the input parameters, fixed-schema rows, a verdict,
and summary statistics, and rerunning with identical inputs reproduces the
rows bit for bit.  Almost-sure limit statements are probed as fixed-seed
trends along a scale ladder; distributional statements as Monte Carlo
two-sample or quantile summaries.  Where an exact scale-zero object is
needed, the finest admissible scale stands in and the report labels it as a
proxy.

Every verdict is a deterministic rule on the report's own numbers, stated
in its runner's docstring: a tolerance for the exact identity, comparisons
along the ladder for the trends, finiteness of a fitted constant for the
continuity check.  In-law and quantile runs are Informational.  No verdict
reads a p-value: `convergence_diagnostic` reports a one-sided Spearman rank
test (`spearman_trend`) in its stats alongside its verdict.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field as dataclass_field, replace
from enum import Enum
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._rules import read_real, read_whole, real, uint64, whole
from .errors import EmptyRegion, InvalidArgument, MollificationTooFine
from .gff import (
    SAMPLERS,
    FieldSample,
    LatticeSpec,
    Params,
    _dyadic_exponent,
    _is_pow2,
    _localized_range,
    add_function,
    check_scale,
    mollify,
    mollify_localized,
    rescale_field,
    sample_torus_gff,
)
from .metric import (
    Annulus,
    Mask,
    Rect,
    _cost_floor,
    _crop_grid,
    _dists_in_crops,
    _least_cost,
    build_weighted_grid,
    dist_around_annulus,
    dist_sets,
    region_box,
)
from .renorm import (_MAX_TRIALS, MCConfig, _check_workers, _scale_power,
                     crossing_square, estimate_ladder, run_trials, trial_seed)

WEYL_TOL = 1e-10

_FIELD_KEY = 0xF1E1D      # spawn key: fixed field for single-seed diagnostics
_PAIR_KEY = 0x9A12        # spawn key: random pair streams
_SEG_KEY = 0x5E6          # spawn key: small-segment pair streams
_N_GAP_PAIRS = 50
_N_SEG_PAIRS = 100
_PAIR_DRAWS = 1000        # draw budget per requested pair of distinct sites
_SEG_MAX_RUNGS = 4
_RING_HALF_WIDTH = 0.75   # boundary ring half-width in spacing units


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INFORMATIONAL = "Informational"


@dataclass(frozen=True)
class ExperimentReport:
    """Self-contained result of one named experiment run."""

    name: str
    params: Dict[str, object]     # every input including seeds
    rows: Tuple[tuple, ...]       # fixed per-experiment column schema
    verdict: Verdict
    stats: Dict[str, float] = dataclass_field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def spearman_trend(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """One-sided Spearman test for a decreasing trend of ys against xs.

    Returns (rho, p); a small p favours a decrease.  Reports carry both, and
    no verdict reads them.
    """
    from scipy import stats   # imported here to keep start-up light
    rho, p = stats.spearmanr(np.asarray(xs), np.asarray(ys), alternative="less")
    return float(rho), float(p)


def _non_increasing(seq: Sequence[float]) -> bool:
    """Monotone check tolerating one uptick of at most 5 % relative."""
    bad = 0
    for prev, cur in zip(seq, seq[1:]):
        if cur > prev:
            if cur > prev * 1.05:
                return False
            bad += 1
    return bad <= 1


def _central_quarter(spec: LatticeSpec) -> Rect:
    q = 0.25 * spec.side
    ox, oy = spec.origin
    return Rect(lo=(ox + q, oy + q), hi=(ox + 3 * q, oy + 3 * q))


def _require_inside(window: Rect, outer: Rect) -> None:
    if not (_in_rect(window.lo, outer) and _in_rect(window.hi, outer)):
        raise InvalidArgument(f"window {window.lo}..{window.hi} must lie inside "
                              f"{outer.lo}..{outer.hi}")


def _window_box(spec: LatticeSpec, window: Rect) -> Tuple[slice, slice]:
    """The box of the window's lattice sites, which a rect's sites fill;
    EmptyRegion when it holds none."""
    box = region_box(spec, window)
    if box is None:
        raise EmptyRegion("window contains no lattice sites")
    return box


def _lattice_dict(spec: LatticeSpec) -> Dict[str, object]:
    return {"n": spec.n, "spacing": spec.spacing, "origin": list(spec.origin)}


def _field_dict(fld: FieldSample) -> Dict[str, object]:
    d = _lattice_dict(fld.spec)
    d["kind"] = int(fld.kind)
    d["seed"] = fld.seed
    d["derived"] = fld.derived
    return d


def _mc_dict(mc: MCConfig) -> Dict[str, object]:
    d = _lattice_dict(mc.lattice)
    d.update(trials=mc.trials, master_seed=mc.master_seed,
             localized=mc.localized)
    return d


def _pairs_json(pairs) -> list:
    return [[[float(z[0]), float(z[1])], [float(w[0]), float(w[1])]]
            for z, w in pairs]


def _values(solves) -> np.ndarray:
    return np.array([res.value for _, res in solves], dtype=np.float64)


def _pair_dists(grid, pairs, want_path: bool = False) -> list:
    """[(grid, result)] of `dist_point(grid, z, w, want_path)` for each pair,
    in pair order, each solved on its certified crop of the grid
    (`metric._dists_in_crops`), floored by the grid's least cost over each
    box."""
    return _dists_in_crops(grid.spec, partial(_crop_grid, grid), grid.box,
                           partial(_least_cost, grid), pairs, want_path)


def _field_dists(field: FieldSample, epsilon: float, xi: float, pairs,
                 localized: bool = True, want_path: bool = False) -> list:
    """`_pair_dists` on the grid of the field smoothed at `epsilon` over the
    whole lattice, by `mollify_localized` or else by `mollify`: the one place
    that knows how a smoother feeds the certified-crop sweep.  Plain
    smoothing builds that grid once.  Localized smoothing never builds it:
    each grid smooths only its box, and each floor comes from the raw
    field's range over the box's padded block (`gff._localized_range`)."""
    if not localized:
        return _pair_dists(build_weighted_grid(mollify(field, epsilon), xi), pairs, want_path)

    def grid_over(box):
        return build_weighted_grid(mollify_localized(field, epsilon, box=box), xi)

    def floor_over(box):
        return _cost_floor(xi, *_localized_range(field, epsilon, box))

    lattice = (slice(0, field.spec.n), slice(0, field.spec.n))
    return _dists_in_crops(field.spec, grid_over, lattice, floor_over, pairs, want_path)


def _check_pair_points(spec: LatticeSpec, pairs) -> None:
    if not pairs:
        raise InvalidArgument("pairs must hold at least one pair")
    for z, w in pairs:
        if spec.index_of(tuple(z)) == spec.index_of(tuple(w)):
            raise InvalidArgument(f"pair {z}..{w} snaps to a single lattice site")


def _check_rungs(eps_ladder: Sequence[float], min_rungs: int) -> None:
    if len(eps_ladder) < min_rungs:
        raise InvalidArgument(f"ladder needs >= {min_rungs} rungs, got {len(eps_ladder)}")
    for eps in eps_ladder:
        real(eps, "ladder rung")


def _validate_halving(eps_ladder: Sequence[float]) -> None:
    _check_rungs(eps_ladder, 4)
    for a, b in zip(eps_ladder, eps_ladder[1:]):
        if not math.isclose(b, 0.5 * a, rel_tol=1e-12):
            raise InvalidArgument(f"ladder must halve: {a} -> {b}")


def _validate_decreasing(eps_ladder: Sequence[float], min_rungs: int) -> None:
    _check_rungs(eps_ladder, min_rungs)
    for a, b in zip(eps_ladder, eps_ladder[1:]):
        if not b < a:
            raise InvalidArgument(f"ladder must decrease: {a} -> {b}")


def _uniform_point(rng: np.random.Generator, window: Rect) -> Tuple[float, float]:
    u, v = rng.random(2)
    return (window.lo[0] + u * (window.hi[0] - window.lo[0]),
            window.lo[1] + v * (window.hi[1] - window.lo[1]))


def _in_rect(p: Tuple[float, float], window: Rect) -> bool:
    return (window.lo[0] <= p[0] <= window.hi[0]
            and window.lo[1] <= p[1] <= window.hi[1])


def _draw_pairs(draw: Callable[[], Optional[tuple]], count: int, window: Rect,
                what: str) -> list:
    """`count` pairs accepted by draw() (None rejects a draw); EmptyRegion once
    _PAIR_DRAWS draws per pair are spent, so a degenerate window never hangs."""
    pairs = []
    for _ in range(_PAIR_DRAWS * count):
        if len(pairs) == count:
            break
        pair = draw()
        if pair is not None:
            pairs.append(pair)
    if len(pairs) < count:
        raise EmptyRegion(f"window {[*window.lo, *window.hi]} gave {len(pairs)} of "
                          f"{count} {what}")
    return pairs


def _apart_pair(rng: np.random.Generator, spec: LatticeSpec, window: Rect):
    """Uniform pair in `window`, or None when both ends snap to one site."""
    z = _uniform_point(rng, window)
    w = _uniform_point(rng, window)
    return (z, w) if spec.index_of(z) != spec.index_of(w) else None


def _near_pair(rng: np.random.Generator, window: Rect, sep: float):
    """Uniform z in `window` and w within `sep` of it, or None when w leaves."""
    z = _uniform_point(rng, window)
    theta = rng.random() * 2.0 * math.pi
    rad = rng.random() * sep
    w = (z[0] + rad * math.cos(theta), z[1] + rad * math.sin(theta))
    return (z, w) if _in_rect(w, window) else None


def _distinct_pairs(seed: int, spec: LatticeSpec, window: Rect,
                    count: int) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """`count` uniform pairs in `window` whose ends snap to different sites,
    drawn from the pair stream of `seed`."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_PAIR_KEY,)))
    return _draw_pairs(partial(_apart_pair, rng, spec, window), count, window,
                       "pairs of distinct lattice sites")


# ---------------------------------------------------------------------------
# exact identity: constant shift
# ---------------------------------------------------------------------------

def weyl_shift_test(field: FieldSample, epsilon: float, c: float,
                    pairs, params: Params) -> ExperimentReport:
    """Distances after adding a constant c must scale by exp(xi*c).

    Localized smoothing commutes with constants, so this is an exact
    identity checked at 1e-10 relative, not a statistical test.
    """
    real(c, "c")
    _check_pair_points(field.spec, pairs)
    window = crossing_square(field.spec)
    for z, w in pairs:
        if not (_in_rect(z, window) and _in_rect(w, window)):
            raise InvalidArgument(f"pair {z}..{w} leaves the central unit window")

    shifted = add_function(field, lambda x, y: c)
    target = math.exp(params.xi * c)

    # each field smooths only the boxes its pairs' crops ask for
    d0 = _values(_field_dists(field, epsilon, params.xi, pairs))
    d1 = _values(_field_dists(shifted, epsilon, params.xi, pairs))
    ratio = d1 / d0
    rel = ratio / target - 1.0
    worst = float(np.abs(rel).max())
    rows = [(k, float(z[0]), float(z[1]), float(w[0]), float(w[1]),
             float(d0[k]), float(d1[k]), float(ratio[k]), float(rel[k]))
            for k, (z, w) in enumerate(pairs)]
    verdict = Verdict.PASS if worst <= WEYL_TOL else Verdict.FAIL
    return ExperimentReport(
        name="weyl_shift_test",
        params={"field": _field_dict(field), "epsilon": float(epsilon),
                "c": float(c), "xi": params.xi, "pairs": _pairs_json(pairs),
                "statement_type": "exact-identity"},
        rows=tuple(rows), verdict=verdict,
        stats={"max_rel_err": worst, "target_ratio": target})


# ---------------------------------------------------------------------------
# in-law identity: dyadic rescaling
# ---------------------------------------------------------------------------

def _covariance_trial(seed: int, lat: LatticeSpec, epsilon: float, a: float,
                      q_hat: float, xi: float, scaled, unit) -> Tuple[float, float]:
    """One trial's D between the scaled endpoints on the field and D between
    the unit endpoints on its rescaling, both unnormalized."""
    h = sample_torus_gff(lat, seed)
    d_l = _values(_field_dists(h, epsilon, xi, [scaled], localized=False))
    ht = rescale_field(h, a, lat.origin, q_hat)
    d_r = _values(_field_dists(ht, epsilon / a, xi, [unit], localized=False))
    return float(d_l[0]), float(d_r[0])


def scale_covariance_test(a: float, epsilon: float, params: Params,
                          mc: MCConfig, q_hat: float) -> ExperimentReport:
    """Compare D at scaled endpoints with the rescaled-field prediction.

    Per trial the same field sample feeds both sides (common random
    numbers), so at a = 1 both samples are identical bit for bit; for a > 1
    the identity holds in law only and the verdict is Informational with a
    two-sample Mann-Whitney p-value.  Dilations are centered at the lattice
    origin corner.
    """
    _dyadic_exponent(a, "scale factor a")
    real(q_hat, "q_hat")
    real(epsilon, "epsilon")   # `estimate_ladder` checks its scale floor
    power = _scale_power(a, params.xi, q_hat, "a")
    lat = mc.lattice
    ox, oy = lat.origin
    cx, cy = ox + 0.5 * lat.side, oy + 0.5 * lat.side
    az_pt = (cx - 0.3, cy - 0.2)
    aw_pt = (cx + 0.3, cy + 0.2)
    if a == 1.0:
        z_pt, w_pt = az_pt, aw_pt
    else:
        z_pt = (ox + (az_pt[0] - ox) / a, oy + (az_pt[1] - oy) / a)
        w_pt = (ox + (aw_pt[0] - ox) / a, oy + (aw_pt[1] - oy) / a)

    a_big, a_small = estimate_ladder([epsilon, epsilon / a], params, mc)
    prefactor = power * (a_small.median / a_big.median)

    trial = partial(_covariance_trial, lat=lat, epsilon=epsilon, a=a, q_hat=q_hat,
                    xi=params.xi, scaled=(az_pt, aw_pt), unit=(z_pt, w_pt))
    dists = np.array(run_trials(trial, mc))
    lhs = dists[:, 0] / a_big.median
    rhs = prefactor * (dists[:, 1] / a_small.median)
    rows = [(i, float(lhs[i]), float(rhs[i])) for i in range(mc.trials)]

    from scipy import stats   # imported here to keep start-up light
    mw = stats.mannwhitneyu(lhs, rhs, alternative="two-sided")
    q_l = np.percentile(lhs, [25, 50, 75])
    q_r = np.percentile(rhs, [25, 50, 75])
    return ExperimentReport(
        name="scale_covariance_test",
        params={"a": float(a), "epsilon": float(epsilon), "xi": params.xi,
                "q_hat": float(q_hat), "mc": _mc_dict(mc),
                "endpoints_scaled": [list(az_pt), list(aw_pt)],
                "endpoints_unit": [list(z_pt), list(w_pt)],
                "common_random_numbers": True,
                "statement_type": "monte-carlo-in-law"},
        rows=tuple(rows), verdict=Verdict.INFORMATIONAL,
        stats={"median_lhs": float(q_l[1]), "median_rhs": float(q_r[1]),
               "iqr_lhs": float(q_l[2] - q_l[0]), "iqr_rhs": float(q_r[2] - q_r[0]),
               "mw_p": float(mw.pvalue), "prefactor": float(prefactor)})


# ---------------------------------------------------------------------------
# localized-vs-plain smoothing gap
# ---------------------------------------------------------------------------

def localized_gap(field: FieldSample, eps_ladder: Sequence[float],
                  window: Rect, params: Params) -> ExperimentReport:
    """Sup-norm gap of the two smoothers and its effect on distances.

    Both the field gap over the window and the worst distance ratio
    deviation over sampled pairs should fall along a halving ladder; one
    uptick within 5% is tolerated per sequence.
    """
    _validate_decreasing(eps_ladder, min_rungs=2)
    _require_inside(window, _central_quarter(field.spec))
    box = _window_box(field.spec, window)
    pairs = _distinct_pairs(field.seed, field.spec, window, _N_GAP_PAIRS)

    rows = []
    gaps = []
    devs = []
    for eps in eps_ladder:
        plain = mollify(field, eps)
        loc = mollify_localized(field, eps, box)
        gap = float(np.abs(loc.values - plain.values[box]).max())
        dp = _values(_pair_dists(build_weighted_grid(plain, params.xi), pairs))
        dl = _values(_field_dists(field, eps, params.xi, pairs))
        dev = float(np.abs(dl / dp - 1.0).max())
        rows.append((float(eps), gap, dev))
        gaps.append(gap)
        devs.append(dev)
    ok = _non_increasing(gaps) and _non_increasing(devs)
    return ExperimentReport(
        name="localized_gap",
        params={"field": _field_dict(field), "eps_ladder": [float(e) for e in eps_ladder],
                "window": [*window.lo, *window.hi], "xi": params.xi,
                "n_pairs": _N_GAP_PAIRS, "pair_stream_key": _PAIR_KEY,
                "statement_type": "fixed-seed-trend"},
        rows=tuple(rows),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        stats={"first_gap": gaps[0], "last_gap": gaps[-1],
               "first_dev": devs[0], "last_dev": devs[-1]})


# ---------------------------------------------------------------------------
# normalized-distance convergence along the scale ladder
# ---------------------------------------------------------------------------

def convergence_diagnostic(pairs, eps_ladder: Sequence[float], params: Params,
                           mc: MCConfig) -> ExperimentReport:
    """Cauchy-style trend of normalized distances on one fixed field.

    Distances use the localized smoother; normalizers come from Monte Carlo
    estimates under mc.  The verdict passes when the max-over-pairs
    successive difference at the fine end does not exceed the coarse end;
    the Spearman rho and p of all differences against their transition
    index are reported in the stats only.
    """
    _validate_halving(eps_ladder)
    lat = mc.lattice
    _check_pair_points(lat, pairs)
    norms = [est.median for est in estimate_ladder(eps_ladder, params, mc)]
    field_seed = trial_seed(mc.master_seed, _FIELD_KEY)
    fld = sample_torus_gff(lat, field_seed)

    # values[k, j]: pair k at rung j; diffs[k, j]: pair k from rung j to j + 1
    values = np.column_stack([
        _values(_field_dists(fld, eps, params.xi, pairs)) / norm
        for eps, norm in zip(eps_ladder, norms)])
    diffs = np.abs(values[:, 1:] - values[:, :-1])
    max_diffs = diffs.max(axis=0).tolist()
    n_pairs, n_trans = diffs.shape
    rows = [(float(eps_ladder[j]), float(eps_ladder[j + 1]), k, float(values[k, j]),
             float(values[k, j + 1]), float(diffs[k, j]))
            for j in range(n_trans) for k in range(n_pairs)]
    rho, p = spearman_trend(np.repeat(np.arange(n_trans), n_pairs), diffs.T.ravel())
    ok = max_diffs[-1] <= max_diffs[0]
    return ExperimentReport(
        name="convergence_diagnostic",
        params={"pairs": _pairs_json(pairs),
                "eps_ladder": [float(e) for e in eps_ladder],
                "xi": params.xi, "mc": _mc_dict(mc),
                "field_seed": field_seed, "field_stream_key": _FIELD_KEY,
                "statement_type": "fixed-seed-trend"},
        rows=tuple(rows),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        stats={"first_max_diff": max_diffs[0], "last_max_diff": max_diffs[-1],
               "spearman_rho": rho, "spearman_p": p})


# ---------------------------------------------------------------------------
# annulus crossing statistics
# ---------------------------------------------------------------------------

def _annulus_trial(seed: int, lat: LatticeSpec, epsilon: float, proxy_eps: float,
                   xi: float, annuli) -> List[tuple]:
    """One trial's rows less the trial index, one per (annulus, r, inner
    ring, outer ring)."""
    h = sample_torus_gff(lat, seed)
    # Whole-lattice grids, not the crop sweep: `dist_sets` between the two
    # rings is unconstrained, so its path may leave any box; around and
    # across share a grid, and no certificate covers set solves.
    grid_e = build_weighted_grid(mollify_localized(h, epsilon), xi)
    grid_p = build_weighted_grid(mollify_localized(h, proxy_eps), xi)
    rows = []
    for ann, r, inner, outer in annuli:
        around_e = dist_around_annulus(grid_e, ann).value
        across_e = dist_sets(grid_e, inner, outer, want_path=True)
        around_p = dist_around_annulus(grid_p, ann).value
        across_p = dist_sets(grid_p, inner, outer).value
        u = grid_e.spec.point_of(*across_e.path.sites[0])
        v = grid_e.spec.point_of(*across_e.path.sites[-1])
        d_uv_proxy = _pair_dists(grid_p, [(u, v)])[0][1].value
        rows.append((float(r), around_e, across_e.value, around_e / across_e.value,
                     around_p, across_p, around_p / across_p,
                     across_e.value / d_uv_proxy))
    return rows


def annulus_event_stats(epsilon: float, r_set: Sequence[float], alpha: float,
                        params: Params, mc: MCConfig) -> ExperimentReport:
    """Around/across ratios of centered annuli over sampled fields.

    ratio3 compares the shortest separating cycle of the annulus between
    radii alpha*r and r with the distance between its boundary rings;
    ratio1 compares the boundary-to-boundary distance at the given scale
    with the same endpoints at the finest admissible scale (a stand-in for
    the zero-scale metric, labeled proxy).  Quantiles are reported; no
    bound is asserted.
    """
    real(alpha, "alpha", gt=0.875, lt=1.0)
    if not r_set:
        raise InvalidArgument("r_set must hold at least one radius")
    lat = mc.lattice
    check_scale(lat, epsilon)
    delta = lat.spacing
    proxy_eps = max(2.0 * delta, epsilon / 4.0)
    cx = lat.origin[0] + 0.5 * lat.side
    cy = lat.origin[1] + 0.5 * lat.side
    xs, ys = lat.axis_coords()
    dmat = np.hypot(np.broadcast_to(xs[None, :], (lat.n, lat.n)) - cx,
                    np.broadcast_to(ys[:, None], (lat.n, lat.n)) - cy)

    # Each ring holds a site: n is a power of two, so the centre is the site
    # n/2 spacings from the origin along each axis; the sites on its row lie
    # k spacings from it for k = 0..n/2; every radius here, r <= side/2 and
    # alpha * r below it, is within half a spacing of one of them (up to
    # rounding), inside the ring's half-width of 0.75 spacing.  An empty
    # ring would still exit as `dist_sets`' EmptyRegion.
    annuli = []
    for r in r_set:
        real(r, "r_set radius", gt=0, le=0.5 * lat.side)
        inner = Mask(np.abs(dmat - alpha * r) <= _RING_HALF_WIDTH * delta)
        outer = Mask(np.abs(dmat - r) <= _RING_HALF_WIDTH * delta)
        annuli.append((Annulus((cx, cy), alpha * r, r), r, inner, outer))
    grid_kind = "dyadic" if all(_is_pow2(r) for r in r_set) else "custom"

    trial = partial(_annulus_trial, lat=lat, epsilon=epsilon, proxy_eps=proxy_eps,
                    xi=params.xi, annuli=annuli)
    rows = [(i, *row) for i, trial_rows in enumerate(run_trials(trial, mc))
            for row in trial_rows]

    # the ratio3 and ratio1 columns
    q3 = np.percentile([row[4] for row in rows], [50, 90, 99])
    q1 = np.percentile([row[8] for row in rows], [50, 90, 99])
    return ExperimentReport(
        name="annulus_event_stats",
        params={"epsilon": float(epsilon), "proxy_epsilon": float(proxy_eps),
                "r_set": [float(r) for r in r_set], "alpha": float(alpha),
                "xi": params.xi, "mc": _mc_dict(mc), "radii_grid": grid_kind,
                "proxy": "finest-scale metric stands in for the scale-zero metric",
                "statement_type": "monte-carlo-quantiles"},
        rows=tuple(rows), verdict=Verdict.INFORMATIONAL,
        stats={"ratio3_q50": float(q3[0]), "ratio3_q90": float(q3[1]),
               "ratio3_q99": float(q3[2]), "ratio1_q50": float(q1[0]),
               "ratio1_q90": float(q1[1]), "ratio1_q99": float(q1[2]),
               "A_hat": float(q3[2])})


# ---------------------------------------------------------------------------
# multiplicative-chaos mass along the ladder
# ---------------------------------------------------------------------------

def gmc_mass(field: FieldSample, gamma: float, eps_ladder: Sequence[float],
             window: Rect) -> ExperimentReport:
    """Window mass of eps^(gamma^2/2) * exp(gamma * smoothed field).

    Sites are selected half-open ([lo, hi) in both axes) so the zero-coupling
    limit integrates to the exact window area.  Pass when the final
    successive relative mass difference is below the first.
    """
    real(gamma, "gamma", gt=0.0, lt=2.0)
    _validate_decreasing(eps_ladder, min_rungs=3)
    for eps in eps_ladder:
        if not _is_pow2(eps) or eps >= 1.0:
            raise InvalidArgument(f"ladder points must be powers of two below 1, got {eps}")
    spec = field.spec
    xs, ys = spec.axis_coords()
    tol = spec.spacing * 1e-9
    # coordinates increase along each axis, so the window is one box of sites
    hits = [np.flatnonzero((c >= lo - tol) & (c < hi - tol)) for c, lo, hi in
            ((ys, window.lo[1], window.hi[1]), (xs, window.lo[0], window.hi[0]))]
    if any(h.size == 0 for h in hits):
        raise EmptyRegion("window contains no lattice sites")
    box = tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits)

    cell = spec.spacing ** 2
    rows = []
    masses = []
    rel_diffs = []
    for j, eps in enumerate(eps_ladder):
        values = mollify(field, eps, box=box).values
        mass = eps ** (gamma ** 2 / 2.0) * float(np.exp(gamma * values.ravel()).sum()) * cell
        rel = math.nan if j == 0 else abs(mass - masses[-1]) / masses[-1]
        rows.append((float(eps), mass, rel))
        masses.append(mass)
        if j > 0:
            rel_diffs.append(rel)
    ok = rel_diffs[-1] < rel_diffs[0]
    return ExperimentReport(
        name="gmc_mass",
        params={"field": _field_dict(field), "gamma": float(gamma),
                "eps_ladder": [float(e) for e in eps_ladder],
                "window": [*window.lo, *window.hi],
                "statement_type": "fixed-seed-trend"},
        rows=tuple(rows),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        stats={"first_rel_diff": rel_diffs[0], "last_rel_diff": rel_diffs[-1],
               "window_sites": hits[0].size * hits[1].size, "final_mass": masses[-1]})


# ---------------------------------------------------------------------------
# smoothing-scale continuity of the field
# ---------------------------------------------------------------------------

def field_continuity_check(field: FieldSample, a: float,
                           n_ladder: Sequence[int], window: Rect) -> ExperimentReport:
    """Sup gap between adjacent smoothing scales n^-a and (n+1)^-a.

    Fits the smallest constant C with gap <= C * a * log(n+1) *
    (((n+1)/n)^a - 1) across the ladder, for both smoothers; passes when a
    single finite constant works everywhere.
    """
    real(a, "a", gt=0)
    for m in n_ladder:   # each is taken to a float power below
        whole(m, "n_ladder entry", 2, sys.float_info.max)
    if len(n_ladder) < 2 or any(m2 <= m1 for m1, m2 in zip(n_ladder, n_ladder[1:])):
        raise InvalidArgument("n_ladder must be a strictly increasing list of >= 2 sizes")
    spec = field.spec
    check_scale(spec, (max(n_ladder) + 1) ** (-a))
    box = _window_box(spec, window)

    rows = []
    c_plain = []
    c_loc = []
    for m in n_ladder:
        e_hi = float(m) ** (-a)
        e_lo = float(m + 1) ** (-a)
        gp = float(np.abs(mollify(field, e_hi, box=box).values
                          - mollify(field, e_lo, box=box).values).max())
        gl = float(np.abs(mollify_localized(field, e_hi, box).values
                          - mollify_localized(field, e_lo, box).values).max())
        unit = a * math.log(m + 1) * (((m + 1) / m) ** a - 1.0)
        rows.append((m, e_hi, e_lo, gp, gl, unit, gp / unit, gl / unit))
        c_plain.append(gp / unit)
        c_loc.append(gl / unit)
    cp, cl = max(c_plain), max(c_loc)
    ok = math.isfinite(cp) and math.isfinite(cl)
    return ExperimentReport(
        name="field_continuity_check",
        params={"field": _field_dict(field), "a": float(a),
                "n_ladder": [int(m) for m in n_ladder],
                "window": [*window.lo, *window.hi],
                "statement_type": "fixed-seed-trend"},
        rows=tuple(rows),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        stats={"C_plain": cp, "C_localized": cl})


# ---------------------------------------------------------------------------
# logarithmic sup bound for smoothed fields
# ---------------------------------------------------------------------------

def field_sup_bound_check(field: FieldSample, eps_ladder: Sequence[float],
                          eta: float, window: Rect) -> ExperimentReport:
    """Window sup of |smoothed field| against (1+eta)(2+eta) log(1/eps).

    The fitted constant c(eps) = sup - (1+eta)(2+eta) log(1/eps) must not
    increase over the last three rungs for either smoother (the log term
    dominates as the scale shrinks).
    """
    real(eta, "eta", gt=0)
    _validate_decreasing(eps_ladder, min_rungs=3)
    _require_inside(window, _central_quarter(field.spec))
    box = _window_box(field.spec, window)

    coef = (1.0 + eta) * (2.0 + eta)
    rows = []
    cps = []
    cls = []
    for eps in eps_ladder:
        sp = float(np.abs(mollify(field, eps, box=box).values).max())
        sl = float(np.abs(mollify_localized(field, eps, box).values).max())
        budget = coef * math.log(1.0 / eps)
        rows.append((float(eps), sp, sl, sp - budget, sl - budget))
        cps.append(sp - budget)
        cls.append(sl - budget)
    tail_ok = (all(b <= a for a, b in zip(cps[-3:], cps[-2:]))
               and all(b <= a for a, b in zip(cls[-3:], cls[-2:])))
    return ExperimentReport(
        name="field_sup_bound_check",
        params={"field": _field_dict(field), "eps_ladder": [float(e) for e in eps_ladder],
                "eta": float(eta), "window": [*window.lo, *window.hi],
                "statement_type": "fixed-seed-trend"},
        rows=tuple(rows),
        verdict=Verdict.PASS if tail_ok else Verdict.FAIL,
        stats={"C_plain": max(cps), "C_localized": max(cls)})


# ---------------------------------------------------------------------------
# sup of normalized distances over short segments
# ---------------------------------------------------------------------------

def small_segment_sup(field: FieldSample, epsilon: float, zeta: float,
                      window: Rect, params: Params, mc: MCConfig) -> ExperimentReport:
    """Worst normalized distance over pairs closer than 4*eps^(1-zeta).

    Runs a halving ladder from epsilon (up to four admissible rungs) and
    passes when the per-rung maximum decreases down the ladder.
    """
    real(zeta, "zeta", gt=0.0, lt=1.0)
    real(epsilon, "epsilon")
    spec = field.spec
    delta = spec.spacing
    if epsilon ** (1.0 - zeta) < delta:
        raise MollificationTooFine(
            f"pair separation 4*eps^(1-zeta) is below 4*spacing at eps = {epsilon}")

    ladder = []
    eps = float(epsilon)
    while (len(ladder) < _SEG_MAX_RUNGS and eps >= 2.0 * delta
           and eps ** (1.0 - zeta) >= delta):
        ladder.append(eps)
        eps *= 0.5
    if len(ladder) < 2:
        raise InvalidArgument("lattice too coarse for a ladder of at least 2 rungs")

    seps = [4.0 * eps_k ** (1.0 - zeta) for eps_k in ladder]
    pair_sets = []
    for k, sep in enumerate(seps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=field.seed, spawn_key=(_SEG_KEY, k)))
        pair_sets.append(_draw_pairs(partial(_near_pair, rng, window, sep),
                                     _N_SEG_PAIRS, window, f"pairs closer than {sep}"))
    a_hats = [est.median for est in estimate_ladder(ladder, params, mc)]

    rows = []
    vals = []
    for eps_k, sep, pairs, a_hat in zip(ladder, seps, pair_sets, a_hats):
        # division by a_hat > 0 is monotone, so this is the max of d / a_hat
        worst = float(_values(_field_dists(field, eps_k, params.xi, pairs)).max() / a_hat)
        rows.append((eps_k, sep, worst))
        vals.append(worst)
    ok = all(b < a for a, b in zip(vals, vals[1:]))
    return ExperimentReport(
        name="small_segment_sup",
        params={"field": _field_dict(field), "epsilon": float(epsilon),
                "zeta": float(zeta), "window": [*window.lo, *window.hi],
                "xi": params.xi, "mc": _mc_dict(mc),
                "ladder": [float(e) for e in ladder],
                "n_pairs": _N_SEG_PAIRS, "pair_stream_key": _SEG_KEY,
                "statement_type": "fixed-seed-trend"},
        rows=tuple(rows),
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        stats={"first_sup": vals[0], "last_sup": vals[-1]})


# ---------------------------------------------------------------------------
# registry and config parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """A registered experiment: its runner and the columns of its rows."""

    run: Callable[..., ExperimentReport]
    columns: Tuple[str, ...]


# Names, runners and CSV columns; documented in docs/experiments.md.
EXPERIMENTS: Dict[str, Experiment] = {
    "weyl_shift_test": Experiment(weyl_shift_test, (
        "pair", "zx", "zy", "wx", "wy", "d_base", "d_shifted", "ratio", "rel_err")),
    "scale_covariance_test": Experiment(scale_covariance_test, ("trial", "lhs", "rhs")),
    "localized_gap": Experiment(localized_gap, ("epsilon", "sup_gap", "max_ratio_dev")),
    "convergence_diagnostic": Experiment(convergence_diagnostic, (
        "eps_coarse", "eps_fine", "pair", "value_coarse", "value_fine", "abs_diff")),
    "annulus_event_stats": Experiment(annulus_event_stats, (
        "trial", "r", "around", "across", "ratio3",
        "around_proxy", "across_proxy", "ratio3_proxy", "ratio1")),
    "gmc_mass": Experiment(gmc_mass, ("epsilon", "mass", "rel_diff")),
    "field_continuity_check": Experiment(field_continuity_check, (
        "n", "eps_coarse", "eps_fine", "gap_plain", "gap_localized",
        "bound_unit", "c_plain", "c_localized")),
    "field_sup_bound_check": Experiment(field_sup_bound_check, (
        "epsilon", "sup_plain", "sup_localized", "c_plain", "c_localized")),
    "small_segment_sup": Experiment(small_segment_sup, (
        "epsilon", "separation", "max_normalized_dist")),
}


def _resolve_spacing(raw, n: int) -> float:
    """A number, or `auto`: 4/n, which centers the unit square in the
    central quarter.  Any other n is left for LatticeSpec to reject: 4 / n
    divides exactly rounded ints, so n = 10**400 gives 0.0, not an
    OverflowError."""
    return 4 / max(n, 1) if raw == "auto" else read_real(raw, "spacing")


def _cfg_get(cfg: dict, key: str):
    if key not in cfg:
        raise InvalidArgument(f"experiment config is missing '{key}'")
    return cfg[key]


def _cfg_numbers(raw, count: int, what: str) -> Tuple[float, ...]:
    """The `count` numbers of a config list; InvalidArgument naming `what`
    when it holds another count."""
    if len(raw) != count:
        raise InvalidArgument(f"{what} must hold exactly {count} numbers, got {len(raw)}")
    return tuple(read_real(v, what) for v in raw)


def _cfg_lattice(cfg: dict) -> LatticeSpec:
    n = read_whole(_cfg_get(cfg, "n"), "n")
    return LatticeSpec(n=n, spacing=_resolve_spacing(cfg.get("spacing", "auto"), n),
                       origin=_cfg_numbers(cfg.get("origin", (0.0, 0.0)), 2, "origin"))


def _cfg_field(cfg: dict) -> Callable[[], FieldSample]:
    """The field a config names, as the call that samples it: its lattice
    spec and seed are the call's `args`."""
    spec = _cfg_lattice(cfg)
    seed = uint64(read_whole(_cfg_get(cfg, "seed"), "seed"), "seed")
    kind = cfg.get("kind", "torus")
    if kind not in SAMPLERS:
        raise InvalidArgument(f"unknown field kind '{kind}'")
    return partial(SAMPLERS[kind], spec, seed)


def _cfg_mc(cfg: dict) -> MCConfig:
    return MCConfig(lattice=_cfg_lattice(cfg),
                    trials=read_whole(_cfg_get(cfg, "trials"), "trials"),
                    master_seed=read_whole(_cfg_get(cfg, "seed"), "seed"),
                    localized=cfg.get("localized", False))


def _cfg_window(w) -> Rect:
    x0, y0, x1, y1 = _cfg_numbers(w, 4, "window")
    return Rect(lo=(x0, y0), hi=(x1, y1))


def _cfg_pairs(raw, spec: LatticeSpec):
    """An explicit pair list, or {window, seed, count} sampled on spec, with
    count in 1.._MAX_TRIALS so that a draw stays bounded."""
    if isinstance(raw, dict):
        window = _cfg_window(_cfg_get(raw, "window"))
        seed = uint64(read_whole(_cfg_get(raw, "seed"), "seed"), "seed")
        count = read_whole(_cfg_get(raw, "count"), "count", 1, _MAX_TRIALS)
        return _distinct_pairs(seed, spec, window, count)
    point = partial(_cfg_numbers, count=2, what="a point of pairs")
    return [(point(z), point(w)) for z, w in raw]


def _value(parse: Callable) -> Callable:
    """Parser of a config value that needs nothing else."""
    return lambda raw, key, done: parse(raw)


# Runner parameter -> parser(config value, parameter, parameters parsed so
# far), applied in this order: `pairs` snaps to the lattice of the `field`
# or `mc` before it.  A `field` is parsed into the call that samples it.
_PARSERS: Dict[str, Callable[[object, str, dict], object]] = {
    "field": _value(_cfg_field),
    "mc": _value(_cfg_mc),
    "pairs": lambda raw, key, done: _cfg_pairs(raw, (
        done["field"].args[0] if "field" in done else done["mc"].lattice)),
    "params": _value(lambda raw: Params(xi=read_real(raw, "xi"))),
    "window": _value(_cfg_window),
    "n_ladder": _value(lambda values: [read_whole(v, "n_ladder entry") for v in values]),
    **dict.fromkeys(("eps_ladder", "r_set"), lambda values, key, done: [
        read_real(v, f"{key} entry") for v in values]),
    **dict.fromkeys(("epsilon", "c", "a", "q_hat", "alpha", "gamma", "eta", "zeta"),
                    lambda raw, key, done: read_real(raw, key)),
}


def run_experiment(name: str, cfg: dict, workers: int = 1) -> ExperimentReport:
    """Run a registered experiment from a plain configuration mapping.

    The config keys are the runner's parameter names, except that `params`
    is read from `xi`.  A malformed value is an InvalidArgument naming its
    key.  Every value is read and checked before any `field` is sampled.
    `workers` is the process-pool size of a parsed `mc` (MCConfig.workers);
    it never changes the report, and every experiment checks it before
    parsing the config.
    """
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise InvalidArgument(f"unknown experiment '{name}' (known: {known})")
    _check_workers(workers)
    run = EXPERIMENTS[name].run
    wanted = inspect.signature(run).parameters
    args = {}
    for key, parse in _PARSERS.items():
        if key in wanted:
            raw = _cfg_get(cfg, "xi" if key == "params" else key)
            try:
                args[key] = parse(raw, key, args)
            except (TypeError, ValueError, KeyError, IndexError, OverflowError,
                    InvalidArgument) as exc:
                raise InvalidArgument(
                    f"experiment config key '{key}' is malformed: {exc}") from None
    if "field" in args:
        args["field"] = args["field"]()
    if "mc" in args:
        args["mc"] = replace(args["mc"], workers=workers)
    return run(**args)
