"""Gaussian free field sampling and smoothing on square lattices.

Two field kinds are supported: a mean-zero field on the n x n torus whose
spectral amplitude is proportional to 1/|k| (log-correlated increments), and
a zero-boundary field on the square synthesized in the sine eigenbasis with
per-mode variance equal to the inverse of the Dirichlet Laplacian eigenvalue.

Smoothing comes in two flavors.  `mollify` convolves with the heat kernel at
time eps^2/2 across the whole torus (spectral, exact circular convolution).
`mollify_localized` multiplies the same kernel by a compactly supported
radial cutoff so that the smoothed value at a site depends only on the field
within distance eps*log(1/eps) of it; the retained kernel mass is tracked by
the normalizer `normalizer_Z` and its lattice analogue `z_epsilon`.

Because of that locality, `mollify_localized` can smooth just a box of the
lattice: it reads the box plus the stencil margin (wrapping around the
torus) and returns a `MollifiedField` whose values cover only the box, with
`offset` naming the lattice site of values[0, 0].  `mollify` takes a box
too: it inverts the transform of the box's rows only.  Either way, box
values are bitwise equal to the full-lattice values on the box.

Both the torus sampler and plain smoothing run on real-input transforms
(`rfft2` / `irfft2`, half-plane spectra of shape (n, n//2 + 1)); spectral
synthesis follows Dietrich & Newsam (SIAM J. Sci. Comput. 1997).  Those
transforms are numpy's, so this module imports no scipy module at load:
the Dirichlet sampler's DST-I imports `scipy.fft` (which loads
`scipy.special`) on its first call, and `normalizer_Z` imports
`scipy.integrate` the same way.

The localized golden bytes depend on one summation rule over that padded
block, which uses the stencil's mirror symmetry: from zero, for row offset
p = 0..m, V = x[r-p] + x[r+p] (the row itself at p = 0); then for each
column offset q = 0..m whose quadrant tap s[p, q] is above DBL_EPSILON,
add s[p, q] * (V[c-q] + V[c+q]) (V[c] at q = 0); then one division by the
sum of the mirrored stencil (verified on x86-64 only).  The plain ones
depend on one rule too: the field's `rfft2` spectrum, times the
row multiplier, then times the column multiplier, then `irfft2`'s two
steps, `ifft` along the rows axis and `irfft` of each row (see `mollify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ._rules import real, uint64, whole
from .errors import (
    InvalidArgument,
    InvalidSpec,
    MollificationTooFine,
    OutOfDomain,
)

# Coupling at and above which estimates are flagged as outside the
# regime this package is calibrated for.
XI_CRIT_REF = 0.41

# Localized fold: padded-block lanes per tile (64 rows of 512); quadrant taps
# at or below the floor are skipped.
_TILE_SITES = 64 * 512
_TAP_FLOOR = np.finfo(np.float64).eps

# Largest sites per axis: a full-lattice graph at n = 8192 needs about 6.4 GB
# for its data and int32 indices alone (67M sites x 8 entries x 12 B); at
# n = 4096 it needs about 1.6 GB.
_MAX_N = 2 ** 12

# Torus sampling: half-plane amplitudes kept per n up to _MEMO_N (1 MB at
# n = 512; 4 MB at 1024 would stay resident for a one-field session).
_MEMO_N = 512
_AMPLITUDES: Dict[int, np.ndarray] = {}


# ---------------------------------------------------------------------------
# parameter and lattice types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """Model couplings shared across the metric and renormalization layers."""

    xi: float                      # metric coupling, > 0

    def __post_init__(self) -> None:
        real(self.xi, "xi", gt=0, error=InvalidSpec)

    @property
    def supercritical(self) -> bool:
        """True when xi sits at or above the reference threshold 0.41."""
        return self.xi >= XI_CRIT_REF


@dataclass(frozen=True)
class LatticeSpec:
    """Square lattice of n x n sites with fixed spacing.

    Grid index (i, j) maps to the plane point
    (origin_x + j*spacing, origin_y + i*spacing): rows run along y.
    """

    n: int                                   # sites per axis, power of two <= 4096
    spacing: float                           # lattice step, > 0
    origin: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        whole(self.n, "n", 2, error=InvalidSpec)
        if self.n & (self.n - 1) != 0:
            raise InvalidSpec(f"n must be a power of two, got {self.n}")
        if self.n > _MAX_N:
            raise InvalidSpec(f"n must be at most {_MAX_N}, got {self.n}")
        real(self.spacing, "spacing", gt=0, error=InvalidSpec)
        ox, oy = self.origin
        real(ox, "origin coordinate", error=InvalidSpec)
        real(oy, "origin coordinate", error=InvalidSpec)

    @property
    def side(self) -> float:
        """Extent of one axis including the wrap cell: n * spacing."""
        return self.n * self.spacing

    def axis_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x of columns, y of rows) as 1-D arrays of length n."""
        ox, oy = self.origin
        idx = np.arange(self.n, dtype=np.float64)
        return ox + idx * self.spacing, oy + idx * self.spacing

    def point_of(self, i: int, j: int) -> Tuple[float, float]:
        ox, oy = self.origin
        return (ox + j * self.spacing, oy + i * self.spacing)

    def index_of(self, point: Tuple[float, float]) -> Tuple[int, int]:
        """Snap a plane point to the nearest site.

        Exact half-spacing ties go to the smaller index on each axis, so the
        snapped index is the lexicographically smallest among nearest sites.
        """
        ox, oy = self.origin
        x, y = point
        real(x, "point coordinate")
        real(y, "point coordinate")
        u = (x - ox) / self.spacing - 0.5
        v = (y - oy) / self.spacing - 0.5
        # 0 <= ceil(c) < n, tested on c, which is inf for a finite point
        # far enough off the lattice
        if not (-1.0 < u <= self.n - 1 and -1.0 < v <= self.n - 1):
            raise OutOfDomain(f"point {point} snaps outside the lattice")
        return (math.ceil(v), math.ceil(u))


class FieldKind(IntEnum):
    # Values double as the kind byte in the binary field format.
    TORUS_WHOLE_PLANE = 1
    DIRICHLET_SQUARE = 2


Box = Tuple[slice, slice]   # rows, columns of a block of lattice sites


def _box_bounds(spec: LatticeSpec, box: Box) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """((row start, stop), (column start, stop)) of a non-empty box that does
    not wrap around the lattice."""
    try:
        rows, cols = box
        ends = [(sl.start, sl.stop) for sl in (rows, cols)]
        ok = all(sl.step in (None, 1) for sl in (rows, cols))
    except (TypeError, ValueError, AttributeError):
        raise InvalidArgument(f"box must be a pair of slices, got {box!r}")
    bounds = tuple((int(whole(lo, "box start")), int(whole(hi, "box stop")))
                   for lo, hi in ends)
    if not (ok and all(0 <= lo < hi <= spec.n for lo, hi in bounds)):
        raise InvalidArgument(f"box {box!r} is not a non-empty block of the "
                              f"{spec.n} x {spec.n} lattice")
    return bounds


def _check_values(spec: LatticeSpec, values: np.ndarray,
                  offset: Optional[Tuple[int, int]] = None) -> None:
    """Finite float64 values over the whole lattice, or over the box of
    their shape at `offset`."""
    if offset is None:
        if not isinstance(values, np.ndarray) or values.shape != (spec.n, spec.n):
            raise InvalidSpec(f"values must be an ndarray of shape ({spec.n}, {spec.n})")
    else:
        if not isinstance(values, np.ndarray) or values.ndim != 2:
            raise InvalidSpec("values must be a 2-D ndarray")
        (i, j), (h, w) = offset, values.shape
        _box_bounds(spec, (slice(i, i + h), slice(j, j + w)))
    if values.dtype != np.float64:
        raise InvalidSpec(f"values must be float64, got {values.dtype}")
    if not np.all(np.isfinite(values)):
        raise InvalidSpec("field values must all be finite")


@dataclass(frozen=True, eq=False)
class FieldSample:
    """One realization of a lattice field."""

    spec: LatticeSpec
    kind: FieldKind
    seed: int
    values: np.ndarray      # (n, n) float64; row i <-> y, column j <-> x
    mean_removed: bool
    derived: bool = False   # True for shifted / rescaled descendants

    def __post_init__(self) -> None:
        _check_values(self.spec, self.values)
        uint64(self.seed, "seed", error=InvalidSpec)


@dataclass(frozen=True, eq=False)
class MollifiedField:
    """A field smoothed at scale epsilon, over the lattice or a box of it."""

    spec: LatticeSpec
    kind: FieldKind
    epsilon: float
    values: np.ndarray      # (h, w) over the box; (n, n) for the whole lattice
    localized: bool         # True when the truncated-window smoother was used
    z_epsilon: float        # retained kernel mass in (0, 1]; 1.0 when not localized
    source_seed: int
    offset: Tuple[int, int] = (0, 0)   # lattice site (i, j) of values[0, 0]

    def __post_init__(self) -> None:
        _check_values(self.spec, self.values, self.offset)
        check_scale(self.spec, self.epsilon)
        real(self.z_epsilon, "z_epsilon", gt=0, le=1, error=InvalidSpec)

    @property
    def box(self) -> Box:
        """The lattice sites `values` covers, as (rows, columns) slices."""
        (i, j), (h, w) = self.offset, self.values.shape
        return (slice(i, i + h), slice(j, j + w))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _half_plane_amplitude(n: int) -> np.ndarray:
    """n/(2*pi*|k|) over the `rfft2` half plane of the integer wavevector
    grid: rows fold to +-n/2, columns run 0..n/2.  |k| reads inf at the
    zero mode, so its amplitude is exactly 0.  Read-only: kept for the
    process up to n = _MEMO_N, where Monte Carlo trials sample many fields
    of one size, and built per call above it, where one field is the norm."""
    amp = _AMPLITUDES.get(n)
    if amp is None:
        ky = np.fft.fftfreq(n, d=1.0 / n)   # 0, 1, ..., n/2-1, -n/2, ..., -1
        kx = np.fft.rfftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2
        kmag = np.hypot(ky[:, None], kx[None, :])
        kmag[0, 0] = np.inf
        amp = n / (2.0 * np.pi * kmag)
        amp.flags.writeable = False
        if n <= _MEMO_N:
            _AMPLITUDES[n] = amp
    return amp


def _remove_mean(values: np.ndarray) -> np.ndarray:
    # Two subtraction passes reach the floating-point fixpoint; the residual
    # mean is below one ulp of the field scale.
    values = values - values.mean()
    values -= values.mean()
    return values


def sample_torus_gff(spec: LatticeSpec, seed: int) -> FieldSample:
    """Sample the mean-zero log-correlated field on the n x n torus.

    Synthesis is spectral: white noise is transformed with `rfft2`, each
    nonzero half-plane mode is scaled in place by n/(2*pi*|k|) with |k| the
    integer torus wavevector magnitude, the zero mode is dropped, and
    `irfft2` takes the real field back.  The noise is real, so the half
    plane carries every mode.  Increments obey
    Var(h(x) - h(y)) ~ (2/(2*pi)) * log(|x - y| / spacing) + O(1).
    """
    if spec.n < 8:
        raise InvalidSpec(f"torus sampling needs n >= 8, got {spec.n}")
    uint64(seed, "seed")
    n = spec.n
    rng = np.random.default_rng(seed)
    modes = np.fft.rfft2(rng.standard_normal((n, n)))
    modes *= _half_plane_amplitude(n)   # zero mode to 0
    values = _remove_mean(np.fft.irfft2(modes, s=(n, n)))
    return FieldSample(spec=spec, kind=FieldKind.TORUS_WHOLE_PLANE, seed=seed,
                       values=values, mean_removed=True)


def sample_dirichlet_gff(spec: LatticeSpec, seed: int) -> FieldSample:
    """Sample the zero-boundary field on the square of side (n-1)*spacing.

    Interior values are a sine series with independent Gaussian coefficients
    of variance 1/lambda_pq, where lambda_pq = (pi/S)^2 (p^2 + q^2) are the
    Dirichlet Laplacian eigenvalues of the square [0, S]^2.  All four boundary
    rows of sites are exactly zero.
    """
    if spec.n < 8:
        raise InvalidSpec(f"dirichlet sampling needs n >= 8, got {spec.n}")
    uint64(seed, "seed")
    n = spec.n
    side = (n - 1) * spec.spacing
    modes = np.arange(1, n - 1, dtype=np.float64)
    lam = (np.pi / side) ** 2 * (modes[:, None] ** 2 + modes[None, :] ** 2)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((n - 2, n - 2)) / np.sqrt(lam)
    from scipy import fft   # imported here to keep start-up light
    # DST-I applies a factor 2 per axis relative to the plain sine sum, and
    # the continuum-normalized eigenfunctions carry 2/side.
    interior = fft.dstn(coeff, type=1) / (2.0 * side)
    values = np.zeros((n, n), dtype=np.float64)
    values[1:-1, 1:-1] = interior
    return FieldSample(spec=spec, kind=FieldKind.DIRICHLET_SQUARE, seed=seed,
                       values=values, mean_removed=False)


# Field kind name (as the CLI and experiment configs spell it) -> sampler.
SAMPLERS: Dict[str, Callable[[LatticeSpec, int], FieldSample]] = {
    "torus": sample_torus_gff, "dirichlet": sample_dirichlet_gff}


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _bilinear(values: np.ndarray, col: np.ndarray, row: np.ndarray,
              wrap: bool) -> np.ndarray:
    """Bilinear interpolation at fractional (row, col) grid positions."""
    n = values.shape[0]
    c0 = np.floor(col).astype(np.int64)
    r0 = np.floor(row).astype(np.int64)
    tc = col - c0
    tr = row - r0
    if wrap:
        c0m, c1m = c0 % n, (c0 + 1) % n
        r0m, r1m = r0 % n, (r0 + 1) % n
    else:
        # Callers guarantee containment; the clamp only absorbs the exact
        # right/top edge where the fractional part is 0 or 1.
        c0m = np.clip(c0, 0, n - 2)
        r0m = np.clip(r0, 0, n - 2)
        tc = col - c0m
        tr = row - r0m
        c1m, r1m = c0m + 1, r0m + 1
    v00 = values[r0m, c0m]
    v01 = values[r0m, c1m]
    v10 = values[r1m, c0m]
    v11 = values[r1m, c1m]
    return ((1.0 - tr) * ((1.0 - tc) * v00 + tc * v01)
            + tr * ((1.0 - tc) * v10 + tc * v11))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _window_radius(epsilon: float) -> float:
    """rho = epsilon * log(1/epsilon), the truncation window's radius, for
    0 < epsilon < 1/e, where rho > 0 and grows as epsilon shrinks."""
    real(epsilon, "epsilon", gt=0, lt=math.exp(-1.0))
    return epsilon * math.log(1.0 / epsilon)


def _bump_profile(t: np.ndarray) -> np.ndarray:
    """C-infinity cutoff profile: 1 on t <= 1/2, 0 on t >= 1."""
    out = np.ones_like(t)
    out[t >= 1.0] = 0.0
    mid = (t > 0.5) & (t < 1.0)
    if np.any(mid):
        tm = t[mid]

        def f(s: np.ndarray) -> np.ndarray:
            r = np.zeros_like(s)
            pos = s > 0
            r[pos] = np.exp(-1.0 / s[pos])
            return r

        a = f(2.0 - 2.0 * tm)
        b = f(2.0 * tm - 1.0)
        out[mid] = a / (a + b)
    return out


def bump(x, epsilon: float):
    """Radial cutoff for the truncation window at scale epsilon.

    With rho = epsilon * log(1/epsilon), returns 1 for |x| <= rho/2, exactly 0
    for |x| >= rho, and the smooth profile f(2-2t)/(f(2-2t)+f(2t-1)) with
    t = |x|/rho and f(s) = exp(-1/s) in between.  Requires 0 < epsilon < 1/e
    so that rho > 0 and grows as epsilon shrinks.
    """
    rho = _window_radius(epsilon)
    t = np.abs(np.asarray(x, dtype=np.float64)) / rho
    out = _bump_profile(t)
    return float(out) if np.isscalar(x) else out


def normalizer_Z(epsilon: float, spacing: float) -> float:
    """Heat-kernel mass retained by the truncation window, in (0, 1].

    Computes 1 - Z directly (the cutoff complement integrates over
    [rho/2, rho] plus an analytic Gaussian tail beyond rho), so the result
    stays accurate when the complement is many orders below 1.  The radial
    quadrature step never exceeds spacing/4.
    """
    rho = _window_radius(epsilon)
    real(spacing, "spacing", gt=0)
    from scipy.integrate import simpson   # imported here to keep start-up light
    step = min(spacing / 4.0, rho / 8192.0)
    count = int(math.ceil((rho / 2.0) / step)) + 1
    if count % 2 == 0:
        count += 1  # odd point count for composite Simpson
    r = np.linspace(rho / 2.0, rho, count)
    psi = _bump_profile(r / rho)
    integrand = (1.0 - psi) * (2.0 * r / epsilon ** 2) * np.exp(-(r / epsilon) ** 2)
    complement = float(simpson(integrand, x=r)) + math.exp(-(rho / epsilon) ** 2)
    return 1.0 - complement


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def _scale_floor(spec: LatticeSpec, epsilon: float) -> None:
    """The smoothing-scale floor: InvalidArgument for an epsilon that is
    not a finite real, MollificationTooFine below 2*spacing."""
    real(epsilon, "epsilon")
    if epsilon < 2.0 * spec.spacing:
        raise MollificationTooFine(
            f"epsilon = {epsilon} is below 2*spacing = {2.0 * spec.spacing}")


def check_scale(spec: LatticeSpec, epsilon: float) -> None:
    """The smoothing-scale floor (`_scale_floor`), then InvalidArgument for
    an epsilon whose square overflows, which the plain kernel
    exp(-d^2/eps^2) divides by."""
    _scale_floor(spec, epsilon)
    if float(epsilon) * float(epsilon) == math.inf:
        raise InvalidArgument(
            f"epsilon = {epsilon} is too large: the kernel's epsilon ** 2 overflows")


def _torus_distances(spec: LatticeSpec) -> np.ndarray:
    """Torus distance from site 0 to each site along one axis."""
    n = spec.n
    return np.minimum(np.arange(n), n - np.arange(n)) * spec.spacing


def _axis_kernel(spec: LatticeSpec, epsilon: float) -> np.ndarray:
    """Unnormalized 1-D heat kernel exp(-d^2/eps^2) at the torus distances
    of one axis; the 2-D kernel at torus offsets is its outer product with
    itself, so the 2-D kernel sums to its sum squared."""
    return np.exp(-_torus_distances(spec) ** 2 / epsilon ** 2)


def mollify(field: FieldSample, epsilon: float,
            spectrum: Optional[np.ndarray] = None,
            box: Optional[Box] = None) -> MollifiedField:
    """Heat-kernel smoothing at time eps^2/2 by exact circular convolution.

    The kernel exp(-r^2/eps^2), sampled at torus offsets and normalized to
    unit lattice sum (so constants pass through up to rounding), is the
    outer product of the 1-D kernel k1 = exp(-d^2/eps^2) with itself, and
    its unit-sum normalization is the product of the 1-D ones.  Its spectrum
    is therefore g g^T with g = rfft(k1 / k1.sum()).real (k1 is even, so
    the transform is real): g at each row's folded frequency is the row
    multiplier, g itself the column multiplier.  The multipliers cost O(n).

    `spectrum`, when given, must be np.fft.rfft2(field.values): a caller
    that smooths one field at several scales takes that transform once.
    `box`, a (rows, columns) pair of slices inside the lattice, returns
    only those sites (default: the whole lattice), as `mollify_localized`
    does.

    The golden bytes depend on the order: the field's `rfft2` spectrum,
    times the row multiplier (into a new array, so the caller's spectrum is
    kept), then times the column multiplier, then the two steps of
    `irfft2`: `ifft` along the rows axis, then `irfft` of each row.  A box
    keeps its rows between the two steps and its columns after the second;
    each output row is its own `irfft`, so a box holds its full-lattice
    values bit for bit.
    """
    check_scale(field.spec, epsilon)
    n = field.spec.n
    if spectrum is None:
        spectrum = np.fft.rfft2(field.values)
    elif not (isinstance(spectrum, np.ndarray) and spectrum.dtype == np.complex128
              and spectrum.shape == (n, n // 2 + 1)):
        raise InvalidSpec(
            f"spectrum must be the field's rfft2, complex128 of shape ({n}, {n // 2 + 1}), "
            f"got {getattr(spectrum, 'dtype', type(spectrum).__name__)} of shape "
            f"{getattr(spectrum, 'shape', None)}")
    if box is None:
        box = (slice(0, n), slice(0, n))
    (r0, r1), (c0, c1) = _box_bounds(field.spec, box)
    k1 = _axis_kernel(field.spec, epsilon)
    g = np.fft.rfft(k1 / k1.sum()).real
    product = spectrum * np.concatenate((g, g[-2:0:-1]))[:, None]
    product *= g[None, :]
    rows = np.fft.ifft(product, n, axis=0)[r0:r1]
    values = np.ascontiguousarray(np.fft.irfft(rows, n, axis=1)[:, c0:c1])
    return MollifiedField(spec=field.spec, kind=field.kind, epsilon=float(epsilon),
                          values=values, localized=False,
                          z_epsilon=1.0, source_seed=field.seed, offset=(r0, c0))


def _stencil_reach(spec: LatticeSpec, epsilon: float) -> Tuple[float, int]:
    """(rho, m): the localized window's radius and its stencil half-width
    m = ceil(rho / spacing) in sites, checking the scale as
    `mollify_localized` does: the floor, then the window's eps < 1/e, which
    is below any scale `check_scale` refuses as too large."""
    _scale_floor(spec, epsilon)
    rho = _window_radius(epsilon)
    m = int(math.ceil(rho / spec.spacing))
    if 2 * m + 1 > spec.n:
        raise InvalidArgument(
            f"truncation window radius {rho} exceeds the torus half-width")
    return rho, m


def _wrapped(start: int, stop: int, m: int, n: int) -> Tuple[slice, ...]:
    """Slices holding the sites start - m .. stop + m - 1 taken mod n, the
    rows or columns of a box's padded block, each site once."""
    lo, hi = start - m, stop + m
    if hi - lo >= n:
        return (slice(0, n),)
    if lo < 0:
        return (slice(lo + n, n), slice(0, hi))
    if hi > n:
        return (slice(lo, n), slice(0, hi - n))
    return (slice(lo, hi),)


def _localized_range(field: FieldSample, epsilon: float,
                     box: Optional[Box] = None) -> Tuple[float, float]:
    """(lo, hi) with lo <= v <= hi for every value v that
    `mollify_localized(field, epsilon, box=box)` returns, read from the raw
    field alone; checks the scale as the smoother does.  With `box` the raw
    values are read over its padded block (the box plus m sites on each
    side, wrapped around the torus), which holds every value a box site
    weighs; without it, over the whole field, which bounds every box.

    With h the raw values read and A = max |h| over them,
    lo = min(min(h), 0) - slack and hi = max(max(h), 0) + slack,
    slack = 2 * ((2m + 1)^2 + 4) * eps * A (eps the float64 epsilon,
    u = eps / 2 the unit roundoff).  Each value is acc / S_f, S_f the
    float sum of the (2m + 1)^2 mirrored stencil entries and acc the float
    sum of T <= (m + 1)^2 kept terms, tap s times the sum of the 1, 2 or 4
    field values it weighs (`mollify_localized` states the order), all
    within m sites of the output site.
    - Exact arithmetic: the kept taps weigh K <= S_e, the exact sum of the
      stencil's float entries, because `_TAP_FLOOR` only drops positive
      taps.  So the exact acc lies in [m0 * K, M0 * K], hence in
      [m0 * S_e, M0 * S_e], with m0 = min(min(h), 0) <= 0 <= M0 =
      max(max(h), 0).  So min(h) itself is no bound: on a positive
      constant field h, dropped taps and rounding leave values below h.
    - Rounding: forming one term rounds at most three times, and the left
      fold of T terms from zero at most T - 1 more, so the float acc is
      within gamma_(T+2) * A * S_e of the exact one, gamma_k = k u / (1 - k u).
      S_e / S_f <= 1 + gamma_(L), L = (2m + 1)^2 (any summation order), and
      the division rounds once more.
    - Together v >= (m0 - gamma_(T+2) A)(1 + gamma_L)(1 + u), which is above
      lo since |m0| <= A and gamma_k < 1.01 k u while k u < 1e-8 (m <= n/2
      <= 2048); hi is the mirror image.
    """
    _, m = _stencil_reach(field.spec, epsilon)
    n, values = field.spec.n, field.values
    blocks = [values]
    if box is not None:
        (r0, r1), (c0, c1) = _box_bounds(field.spec, box)
        blocks = [values[rs, cs] for rs in _wrapped(r0, r1, m, n)
                  for cs in _wrapped(c0, c1, m, n)]
    low = min(float(b.min()) for b in blocks)
    high = max(float(b.max()) for b in blocks)
    slack = 2.0 * ((2 * m + 1) ** 2 + 4) * np.finfo(np.float64).eps * max(-low, high)
    return min(low, 0.0) - slack, max(high, 0.0) + slack


def mollify_localized(field: FieldSample, epsilon: float,
                      box: Optional[Box] = None) -> MollifiedField:
    """Heat-kernel smoothing through the compact truncation window.

    The kernel exp(-r^2/eps^2) is multiplied by the radial cutoff `bump`,
    sampled on the (2m+1)^2 site stencil covering radius
    rho = eps*log(1/eps), and applied by direct summation.  The output at a
    site therefore depends on the field only within distance rho: entries
    beyond rho are exactly zero, and a fixed summation order makes the
    locality bitwise.  Division by the stencil sum preserves constants;
    `z_epsilon` records the stencil sum relative to the full-torus kernel
    sum.

    `box`, a (rows, columns) pair of slices inside the lattice, smooths only
    those sites (default: the whole lattice), reading the padded block: the
    box plus m = ceil(rho / spacing) sites on each side, wrapped around the
    torus.  The golden bytes depend on the summation rule, which adds the
    two (or four) block values a mirrored tap weighs before multiplying by
    it.  Only the quadrant s[p, q], 0 <= p, q <= m, is computed, and only
    its taps above DBL_EPSILON are kept.  For output site (r, c) of block
    values x: acc = 0; for p = 0..m in order, V = x[r-p] + x[r+p] as rows
    (x[r] at p = 0); for each kept q = 0..m in order,
    acc = acc + s[p, q] * (V[c-q] + V[c+q]) (V[c] at q = 0); the value is
    acc / stencil_sum, the sum of the mirrored (2m+1)^2 stencil.  The block
    is flat with row stride w + 2m, and each tile of rows (`_TILE_SITES`
    lanes) forms V once per p in one buffer and each pair in another, each
    step one contiguous 1-D pass over the tile's lanes: three element passes
    per four taps.  A row's last 2m lanes are pad lanes, summed across the
    row boundary and dropped.  Every site runs the same operations in any
    block, so a box holds its full-lattice values bit for bit.  Verified on
    x86-64 only.
    """
    spec = field.spec
    n, delta = spec.n, spec.spacing
    rho, m = _stencil_reach(spec, epsilon)
    if box is None:
        box = (slice(0, n), slice(0, n))
    (r0, r1), (c0, c1) = _box_bounds(spec, box)
    # One quadrant of the mirror-symmetric stencil: tap (p, q) weighs the
    # offsets (+-p, +-q).
    off = np.arange(m + 1, dtype=np.float64) * delta
    radius = np.hypot(off[:, None], off[None, :])
    quad = _bump_profile(radius / rho) * np.exp(-(radius / epsilon) ** 2)
    fold = np.abs(np.arange(-m, m + 1))
    stencil_sum = quad[np.ix_(fold, fold)].sum()
    # Full-torus kernel sum for the retained-mass diagnostic.
    full_sum = _axis_kernel(spec, epsilon).sum() ** 2
    h, w = r1 - r0, c1 - c0
    wide = w + 2 * m   # the flat padded block's row stride
    flat = field.values[np.ix_(np.arange(r0 - m, r1 + m) % n,
                               np.arange(c0 - m, c1 + m) % n)].ravel()
    taps = [(p, row) for p in range(m + 1)
            if (row := [(q, quad[p, q]) for q in np.flatnonzero(quad[p] > _TAP_FLOOR)])]
    padded = np.zeros(h * wide)
    rows = min(h, max(1, _TILE_SITES // wide))
    mirrored, pair = np.empty(rows * wide), np.empty(rows * wide)
    with np.errstate(over="ignore", invalid="ignore"):   # pad lanes may overflow
        for t in range(0, h, rows):
            th = min(rows, h - t)
            lanes, here = (th - 1) * wide + w, (t + m) * wide
            out, sums = pair[:lanes], padded[t * wide:t * wide + lanes]
            for p, row in taps:
                v = flat[here:here + th * wide] if p == 0 else np.add(
                    flat[here - p * wide:here + (th - p) * wide],
                    flat[here + p * wide:here + (th + p) * wide], out=mirrored[:th * wide])
                for q, s in row:
                    if q == 0:
                        np.multiply(v[m:m + lanes], s, out=out)
                    else:
                        np.add(v[m - q:m - q + lanes], v[m + q:m + q + lanes], out=out)
                        out *= s
                    sums += out
    values = padded.reshape(h, wide)[:, :w] / stencil_sum
    return MollifiedField(spec=spec, kind=field.kind, epsilon=float(epsilon),
                          values=values, localized=True,
                          z_epsilon=float(stencil_sum / full_sum),
                          source_seed=field.seed, offset=(r0, c0))


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def add_function(field: FieldSample, f: Callable) -> FieldSample:
    """Add a deterministic function of the plane point to the field.

    `f` is called as f(x, y); array arguments are attempted first, with a
    scalar fallback.  The result must be finite on every site.  The output is
    marked derived and loses the mean-removed flag.
    """
    xs, ys = field.spec.axis_coords()
    gx, gy = np.meshgrid(xs, ys, indexing="xy")  # gx varies along columns
    try:
        shift = np.asarray(f(gx, gy), dtype=np.float64)
        if shift.shape != gx.shape:
            shift = np.broadcast_to(shift, gx.shape).astype(np.float64)
    except Exception:
        shift = np.vectorize(lambda a, b: float(f(a, b)))(gx, gy)
    if not np.all(np.isfinite(shift)):
        raise InvalidArgument("f must be finite on every lattice site")
    values = field.values + shift
    return FieldSample(spec=field.spec, kind=field.kind, seed=field.seed,
                       values=np.ascontiguousarray(values),
                       mean_removed=False, derived=True)


def _is_pow2(x: float) -> bool:
    """True when x, a finite real, is exactly 2^k for an integer k (frexp's
    mantissa is negative below 0 and 0 at 0)."""
    return math.frexp(x)[0] == 0.5


def _dyadic_exponent(a: float, what: str = "scale factor") -> int:
    """k with a == 2^k exactly; InvalidArgument naming `what` for any
    other a."""
    if not _is_pow2(real(a, what)):
        raise InvalidArgument(f"{what} must be a power of two, got {a!r}")
    return math.frexp(a)[1] - 1


def rescale_field(field: FieldSample, a: float, b: Tuple[float, float],
                  q_hat: float) -> FieldSample:
    """Lattice realization of x -> h(a*x + b) + q_hat*log(a).

    `a` must be a power of two with |log2 a| <= log2(n) - 3 and `b` a lattice
    point.  For a >= 1 every a-th site of the window is kept (n/a sites per
    axis at the original spacing); for a < 1 the window is refined by
    bilinear interpolation (n sites per axis).  Torus fields wrap; square
    fields must keep the window inside the domain.
    """
    spec = field.spec
    n, delta = spec.n, spec.spacing
    k = _dyadic_exponent(a)
    if abs(k) > int(math.log2(n)) - 3:
        raise InvalidArgument(
            f"|log2(a)| = {abs(k)} exceeds log2(n) - 3 = {int(math.log2(n)) - 3}")
    real(q_hat, "q_hat")
    for c in b:
        real(c, "b coordinate")
    ox, oy = spec.origin
    bx_f = (b[0] - ox) / delta
    by_f = (b[1] - oy) / delta
    if abs(bx_f - round(bx_f)) > 1e-9 or abs(by_f - round(by_f)) > 1e-9:
        raise InvalidArgument(f"b = {b} is not a lattice point")
    bj, bi = int(round(bx_f)), int(round(by_f))
    wrap = field.kind == FieldKind.TORUS_WHOLE_PLANE

    if k >= 0:
        step = 1 << k
        n_out = n // step
        rows = step * np.arange(n_out) + bi
        cols = step * np.arange(n_out) + bj
        if wrap:
            rows, cols = rows % n, cols % n
        elif rows.min() < 0 or cols.min() < 0 or rows.max() > n - 1 or cols.max() > n - 1:
            raise OutOfDomain("rescaled window exits the square domain")
        values = field.values[np.ix_(rows, cols)].astype(np.float64)
    else:
        n_out = n
        pos_r = a * np.arange(n, dtype=np.float64) + bi
        pos_c = a * np.arange(n, dtype=np.float64) + bj
        if not wrap and (pos_r.min() < 0 or pos_c.min() < 0
                         or pos_r.max() > n - 1 or pos_c.max() > n - 1):
            raise OutOfDomain("refined window exits the square domain")
        rr, cc = np.meshgrid(pos_r, pos_c, indexing="ij")
        values = _bilinear(field.values, cc, rr, wrap=wrap)

    values = values + q_hat * math.log(a)
    out_spec = LatticeSpec(n=n_out, spacing=delta, origin=spec.origin)
    return FieldSample(spec=out_spec, kind=field.kind, seed=field.seed,
                       values=np.ascontiguousarray(values),
                       mean_removed=False, derived=True)
