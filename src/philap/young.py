"""Numeric calculus of Young functions.

Evaluation with domain guards, inverses by one grid-bracketed
safeguarded secant (shared with the Luxemburg norm), growth indices by
log-grid sampling, Young (Legendre) conjugation, the critical-growth
Sobolev conjugate, growth ordering, and an oscillating generator with
distinct lower and upper indices at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ConstructionError,
    EvalDomainError,
    MissingIndicesError,
    OutOfRangeError,
    SingularIntegrandError,
)

__all__ = [
    "EVAL_LO_DEFAULT",
    "EVAL_HI_DEFAULT",
    "INDEX_GRID_LO",
    "INDEX_GRID_HI",
    "INDEX_GRID_POINTS",
    "ROOT_RTOL_ITERS",
    "IndexPair",
    "Ordering",
    "PathologicalParams",
    "YoungFunction",
    "build_pathological",
    "compute_indices",
    "conjugate_inverse",
    "cumulative_primitive",
    "delta2_nabla2",
    "diverging_maxima",
    "exp_young",
    "inverse_value",
    "log_grid",
    "log_power_young",
    "ordering",
    "power_young",
    "power_over_p_young",
    "scaling_bound_lower",
    "scaling_bound_upper",
    "sobolev_conjugate",
    "theta_growth_integrals",
    "young_conjugate",
    "young_from_derivative",
]

EVAL_LO_DEFAULT = 1e-8
EVAL_HI_DEFAULT = 1e30
INDEX_GRID_LO = 1e-4
INDEX_GRID_HI = 1e6
INDEX_GRID_POINTS = 2000
# rounds of regula falsi per root bracket.  A row whose log bracket is wider
# than w0 * 2**(-(j - 2) / 2) after j rounds, w0 its first width, bisects
# next, so it is at most w0 * 2**(-(j - 3) / 2) wide; one narrower than
# 2**-52 is a flip pair.  A cell of the ROOT_GRID-point grid over any range
# of positive doubles has w0 < log(2**2098) / 128 < 2**3.51, so it closes
# within 3 + 2 * (52 + 3.51) < 115 rounds; the rest is room for rounding.
ROOT_RTOL_ITERS = 120
ROOT_GRID = 129  # points of the log grid that brackets each target in one cell


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Log-spaced sample grid on [lo, hi]."""
    if not (0.0 < lo < hi) or n < 2:
        raise ConstructionError(f"invalid log grid [{lo}, {hi}] with {n} points")
    return np.geomspace(lo, hi, n)


def _regula_falsi(f, a, b, fa, fb, iters: int, name: str) -> np.ndarray:
    """Close brackets 0 < a < b with fa > 0 >= fb to flip pairs (adjacent
    doubles) in lockstep; f(k, x) is the bracket function of rows k at x,
    near linear in log x.  Illinois regula falsi on (log x, f) (Dowell &
    Jarratt, BIT 11, 1971) steps from the end of smaller |f|: from the far
    end a wide bracket magnifies rounding.  A row whose log bracket lags
    half the pace of bisection from its first width (after two free
    rounds), or whose f is infinite, takes the geometric midpoint.  Trials
    lie an ulp inside the bracket, and each row takes the path it takes
    alone.  Updates the arrays in place and returns b; a bracket still open
    after iters rounds raises EvalDomainError naming name."""
    w0 = np.log1p((b - a) / a)  # log(b / a) without cancellation
    side = np.zeros(a.size, dtype=np.int8)  # end replaced last round: -1 a, +1 b
    bisect = np.zeros(a.size, dtype=bool)
    for j in range(iters + 1):
        k = np.flatnonzero(np.nextafter(a, np.inf) < b)
        if not k.size:
            return b
        if j == iters:
            raise EvalDomainError(f"{name} left a bracket open after {iters} rounds")
        ak, bk, fak, fbk = a[k], b[k], fa[k], fb[k]
        near_a = np.abs(fak) <= np.abs(fbk)
        x0 = np.where(near_a, ak, bk)
        with np.errstate(invalid="ignore", over="ignore"):
            x = x0 + x0 * np.expm1(np.where(near_a, fak, fbk) / (fak - fbk)
                                   * np.log1p((bk - ak) / ak))
        geo = bisect[k] | ~np.isfinite(fak - fbk) | ~np.isfinite(x)
        x[geo] = np.sqrt(ak[geo]) * np.sqrt(bk[geo])  # a * b under- or overflows
        x = np.minimum(np.maximum(x, np.nextafter(ak, np.inf)), np.nextafter(bk, 0.0))
        fx = f(k, x)
        high = fx > 0.0
        hk, lk = k[high], k[~high]
        a[hk], fa[hk] = x[high], fx[high]
        b[lk], fb[lk] = x[~high], fx[~high]
        # Illinois: halving the kept end's f makes the next secant cross
        fb[hk[side[hk] == -1]] *= 0.5
        fa[lk[side[lk] == 1]] *= 0.5
        side[k] = np.where(high, -1, 1)
        # all rows start together, so round j + 1 is every open row's (j + 1)-th
        bisect[k] = np.log1p((b[k] - a[k]) / a[k]) > w0[k] * 0.5 ** ((j - 1) / 2)


def _values_or_inf(fn, x: np.ndarray) -> np.ndarray:
    """fn on an increasing grid, +inf from the first point where it fails:
    an increasing function can overflow below its trusted bound."""
    vals, ok, bad = np.full(x.size, np.inf), 0, x.size + 1  # fn works on x[:ok], not x[:bad]
    while bad - ok > 1:
        mid = x.size if bad > x.size else (ok + bad) // 2
        try:
            vals[ok:mid], ok = fn(x[ok:mid]), mid
        except EvalDomainError:
            if mid == 1:
                raise
            bad = mid
    return vals


def _solve_increasing(fn, target, lo, hi, iters: int = ROOT_RTOL_ITERS,
                      name: str = "root finder") -> np.ndarray:
    """Smallest double s in [lo, hi] with fn(s) >= target, fn increasing and
    elementwise, vectorized over target.  One fn call on a ROOT_GRID-point
    log grid gives each target t a cell with fn(a) < t <= fn(b), closed by
    _regula_falsi on (log s, log(t / fn(s))).  A target at or below fn(lo)
    gives lo, one above fn(hi) gives hi."""
    t = np.atleast_1d(np.asarray(target, dtype=float))
    grid = np.geomspace(lo, hi, ROOT_GRID)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # clipped at 0 and made monotone, the samples bracket every positive t
        vals = np.maximum.accumulate(np.maximum(_values_or_inf(fn, grid), 0.0))
        i = np.searchsorted(vals, t)
        s = np.where(i == 0, float(lo), float(hi))
        rows = np.flatnonzero((i > 0) & (i < ROOT_GRID))
        tr, ir = t[rows], i[rows]
        s[rows] = _regula_falsi(lambda k, x: np.log(tr[k] / np.maximum(fn(x), 0.0)),
                                grid[ir - 1], grid[ir], np.log(tr / vals[ir - 1]),
                                np.log(tr / vals[ir]), iters, f"{name}: regula falsi")
    return s


@dataclass(frozen=True)
class IndexPair:
    """Lower/upper growth indices with at-infinity window estimates."""

    lower: float
    upper: float
    at_infinity_lower: float
    at_infinity_upper: float

    def __post_init__(self):
        chain = (self.lower, self.at_infinity_lower, self.at_infinity_upper, self.upper)
        for a, b in zip(chain, chain[1:]):
            if not (a <= b or math.isclose(a, b, rel_tol=1e-12)):
                raise ConstructionError(f"index chain violated: {chain}")


class YoungFunction:
    """Convex Orlicz-space generator with guarded vectorized evaluation.

    Wraps callables for the value and derivative (optionally the second
    derivative) together with the interval [t_lo, t_hi] on which the
    evaluation is numerically trustworthy.  Values above t_hi, negative
    arguments, and non-finite results raise EvalDomainError instead of
    propagating infinities.  The value at 0 is 0 and the derivative at 0
    is taken as its one-sided limit 0.
    """

    def __init__(self, value, derivative, second_derivative=None,
                 t_lo: float = EVAL_LO_DEFAULT, t_hi: float = EVAL_HI_DEFAULT,
                 name: str = "psi"):
        self._value = value
        self._derivative = derivative
        self._second = second_derivative
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        self.name = name
        self._indices: Optional[IndexPair] = None

    def __repr__(self):
        return f"YoungFunction({self.name}, domain=[{self.t_lo:.1e}, {self.t_hi:.1e}])"

    @property
    def has_second(self) -> bool:
        return self._second is not None

    @property
    def indices(self) -> Optional[IndexPair]:
        return self._indices

    def cache_indices(self, pair: IndexPair) -> None:
        self._indices = pair

    def _apply(self, fn, t):
        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        # one min and one max pass clear the argument and the result: NaN
        # propagates into both and fails every comparison; inf or an
        # infinite t_hi takes the full check
        mn, mx = flat.min(initial=math.inf), flat.max(initial=0.0)
        if not (mn >= 0.0 and mx <= self.t_hi < math.inf):
            if not np.all(np.isfinite(flat)) or mn < 0.0:
                raise EvalDomainError(f"{self.name}: argument outside [0, inf)")
            if mx > self.t_hi:
                raise EvalDomainError(
                    f"{self.name}: argument {mx:.6g} above trusted range {self.t_hi:.3g}")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if mn > 0.0:
                # no masked copies in the common all-positive case: large
                # temporaries cost the allocator fresh pages
                out = np.asarray(fn(flat), dtype=float)
            else:
                pos = flat > 0.0
                out = np.zeros_like(flat)
                if pos.any():
                    out[pos] = fn(flat[pos])
        if out.size and not (math.isfinite(out.min()) and math.isfinite(out.max())):
            raise EvalDomainError(f"{self.name}: non-finite value inside domain")
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def __call__(self, t):
        return self._apply(self._value, t)

    def prime(self, t):
        return self._apply(self._derivative, t)

    def second(self, t):
        if self._second is None:
            raise EvalDomainError(f"{self.name}: second derivative not available")
        return self._apply(self._second, t)


def diverging_maxima(grid: np.ndarray, vals: np.ndarray) -> bool:
    """True when the per-decade maxima of vals keep growing: a monotone run
    growing by >= 8x across the last four decades marks a ratio that is
    unbounded at infinity."""
    buckets = np.floor(np.log10(grid)).astype(int)
    maxima = np.array([vals[buckets == b].max() for b in np.unique(buckets)])
    if maxima.size < 4:
        return False
    tail = maxima[-4:]
    return bool(np.all(np.diff(tail) > 0) and tail[-1] >= 8.0 * tail[0])


def compute_indices(psi: YoungFunction, grid: Optional[np.ndarray] = None,
                    cache: bool = True) -> IndexPair:
    """Growth indices of psi sampled on a log grid.

    lower/upper are grid extrema of t psi'(t)/psi(t); the at-infinity
    estimates come from the top two decades.  A monotone, fast-growing
    trend of per-decade maxima marks an unbounded ratio and reports the
    upper estimates as infinity.
    """
    if grid is None:
        hi = min(INDEX_GRID_HI, psi.t_hi)
        lo = min(INDEX_GRID_LO, hi / 1e10)
        lo = max(lo, psi.t_lo)
        grid = log_grid(lo, hi, INDEX_GRID_POINTS)
    grid = np.asarray(grid, dtype=float)
    decades = math.log10(grid[-1] / grid[0])
    if grid.size < 1000 or decades < 8.0 - 1e-9:
        raise ConstructionError(
            f"index grid needs >= 1000 points over >= 8 decades, got {grid.size} over {decades:.2f}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = grid * psi.prime(grid) / psi(grid)
    if not np.all(np.isfinite(ratio)):
        raise EvalDomainError(f"{psi.name}: non-finite index ratio on sample grid")
    lower = float(ratio.min())
    upper = float(ratio.max())

    window = grid >= grid[-1] / 100.0
    at_lo = float(ratio[window].min())
    at_up = float(ratio[window].max())

    if diverging_maxima(grid, ratio):
        upper = math.inf
        at_up = math.inf
    pair = IndexPair(lower, upper, at_lo, at_up)
    if cache:
        psi.cache_indices(pair)
    return pair


def _require_indices(psi: YoungFunction) -> IndexPair:
    if psi.indices is None:
        raise MissingIndicesError(
            f"{psi.name}: call compute_indices before using index-based bounds")
    return psi.indices


def scaling_bound_lower(psi: YoungFunction, k) -> np.ndarray:
    """min(k^i, k^s) with (i, s) the cached growth indices of psi."""
    pair = _require_indices(psi)
    k = np.asarray(k, dtype=float)
    return np.minimum(k ** pair.lower, k ** pair.upper)


def scaling_bound_upper(psi: YoungFunction, k) -> np.ndarray:
    """max(k^i, k^s) with (i, s) the cached growth indices of psi."""
    pair = _require_indices(psi)
    k = np.asarray(k, dtype=float)
    return np.maximum(k ** pair.lower, k ** pair.upper)


def delta2_nabla2(psi: YoungFunction) -> tuple[bool, bool]:
    """Doubling flags from the at-infinity estimates of the index ratio."""
    pair = _require_indices(psi)
    return (math.isfinite(pair.at_infinity_upper), pair.at_infinity_lower > 1.0)


def young_conjugate(psi: YoungFunction) -> YoungFunction:
    """Legendre transform max_{s>=0} (s t - psi(s)).

    The maximizer solves psi'(s) = t by monotone root-find; a root whose
    derivative misses t (psi' not monotone or not continuous there)
    raises OutOfRangeError.  The derivative of the conjugate is the
    maximizer itself.
    """
    lo, hi = psi.t_lo, psi.t_hi
    d_lo = float(psi.prime(lo))
    d_hi = float(psi.prime(hi))

    def maximizer(t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        below = t < d_lo
        above = t > d_hi
        if below.any() or above.any():
            bad = t[below | above]
            raise OutOfRangeError(
                f"conj({psi.name}): maximizer escapes [{lo:.1e}, {hi:.1e}] "
                f"for t={bad[:3]!r}")
        s = _solve_increasing(psi.prime, t, lo, hi, name=f"conj({psi.name})")
        consistent = np.abs(psi.prime(s) - t) <= 1e-6 * np.maximum(t, 1e-300)
        if not consistent.all():
            raise OutOfRangeError(
                f"conj({psi.name}): root-find of the derivative inconsistent "
                f"(not continuous and increasing) at t={t[~consistent][:3]!r}")
        return s

    def value(t):
        s = maximizer(t)
        return s * np.atleast_1d(np.asarray(t, float)) - psi(s)

    return YoungFunction(value, maximizer,
                         t_lo=d_lo * (1.0 + 1e-12), t_hi=d_hi * (1.0 - 1e-12),
                         name=f"conj({psi.name})")


def inverse_value(psi: YoungFunction, y) -> np.ndarray:
    """psi^{-1}(y) by monotone root-find on the value."""
    return _solve_increasing(psi, y, psi.t_lo, psi.t_hi, name=f"inverse_value({psi.name})")


def conjugate_inverse(psi: YoungFunction, y) -> np.ndarray:
    """Inverse of the Young conjugate evaluated at y.

    Uses the Legendre parametrization: with s* solving
    s psi'(s) - psi(s) = y, the answer is psi'(s*).  One monotone
    root-find instead of two nested ones.
    """
    def pivot(s):
        return s * psi.prime(s) - psi(s)
    s_star = _solve_increasing(pivot, y, psi.t_lo, psi.t_hi, name=f"conjugate_inverse({psi.name})")
    return psi.prime(s_star)


class Ordering(Enum):
    MUCH_LESS = "much_less"
    LESS = "less"
    NEITHER = "neither"


def _tail_window(psi1: YoungFunction, psi2: YoungFunction, factor: float,
                 n_tail: int = 160):
    hi = min(psi1.t_hi, psi2.t_hi / max(factor, 1.0))
    lo = hi / 1e4
    if lo <= max(psi1.t_lo, psi2.t_lo):
        raise EvalDomainError(
            f"ordering({psi1.name}, {psi2.name}): shared tail shorter than 4 decades")
    return log_grid(lo, hi, n_tail)


def ordering(psi1: YoungFunction, psi2: YoungFunction,
             etas=(0.1, 1.0, 10.0), c_exponents=range(0, 31)) -> Ordering:
    """Growth comparison of psi1 against psi2 on the shared domain tail.

    MUCH_LESS when psi1(t)/psi2(eta t) decays monotonically toward zero
    for every tested eta; LESS when psi1(t) <= psi2(c t) on the tail for
    some dyadic c; the index shortcut s_{psi1} < i_{psi2} is applied
    first.  NEITHER is a valid answer.
    """
    try:
        p1 = psi1.indices or compute_indices(psi1)
        p2 = psi2.indices or compute_indices(psi2)
        if p1.upper < p2.lower - 1e-9:
            return Ordering.MUCH_LESS
    except (EvalDomainError, ConstructionError):
        pass

    much_less = True
    for eta in etas:
        try:
            t = _tail_window(psi1, psi2, eta)
        except EvalDomainError:
            much_less = False
            break
        ratio = psi1(t) / psi2(eta * t)
        monotone = np.all(np.diff(ratio) <= 1e-9 * ratio[:-1] + 1e-300)
        vanishing = ratio[-1] <= 1e-2 * ratio[0]
        if not (monotone and vanishing):
            much_less = False
            break
    if much_less:
        return Ordering.MUCH_LESS

    for j in c_exponents:
        c = 2.0 ** j
        try:
            t = _tail_window(psi1, psi2, c)
        except EvalDomainError:
            continue
        if np.all(psi1(t) <= psi2(c * t) * (1.0 + 1e-10)):
            return Ordering.LESS
    return Ordering.NEITHER


# ---------------------------------------------------------------------------
# constructors


def power_young(p: float, coeff: float = 1.0, name: Optional[str] = None) -> YoungFunction:
    """c t^p with exact cached indices (p, p)."""
    if not (1.0 < p < math.inf and coeff > 0.0):
        raise ConstructionError(f"power generator needs finite p > 1 and coeff > 0, got p={p}")
    psi = YoungFunction(
        lambda t: coeff * t ** p,
        lambda t: coeff * p * t ** (p - 1.0),
        lambda t: coeff * p * (p - 1.0) * t ** (p - 2.0),
        t_lo=1e-30,  # powers stay accurate far below the generic floor and
        # their critical conjugates need the long tables it enables
        name=name or f"{coeff:g}*t^{p:g}")
    psi.cache_indices(IndexPair(p, p, p, p))
    return psi


def power_over_p_young(p: float) -> YoungFunction:
    """t^p / p, the standard self-dual family under conjugation."""
    return power_young(p, coeff=1.0 / p, name=f"t^{p:g}/{p:g}")


def exp_young() -> YoungFunction:
    """e^t - t - 1; upper index unbounded at infinity."""
    return YoungFunction(
        lambda t: np.expm1(t) - t,
        lambda t: np.expm1(t),
        lambda t: np.exp(t),
        t_hi=600.0, name="exp(t)-t-1")


@dataclass(frozen=True)
class PathologicalParams:
    """Parameters of the oscillating generator with indices q < p.

    eps must satisfy 0 < eps < min(4, (q-1)/beta) so that both
    derivatives stay positive; alpha and beta are the stored midpoint
    and half-width of (q, p) and must match their recomputation exactly.
    """

    p: float
    q: float
    eps: float
    alpha: float
    beta: float

    @classmethod
    def make(cls, p: float, q: float, eps: float) -> "PathologicalParams":
        return cls(p=p, q=q, eps=eps, alpha=(p + q) / 2.0, beta=(p - q) / 2.0)

    def __post_init__(self):
        if not (1.0 < self.q < self.p):
            raise ConstructionError(f"need 1 < q < p, got q={self.q}, p={self.p}")
        if self.alpha != (self.p + self.q) / 2.0 or self.beta != (self.p - self.q) / 2.0:
            raise ConstructionError("alpha/beta inconsistent with p, q")
        bound = min(4.0, (self.q - 1.0) / self.beta)
        if not (0.0 < self.eps < bound):
            raise ConstructionError(
                f"eps={self.eps} outside (0, {bound:g}) for p={self.p}, q={self.q}")


def build_pathological(params: PathologicalParams) -> YoungFunction:
    """Oscillating generator t^alpha e^{eta(t)} with distinct indices.

    eta is quadratic below t = e and rides a bounded oscillation in
    eps*log(log t) above it; both branches and their first two
    derivatives agree at the switch point.  The index ratio equals
    alpha + t eta'(t) and sweeps the full interval [q, p] at infinity.
    """
    a, b, eps = params.alpha, params.beta, params.eps
    E = math.e
    shift = b * eps / (1.0 + eps * eps)

    def eta_pieces(t: np.ndarray):
        """Return (eta, t*eta', t^2*eta'') evaluated branchwise."""
        t = np.asarray(t, dtype=float)
        eta = np.empty_like(t)
        teta1 = np.empty_like(t)
        t2eta2 = np.empty_like(t)
        low = t <= E
        if low.any():
            tl = t[low]
            eta[low] = b * eps / (2.0 * E * E) * (E - tl) ** 2 - shift
            teta1[low] = b * eps / (E * E) * tl * (tl - E)
            t2eta2[low] = b * eps / (E * E) * tl * tl
        hig = ~low
        if hig.any():
            th = t[hig]
            lt = np.log(th)
            z = eps * np.log(lt)
            sin_z = np.sin(z)
            cos_z = np.cos(z)
            eta[hig] = b * lt / (1.0 + eps * eps) * (sin_z - eps * cos_z)
            teta1[hig] = b * sin_z
            t2eta2[hig] = b * ((eps / lt) * cos_z - sin_z)
        return eta, teta1, t2eta2

    def value(t):
        eta, _, _ = eta_pieces(t)
        return t ** a * np.exp(eta)

    def derivative(t):
        eta, teta1, _ = eta_pieces(t)
        return t ** (a - 1.0) * np.exp(eta) * (a + teta1)

    def second(t):
        eta, teta1, t2eta2 = eta_pieces(t)
        first = t ** (a - 1.0) * np.exp(eta) * (a + teta1)
        return first / t * (a - 1.0 + teta1 + (t2eta2 + teta1) / (a + teta1))

    name = f"oscillating(p={params.p:g},q={params.q:g},eps={eps:g})"
    return YoungFunction(value, derivative, second, name=name)


def _panel_cumulative(fn, edges: np.ndarray, gl_order: int) -> np.ndarray:
    """Running integral of fn over consecutive panels of edges, starting at
    0 on edges[0]; each panel by Gauss-Legendre of the given order."""
    nodes, weights = leggauss(gl_order)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
    panels = (vals * weights[None, :]).sum(axis=1) * half
    return np.concatenate([[0.0], np.cumsum(panels)])


def _loglog_hermite(knots: np.ndarray, values: np.ndarray, slopes: np.ndarray):
    """Cubic Hermite interpolant of values over positive knots in log-log space.

    slopes are the exact log-log slopes d log(value) / d log(knot) at the
    knots.  Below the first knot the table continues linearly in log-log,
    i.e. as the power law with the first slope.  Knots uniform in log, as
    from log_grid, find their interval by index arithmetic; other knots by
    binary search.
    """
    x = np.log(knots)
    y = np.log(values)
    n = x.size
    h = np.diff(x)
    dy = np.diff(y)
    d0 = h * slopes[:-1]
    d1 = h * slopes[1:]
    c0, c1, c2, c3 = y[:-1], d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy
    x0 = x[0]
    step = (x[-1] - x0) / (n - 1)
    inv_step = 1.0 / step
    uniform = bool(np.all(np.abs(h - step) <= 1e-9 * step))

    def table(t):
        # worked in place: inputs reach tens of thousands of points, and
        # every large temporary costs the allocator fresh pages
        s = np.log(np.atleast_1d(t))
        if uniform:
            s -= x0
            s *= inv_step
            i = np.fmin(np.fmax(s, 0.0), n - 2).astype(np.intp)
            s -= i
        else:
            i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, n - 2)
            s -= x[i]
            s /= h[i]
        # s < 0 only below the first knot, where the cubic terms drop out
        sp = np.maximum(s, 0.0)
        acc = c3.take(i)
        acc *= sp
        acc += c2.take(i)
        acc *= sp
        acc += c1.take(i)
        acc *= s
        acc += c0.take(i)
        return np.exp(acc, out=acc)

    return table


def cumulative_primitive(fn, cache_lo: float, cache_hi: float,
                         per_decade: int = 120, gl_order: int = 12):
    """Primitive F(t) = int_0^t fn, cached on a log grid.

    Panel Gauss-Legendre accumulates the integral across the grid; the
    head below the grid is closed with the fitted local power of fn.
    Returns (value_callable, grid, cumulative) where the callable
    interpolates the table in log-log space and extrapolates with the
    fitted power behavior below the cache.
    """
    grid = log_grid(cache_lo, cache_hi, int(per_decade * math.log10(cache_hi / cache_lo)) + 1)
    # an overflow leaves inf or nan in the table, which the check below rejects
    with np.errstate(all="ignore"):
        f_grid = np.asarray(fn(grid), dtype=float)
        d0 = math.log(f_grid[3] / f_grid[0]) / math.log(grid[3] / grid[0])
        if d0 <= -1.0:
            raise SingularIntegrandError(f"head exponent {d0:.3f} <= -1, primitive diverges at 0")
        head = f_grid[0] * grid[0] / (d0 + 1.0)
        cum = head + _panel_cumulative(fn, grid, gl_order)
    if not np.all(np.isfinite(cum)) or not np.all(np.diff(cum) > 0):
        raise SingularIntegrandError("cumulative quadrature produced a non-monotone table")
    # log-log slope t f(t)/F(t); at grid[0] it is the fitted head power d0 + 1
    value = _loglog_hermite(grid, cum, grid * f_grid / cum)
    return value, grid, cum


def young_from_derivative(phi_prime, t_lo: float = 1e-25, t_hi: float = EVAL_HI_DEFAULT,
                          second=None, name: str = "psi",
                          cache_lo: float = 1e-12, cache_hi: float = 1e32,
                          per_decade: int = 120) -> YoungFunction:
    """Young function defined as the primitive of an increasing derivative."""
    value, _, _ = cumulative_primitive(phi_prime, cache_lo, cache_hi, per_decade)
    return YoungFunction(value, phi_prime, second, t_lo=t_lo,
                         t_hi=min(t_hi, cache_hi / 2.0), name=name)


def log_power_young(p: float, t_hi: float = 1e44) -> YoungFunction:
    """Primitive of t^{p-1} log(1+t); indices p and p+1."""
    if not (1.0 < p < math.inf):
        raise ConstructionError(f"log-power generator needs finite p > 1, got {p}")

    def phi(t):
        return t ** (p - 1.0) * np.log1p(t)

    def phi_prime(t):
        return (p - 1.0) * t ** (p - 2.0) * np.log1p(t) + t ** (p - 1.0) / (1.0 + t)

    return young_from_derivative(phi, t_hi=t_hi, second=phi_prime,
                                 name=f"int t^{p - 1:g} log(1+t)",
                                 cache_lo=1e-12, cache_hi=min(1e46, t_hi * 100.0))


# ---------------------------------------------------------------------------
# Sobolev conjugate


def _critical_integrand(phi: YoungFunction, n_dim: int):
    """phi^{-1}(s) s^{-1-1/N} ds under s = phi(tau): tau phi'(tau) phi(tau)^{-1-1/N} dtau."""
    return lambda tau: tau * phi.prime(tau) * phi(tau) ** (-1.0 - 1.0 / n_dim)


def theta_growth_integrals(phi: YoungFunction, n_dim: int,
                           k_range=range(2, 9), per_decade: int = 32,
                           gl_order: int = 10) -> list[float]:
    """Integrals of phi^{-1}(s) s^{-1-1/N} over [1, 10^k] for each k, taken
    over tau = phi^{-1}(s) (per_decade panels per decade of s), so phi is
    inverted only at the decade ends.  Used to decide whether the
    critical-growth conjugate is defined: the sequence must keep growing
    without visible saturation.
    """
    k_max = max(k_range)
    ends = inverse_value(phi, np.logspace(0.0, k_max, k_max + 1))
    edges = np.append(np.geomspace(ends[:-1], ends[1:], per_decade, endpoint=False, axis=1),
                      ends[-1])
    cum = _panel_cumulative(_critical_integrand(phi, n_dim), edges, gl_order)
    return [float(cum[per_decade * k]) for k in k_range]


def sobolev_conjugate(phi: YoungFunction, n_dim: int) -> YoungFunction:
    """Critical-growth conjugate defined through its inverse integral.

    The inverse int_0^t phi^{-1}(s) s^{-1-1/N} ds is accumulated over
    log-uniform knots in tau = phi^{-1}(s), so phi is inverted only at
    the ends of the range and the patch point; log-log Hermite tables
    give s = phi_*(t) and tau(t), hence phi_*' = s^{1+1/N}/tau.  When the
    integrand is not integrable at 0 (borderline upper growth of phi),
    the low end is replaced below a patch point by the power behavior
    dictated by the lower index of phi; this standard modification
    changes the conjugate only by a bounded shift and leaves its growth
    at infinity untouched.
    """
    if n_dim < 2:
        raise ConstructionError(f"dimension parameter must be >= 2, got {n_dim}")
    s_lo = max(1e-60, float(phi(phi.t_lo)) * 4.0)
    s_hi = min(1e50, float(phi(phi.t_hi)) / 4.0)
    if s_hi / s_lo < 1e20:
        raise ConstructionError(f"{phi.name}: domain too short for a conjugate table")
    # s-knots: they place the patch point and the saturation guard
    grid = log_grid(s_lo, s_hi, int(48 * math.log10(s_hi / s_lo)) + 1)
    expo = 1.0 + 1.0 / n_dim
    tau_lo, tau_hi = inverse_value(phi, np.array([s_lo, s_hi]))
    # d log theta / d log s of theta = tau s^{-1-1/N} decides integrability at 0
    e_head = float(phi(tau_lo)) / (tau_lo * float(phi.prime(tau_lo))) - expo
    tau0 = tau_lo
    if e_head <= -1.0 + 1e-6:
        pair = phi.indices or compute_indices(phi)
        if pair.lower >= n_dim:
            raise SingularIntegrandError(
                f"{phi.name}: inverse integral diverges at 0 and the lower index "
                f"{pair.lower:.3f} >= N = {n_dim} leaves no admissible patch")
        e_head = 1.0 / pair.lower - expo
        s_patch = min(max(float(phi(1.0)), grid[0] * 10.0), grid[-1] / 1e10)
        tau0 = float(inverse_value(phi, grid[np.searchsorted(grid, s_patch)])[0])

    tau = log_grid(tau0, tau_hi, grid.size)
    s = phi(tau)
    theta = tau * s ** -expo
    # below the first knot theta is the head power law, integrated in closed form
    cum = theta[0] * s[0] / (e_head + 1.0) + _panel_cumulative(
        _critical_integrand(phi, n_dim), tau, 10)
    if not np.all(np.isfinite(cum)) or not np.all(np.diff(cum) > 0):
        raise SingularIntegrandError(f"{phi.name}: conjugate inverse table not monotone")
    # saturation guard: the inverse must keep growing toward infinity
    top = cum[-1] / cum[np.searchsorted(s, grid[int(grid.size * 0.9)])]
    if top < 1.0 + 1e-3:
        raise ConstructionError(
            f"{phi.name}: inverse integral saturates, conjugate undefined")

    # t -> s has log-log slope cum / (s theta), the head power 1/(e_head+1)
    # at the first knot and below it; tau(t)'s is that over d log s/d log tau
    slope = cum / (s * theta)
    value = _loglog_hermite(cum, s, slope)
    tau_of = _loglog_hermite(cum, tau, slope * s / (tau * phi.prime(tau)))
    t_lo_out = cum[0] * (s_lo / s[0]) ** (e_head + 1.0) * (1.0 + 1e-9)
    t_hi_out = cum[-1] * (1.0 - 1e-9)

    def derivative(t):
        v = value(t)
        return np.where(t < cum[0], (v / s[0]) ** -e_head / theta[0], v ** expo / tau_of(t))

    return YoungFunction(value, derivative, None, t_lo=t_lo_out, t_hi=t_hi_out,
                         name=f"sobolev_conj({phi.name},N={n_dim})")
