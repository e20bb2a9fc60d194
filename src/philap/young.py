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

from .errors import (
    ConstructionError,
    EvalDomainError,
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
    "first_window",
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
ROOT_ENDGAME = 64  # doubles in a bracket that the inverses try all at once
# largest sample grid, log or uniform, checked before anything is allocated:
# indices on 2**22 points peaks near 0.3 GB, lambda-star on a 10**6-node grid
# near 1.1 GB
MAX_GRID_POINTS = 2 ** 22
GL_NODES = np.array([-0.8611363115940526, -0.33998104358485626, 0.33998104358485626,
                     0.8611363115940526])
GL_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464, 0.6521451548625464,
                       0.34785484513745357])


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Log-spaced sample grid on [lo, hi]."""
    if not (0.0 < lo < hi) or n < 2:
        raise ConstructionError(f"invalid log grid [{lo}, {hi}] with {n} points")
    if n > MAX_GRID_POINTS:
        raise ConstructionError(f"log grid of {n} points exceeds {MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, n)


def first_window(lo, hi, n: int, holds) -> int:
    """Index of the first candidate window [lo[k], hi[k]] on whose n
    log-spaced samples holds is true everywhere, or -1.  One geomspace call
    builds every window (each row bit-identical to its own geomspace) and
    holds gets them at once as one array, one row per candidate; ends with
    more axes stack several windows into one candidate."""
    t = np.geomspace(lo, hi, n, axis=-1)
    ok = np.all(holds(t), axis=tuple(range(1, t.ndim)))
    return int(np.argmax(ok)) if ok.any() else -1


def _regula_falsi(f, a, b, fa, fb, iters: int, name: str, endgame: int = 0) -> np.ndarray:
    """Close brackets 0 < a < b with fa > 0 >= fb to flip pairs (adjacent
    doubles) in lockstep; f(k, x) is the bracket function of rows k at x,
    near linear in log x.  Illinois regula falsi on (log x, f) (Dowell &
    Jarratt, BIT 11, 1971) steps from the end of smaller |f|: from the far
    end a wide bracket magnifies rounding.  A row whose log bracket lags
    half the pace of bisection from its first width (after two free
    rounds), or whose f is infinite, takes the geometric midpoint.  Trials
    lie an ulp inside the bracket; a row whose trials keep landing on the
    top clamp with f <= 0 (a plateau at the target, or secant steps from b
    below an ulp) doubles that clamp's distance below b, so it gallops.
    A row whose (a, b] holds at most endgame doubles tries every double
    inside it in the next round's f call instead, and closes on the first
    that f > 0 does not keep below the root (else b): under a monotone
    sign that is the flip pair the secant would reach.  Each row takes the
    path it takes alone, and only open rows are kept in the working
    arrays.  Returns b with every row's upper end written in; a bracket
    still open after iters rounds raises EvalDomainError naming name."""
    out, rows = b, np.arange(a.size)
    w0 = np.log1p((b - a) / a)  # log(b / a) without cancellation
    side = np.zeros(a.size, dtype=np.int8)  # end replaced last round: -1 a, +1 b
    bisect = np.zeros(a.size, dtype=bool)
    gap = np.full(a.size, 0.5)  # the top clamp lies max(gap, 1) ulps below b
    for j in range(iters + 1):
        # positive doubles are ordered like their bits: (a, b] holds span of them
        ia = a.view(np.int64)
        span = b.view(np.int64) - ia
        leave = span <= max(endgame, 1)
        last = 0  # most doubles inside a row that closes this round
        if leave.any():
            ends, ia, inner = rows[leave], ia[leave], span[leave] - 1
            last = int(inner.max())
            if not last:
                out[ends] = b[leave]
            keep = ~leave
            rows, a, b, fa, fb, w0, side, bisect, gap = (
                v[keep] for v in (rows, a, b, fa, fb, w0, side, bisect, gap))
        if not (rows.size or last):
            return out
        if j == iters:
            raise EvalDomainError(f"{name} left a bracket open after {iters} rounds")
        x = a
        if rows.size:
            near_a = np.abs(fa) <= np.abs(fb)
            x0 = np.where(near_a, a, b)
            with np.errstate(invalid="ignore", over="ignore"):
                df = fa - fb
                x = x0 + x0 * np.expm1(np.where(near_a, fa, fb) / df * np.log1p((b - a) / a))
            geo = bisect | ~(np.isfinite(df) & np.isfinite(x))
            if geo.any():
                x[geo] = np.sqrt(a[geo]) * np.sqrt(b[geo])  # a * b under- or overflows
            # below the midpoint the top clamp halves a bisecting row's bracket too
            lo = np.nextafter(a, np.inf)
            top = np.maximum(b - np.maximum(gap, 1.0) * (b - np.nextafter(b, 0.0)), lo)
            x = np.minimum(np.maximum(x, lo), top)
        if last:
            # each closing row's inner doubles, one run after another
            first, start = ia + 1, np.cumsum(inner) - inner
            trials = np.repeat(first - start, inner) + np.arange(start[-1] + inner[-1])
            fx = f(np.concatenate([rows, np.repeat(ends, inner)]),
                   np.concatenate([x, trials.view(float)]))
            # the first trial f > 0 does not keep below the root, or b
            stop = np.append(np.flatnonzero(~(fx[rows.size:] > 0.0)), trials.size)
            out[ends] = (first + np.minimum(stop[np.searchsorted(stop, start)] - start,
                                            inner)).view(float)
            if not rows.size:
                continue
            fx = fx[:rows.size]
        else:
            fx = f(rows, x)
        gap = np.where((x == top) & (fx <= 0.0), 2.0 * gap, 0.5)
        high = fx > 0.0
        # Illinois: an end replaced twice running halves the kept end's f, so
        # the next secant crosses
        replaced = np.where(high, -1, 1)
        scale = np.where(side == replaced, 0.5, 1.0)
        a, fa, b, fb, side = (np.where(high, x, a), np.where(high, fx, fa * scale),
                              np.where(high, b, x), np.where(high, fb * scale, fx), replaced)
        # all rows start together, so round j + 1 is every open row's (j + 1)-th
        bisect = np.log1p((b - a) / a) > w0 * 0.5 ** ((j - 1) / 2)


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
    _regula_falsi on (log s, log(t / fn(s))), which tries every double of a
    cell narrowed to ROOT_ENDGAME of them at once.  A target at or below fn(lo)
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
                                np.log(tr / vals[ir]), iters, f"{name}: regula falsi",
                                ROOT_ENDGAME)
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

    The generator owns its growth indices: indices is the exact pair
    given to the constructor, or else compute_indices on the log grid
    index_grid = (lo, hi, points), or on compute_indices' default grid
    when none is given.  It is computed on first read and kept, so every
    caller sees the same pair whatever it computed before.
    """

    def __init__(self, value, derivative, second_derivative=None,
                 t_lo: float = EVAL_LO_DEFAULT, t_hi: float = EVAL_HI_DEFAULT,
                 name: str = "psi", indices: Optional[IndexPair] = None,
                 index_grid: Optional[tuple[float, float, int]] = None):
        self._value = value
        self._derivative = derivative
        self._second = second_derivative
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        self.name = name
        self._indices = indices
        self._index_grid = index_grid

    def __repr__(self):
        return f"YoungFunction({self.name}, domain=[{self.t_lo:.1e}, {self.t_hi:.1e}])"

    @property
    def has_second(self) -> bool:
        return self._second is not None

    @property
    def indices(self) -> IndexPair:
        if self._indices is None:
            grid = None if self._index_grid is None else log_grid(*self._index_grid)
            self._indices = compute_indices(self, grid)
        return self._indices

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
    unbounded at infinity.  grid is increasing, so each decade is one run
    of it and one reduceat takes every maximum."""
    buckets = np.floor(np.log10(grid))
    maxima = np.maximum.reduceat(vals, np.flatnonzero(np.diff(buckets, prepend=-np.inf)))
    if maxima.size < 4:
        return False
    tail = maxima[-4:]
    return bool(np.all(np.diff(tail) > 0) and tail[-1] >= 8.0 * tail[0])


def compute_indices(psi: YoungFunction, grid: Optional[np.ndarray] = None) -> IndexPair:
    """Growth indices of psi sampled on a log grid; psi is left unchanged.

    lower/upper are grid extrema of t psi'(t)/psi(t); the at-infinity
    estimates come from the top two decades.  A monotone, fast-growing
    trend of per-decade maxima marks an unbounded ratio and reports the
    upper estimates as infinity.  The default grid has INDEX_GRID_POINTS
    points on [INDEX_GRID_LO, INDEX_GRID_HI], cut to psi's domain.  The
    pair a generator keeps is psi.indices; an explicit grid gives a
    one-off pair.
    """
    if grid is None:
        hi = min(INDEX_GRID_HI, psi.t_hi)
        lo = min(INDEX_GRID_LO, hi / 1e10)
        lo = max(lo, psi.t_lo)
        grid = log_grid(lo, hi, INDEX_GRID_POINTS)
    grid = np.asarray(grid, dtype=float)
    if not grid[0] > 0.0:
        raise ConstructionError(f"index grid must start above 0, got {grid[0]}")
    decades = math.log10(grid[-1]) - math.log10(grid[0])
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
    return IndexPair(lower, upper, at_lo, at_up)


def scaling_bound_lower(psi: YoungFunction, k) -> np.ndarray:
    """min(k^i, k^s) with (i, s) the growth indices of psi."""
    pair = psi.indices
    k = np.asarray(k, dtype=float)
    return np.minimum(k ** pair.lower, k ** pair.upper)


def scaling_bound_upper(psi: YoungFunction, k) -> np.ndarray:
    """max(k^i, k^s) with (i, s) the growth indices of psi."""
    pair = psi.indices
    k = np.asarray(k, dtype=float)
    return np.maximum(k ** pair.lower, k ** pair.upper)


def delta2_nabla2(psi: YoungFunction) -> tuple[bool, bool]:
    """Doubling flags from the at-infinity estimates of the index ratio."""
    pair = psi.indices
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


TAIL_POINTS = 160  # samples of each shared tail window of ordering
MUCH_LESS_ETAS = np.array([0.1, 1.0, 10.0])
LESS_FACTORS = np.ldexp(1.0, np.arange(31))  # c = 1, 2, ..., 2^30


def _tail_windows(psi1: YoungFunction, psi2: YoungFunction, factors: np.ndarray):
    """Ends of the four-decade tail windows [hi / 1e4, hi], hi = min(t_hi of
    psi1, t_hi of psi2 / max(c, 1)), one per factor c, and whether each
    starts above both domain floors."""
    hi = np.minimum(psi1.t_hi, psi2.t_hi / np.maximum(factors, 1.0))
    lo = hi / 1e4
    return lo, hi, lo > max(psi1.t_lo, psi2.t_lo)


def ordering(psi1: YoungFunction, psi2: YoungFunction) -> Ordering:
    """Growth comparison of psi1 against psi2 on the shared domain tail.

    MUCH_LESS when psi1(t)/psi2(eta t) decays monotonically toward zero
    for every eta in MUCH_LESS_ETAS; LESS when psi1(t) <= psi2(c t) on the
    tail for some c in LESS_FACTORS; the index shortcut
    s_{psi1} < i_{psi2} is applied first.  Each test evaluates psi1 and
    psi2 once on all its windows.  NEITHER is a valid answer.
    """
    try:
        if psi1.indices.upper < psi2.indices.lower - 1e-9:
            return Ordering.MUCH_LESS
    except (EvalDomainError, ConstructionError):
        pass

    def decays(t):
        ratio = psi1(t) / psi2(MUCH_LESS_ETAS[:, None] * t)
        monotone = np.diff(ratio) <= 1e-9 * ratio[..., :-1] + 1e-300
        return monotone & (ratio[..., -1:] <= 1e-2 * ratio[..., :1])

    lo, hi, ok = _tail_windows(psi1, psi2, MUCH_LESS_ETAS)
    # the eta windows stacked into one candidate: every one must decay
    if ok.all() and first_window(lo[None], hi[None], TAIL_POINTS, decays) == 0:
        return Ordering.MUCH_LESS

    lo, hi, ok = _tail_windows(psi1, psi2, LESS_FACTORS)
    c = LESS_FACTORS[ok, None]
    if first_window(lo[ok], hi[ok], TAIL_POINTS,
                    lambda t: psi1(t) <= psi2(c * t) * (1.0 + 1e-10)) >= 0:
        return Ordering.LESS
    return Ordering.NEITHER


# ---------------------------------------------------------------------------
# constructors


def power_young(p: float, coeff: float = 1.0, name: Optional[str] = None) -> YoungFunction:
    """c t^p with exact indices (p, p).

    The trusted range ends at 1e30, or lower where the value or a
    derivative, or the power of t inside it, would pass a quarter of the
    largest double: about 10^(307.6/p) for p above 10.
    """
    if not (1.0 < p < math.inf and coeff > 0.0):
        raise ConstructionError(f"power generator needs finite p > 1 and coeff > 0, got p={p}")
    terms = ((coeff, p), (coeff * p, p - 1.0), (coeff * p * (p - 1.0), p - 2.0))
    with np.errstate(over="ignore"):  # a limit past the largest double is no limit
        limits = [(np.finfo(float).max / 4.0 / max(c, 1.0)) ** (1.0 / e)
                  for c, e in terms if e > 0.0]
    t_hi = min(EVAL_HI_DEFAULT, *limits)
    # powers stay accurate far below the generic floor, and their critical
    # conjugates need the long tables it enables
    t_lo = 1e-30
    if not t_hi > t_lo:  # coeff p (p - 1) overflows for p above about 1.3e154
        raise ConstructionError(f"power generator with p={p:g} has an empty trusted range")
    return YoungFunction(
        lambda t: coeff * t ** p,
        lambda t: coeff * p * t ** (p - 1.0),
        lambda t: coeff * p * (p - 1.0) * t ** (p - 2.0),
        t_lo=t_lo, t_hi=t_hi, name=name or f"{coeff:g}*t^{p:g}", indices=IndexPair(p, p, p, p))


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

    def low_pieces(t, order: int) -> list:
        pieces = [b * eps / (2.0 * E * E) * (E - t) ** 2 - shift]
        if order > 0:
            pieces.append(b * eps / (E * E) * t * (t - E))
        if order > 1:
            pieces.append(b * eps / (E * E) * t * t)
        return pieces

    def high_pieces(t, order: int) -> list:
        lt = np.log(t)
        z = eps * np.log(lt)
        sin_z = np.sin(z)
        cos_z = np.cos(z)
        pieces = [b * lt / (1.0 + eps * eps) * (sin_z - eps * cos_z)]
        if order > 0:
            pieces.append(b * sin_z)
        if order > 1:
            pieces.append(b * ((eps / lt) * cos_z - sin_z))
        return pieces

    def eta_pieces(t: np.ndarray, order: int) -> list:
        """The first order + 1 of (eta, t*eta', t^2*eta''), branchwise.  An
        array on one side of e is evaluated whole; one that straddles e is
        split by a mask and scattered back."""
        if t.max(initial=0.0) <= E:
            return low_pieces(t, order)
        if t.min() > E:
            return high_pieces(t, order)
        low = t <= E
        pieces = [np.empty_like(t) for _ in range(order + 1)]
        for mask, branch in ((low, low_pieces), (~low, high_pieces)):
            for out, piece in zip(pieces, branch(t[mask], order)):
                out[mask] = piece
        return pieces

    def value(t):
        eta, = eta_pieces(t, 0)
        return t ** a * np.exp(eta)

    def derivative(t):
        eta, teta1 = eta_pieces(t, 1)
        return t ** (a - 1.0) * np.exp(eta) * (a + teta1)

    def second(t):
        eta, teta1, t2eta2 = eta_pieces(t, 2)
        first = t ** (a - 1.0) * np.exp(eta) * (a + teta1)
        return first / t * (a - 1.0 + teta1 + (t2eta2 + teta1) / (a + teta1))

    name = f"oscillating(p={params.p:g},q={params.q:g},eps={eps:g})"
    return YoungFunction(value, derivative, second, name=name)


def _panel_cumulative(fn, edges: np.ndarray) -> np.ndarray:
    """Running integral of fn over consecutive panels of edges, from 0 at
    edges[0], by the 4-point Gauss-Legendre rule (numpy's leggauss(4)).  Its
    error on a panel [a, b], (b - a)^9 f^(8) (4!)^4 / (9 (8!)^3) (Davis &
    Rabinowitz, 2nd ed., 1984, sec. 2.7), is at rounding level on the tables'
    panels, at most 1/32 of a decade wide, where fn is smooth."""
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    vals = np.asarray(fn((mid[:, None] + half[:, None] * GL_NODES).ravel()), dtype=float)
    return np.concatenate([[0.0], np.cumsum((vals.reshape(half.size, -1) @ GL_WEIGHTS) * half)])


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


def cumulative_primitive(fn, cache_lo: float, cache_hi: float, per_decade: int = 120):
    """Primitive F(t) = int_0^t fn, cached on a log grid.

    Panel Gauss-Legendre accumulates the integral across the grid; the
    head below the grid is closed with the fitted local power of fn.  The
    returned callable interpolates the table in log-log space and
    extrapolates with the fitted power behavior below the cache.
    """
    grid = log_grid(cache_lo, cache_hi, int(per_decade * math.log10(cache_hi / cache_lo)) + 1)
    # an overflow leaves inf or nan in the table, which the check below rejects
    with np.errstate(all="ignore"):
        f_grid = np.asarray(fn(grid), dtype=float)
        d0 = math.log(f_grid[3] / f_grid[0]) / math.log(grid[3] / grid[0])
        if d0 <= -1.0:
            raise SingularIntegrandError(f"head exponent {d0:.3f} <= -1, primitive diverges at 0")
        head = f_grid[0] * grid[0] / (d0 + 1.0)
        cum = head + _panel_cumulative(fn, grid)
    if not np.all(np.isfinite(cum)) or not np.all(np.diff(cum) > 0):
        raise SingularIntegrandError("cumulative quadrature produced a non-monotone table")
    # log-log slope t f(t)/F(t); at grid[0] it is the fitted head power d0 + 1
    return _loglog_hermite(grid, cum, grid * f_grid / cum)


def log_power_young(p: float, t_hi: float = 1e44) -> YoungFunction:
    """Primitive of t^{p-1} log(1+t); indices p and p+1.

    The index ratio falls to its limit p at infinity only like 1/log(t), so
    the indices are sampled on 4000 log-spaced points from 1e-4 to just
    below the top of the trusted range (9.9e43 by default), not on
    compute_indices' default grid.
    """
    if not (1.0 < p < math.inf):
        raise ConstructionError(f"log-power generator needs finite p > 1, got {p}")

    def phi(t):
        return t ** (p - 1.0) * np.log1p(t)

    def phi_prime(t):
        return (p - 1.0) * t ** (p - 2.0) * np.log1p(t) + t ** (p - 1.0) / (1.0 + t)

    cache_hi = min(1e46, t_hi * 100.0)
    top = min(t_hi, cache_hi / 2.0)
    return YoungFunction(cumulative_primitive(phi, 1e-12, cache_hi), phi, phi_prime, t_lo=1e-25,
                         t_hi=top, name=f"int t^{p - 1:g} log(1+t)",
                         index_grid=(1e-4, 0.99 * top, 4000))


# ---------------------------------------------------------------------------
# Sobolev conjugate


def _critical_integrand(phi: YoungFunction, n_dim: int):
    """phi^{-1}(s) s^{-1-1/N} ds under s = phi(tau): tau phi'(tau) phi(tau)^{-1-1/N} dtau."""
    return lambda tau: tau * phi.prime(tau) * phi(tau) ** (-1.0 - 1.0 / n_dim)


def theta_growth_integrals(phi: YoungFunction, n_dim: int,
                           k_range=range(2, 9), per_decade: int = 32) -> list[float]:
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
    cum = _panel_cumulative(_critical_integrand(phi, n_dim), edges)
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
    # the patch point, the s-knot at or above s_patch, shares the ends' call
    s_patch = min(max(float(phi(1.0)), grid[0] * 10.0), grid[-1] / 1e10)
    tau_lo, tau_hi, tau_patch = inverse_value(
        phi, np.array([s_lo, s_hi, grid[np.searchsorted(grid, s_patch)]]))
    # d log theta / d log s of theta = tau s^{-1-1/N} decides integrability at 0
    e_head = float(phi(tau_lo)) / (tau_lo * float(phi.prime(tau_lo))) - expo
    tau0 = tau_lo
    if e_head <= -1.0 + 1e-6:
        pair = phi.indices
        if pair.lower >= n_dim:
            raise SingularIntegrandError(
                f"{phi.name}: inverse integral diverges at 0 and the lower index "
                f"{pair.lower:.3f} >= N = {n_dim} leaves no admissible patch")
        e_head = 1.0 / pair.lower - expo
        tau0 = tau_patch

    tau = log_grid(tau0, tau_hi, grid.size)
    s = phi(tau)
    theta = tau * s ** -expo
    # below the first knot theta is the head power law, integrated in closed form
    cum = theta[0] * s[0] / (e_head + 1.0) + _panel_cumulative(
        _critical_integrand(phi, n_dim), tau)
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
