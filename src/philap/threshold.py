"""Admissible parameter thresholds for the truncated energy functional.

Computes the truncation energy constants, classifies the growth of the
reaction envelope against the operator generator, and produces the
parameter threshold together with an admissible energy radius for each
of the four growth cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CaseContradictionError, ConstructionError, UnclassifiableError
from .orlicz import estimate_embedding_constant, write_table
from .problems import ProblemSpec
from .young import (
    Ordering,
    YoungFunction,
    conjugate_inverse,
    first_window,
    ordering,
    scaling_bound_upper,
)

__all__ = [
    "Admissibility",
    "GrowthCase",
    "ThresholdResult",
    "TruncationConstants",
    "case_four_minimum",
    "classify",
    "intermediate_function",
    "kappa_curve",
    "lambda_star",
    "truncation_constants",
    "write_kappa_csv",
    "write_threshold_csv",
]

from enum import Enum


class GrowthCase(Enum):
    MUCH_LESS = "much_less"
    LESS = "less"
    GREATER = "greater"
    MUCH_GREATER = "much_greater"


@dataclass(frozen=True)
class TruncationConstants:
    """Energy bounds of the truncated reaction primitive.

    |F_hat(x,s)| <= C1 + C2 * upsilon(|s|), and the pointwise majorant
    of the truncated reaction carries alpha * d(x)^-gamma + beta.
    """

    C1: float
    C2: float
    alpha: float
    beta: float

    def pi(self, upsilon: YoungFunction, rho, measure: float):
        """Bound (C1 + C2 upsilon(rho)) * measure for the sublevel mass."""
        rho = np.asarray(rho, dtype=float)
        return (self.C1 + self.C2 * upsilon(rho)) * measure


def truncation_constants(spec: ProblemSpec, k1: float, k2: float) -> TruncationConstants:
    """Constants from the sub-solution slopes k1 <= k2 and the envelope."""
    if not (0.0 < k1 <= k2):
        raise ConstructionError(f"need 0 < k1 <= k2, got {k1}, {k2}")
    ups = spec.upsilon
    d_om = spec.grid.diameter
    ups_one = float(ups(1.0))
    if ups_one <= 0.0:
        raise ConstructionError("envelope vanishes at 1; not a Young function")
    kd = k2 * d_om
    c1 = 2.0 * spec.c1 * float(ups(kd)) + spec.c2 * kd ** (1.0 - spec.gamma) \
        + spec.c2 / (1.0 - spec.gamma)
    c2 = 2.0 * spec.c1 + spec.c2 / ((1.0 - spec.gamma) * ups_one)
    alpha = spec.c2 * k1 ** (-spec.gamma)
    beta = spec.c1 * float(conjugate_inverse(spec.upsilon, ups(kd))[0])
    return TruncationConstants(C1=c1, C2=c2, alpha=alpha, beta=beta)


def classify(upsilon: YoungFunction, phi: YoungFunction) -> GrowthCase:
    """Growth case of the envelope against the generator.

    The strong verdicts are preferred; Neither in both directions is
    outside the admissible classification and raises.  Each direction is
    compared at most once.
    """
    forward = ordering(upsilon, phi)
    if forward is Ordering.MUCH_LESS:
        return GrowthCase.MUCH_LESS
    backward = ordering(phi, upsilon)
    if backward is Ordering.MUCH_LESS:
        return GrowthCase.MUCH_GREATER
    if forward is Ordering.LESS:
        return GrowthCase.LESS
    if backward is Ordering.LESS:
        return GrowthCase.GREATER
    raise UnclassifiableError(
        f"{upsilon.name} and {phi.name} are incomparable; no admissible case")


TAIL_M_PER_DECADE = 16  # samples per decade of the widest window of _find_tail_m


def _find_tail_m(lhs: YoungFunction, rhs: YoungFunction, factor: float) -> float:
    """Smallest dyadic M in [1, cap / 10) with lhs(t) <= rhs(factor * t) on
    [M, cap], cap the shared domain cap (at most 1e30); all windows at once,
    each with as many samples as TAIL_M_PER_DECADE gives [1, cap]."""
    cap = min(lhs.t_hi, rhs.t_hi / factor, 1e30)
    m = np.ldexp(1.0, np.arange(100))
    m = m[m < cap / 10.0]
    n = max(int(TAIL_M_PER_DECADE * math.log10(cap)), 8)
    k = first_window(m, cap, n, lambda t: lhs(t) <= rhs(factor * t) * (1.0 + 1e-12))
    if k < 0:
        raise CaseContradictionError(
            f"no tail bound {lhs.name} <= {rhs.name}({factor:g} t); case misclassified")
    return float(m[k])


def case_four_minimum(A: float, B: float, theta: float) -> tuple[float, float]:
    """Stationary point and value of r -> A/r + B r^theta for theta > 0."""
    if theta <= 0.0:
        raise CaseContradictionError(f"exponent theta must be positive, got {theta}")
    r_star = (A / (theta * B)) ** (1.0 / (theta + 1.0))
    return r_star, A / r_star + B * r_star ** theta


def intermediate_function(upsilon: YoungFunction, phi_star: YoungFunction) -> YoungFunction:
    """Geometric mean of the envelope and the critical-growth conjugate.

    Its index ratio is the average of the two factors' ratios, so it
    sits strictly between them in the growth ordering.
    """
    t_lo = max(upsilon.t_lo, phi_star.t_lo)
    t_hi = min(upsilon.t_hi, phi_star.t_hi)

    def value(t):
        return np.sqrt(upsilon(t) * phi_star(t))

    def derivative(t):
        t = np.asarray(t, dtype=float)
        v = value(t)
        return 0.5 * v * (upsilon.prime(t) / upsilon(t) + phi_star.prime(t) / phi_star(t))

    return YoungFunction(value, derivative, None, t_lo=t_lo, t_hi=t_hi,
                         name=f"geomean({upsilon.name},{phi_star.name})")


@dataclass
class Admissibility:
    """Admissible radius and the bound value backing it for one lambda."""

    lam: float
    r_star: float
    kappa_at_r_star: float
    eps: Optional[float] = None
    m_tail: Optional[float] = None


@dataclass
class ThresholdResult:
    case: GrowthCase
    constants: TruncationConstants
    lambda_star: float
    measure: float
    diameter: float
    upsilon: YoungFunction
    phi: YoungFunction
    # case data
    A: Optional[float] = None
    B: Optional[float] = None
    theta: Optional[float] = None
    r_min: Optional[float] = None
    kappa_min: Optional[float] = None
    embed_k: Optional[float] = None
    c_used: Optional[float] = None
    m_used: Optional[float] = None
    ups_hat: Optional[YoungFunction] = None
    eps_to_m: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def _tail_term(self, lam: float) -> tuple[float, Optional[float], Optional[float]]:
        """(tail constant, eps, M) of the flat part of the bound at lam."""
        c2 = self.constants.C2
        if self.case is GrowthCase.MUCH_LESS:
            zbar = float(scaling_bound_upper(self.phi, 2.0 * self.diameter))
            eps = min(1.0, 1.0 / (2.0 * c2 * zbar * lam))
            m = self.eps_to_m(eps)
            return c2 * zbar * eps, eps, m
        if self.case is GrowthCase.LESS:
            zbar = float(scaling_bound_upper(self.phi, 2.0 * self.c_used * self.diameter))
            return c2 * zbar, None, self.m_used
        return float(self.B), None, None

    def r_star(self, lam: float) -> Admissibility:
        """Admissible radius for lam below the threshold.

        Cases with a decreasing bound return twice the smallest radius
        keeping the bound under 1/lam; the strict margin makes the
        product lam * kappa(r) provably below one.
        """
        if not (0.0 < lam < self.lambda_star):
            raise CaseContradictionError(
                f"lambda {lam:g} not inside (0, {self.lambda_star:g})")
        if self.case in (GrowthCase.MUCH_GREATER, GrowthCase.GREATER):
            return Admissibility(lam, self.r_min, self.kappa_min)
        tail, eps, m = self._tail_term(lam)
        pi_m = self.constants.pi(self.upsilon, m, self.measure)
        r = 2.0 * pi_m / (1.0 / lam - tail)
        return Admissibility(lam, float(r), float(pi_m / r + tail), eps, m)

    def kappa_bound(self, r, lam: float = 1.0) -> np.ndarray:
        """Case-appropriate upper bound of the sublevel ratio at radii r."""
        r = np.asarray(r, dtype=float)
        if self.case in (GrowthCase.MUCH_GREATER, GrowthCase.GREATER):
            return self.A / r + self.B * r ** self.theta
        tail, _, m = self._tail_term(lam)
        pi_m = self.constants.pi(self.upsilon, m, self.measure)
        return pi_m / r + tail


def lambda_star(spec: ProblemSpec, constants: TruncationConstants,
                case: GrowthCase, rng: Optional[np.random.Generator] = None,
                embed_trials: int = 32) -> ThresholdResult:
    """Threshold of admissible reaction weights for the classified case."""
    ups = spec.upsilon
    phi = spec.phi
    measure = spec.grid.measure
    diam = spec.grid.diameter
    base = dict(constants=constants, measure=measure, diameter=diam,
                upsilon=ups, phi=phi)

    if case is GrowthCase.MUCH_LESS:
        cache: dict[float, float] = {}

        def eps_to_m(eps: float) -> float:
            if eps not in cache:
                cache[eps] = _find_tail_m(ups, phi, eps)
            return cache[eps]

        return ThresholdResult(case=case, lambda_star=math.inf,
                               eps_to_m=eps_to_m, **base)

    if case is GrowthCase.LESS:
        c_used = None
        m_used = None
        for j in range(0, 31):
            try:
                m_used = _find_tail_m(ups, phi, 2.0 ** j)
                c_used = 2.0 ** j
                break
            except CaseContradictionError:
                continue
        if c_used is None:
            raise CaseContradictionError("no dyadic scaling bounds the envelope; "
                                         "case misclassified")
        zbar = float(scaling_bound_upper(phi, 2.0 * c_used * diam))
        lam_star = 1.0 / (constants.C2 * zbar)
        return ThresholdResult(case=case, lambda_star=lam_star,
                               c_used=c_used, m_used=m_used, **base)

    # growth above the generator; the strict case replaces the envelope by
    # the geometric mean with the critical-growth conjugate first
    c1_eff = constants.C1
    target = ups
    ups_hat = None
    if case is GrowthCase.GREATER:
        m = _find_tail_m(ups, spec.phi_star, 1.0)
        c1_eff = constants.C1 + constants.C2 * float(ups(m))
        ups_hat = intermediate_function(ups, spec.phi_star)
        target = ups_hat

    if ordering(target, spec.phi_star) is not Ordering.MUCH_LESS:
        raise CaseContradictionError(
            f"{target.name} does not grow strictly below the critical conjugate")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    k = estimate_embedding_constant(phi, target, spec.grid, n_trials=embed_trials,
                                    rng=rng)
    zk = float(scaling_bound_upper(target, k))
    A = c1_eff * measure + constants.C2 * zk
    B = constants.C2 * zk
    s_ups = target.indices.upper
    i_phi = phi.indices.lower
    theta = s_ups / i_phi - 1.0
    if theta <= 0.0:
        raise CaseContradictionError(
            f"s_ups={s_ups:.4f} <= i_phi={i_phi:.4f} contradicts the growth case")
    r_min, k_min = case_four_minimum(A, B, theta)
    return ThresholdResult(case=case, lambda_star=1.0 / k_min, A=A, B=B,
                           theta=theta, r_min=r_min, kappa_min=k_min,
                           embed_k=k, ups_hat=ups_hat, **base)


def kappa_curve(result: ThresholdResult, r_values, lam: float = 1.0) -> np.ndarray:
    """(r, bound) pairs of the case-appropriate upper bound."""
    r = np.asarray(r_values, dtype=float)
    return np.column_stack([r, result.kappa_bound(r, lam=lam)])


def write_threshold_csv(result: ThresholdResult, lams, path) -> None:
    """One row per requested lambda with the shared case constants."""
    optional = ["" if v is None else v for v in (result.A, result.B, result.theta)]
    write_table(path, ["case", "C1", "C2", "A", "B", "theta",
                       "lambda_star", "lambda", "r_star"],
                ([result.case.value, result.constants.C1, result.constants.C2, *optional,
                  result.lambda_star, lam, result.r_star(lam).r_star] for lam in lams))


def write_kappa_csv(result: ThresholdResult, r_values, path, lam: float = 1.0) -> None:
    write_table(path, ["r", "kappa_bound"], kappa_curve(result, r_values, lam=lam))
