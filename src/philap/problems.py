"""Problem specification and numeric audit of its structural hypotheses.

Encodes the quasilinear Dirichlet problem -div(a(|u'|)u') = lam*f(x,u)
on a 1D grid, audits the ellipticity and growth hypotheses on sample
grids, and provides the built-in example problems.  All verdicts are
sampled evidence on finite grids, never proofs.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ConstructionError, EvalDomainError
from .orlicz import Grid, write_table
from .young import (
    IndexPair,
    PathologicalParams,
    YoungFunction,
    build_pathological,
    conjugate_inverse,
    cumulative_primitive,
    diverging_maxima,
    first_window,
    log_grid,
    log_power_young,
    power_young,
    sobolev_conjugate,
    theta_growth_integrals,
)

__all__ = [
    "CheckEntry",
    "HypothesisReport",
    "ProblemSpec",
    "Reaction",
    "SolverSettings",
    "builtin_example",
    "check_ha1",
    "check_ha2",
    "check_hf1",
    "check_hf2",
    "check_hf3",
    "load_problem",
    "log1p_reaction",
    "power_reaction",
    "power_singular_reaction",
    "run_all_checks",
    "upsilon_ratio_reaction",
]

HA_GRID_LO = 1e-4
HA_GRID_HI = 1e6
HA_GRID_POINTS = 2000
HF2_SLACK = 1e-8
HF3_SLACK = 1e-6
T_MAX_DEFAULT = 1e4
HF1_DELTAS = np.ldexp(1.0, np.arange(5, -41, -1))  # 2^5 down to 2^-40
HF1_NEAR_ZERO = np.array([10.0 ** -k for k in range(1, 7)])
AR_SCAN_HI = 1e8
AR_CANDIDATES = np.ldexp(1.0, np.arange(-10, 28))  # up to 2^27, the first R above AR_SCAN_HI


@dataclass
class Reaction:
    """Reaction term split as a regular part plus c2 * s^(-gamma).

    The split keeps the singular factor explicit for truncation bounds
    and exact quadrature near zero.  Reactions are autonomous: they depend
    on s only.
    """

    regular: Callable[[np.ndarray], np.ndarray]
    regular_primitive: Callable[[np.ndarray], np.ndarray]
    singular_coeff: float
    gamma: float
    regular_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "f"

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ConstructionError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.singular_coeff < 0.0:
            raise ConstructionError("singular coefficient must be >= 0")

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.asarray(self.regular(s), dtype=float)
        if self.singular_coeff:
            out = out + self.singular_coeff * s ** (-self.gamma)
        return out

    @property
    def derivative(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        if self.regular_derivative is None:
            return None

        def deriv(s):
            s = np.asarray(s, dtype=float)
            out = np.asarray(self.regular_derivative(s), dtype=float)
            if self.singular_coeff:
                out = out - self.singular_coeff * self.gamma * s ** (-self.gamma - 1.0)
            return out

        return deriv

    def primitive(self, s):
        """int_0^s of the reaction; finite since gamma < 1."""
        s = np.asarray(s, dtype=float)
        out = np.asarray(self.regular_primitive(s), dtype=float)
        if self.singular_coeff:
            out = out + self.singular_coeff * s ** (1.0 - self.gamma) / (1.0 - self.gamma)
        return out


def power_singular_reaction(r: float, c2: float = 1.0, gamma: float = 0.5) -> Reaction:
    """f(s) = s^r + c2 s^(-gamma)."""
    if r <= 0.0:
        raise ConstructionError(f"power reaction needs r > 0, got {r}")
    return Reaction(
        regular=lambda s: s ** r,
        regular_primitive=lambda s: s ** (r + 1.0) / (r + 1.0),
        singular_coeff=c2, gamma=gamma,
        regular_derivative=lambda s: r * s ** (r - 1.0),
        name=f"s^{r:g}+{c2:g}*s^-{gamma:g}")


def power_reaction(r: float, gamma: float = 0.5) -> Reaction:
    """f(s) = s^r with no singular part; fails the blow-up hypothesis."""
    return Reaction(
        regular=lambda s: s ** r,
        regular_primitive=lambda s: s ** (r + 1.0) / (r + 1.0),
        singular_coeff=0.0, gamma=gamma,
        regular_derivative=lambda s: r * s ** (r - 1.0),
        name=f"s^{r:g}")


def log1p_reaction(gamma: float = 0.5) -> Reaction:
    """f(s) = log(1+s); sub-linear, fails the superlinearity hypothesis."""
    return Reaction(
        regular=np.log1p,
        regular_primitive=lambda s: (1.0 + s) * np.log1p(s) - s,
        singular_coeff=0.0, gamma=gamma,
        regular_derivative=lambda s: 1.0 / (1.0 + s),
        name="log(1+s)")


def upsilon_ratio_reaction(upsilon: YoungFunction, c2: float = 1.0,
                           gamma: float = 0.5) -> Reaction:
    """f(s) = upsilon(s)/s + c2 s^(-gamma).

    The regular primitive is accumulated once by panel quadrature; the
    ratio upsilon(s)/s is increasing, so the growth hypotheses hold
    with c1 = c2 = 1 whenever the index window of upsilon fits.
    """
    def ratio(s):
        s = np.asarray(s, dtype=float)
        return upsilon(s) / s

    prim = cumulative_primitive(ratio, 1e-10, min(upsilon.t_hi / 2.0, 1e30), per_decade=60)
    def ratio_slope(s):
        s = np.asarray(s, dtype=float)
        return upsilon.prime(s) / s - upsilon(s) / s ** 2

    return Reaction(regular=ratio, regular_primitive=prim,
                    singular_coeff=c2, gamma=gamma,
                    regular_derivative=ratio_slope,
                    name=f"{upsilon.name}/s+{c2:g}*s^-{gamma:g}")


@dataclass
class ProblemSpec:
    """Full data of the parametric singular problem on a grid.

    The operator is the phi-Laplacian: its coefficient a follows from the
    generator through t a(t) = phi'(t), so only phi is stored.
    """

    phi: YoungFunction
    reaction: Reaction
    upsilon: YoungFunction
    c1: float
    mu: float
    ar_threshold: float
    lam: float
    n_dim: int
    grid: Grid
    seed: int = 1729
    name: str = "problem"
    _phi_star: Optional[YoungFunction] = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.c1 > 0.0):
            raise ConstructionError("c1 must be positive")
        if not (self.ar_threshold > 0.0):
            raise ConstructionError("superlinearity threshold must be positive")
        if not (self.lam > 0.0):
            raise ConstructionError("lambda must be positive")
        if self.n_dim < 2:
            raise ConstructionError("dimension parameter must be >= 2")

    def a(self, t):
        """Operator coefficient a(t) = phi'(t) / t."""
        t = np.asarray(t, dtype=float)
        return self.phi.prime(t) / t

    def a_prime(self, t):
        """a'(t), written through t a'/a = t phi''/phi' - 1 so that the
        exact zero of the Laplacian stays exact."""
        t = np.asarray(t, dtype=float)
        d1 = self.phi.prime(t)
        return d1 / t * (t * self.phi.second(t) / d1 - 1.0) / t

    @property
    def c2(self) -> float:
        return self.reaction.singular_coeff

    @property
    def gamma(self) -> float:
        return self.reaction.gamma

    @property
    def phi_star(self) -> YoungFunction:
        if self._phi_star is None:
            self._phi_star = sobolev_conjugate(self.phi, self.n_dim)
        return self._phi_star

    # the generators own their indices; these two delegates remain because
    # perfbench/replay.py calls them
    def phi_indices(self) -> IndexPair:
        return self.phi.indices

    def phi_star_indices(self) -> IndexPair:
        return self.phi_star.indices


@dataclass
class CheckEntry:
    name: str
    passed: bool
    detail: str
    data: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} ({self.detail})"


@dataclass
class HypothesisReport:
    ha1: CheckEntry
    ha2: CheckEntry
    hf1: CheckEntry
    hf2: CheckEntry
    hf3: CheckEntry

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries())

    def entries(self):
        return [self.ha1, self.ha2, self.hf1, self.hf2, self.hf3]

    def lines(self):
        return [e.line() for e in self.entries()]

    def to_csv(self, path) -> None:
        write_table(path, ["check", "passed", "detail"],
                    ([e.name, str(e.passed), e.detail] for e in self.entries()))


def check_ha1(a, a_prime, grid: Optional[np.ndarray] = None) -> CheckEntry:
    """Ellipticity window: inf and sup of t a'(t)/a(t) on a log grid."""
    if grid is None:
        grid = log_grid(HA_GRID_LO, HA_GRID_HI, HA_GRID_POINTS)
    avals = np.asarray(a(grid), dtype=float)
    if np.any(avals <= 0.0) or not np.all(np.isfinite(avals)):
        raise ConstructionError("invalid operator: a(t) must be positive and finite")
    ratio = grid * np.asarray(a_prime(grid), dtype=float) / avals
    if not np.all(np.isfinite(ratio)):
        raise EvalDomainError("non-finite ellipticity ratio on sample grid")
    inf_r = float(ratio.min())
    sup_r = float(ratio.max())
    unbounded = diverging_maxima(grid, ratio)
    passed = inf_r > -1.0 and not unbounded
    detail = f"inf={inf_r:.6g}, sup={sup_r:.6g}" + (", sup diverging" if unbounded else "")
    return CheckEntry("H(a)1", passed, detail,
                      {"inf": inf_r, "sup": math.inf if unbounded else sup_r})


def check_ha2(spec: ProblemSpec) -> CheckEntry:
    """Critical-growth conjugate well defined and strictly above phi."""
    integrals = np.array(theta_growth_integrals(spec.phi, spec.n_dim))
    # geometrically shrinking per-decade increments mean the integral
    # saturates; growing or steady increments mean it keeps diverging
    increments = np.diff(integrals)
    inc_ratios = increments[1:] / increments[:-1]
    diverges = bool(np.all(inc_ratios >= 1.0 - 1e-3)
                    and np.all(integrals[1:] / integrals[:-1] >= 1.0 + 1e-3))
    s_phi = spec.phi.indices.upper
    if not diverges:
        detail = (f"inverse-growth integral saturates (increment ratio "
                  f"{float(inc_ratios[-1]):.4f}), conjugate undefined")
        return CheckEntry("H(a)2", False, detail,
                          {"diverges": 0.0, "s_phi": s_phi, "i_phi_star": math.nan})
    i_star = spec.phi_star.indices.lower
    passed = s_phi < i_star
    detail = f"integral diverges, s_phi={s_phi:.4f} vs i_star={i_star:.4f}"
    return CheckEntry("H(a)2", passed, detail,
                      {"diverges": 1.0, "s_phi": s_phi, "i_phi_star": i_star})


def check_hf1(reaction: Reaction, nodes: np.ndarray) -> CheckEntry:
    """Blow-up of the reaction near zero, sampled evidence only: delta is the
    largest of 2^5, 2^4, ..., 2^-40 with f >= 1 on 50 samples of
    [delta 1e-9, delta], and f must grow toward 0 over 10^-1, ..., 10^-6."""
    del nodes  # built-in reactions are autonomous; one evaluation covers all x
    k = first_window(HF1_DELTAS * 1e-9, HF1_DELTAS, 50, lambda s: reaction.value(s) >= 1.0)
    delta = float(HF1_DELTAS[k]) if k >= 0 else 0.0
    mins = reaction.value(HF1_NEAR_ZERO)
    # f must grow from its sampled minimum down to the bottom sample (s^r +
    # s^-gamma falls first when gamma is small); a minimum at the bottom fails
    low = int(np.argmin(mins))
    increasing = low < mins.size - 1 and bool(
        np.all(np.diff(mins[low:]) >= -1e-12 * np.abs(mins[low:-1])))
    passed = delta > 0.0 and increasing
    detail = (f"delta={delta:g} (sampled evidence), near-zero minima "
              + ("increasing" if increasing else "not increasing"))
    return CheckEntry("H(f)1", passed, detail, {"delta": delta})


def check_hf2(spec: ProblemSpec, n_samples: int = 200) -> CheckEntry:
    """Growth envelope f <= c1 * conj_inv(upsilon) + c2 s^-gamma, plus the
    index window 1 < i_ups <= s_ups < i_phi_star."""
    ups = spec.upsilon.indices
    i_star = spec.phi_star.indices.lower
    index_ok = ups.lower > 1.0 and ups.upper < i_star
    s = log_grid(1e-6, min(1e6, spec.upsilon.t_hi / 10.0), n_samples)
    bound = spec.c1 * conjugate_inverse(spec.upsilon, spec.upsilon(s))
    if spec.c2:
        bound = bound + spec.c2 * s ** (-spec.gamma)
    fvals = spec.reaction.value(s)
    rel_violation = float(np.max((fvals - bound) / (1.0 + np.abs(bound))))
    passed = rel_violation <= HF2_SLACK and index_ok
    detail = (f"max growth violation {rel_violation:.3e}, "
              f"indices ({ups.lower:.3f},{ups.upper:.3f}) vs i_star={i_star:.3f}")
    return CheckEntry("H(f)2", passed, detail,
                      {"violation": rel_violation, "i_ups": ups.lower,
                       "s_ups": ups.upper, "i_phi_star": i_star})


def check_hf3(spec: ProblemSpec, t_max: float = T_MAX_DEFAULT,
              n_samples: int = 200) -> CheckEntry:
    """Superlinearity mu F(t) <= t f(t) above the threshold R, with F the
    primitive of f from 0."""
    s_phi = spec.phi.indices.upper
    if not (spec.mu > s_phi):
        return CheckEntry("H(f)3", False,
                          f"mu={spec.mu:.4f} not above s_phi={s_phi:.4f}",
                          {"violation": math.inf, "mu": spec.mu, "s_phi": s_phi})
    R = spec.ar_threshold
    ts = np.geomspace(R, t_max, n_samples)
    F = spec.reaction.primitive(ts)
    tf = ts * spec.reaction.value(ts)
    viol = float(np.max((spec.mu * F - tf) / (1.0 + np.abs(tf))))
    passed = viol <= HF3_SLACK
    detail = f"max superlinearity violation {viol:.3e} on [{R:g}, {t_max:g}]"
    return CheckEntry("H(f)3", passed, detail,
                      {"violation": viol, "mu": spec.mu, "s_phi": s_phi})


def run_all_checks(spec: ProblemSpec, t_max: float = T_MAX_DEFAULT) -> HypothesisReport:
    ha1 = check_ha1(spec.a, spec.a_prime)
    ha2 = check_ha2(spec)
    hf1 = check_hf1(spec.reaction, spec.grid.nodes)
    if ha2.passed:
        hf2 = check_hf2(spec)
    else:
        hf2 = CheckEntry("H(f)2", False, "skipped: conjugate growth unavailable", {})
    hf3 = check_hf3(spec, t_max=t_max)
    return HypothesisReport(ha1, ha2, hf1, hf2, hf3)


# ---------------------------------------------------------------------------
# built-in examples


def _find_ar_threshold(mu: float, gamma: float, upsilon: YoungFunction,
                       i_ups: float) -> float:
    """Smallest R in AR_CANDIDATES with mu/(1-gamma) t^(1-gamma) <=
    (1-mu/i_ups) ups(t) on 200 samples of [R, AR_SCAN_HI], every candidate
    in one upsilon call."""
    margin = 1.0 - mu / i_ups
    if margin <= 0.0:
        raise ConstructionError(f"mu={mu} not below the lower index {i_ups}")
    k = first_window(AR_CANDIDATES, AR_SCAN_HI, 200,
                     lambda t: mu / (1.0 - gamma) * t ** (1.0 - gamma) <= margin * upsilon(t))
    if k < 0:
        raise ConstructionError("no dyadic superlinearity threshold found")
    return float(AR_CANDIDATES[k])


def _auto_mu(spec_phi: YoungFunction, upsilon: YoungFunction) -> float:
    s_phi = spec_phi.indices.upper
    i_ups = upsilon.indices.lower
    if not (s_phi < i_ups):
        raise ConstructionError(
            f"no admissible superlinearity exponent: s_phi={s_phi:.4f} >= i_ups={i_ups:.4f}")
    return 0.5 * (s_phi + i_ups)


def builtin_example(name: str, *, p: float = 3.0, N: int = 4, r: float = 3.5,
                    gamma: float = 0.5, q: float = 2.0, eps: float = 1.9,
                    n_interior: int = 127, length: float = 1.0,
                    seed: int = 1729) -> ProblemSpec:
    """Fully populated built-in problems.

    "A5": logarithmically perturbed p-power operator with reaction
    t^r + t^-gamma; needs 1 < p <= N-1, N < p + p^2, r in (p, p*-1).
    "A4": oscillating generators on both the operator and the growth
    envelope.  "pathological-reaction": plain Laplacian with the
    envelope-ratio reaction.
    """
    key = name.strip().lower()
    if key == "a5":
        if not (1.0 < p <= N - 1):
            raise ConstructionError(f"A5 needs 1 < p <= N-1, got p={p}, N={N}")
        if not (N < p + p * p):
            raise ConstructionError(f"A5 needs N < p+p^2, got p={p}, N={N}")
        p_star = N * p / (N - p)
        if not (p < r < p_star - 1.0):
            raise ConstructionError(
                f"A5 needs r in (p, p*-1) = ({p:g}, {p_star - 1.0:g}), got {r}")
        if not (0.0 < gamma < 1.0):
            raise ConstructionError(f"A5 needs gamma in (0,1), got {gamma}")
        phi = log_power_young(p)
        upsilon = power_young(r + 1.0)
        reaction = power_singular_reaction(r, c2=1.0, gamma=gamma)
        mu = _auto_mu(phi, upsilon)
        R = _find_ar_threshold(mu, gamma, upsilon, r + 1.0)
        return ProblemSpec(phi, reaction, upsilon, c1=1.0, mu=mu,
                           ar_threshold=R, lam=1.0, n_dim=N,
                           grid=Grid(n_interior, length), seed=seed,
                           name=f"A5(p={p:g},N={N},r={r:g},gamma={gamma:g})")

    if key == "a4":
        # index layout r > s > p > q with r below the critical exponent of q;
        # the envelope indices are placed at thirds of the admissible window
        q_star = N * q / (N - q) if q < N else math.inf
        if not (1.0 < q < p < min(N, q_star)):
            raise ConstructionError(
                f"A4 needs 1 < q < p < min(N, q*) with q*={q_star:g}, got q={q}, p={p}")
        s_idx = p + (q_star - p) / 3.0
        r_idx = p + 2.0 * (q_star - p) / 3.0
        phi = build_pathological(PathologicalParams.make(p, q, eps))
        eps_ups = min(eps, 0.9 * (s_idx - 1.0) / ((r_idx - s_idx) / 2.0), 3.9)
        upsilon = build_pathological(PathologicalParams.make(r_idx, s_idx, eps_ups))
        reaction = upsilon_ratio_reaction(upsilon, c2=1.0, gamma=gamma)
        mu = _auto_mu(phi, upsilon)
        R = _find_ar_threshold(mu, gamma, upsilon, upsilon.indices.lower)
        return ProblemSpec(phi, reaction, upsilon, c1=1.0, mu=mu,
                           ar_threshold=R, lam=1.0, n_dim=N,
                           grid=Grid(n_interior, length), seed=seed,
                           name=f"A4(q={q:g},p={p:g},s={s_idx:g},r={r_idx:g},N={N})")

    if key == "pathological-reaction":
        base_p = 2.0
        phi = power_young(base_p, coeff=1.0 / base_p)
        upsilon = build_pathological(PathologicalParams.make(3.0, 2.5, eps))
        reaction = upsilon_ratio_reaction(upsilon, c2=1.0, gamma=gamma)
        mu = _auto_mu(phi, upsilon)
        R = _find_ar_threshold(mu, gamma, upsilon, upsilon.indices.lower)
        return ProblemSpec(phi, reaction, upsilon, c1=1.0, mu=mu,
                           ar_threshold=R, lam=1.0, n_dim=5,
                           grid=Grid(n_interior, length), seed=seed,
                           name="pathological-reaction")

    raise ConstructionError(f"unknown built-in example {name!r}")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class SolverSettings:
    lam: Optional[float]  # None means pick half the computed threshold
    seed: int = 1729
    max_iter: int = 200000
    tol_first: float = 1e-6
    tol_mountain: float = 1e-4
    n_path: int = 41
    embed_trials: int = 32
    t_max: float = T_MAX_DEFAULT


_ALLOWED_KEYS = {
    "operator": {"kind", "p", "q", "eps", "N"},
    "reaction": {"kind", "r", "c2", "gamma"},
    "hypotheses": {"c1", "upsilon", "upsilon_power", "upsilon_p", "upsilon_q",
                   "upsilon_eps", "mu", "R", "t_max"},
    "grid": {"length", "n_interior"},
    "solver": {"lambda", "seed", "max_iter", "tol_first", "tol_mountain",
               "n_path", "embed_trials"},
}


def _getfloat(section, key, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def _getint(section, key, default):
    if key not in section:
        return default
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def _getfloat_or_auto(section, key) -> Optional[float]:
    """None when the key is "auto" or absent, else its float value."""
    if section.get(key, "auto") == "auto":
        return None
    return _getfloat(section, key)


def load_problem(path=None, text: Optional[str] = None,
                 overrides: Optional[list[str]] = None):
    """Build (ProblemSpec, SolverSettings, resolved_text) from INI input.

    Unknown sections or keys are hard errors.  Overrides are
    "section.key=value" strings applied before validation.  Values the
    problem objects reject are configuration errors too.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        if text is not None:
            parser.read_string(text)
        else:
            with open(path) as fh:
                parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        sec, key = target.split(".", 1)
        if not parser.has_section(sec):
            parser.add_section(sec)
        parser.set(sec, key, value)

    for sec in parser.sections():
        if sec not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{sec}]")
        for key in parser[sec]:
            if key not in _ALLOWED_KEYS[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
    for required in ("operator", "reaction"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    try:
        spec, settings = _problem_from_config(parser)
    except ConstructionError as exc:
        raise ConfigError(str(exc)) from exc
    buf = io.StringIO()
    parser.write(buf)
    return spec, settings, buf.getvalue()


def _problem_from_config(parser: configparser.ConfigParser):
    op = parser["operator"]
    kind = op.get("kind", "")
    n_dim = _getfloat(op, "N", 4)
    if not math.isfinite(n_dim):
        raise ConfigError(f"operator.N must be finite, got {n_dim}")
    n_dim = int(n_dim)
    p = _getfloat(op, "p")
    if kind == "power":
        if p <= 1.0:
            raise ConfigError(f"operator power needs p > 1, got {p}")
        phi = power_young(p, coeff=1.0 / p)
    elif kind == "log_power":
        if p <= 1.0:
            raise ConfigError(f"operator log_power needs p > 1, got {p}")
        phi = log_power_young(p)
    elif kind == "pathological":
        q = _getfloat(op, "q")
        eps = _getfloat(op, "eps")
        phi = build_pathological(PathologicalParams.make(p, q, eps))
    else:
        raise ConfigError(f"unknown operator kind {kind!r}")

    hyp = dict(parser["hypotheses"]) if parser.has_section("hypotheses") else {}
    ups_kind = hyp.get("upsilon", "power")
    if ups_kind == "power":
        if "upsilon_power" not in hyp:
            raise ConfigError("hypotheses.upsilon_power is required for a power envelope")
        upsilon = power_young(_getfloat(hyp, "upsilon_power"))
    elif ups_kind == "pathological":
        upsilon = build_pathological(PathologicalParams.make(
            _getfloat(hyp, "upsilon_p"), _getfloat(hyp, "upsilon_q"),
            _getfloat(hyp, "upsilon_eps")))
    else:
        raise ConfigError(f"unknown envelope kind {ups_kind!r}")

    re_sec = parser["reaction"]
    r_kind = re_sec.get("kind", "")
    gamma = _getfloat(re_sec, "gamma", 0.5)
    c2 = _getfloat(re_sec, "c2", 1.0)
    if r_kind == "power_singular":
        reaction = power_singular_reaction(_getfloat(re_sec, "r"), c2=c2, gamma=gamma)
    elif r_kind == "power":
        reaction = power_reaction(_getfloat(re_sec, "r"), gamma=gamma)
    elif r_kind == "log1p":
        reaction = log1p_reaction(gamma=gamma)
    elif r_kind == "upsilon_ratio":
        reaction = upsilon_ratio_reaction(upsilon, c2=c2, gamma=gamma)
    else:
        raise ConfigError(f"unknown reaction kind {r_kind!r}")

    c1 = _getfloat(hyp, "c1", 1.0)
    mu = _getfloat_or_auto(hyp, "mu")
    R = _getfloat_or_auto(hyp, "R")
    t_max = _getfloat(hyp, "t_max", T_MAX_DEFAULT)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ConfigError(f"hypotheses.t_max must be finite and > 0, got {t_max}")
    # a finite mu below s_phi is a hypothesis that fails, not a bad input
    if mu is not None and not math.isfinite(mu):
        raise ConfigError(f"hypotheses.mu must be finite, got {mu}")
    if R is not None and not R < t_max:  # H(f)3 samples [R, t_max]
        raise ConfigError(f"hypotheses.R must be finite and below t_max={t_max:g}, got {R}")

    gr = dict(parser["grid"]) if parser.has_section("grid") else {}
    grid = Grid(n_interior=_getint(gr, "n_interior", 127),
                length=_getfloat(gr, "length", 1.0))

    so = dict(parser["solver"]) if parser.has_section("solver") else {}
    settings = SolverSettings(
        lam=_getfloat_or_auto(so, "lambda"),
        seed=_getint(so, "seed", 1729),
        max_iter=_getint(so, "max_iter", 200000),
        tol_first=_getfloat(so, "tol_first", 1e-6),
        tol_mountain=_getfloat(so, "tol_mountain", 1e-4),
        n_path=_getint(so, "n_path", 41),
        embed_trials=_getint(so, "embed_trials", 32),
        t_max=t_max)
    if settings.embed_trials < 1:
        raise ConfigError(f"solver.embed_trials must be >= 1, got {settings.embed_trials}")
    if settings.n_path < 5:
        raise ConfigError(f"solver.n_path must be >= 5, got {settings.n_path}")
    if settings.seed < 0:
        raise ConfigError(f"solver.seed must be >= 0, got {settings.seed}")
    if settings.max_iter < 1:
        raise ConfigError(f"solver.max_iter must be >= 1, got {settings.max_iter}")
    for key in ("tol_first", "tol_mountain"):
        tol = getattr(settings, key)
        if not (math.isfinite(tol) and tol > 0.0):
            raise ConfigError(f"solver.{key} must be finite and > 0, got {tol}")

    if mu is None:
        try:
            mu = _auto_mu(phi, upsilon)
        except ConstructionError:
            # no admissible window; record a formally failing exponent so the
            # audit reports the failure instead of erroring out
            mu = phi.indices.upper
    if R is None:
        try:
            R = _find_ar_threshold(mu, gamma, upsilon, upsilon.indices.lower)
        except ConstructionError:
            R = 1.0

    lam0 = settings.lam if settings.lam is not None else 1.0
    spec = ProblemSpec(phi, reaction, upsilon, c1=c1, mu=mu,
                       ar_threshold=R, lam=lam0, n_dim=n_dim, grid=grid,
                       seed=settings.seed, name=f"config({kind},{r_kind})")
    return spec, settings
