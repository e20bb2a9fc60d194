"""Discrete variational pipeline for the singular quasilinear problem.

Torsion sub-solution, reaction truncation at the sub-solution level,
energy descent for the constrained first solution, the mountain-pass
solution (the crest of a straight path polished once by Newton; on fine
grids the saddle found on a coarse grid, polished once), weak-residual
verification, and a level-set iteration certifying a sup bound on
computed solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConstructionError, PhilapError, SolverError
from .orlicz import Grid, GridFunction, luxemburg_of, write_table
from .problems import HypothesisReport, ProblemSpec, Reaction, run_all_checks
from .threshold import (
    Admissibility,
    ThresholdResult,
    TruncationConstants,
    classify,
    lambda_star,
    truncation_constants,
)
from .young import YoungFunction, young_conjugate

__all__ = [
    "DeGiorgiReport",
    "DescentTrace",
    "EnergyState",
    "FirstStage",
    "MountainPassResult",
    "PipelineResult",
    "ResidualReport",
    "SubSolution",
    "ThresholdStage",
    "TruncatedReaction",
    "build_subsolution",
    "degiorgi_bound",
    "energy_and_gradient",
    "first_solution",
    "first_stage",
    "mountain_pass",
    "mountain_pass_path",
    "solution_stage",
    "solve_torsion",
    "threshold_stage",
    "truncate_reaction",
    "two_solution_pipeline",
    "uphill_endpoint",
    "verify_solution",
    "write_convergence_csv",
    "write_degiorgi_csv",
    "write_solution_csv",
]

ARMIJO_SLOPE = 1e-4
# grids finer than this start the mountain pass from the saddle found on it
COARSE_N = 127
# step budget of the Newton polish of a mountain-pass candidate
NEWTON_STEPS = 60


# ---------------------------------------------------------------------------
# assembly helpers


def _phi_odd(phi: YoungFunction, g: np.ndarray) -> np.ndarray:
    """Odd extension of the generator derivative to signed slopes."""
    return np.sign(g) * phi.prime(np.abs(g))


def _slopes(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Cell slopes of a state (or of each row) with zero boundary values."""
    d = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    d[..., :-1] = u
    d[..., 1:] -= u
    return d / grid.h


def _grad_energy(phi: YoungFunction, grid: Grid, u: np.ndarray):
    """Gradient energy of a state, or of each row of a 2-D array of states."""
    return np.sum(phi(np.abs(_slopes(grid, u))), axis=-1) * grid.h


def _grad_energy_gradient(phi: YoungFunction, grid: Grid, u: np.ndarray) -> np.ndarray:
    flux = _phi_odd(phi, _slopes(grid, u))
    return flux[:-1] - flux[1:]


def _cell_weights(phi: YoungFunction, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Cellwise diffusion weights for the tridiagonal linearization."""
    g = np.abs(_slopes(grid, u))
    if phi.has_second:
        w = phi.second(g)
    else:
        w = np.where(g > 0.0, phi.prime(np.maximum(g, 1e-300)) / np.maximum(g, 1e-300), 0.0)
    floor = max(float(w.max(initial=0.0)) * 1e-12, 1e-14)
    return np.maximum(w, floor)


def _tridiagonal_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve of the symmetric tridiagonal system (diag, off): LAPACK dgtsv's
    elimination with partial pivoting, operation for operation, then back
    substitution.  A zero pivot or a non-finite entry raises LinAlgError."""
    if not all(np.isfinite(a).all() for a in (diag, off, rhs)):
        raise np.linalg.LinAlgError("non-finite entry in a tridiagonal system")
    n = diag.size
    # zero padding spares the last two rows their special cases
    d, dl, du, du2 = diag.tolist(), off.tolist(), off.tolist() + [0.0], [0.0] * n
    b = rhs.tolist() + [0.0, 0.0]
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError(f"zero pivot in row {i}")
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
        else:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            du2[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError(f"zero pivot in row {n - 1}")
    for i in range(n - 1, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i]
    return np.array(b[:n])


def _precond_direction(phi: YoungFunction, grid: Grid, u: np.ndarray,
                       g: np.ndarray) -> np.ndarray:
    """Closed-form solve of the weighted stiffness system for -g: the cell
    fluxes F_j = w_j s_j are the running sum of g, taken from the cell of
    least weight so that its flux is free of cancellation, plus the constant
    that makes the slopes s_j sum to zero; u is the running sum of h s_j."""
    r = 1.0 / _cell_weights(phi, grid, u)
    c = np.concatenate(([0.0], np.cumsum(g)))
    c -= c[np.argmax(r)]
    f = c - (r @ c) / r.sum()
    return np.cumsum(r[:-1] * f[:-1]) * grid.h


@dataclass
class DescentTrace:
    rows: list = field(default_factory=list)  # (iteration, J, residual)

    def append(self, it: int, j_val: float, res: float) -> None:
        self.rows.append((it, j_val, res))


# ---------------------------------------------------------------------------
# torsion problem and sub-solution


def solve_torsion(phi: YoungFunction, rhs: float, grid: Grid) -> GridFunction:
    """Discrete equilibrium of the torsion problem -Delta_Phi u = rhs.

    Exact in one dimension: the cell fluxes phi'(|s_j|) sgn s_j fall by
    rhs h from cell to cell and are odd about the midpoint, so each slope
    is the inverse of phi' at its flux, which is the derivative of the
    Young conjugate (Legendre duality).  One root per distinct flux
    magnitude keeps the slopes exactly odd; u is the running sum of h s_j.
    A flux above phi'(t_hi) raises through the conjugate's range check.
    """
    if rhs <= 0.0:
        raise ConstructionError(f"torsion load must be positive, got {rhs}")
    n, h = grid.n_interior, grid.h
    flux = rhs * h * (n / 2.0 - np.arange(n + 1))
    mag, inverse = np.unique(np.abs(flux), return_inverse=True)
    s = np.sign(flux) * young_conjugate(phi).prime(mag)[inverse]
    return GridFunction(grid, h * np.cumsum(s)[:n])


@dataclass
class SubSolution:
    u_under: GridFunction
    n_hat: int
    delta: float
    k1: float
    k2: float

    def __post_init__(self):
        vals = self.u_under.values
        if np.any(vals <= 0.0):
            raise SolverError("sub-solution must be positive at interior nodes")
        if float(vals.max()) >= self.delta:
            raise SolverError("sub-solution exceeds the smallness level delta")
        if not (0.0 < self.k1 <= self.k2):
            raise SolverError("sub-solution slope bounds out of order")


def build_subsolution(spec: ProblemSpec, delta: float, lam: float = 1.0) -> SubSolution:
    """Torsion iterates with shrinking load until the sup drops below delta.

    The load 1/n is additionally pushed below lam so the result stays a
    sub-solution of the lam-weighted problem (the reaction is >= 1
    below delta).
    """
    if delta <= 0.0:
        raise ConstructionError("delta must be positive; blow-up hypothesis failed")
    delta_eff = min(delta, 0.99 * spec.ar_threshold)
    n = 1
    while n < 1.0 / lam:
        n *= 2
    while n <= 10 ** 9:
        u = solve_torsion(spec.phi, 1.0 / n, spec.grid)
        if u.sup_norm() < delta_eff:
            d = spec.grid.distances
            ratios = u.values / d
            return SubSolution(u_under=u, n_hat=n, delta=delta_eff,
                               k1=float(ratios.min()), k2=float(ratios.max()))
        n *= 2
    raise SolverError("torsion iterates never dropped below delta; degenerate reaction")


# ---------------------------------------------------------------------------
# truncation


@dataclass
class TruncatedReaction:
    """Reaction frozen at the sub-solution level, with exact primitives.

    Below the sub-solution the integrand is the constant f(x, u_under),
    which removes the singular factor exactly; above it the smooth
    reaction primitive applies.
    """

    reaction: Reaction
    sub: SubSolution
    constants: TruncationConstants
    ub: np.ndarray = field(init=False)
    f_ub: np.ndarray = field(init=False)
    prim_ub: np.ndarray = field(init=False)

    def __post_init__(self):
        self.ub = self.sub.u_under.values.copy()
        self.f_ub = self.reaction.value(self.ub)
        self.prim_ub = self.reaction.primitive(self.ub)

    def f_hat(self, s: np.ndarray) -> np.ndarray:
        """Truncated reaction at the grid nodes; even in s."""
        a = np.abs(np.asarray(s, dtype=float))
        frozen = a <= self.ub
        out = np.where(frozen, self.f_ub,
                       self.reaction.value(np.maximum(a, self.ub)))
        return out

    def big_f_hat(self, s: np.ndarray) -> np.ndarray:
        """Primitive of the truncated reaction from 0; odd in s."""
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        below = self.f_ub * np.minimum(a, self.ub)
        above = np.where(a > self.ub,
                         self.reaction.primitive(np.maximum(a, self.ub)) - self.prim_ub,
                         0.0)
        return np.sign(s) * (below + above)

    def f_hat_slope(self, s: np.ndarray) -> np.ndarray:
        """Derivative of the truncated reaction; zero in the frozen zone."""
        if self.reaction.derivative is None:
            raise ConstructionError(f"{self.reaction.name}: derivative unavailable")
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        out = np.where(a > self.ub,
                       self.reaction.derivative(np.maximum(a, self.ub)), 0.0)
        return np.sign(s) * out


def truncate_reaction(spec: ProblemSpec, sub: SubSolution) -> TruncatedReaction:
    constants = truncation_constants(spec, sub.k1, sub.k2)
    return TruncatedReaction(reaction=spec.reaction, sub=sub, constants=constants)


# ---------------------------------------------------------------------------
# energy states


@dataclass
class EnergyState:
    u: GridFunction
    H_value: float
    K_value: float
    J_value: float
    gradient: np.ndarray
    residual: float


def _j_parts(spec: ProblemSpec, trunc: TruncatedReaction, u: np.ndarray,
             lam: float):
    """H, K and J = H - lam K of a state, or of each row of a 2-D array."""
    hval = _grad_energy(spec.phi, spec.grid, u)
    kval = np.sum(trunc.big_f_hat(u), axis=-1) * spec.grid.h
    return hval, kval, hval - lam * kval


def _j_gradient(spec: ProblemSpec, trunc: TruncatedReaction, u: np.ndarray,
                lam: float) -> np.ndarray:
    h = spec.grid.h
    return _grad_energy_gradient(spec.phi, spec.grid, u) - lam * trunc.f_hat(u) * h


def energy_and_gradient(spec: ProblemSpec, trunc: TruncatedReaction,
                        u: GridFunction, lam: Optional[float] = None) -> EnergyState:
    lam = spec.lam if lam is None else lam
    hval, kval, jval = _j_parts(spec, trunc, u.values, lam)
    grad = _j_gradient(spec, trunc, u.values, lam)
    return EnergyState(u=u, H_value=float(hval), K_value=float(kval), J_value=float(jval),
                       gradient=grad, residual=float(np.max(np.abs(grad))))


def _energy_fns(spec: ProblemSpec, trunc: TruncatedReaction, lam: float):
    """J (of a state or of each row of a 2-D array), its gradient, and the
    solve with the full (tridiagonal, indefinite) Jacobian of the weak residual."""
    grid = spec.grid

    def j_fn(u):
        return _j_parts(spec, trunc, u, lam)[2]

    def grad_fn(u):
        return _j_gradient(spec, trunc, u, lam)

    def hess_solve(u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        w = _cell_weights(spec.phi, grid, u)
        diag = (w[:-1] + w[1:]) / grid.h - lam * trunc.f_hat_slope(u) * grid.h
        return _tridiagonal_solve(diag, -w[1:-1] / grid.h, rhs)

    return j_fn, grad_fn, hess_solve


# ---------------------------------------------------------------------------
# first solution


def first_solution(spec: ProblemSpec, trunc: TruncatedReaction, r_star: float,
                   lam: float, tol: float = 1e-6, max_iter: int = 200000):
    """Constrained local minimum of the truncated energy.

    Projected descent over the gradient-energy ball of radius r_star;
    radial scaling restores feasibility when a step leaves the ball.  The
    scaled point u / lam lies on the sphere H = r_star (1 - 1e-12) when lam
    is the Luxemburg norm of u's slopes under phi with weight
    h / (r_star (1 - 1e-12)).  A projected step from a projected point that
    does not lower J ends the descent, pinned and not converged.  A state
    within 1e-9 relative of the sphere is boundary_pinned, any other is
    interior.  Returns (EnergyState, flags, trace).
    """
    grid = spec.grid
    trace = DescentTrace()
    projections = 0
    j_fn, grad_fn, _ = _energy_fns(spec, trunc, lam)
    u = trunc.sub.u_under.values.copy()
    j_val = j_fn(u)
    converged, iterations, on_sphere = False, max_iter, False
    for it in range(max_iter):
        g = grad_fn(u)
        res = float(np.max(np.abs(g)))
        trace.append(it, j_val, res)
        if res < tol:
            converged, iterations = True, it
            break
        d = _precond_direction(spec.phi, grid, u, g)
        slope = float(g @ d)
        if slope >= 0.0:
            d = -g
            slope = float(g @ d)
        step = 1.0
        for _ in range(60):
            cand = u + step * d
            j_cand = j_fn(cand)
            if j_cand <= j_val + ARMIJO_SLOPE * step * slope:
                break
            step /= 2.0
        else:  # no Armijo step: the descent stalls
            iterations = it
            break
        projected = _grad_energy(spec.phi, grid, cand) > r_star
        if projected:
            projections += 1
            cand = cand / luxemburg_of(spec.phi, _slopes(grid, cand),
                                       grid.h / (r_star * (1.0 - 1e-12)))
            j_cand = j_fn(cand)
            if on_sphere and j_cand >= j_val:  # pinned: the sphere's minimum
                iterations = it
                break
        u, j_val, on_sphere = cand, j_cand, projected
    state = energy_and_gradient(spec, trunc, GridFunction(grid, u), lam)
    pinned = state.H_value >= r_star * (1.0 - 1e-9)
    flags = {
        "converged": converged,
        "iterations": iterations,
        "boundary_pinned": pinned,
        "interior": not pinned,
        "projections": projections,
    }
    return state, flags, trace


# ---------------------------------------------------------------------------
# mountain pass


def uphill_endpoint(spec: ProblemSpec, trunc: TruncatedReaction,
                    ref_state: EnergyState, lam: float,
                    max_doublings: int = 60) -> GridFunction:
    """Scaled interior plateau bump with energy below the reference.

    Superlinearity above the upper operator index forces the energy of
    the scaled bump to drop eventually; the amplitude doubles until it
    does.  Hitting the doubling cap is the superlinearity diagnostic.
    """
    s_phi = spec.phi.indices.upper
    if not (spec.mu > s_phi):
        raise SolverError(
            f"superlinearity exponent mu={spec.mu:.4f} not above s_phi={s_phi:.4f}")
    x = spec.grid.nodes
    L = spec.grid.length
    ramp = L / 8.0
    shape = np.clip(np.minimum(x - L / 4.0, 3.0 * L / 4.0 - x) / ramp, 0.0, 1.0)
    target = ref_state.J_value - 1.0
    amp = 1.0
    for _ in range(max_doublings):
        if amp / ramp > spec.phi.t_hi / 4.0:
            raise SolverError("bump slope leaves the trusted range before the "
                              "energy drops; superlinearity violated numerically")
        u1 = amp * shape
        if _j_parts(spec, trunc, u1, lam)[2] < target:
            return GridFunction(spec.grid, u1)
        amp *= 2.0
    raise SolverError(f"no energy drop within {max_doublings} amplitude doublings; "
                      "superlinearity violated numerically")


def mountain_pass_path(j_fn, grad_fn, hess_solve, u0: np.ndarray, u1: np.ndarray,
                       n_path: int = 41, tol: float = 1e-4):
    """Critical point at the crest of the straight path between two low states.

    The discrete form of Choi & McKenna's mountain-pass algorithm
    (Nonlinear Anal. 20, 1993): the path is sampled at n_path states, all
    evaluated by one j_fn call on the 2-D array of states, and its
    maximum-energy interior state, the crest, is polished once by damped
    Newton on the weak residual.  The polished point is accepted when its
    residual is below tol and its energy lies above both endpoints by tol,
    so the polish cannot land on the minimizer the path starts from.  The
    path collapses when its crest, or the polish, falls to the endpoint
    level; a polish that stays above the endpoints but misses tol leaves
    both flags unset.
    """
    n_path = max(n_path, 5)
    ts = np.linspace(0.0, 1.0, n_path)[:, None]
    states = (1.0 - ts) * u0[None, :] + ts * u1[None, :]
    energies = j_fn(states)
    end_max = max(energies[0], energies[-1])
    k = 1 + int(np.argmax(energies[1:-1]))
    if energies[k] > end_max + tol:
        out = _polish_accept(j_fn, grad_fn, hess_solve, states[k], tol, end_max)
    else:
        out = {"v": states[k], "level": float(energies[k]), "converged": False,
               "collapsed": True, "residual": math.inf, "polish_residual": math.inf}
    return dict(out, outer_iterations=1)


def _polish_critical(grad_fn, hess_solve, u: np.ndarray, tol: float,
                     max_steps: int = NEWTON_STEPS):
    """Damped Newton on the weak residual; finds the nearby critical point."""
    u = u.copy()
    g = grad_fn(u)
    res = float(np.max(np.abs(g)))
    for _ in range(max_steps):
        if res < 0.01 * tol:
            break
        try:
            du = hess_solve(u, -g)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(30):
            cand = u + step * du
            g_cand = grad_fn(cand)
            r_cand = float(np.max(np.abs(g_cand)))
            if r_cand < res * (1.0 - 1e-4 * step):
                u, g, res = cand, g_cand, r_cand
                improved = True
                break
            step /= 2.0
        if not improved:
            break
    return u, res


def _polish_accept(j_fn, grad_fn, hess_solve, v: np.ndarray, tol: float,
                   end_max: float) -> dict:
    """Newton polish from v under the acceptance rule: residual below tol,
    energy above the endpoint level end_max by tol."""
    v, res = _polish_critical(grad_fn, hess_solve, v, tol)
    level = float(j_fn(v))
    above = level > end_max + tol
    return {"v": v, "level": level, "converged": above and res < tol,
            "collapsed": not above, "residual": res,
            "polish_residual": res if above else math.inf}


def _resample(v: np.ndarray, grid: Grid, onto: Grid) -> np.ndarray:
    """Piecewise-linear interpolant of v (zero at the ends of grid) at the
    nodes of onto."""
    knots = np.concatenate([[0.0], grid.nodes, [grid.length]])
    return np.interp(onto.nodes, knots, np.pad(v, 1))


@dataclass
class MountainPassResult:
    state: EnergyState
    level: float
    converged: bool
    collapsed: bool
    separation_ok: bool
    residual: float
    outer_iterations: int  # crests taken: 1, or 2 when a coarse start fails
    polish_residual: float  # smallest of the polishes that stayed above the endpoints
    coarse_start: bool


def _coarse_start(spec: ProblemSpec, trunc: TruncatedReaction, lam: float,
                  u0: np.ndarray, u1: np.ndarray, n_path: int, tol: float,
                  end_max: float):
    """The endpoints and the sub-solution sampled onto the COARSE_N grid,
    the crest found and polished there, even short of tol, and that saddle
    interpolated back onto spec's nodes and polished once; a
    mountain_pass_path result, or None when the coarse pass fails or collapses."""
    cgrid = Grid(COARSE_N, spec.grid.length)
    try:
        csub = replace(trunc.sub,
                       u_under=GridFunction(cgrid, _resample(trunc.ub, spec.grid, cgrid)))
        # the truncation constants only feed the threshold: keep this run's
        ctrunc = TruncatedReaction(reaction=trunc.reaction, sub=csub,
                                   constants=trunc.constants)
        cmp = mountain_pass_path(*_energy_fns(replace(spec, grid=cgrid), ctrunc, lam),
                                 _resample(u0, spec.grid, cgrid),
                                 _resample(u1, spec.grid, cgrid), n_path=n_path, tol=tol)
        if cmp["collapsed"]:
            return None
        out = _polish_accept(*_energy_fns(spec, trunc, lam),
                             _resample(cmp["v"], cgrid, spec.grid), tol, end_max)
    except PhilapError:
        return None
    return dict(out, outer_iterations=1)


def mountain_pass(spec: ProblemSpec, trunc: TruncatedReaction,
                  u0_state: EnergyState, u1: GridFunction, lam: float,
                  n_path: int = 41, tol: float = 1e-4,
                  max_outer: int = 100000,
                  r_star: Optional[float] = None) -> MountainPassResult:
    """Second critical point of the truncated energy.

    Candidate saddles are polished by damped Newton with the tridiagonal
    Jacobian of the weak residual, so the operator needs a second
    derivative and the reaction a derivative.  On a grid finer than
    COARSE_N nodes the first candidate is the saddle of the same problem
    on the COARSE_N grid (same lam, endpoints and sub-solution sampled
    onto it), interpolated linearly: by the mesh independence of Newton's
    method (Allgower, Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23,
    1986) it polishes in a few steps, where the straight path's crest can
    lie outside Newton's basin on fine grids.  It is accepted by
    mountain_pass_path's rule, and coarse_start is then set.  Otherwise the
    crest of the straight path from the first solution to the uphill
    endpoint u1 is polished once, and the pass fails (converged False) when
    that polish is not accepted; a coarse saddle polished above the
    endpoints is then kept, with coarse_start set.
    max_outer is unused and kept for callers; r_star, when given, only
    feeds the separation check.
    """
    if not spec.phi.has_second:
        raise ConstructionError(f"{spec.phi.name}: the mountain pass needs the "
                                "second derivative of the operator")
    if trunc.reaction.derivative is None:
        raise ConstructionError(f"{trunc.reaction.name}: the mountain pass needs the "
                                "derivative of the reaction")
    grid = spec.grid
    separation_ok = True
    if r_star is not None:
        pair = spec.phi.indices
        rho = r_star ** (1.0 / pair.lower) if r_star >= 1.0 else r_star ** (1.0 / pair.upper)
        dist = luxemburg_of(spec.phi, _slopes(grid, u1.values - u0_state.u.values), grid.h)
        separation_ok = dist > rho

    fns = _energy_fns(spec, trunc, lam)
    u0v, u1v = u0_state.u.values, u1.values
    out = None
    if grid.n_interior > COARSE_N:
        end_max = max(fns[0](u0v), fns[0](u1v))
        out = _coarse_start(spec, trunc, lam, u0v, u1v, n_path, tol, end_max)
    coarse_start = out is not None
    if out is None or not out["converged"]:
        path = mountain_pass_path(*fns, u0v, u1v, n_path=n_path, tol=tol)
        if out is not None:
            path["polish_residual"] = min(out["polish_residual"], path["polish_residual"])
            out["polish_residual"] = path["polish_residual"]
            coarse_start = not (path["converged"] or out["collapsed"])
        if not coarse_start:
            out = path
        if grid.n_interior > COARSE_N:
            out["outer_iterations"] = 2
    state = energy_and_gradient(spec, trunc, GridFunction(grid, out.pop("v")), lam)
    return MountainPassResult(state=state, separation_ok=separation_ok,
                              coarse_start=coarse_start, **out)


# ---------------------------------------------------------------------------
# verification and sup bound


@dataclass
class ResidualReport:
    residuals: np.ndarray
    max_residual: float
    above_subsolution: bool
    positive: bool


def verify_solution(spec: ProblemSpec, trunc: TruncatedReaction, u: GridFunction,
                    lam: Optional[float] = None) -> ResidualReport:
    """Weak residual against hat test functions plus comparison flags."""
    lam = spec.lam if lam is None else lam
    res = _j_gradient(spec, trunc, u.values, lam)
    return ResidualReport(
        residuals=res,
        max_residual=float(np.max(np.abs(res))),
        above_subsolution=bool(np.all(u.values >= trunc.ub - 1e-10)),
        positive=bool(np.all(u.values > 0.0)))


@dataclass
class DeGiorgiReport:
    levels: np.ndarray
    masses: np.ndarray
    a: float
    b: float
    C: float
    M: float
    p_exp: float
    r_exp: float
    smallness_threshold: float
    smallness_index: int


def degiorgi_bound(u: GridFunction, p_exp: float, r_exp: float, k_start: float,
                   max_doublings: int = 60, n_levels: int = 64) -> DeGiorgiReport:
    """Level-set iteration certifying a sup bound on a nonnegative state.

    Levels climb geometrically toward a candidate bound M; the level
    masses must satisfy the fast-convergence smallness condition and
    reach exactly zero.  The recursion constant is fitted by least
    squares on the observed steps and inflated so the recursion bound
    holds at every observed step.
    """
    vals = u.values
    if float(vals.min(initial=0.0)) < -1e-12:
        raise ConstructionError("level-set iteration needs a nonnegative state")
    vals = np.maximum(vals, 0.0)
    h = u.grid.h
    if r_exp <= 1.0 or p_exp <= 1.0:
        raise ConstructionError(f"need p_exp > 1 and r_exp > 1, got {p_exp}, {r_exp}")
    a = r_exp - 1.0
    b = 2.0 ** (p_exp * r_exp)
    if k_start <= 0.0:
        raise ConstructionError("k_start must be positive")

    def run(M: float):
        levels, masses = [], []
        for n in range(n_levels):
            k = M * (1.0 - 0.5 ** (n + 1))
            y = float(np.sum(np.maximum(vals - k, 0.0) ** p_exp) * h)
            levels.append(k)
            masses.append(y)
            if y == 0.0:
                break
        return np.array(levels), np.array(masses)

    M = 2.0 * k_start
    for _ in range(max_doublings):
        levels, masses = run(M)
        pos = [(n, masses[n], masses[n + 1]) for n in range(len(masses) - 1)
               if masses[n] > 0.0 and masses[n + 1] > 0.0]
        if pos:
            rows = np.array([[math.log(y1) - n * math.log(b) - (1.0 + a) * math.log(y0)]
                             for n, y0, y1 in pos])
            c_fit = math.exp(float(rows.mean()))
            c_need = max(y1 / (b ** n * y0 ** (1.0 + a)) for n, y0, y1 in pos)
            C = max(c_fit, c_need) * (1.0 + 1e-9)
        else:
            C = 1.0
        threshold = C ** (-1.0 / a) * b ** (-1.0 / (a * a))
        if masses[0] <= threshold and masses[-1] == 0.0:
            small_idx = int(np.argmax(masses <= threshold))
            return DeGiorgiReport(levels=levels, masses=masses, a=a, b=b, C=C,
                                  M=M, p_exp=p_exp, r_exp=r_exp,
                                  smallness_threshold=threshold,
                                  smallness_index=small_idx)
        M *= 2.0
    raise SolverError("level masses never satisfied the smallness condition; "
                      "the state behaves like an unbounded surrogate")


# ---------------------------------------------------------------------------
# pipeline stages and CSV output


@dataclass
class ThresholdStage:
    """Audit report and everything the threshold stage derives from it."""

    report: HypothesisReport
    sub0: SubSolution
    constants: TruncationConstants
    threshold: ThresholdResult
    lam: float
    admissibility: Admissibility


@dataclass
class FirstStage(ThresholdStage):
    """The threshold stage and the first solution with its checks."""

    sub: SubSolution
    trunc: TruncatedReaction
    first: EnergyState
    first_flags: dict
    first_trace: DescentTrace
    verify_first: ResidualReport
    degiorgi: DeGiorgiReport


@dataclass
class PipelineResult(FirstStage):
    uphill: GridFunction
    mp: MountainPassResult
    verify_second: ResidualReport


def threshold_stage(spec: ProblemSpec, report: HypothesisReport,
                    lam: Optional[float] = None, embed_trials: int = 32,
                    rng: Optional[np.random.Generator] = None) -> ThresholdStage:
    """Sub-solution, truncation constants, growth case, lambda_star, and the
    weight lam (half the threshold when not given) with its radius.

    Needs a passing audit.  The truncation constants come from the
    reference sub-solution of the unit-weight problem; shrinking the
    sub-solution afterwards for small weights only loosens those bounds,
    so the threshold computed here stays valid for the final truncation.
    """
    if not report.all_passed:
        raise SolverError("hypothesis audit failed:\n" + "\n".join(report.lines()))
    sub0 = build_subsolution(spec, report.hf1.data["delta"], lam=1.0)
    constants = truncation_constants(spec, sub0.k1, sub0.k2)
    case = classify(spec.upsilon, spec.phi)
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    thr = lambda_star(spec, constants, case, rng=rng, embed_trials=embed_trials)
    if lam is None:
        lam = thr.lambda_star / 2.0 if math.isfinite(thr.lambda_star) else 1.0
    if not (0.0 < lam < thr.lambda_star):
        raise SolverError(f"lambda {lam:g} not below the threshold {thr.lambda_star:g}")
    return ThresholdStage(report=report, sub0=sub0, constants=constants, threshold=thr,
                          lam=lam, admissibility=thr.r_star(lam))


def first_stage(spec: ProblemSpec, stage: ThresholdStage, tol_first: float = 1e-6,
                max_iter: int = 200000) -> FirstStage:
    """First solution, its residual check and its sup bound at the stage's weight."""
    lam = stage.lam
    sub = stage.sub0
    if 1.0 / sub.n_hat > lam:
        sub = build_subsolution(spec, stage.report.hf1.data["delta"], lam=lam)
    trunc = truncate_reaction(spec, sub)
    first, flags, trace = first_solution(spec, trunc, stage.admissibility.r_star, lam,
                                         tol=tol_first, max_iter=max_iter)
    if not flags["converged"]:
        raise SolverError(f"first solution stalled at residual {first.residual:.3e}")
    p_exp = spec.phi_star.indices.lower
    r_exp = p_exp / spec.phi.indices.upper
    dg = degiorgi_bound(first.u, p_exp, r_exp,
                        k_start=max(0.6 * first.u.sup_norm(), 1e-9))
    return FirstStage(**vars(stage), sub=sub, trunc=trunc, first=first, first_flags=flags,
                      first_trace=trace, verify_first=verify_solution(spec, trunc, first.u, lam),
                      degiorgi=dg)


def solution_stage(spec: ProblemSpec, stage: ThresholdStage, tol_first: float = 1e-6,
                   tol_mountain: float = 1e-4, n_path: int = 41,
                   max_iter: int = 200000) -> PipelineResult:
    """The first stage, then the mountain pass and its solution's residual check."""
    fs = first_stage(spec, stage, tol_first=tol_first, max_iter=max_iter)
    up = uphill_endpoint(spec, fs.trunc, fs.first, fs.lam)
    mp = mountain_pass(spec, fs.trunc, fs.first, up, fs.lam, n_path=n_path,
                       tol=tol_mountain, max_outer=max_iter, r_star=fs.admissibility.r_star)
    return PipelineResult(**vars(fs), uphill=up, mp=mp,
                          verify_second=verify_solution(spec, fs.trunc, mp.state.u, fs.lam))


def two_solution_pipeline(spec: ProblemSpec, lam: Optional[float] = None,
                          tol_first: float = 1e-6, tol_mountain: float = 1e-4,
                          n_path: int = 41, max_iter: int = 200000,
                          embed_trials: int = 32, t_max: float = 1e4,
                          rng: Optional[np.random.Generator] = None) -> PipelineResult:
    """Hypothesis audit, thresholds, and both solutions in one sweep.

    The weight used is reported as result.lam; spec is not modified.
    """
    report = run_all_checks(spec, t_max=t_max)
    stage = threshold_stage(spec, report, lam=lam, embed_trials=embed_trials, rng=rng)
    return solution_stage(spec, stage, tol_first=tol_first, tol_mountain=tol_mountain,
                          n_path=n_path, max_iter=max_iter)


def write_solution_csv(path, grid: Grid, columns: dict) -> None:
    """Columns over padded nodes (boundary rows as zeros)."""
    xs = np.concatenate([[0.0], grid.nodes, [grid.length]]).tolist()
    padded = [np.concatenate([[0.0], np.asarray(v, dtype=float), [0.0]]).tolist()
              for v in columns.values()]
    write_table(path, ["x", *columns], zip(xs, *padded))


def write_convergence_csv(path, trace: DescentTrace) -> None:
    write_table(path, ["iteration", "J", "residual"], trace.rows)


def write_degiorgi_csv(path, report: DeGiorgiReport) -> None:
    write_table(path, ["n", "k_n", "y_n"],
                ((n, k, y) for n, (k, y) in enumerate(zip(report.levels, report.masses))))
