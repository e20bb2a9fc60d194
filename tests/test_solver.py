"""Torsion, sub-solution, truncation, descent, mountain pass, sup bound."""

import math

import numpy as np
import pytest

import philap as ph
from philap import solver
from philap.errors import ConstructionError, SolverError
from philap.solver import (
    _j_gradient,
    _j_parts,
    degiorgi_bound,
    mountain_pass_path,
    write_convergence_csv,
    write_degiorgi_csv,
    write_solution_csv,
)


def exact_torsion_power(p, c, x, L=1.0):
    """Closed form by two integrations with symmetry u'(L/2) = 0."""
    m = p / (p - 1.0)
    return c ** (1.0 / (p - 1.0)) * ((p - 1.0) / p) * (
        (L / 2.0) ** m - np.abs(x - L / 2.0) ** m)


# ---------------------------------------------------------------------------
# linear solves


def _random_indefinite(rng, n):
    w = rng.uniform(0.1, 2.0, n + 1)
    return w[:-1] + w[1:] - rng.uniform(0.0, 6.0, n), -w[1:-1], rng.standard_normal(n)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 127, 1023])
def test_tridiagonal_solve_matches_lapack_bit_for_bit(n):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(n)
    interchanges = 0
    for _ in range(40):
        diag, off, rhs = _random_indefinite(rng, n)
        interchanges += int(np.sum(np.abs(diag[:-1]) < np.abs(off)))
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = off, diag, off
        expected = linalg.solve_banded((1, 1), ab, rhs)
        assert solver._tridiagonal_solve(diag, off, rhs).tobytes() == expected.tobytes()
    assert n == 1 or interchanges > 0


@pytest.mark.parametrize("diag, off, rhs", [
    ([0.0, 1.0], [0.0], [1.0, 1.0]),
    ([1.0, 1.0], [1.0], [1.0, 2.0]),
    ([2.0, np.nan, 2.0], [1.0, 1.0], [1.0, 1.0, 1.0]),
    ([2.0, 2.0, 2.0], [1.0, np.inf], [1.0, 1.0, 1.0]),
    ([2.0, 2.0, 2.0], [1.0, 1.0], [1.0, np.nan, 1.0])])
def test_tridiagonal_solve_rejects_singular_and_non_finite(diag, off, rhs):
    with pytest.raises(np.linalg.LinAlgError):
        solver._tridiagonal_solve(np.array(diag), np.array(off), np.array(rhs))


def test_polish_stops_at_non_finite_jacobian():
    # a NaN in the Jacobian ends the Newton polish instead of escaping it
    u = np.array([1.0, 2.0, 3.0])
    v, res = solver._polish_critical(
        lambda u: u - 1.0,
        lambda u, rhs: solver._tridiagonal_solve(np.full(3, np.nan), np.zeros(2), rhs),
        u, tol=1e-8)
    assert v.tobytes() == u.tobytes() and res == 2.0


def _weights(rng, n, kind):
    if kind == "log-uniform":
        return 10.0 ** rng.uniform(-12.0, 0.0, n + 1)
    if kind == "one-soft-cell":
        w = rng.uniform(0.5, 1.0, n + 1)
        w[rng.integers(n + 1)] = 1e-12
        return w
    if kind == "half-soft":
        return np.where(rng.random(n + 1) < 0.5, 1e-12, rng.uniform(0.5, 1.0, n + 1))
    return np.maximum(np.abs(np.sin(np.linspace(0.0, 7.0, n + 1))) ** 3, 1e-12)


@pytest.mark.parametrize("kind", ["log-uniform", "one-soft-cell", "half-soft", "zero-slopes"])
@pytest.mark.parametrize("n", [1, 2, 7, 127, 511])
def test_precond_direction_residual_matches_dense_solve(n, kind, monkeypatch):
    # weights down to _cell_weights' floor, 1e-12 of the largest: the
    # closed form is as backward stable as a dense LU solve
    rng = np.random.default_rng([n, len(kind)])
    grid = ph.Grid(n, 1.0)
    for _ in range(10):
        w, g = _weights(rng, n, kind), rng.standard_normal(n)
        monkeypatch.setattr(solver, "_cell_weights", lambda phi, grid, u: w)
        stiff = (np.diag((w[:-1] + w[1:]) / grid.h) - np.diag(w[1:-1] / grid.h, 1)
                 - np.diag(w[1:-1] / grid.h, -1))

        def backward_error(x):
            scale = np.abs(stiff).sum(axis=1).max() * np.abs(x).max() + np.abs(g).max()
            return np.abs(stiff @ x + g).max() / scale

        closed = solver._precond_direction(None, grid, None, g)
        dense = np.linalg.solve(stiff, -g)
        assert backward_error(closed) <= 8.0 * max(backward_error(dense), 2e-16)


# ---------------------------------------------------------------------------
# torsion


def test_torsion_quadratic_is_exact():
    grid = ph.Grid(255, 1.0)
    u = ph.solve_torsion(ph.power_young(2.0, coeff=0.5), 1.0, grid)
    exact = grid.nodes * (1.0 - grid.nodes) / 2.0
    assert np.max(np.abs(u.values - exact)) < 1e-3
    assert np.max(np.abs(u.values - exact)) < 1e-9  # discretization-exact


@pytest.mark.parametrize("p,c", [(3.0, 1.0), (3.0, 0.1), (1.5, 1.0)])
def test_torsion_power_oracle(p, c):
    grid = ph.Grid(255, 1.0)
    u = ph.solve_torsion(ph.power_over_p_young(p), c, grid)
    err = np.max(np.abs(u.values - exact_torsion_power(p, c, grid.nodes)))
    assert err < 5.0 * grid.h


def test_torsion_monotone_in_load():
    grid = ph.Grid(63, 1.0)
    phi = ph.power_over_p_young(3.0)
    u1 = ph.solve_torsion(phi, 0.5, grid)
    u2 = ph.solve_torsion(phi, 1.0, grid)
    assert np.all(u2.values > u1.values)


@pytest.mark.parametrize("phi", [ph.power_over_p_young(3.0), ph.power_young(2.0),
                                 ph.builtin_example("A5").phi])
def test_torsion_even_grid_is_symmetric(phi):
    # with n even the middle cell carries zero flux, so its slope is 0
    grid = ph.Grid(64, 1.0)
    u = ph.solve_torsion(phi, 1.0, grid).values
    assert solver._slopes(grid, u)[32] == 0.0
    assert np.max(np.abs(u - u[::-1])) <= 1e-15 * np.max(u)


def test_torsion_flux_beyond_trusted_range_raises():
    # a flux above phi'(t_hi) raises instead of clamping the slope at t_hi
    with pytest.raises(ph.PhilapError):
        ph.solve_torsion(ph.exp_young(), 1e300, ph.Grid(15, 1.0))


def test_torsion_rejects_nonpositive_load():
    with pytest.raises(Exception):
        ph.solve_torsion(ph.power_young(2.0), -1.0, ph.Grid(15, 1.0))


# ---------------------------------------------------------------------------
# sub-solution


def test_subsolution_properties(a5_pipeline, a5_spec):
    sub = a5_pipeline.sub
    assert np.all(sub.u_under.values > 0.0)
    assert sub.u_under.sup_norm() < sub.delta < a5_spec.ar_threshold
    d = a5_spec.grid.distances
    ratios = sub.u_under.values / d
    assert np.all(sub.k1 * d <= sub.u_under.values * (1 + 1e-12))
    assert np.all(sub.u_under.values <= sub.k2 * d * (1 + 1e-12))
    # equality attained at some node on each side
    assert np.min(ratios) == pytest.approx(sub.k1)
    assert np.max(ratios) == pytest.approx(sub.k2)


def test_subsolution_respects_lambda(a5_pipeline):
    assert 1.0 / a5_pipeline.sub.n_hat <= a5_pipeline.lam


def test_pipeline_leaves_spec_lam(a5_spec, a5_pipeline):
    # the weight is reported on the result; the input spec keeps its own
    assert a5_spec.lam == 1.0
    assert a5_pipeline.lam != a5_spec.lam


def test_subsolution_shrinks_with_load(a5_spec, a5_report):
    delta = a5_report.hf1.data["delta"]
    s_coarse = ph.build_subsolution(a5_spec, delta, lam=1.0)
    s_fine = ph.build_subsolution(a5_spec, delta, lam=0.03)
    assert s_fine.n_hat > s_coarse.n_hat
    assert s_fine.u_under.sup_norm() < s_coarse.u_under.sup_norm()


def test_subsolution_stability_under_refinement(a5_spec, a5_report):
    # the torsion sup changes by O(h), so the stopping load moves by at
    # most one doubling when the grid is doubled
    delta = a5_report.hf1.data["delta"]
    from dataclasses import replace
    spec2 = replace(a5_spec, grid=ph.Grid(255, 1.0), _phi_star=a5_spec._phi_star)
    n1 = ph.build_subsolution(a5_spec, delta, lam=1.0).n_hat
    n2 = ph.build_subsolution(spec2, delta, lam=1.0).n_hat
    assert abs(math.log2(n1) - math.log2(n2)) <= 1.0


# ---------------------------------------------------------------------------
# truncation


def test_truncation_removes_singularity(a5_truncation):
    # at s = 0 the truncated reaction equals the frozen positive value
    vals = a5_truncation.f_hat(np.zeros_like(a5_truncation.ub))
    assert np.all(np.isfinite(vals))
    assert np.all(vals == a5_truncation.f_ub)
    assert np.all(a5_truncation.big_f_hat(np.zeros_like(a5_truncation.ub)) == 0.0)


def test_truncation_pointwise_majorant(a5_spec, a5_truncation):
    # f_hat <= c1 conj_inv(ups(|s|)) + alpha d^-gamma + beta at random samples
    rng = np.random.default_rng(17)
    tc = a5_truncation.constants
    d = a5_spec.grid.distances
    for _ in range(20):
        s = rng.uniform(-5.0, 5.0, size=d.shape)
        lhs = a5_truncation.f_hat(s)
        envelope = a5_spec.c1 * ph.conjugate_inverse(
            a5_spec.upsilon, a5_spec.upsilon(np.maximum(np.abs(s), 1e-12)))
        rhs = envelope + tc.alpha * d ** (-a5_spec.gamma) + tc.beta
        assert np.all(lhs <= rhs * (1.0 + 1e-9))


def test_truncation_primitive_bound(a5_spec, a5_truncation):
    # |F_hat(x,s)| <= C1 + C2 ups(|s|)
    rng = np.random.default_rng(19)
    tc = a5_truncation.constants
    for _ in range(20):
        s = rng.uniform(-6.0, 6.0, size=a5_truncation.ub.shape)
        lhs = np.abs(a5_truncation.big_f_hat(s))
        rhs = tc.C1 + tc.C2 * a5_spec.upsilon(np.abs(s))
        assert np.all(lhs <= rhs * (1.0 + 1e-9))


def test_truncation_primitive_consistency(a5_truncation):
    # derivative of the primitive recovers the truncated reaction
    s = np.linspace(0.01, 3.0, a5_truncation.ub.size)
    h = 1e-6
    fd = (a5_truncation.big_f_hat(s + h) - a5_truncation.big_f_hat(s - h)) / (2 * h)
    assert np.max(np.abs(fd - a5_truncation.f_hat(s))) < 1e-4


# ---------------------------------------------------------------------------
# energy and gradient


def test_energy_state_identity(a5_spec, a5_truncation, a5_pipeline):
    state = ph.energy_and_gradient(a5_spec, a5_truncation,
                                   a5_pipeline.first.u, a5_pipeline.lam)
    assert state.J_value == pytest.approx(state.H_value - a5_pipeline.lam * state.K_value)


def test_gradient_matches_torsion_equilibrium():
    # at the discrete torsion equilibrium the assembled gradient of the
    # constant-load energy vanishes to round-off of the load c h
    from philap.solver import _grad_energy_gradient
    c = 0.25
    for name in ("A5", "A4"):
        for n in (127, 2047):
            spec = ph.builtin_example(name, n_interior=n)
            grid = spec.grid
            u = ph.solve_torsion(spec.phi, c, grid)
            res = _grad_energy_gradient(spec.phi, grid, u.values) - c * grid.h
            assert np.max(np.abs(res)) <= 1e-8 * c * grid.h, (name, n)


def test_gradient_finite_difference(a5_spec, a5_truncation, a5_pipeline):
    # central differences of the energy against the assembled gradient
    lam = a5_pipeline.lam
    rng = np.random.default_rng(42)
    x = a5_spec.grid.nodes
    worst = 0.0
    for _ in range(20):
        coeffs = rng.normal(size=5) / np.arange(1, 6) ** 1.5
        u = a5_truncation.ub + 0.4 + sum(
            0.3 * coeffs[m] * np.sin((m + 1) * np.pi * x / a5_spec.grid.length)
            for m in range(5))
        u = np.abs(u) + 0.05
        g = _j_gradient(a5_spec, a5_truncation, u, lam)
        gfd = np.empty_like(g)
        for i in range(u.size):
            h_i = 1e-5 * (1.0 + abs(u[i]))
            up = u.copy(); up[i] += h_i
            dn = u.copy(); dn[i] -= h_i
            gfd[i] = (_j_parts(a5_spec, a5_truncation, up, lam)[2]
                      - _j_parts(a5_spec, a5_truncation, dn, lam)[2]) / (2.0 * h_i)
        worst = max(worst, float(np.linalg.norm(gfd - g) / np.linalg.norm(g)))
    assert worst < 1e-5


def test_coercivity_along_descent(a5_spec, a5_truncation, a5_pipeline):
    # sum phi'(|g|)|g| h >= i_phi * H(u) at aggressively perturbed states
    i_phi = a5_spec.phi_indices().lower
    grid = a5_spec.grid
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = np.abs(rng.normal(size=grid.n_interior)) * rng.uniform(0.1, 50.0)
        g = np.abs(np.diff(np.concatenate([[0.0], u, [0.0]])) / grid.h)
        lhs = float(np.sum(a5_spec.phi.prime(g) * g) * grid.h)
        rhs = i_phi * float(np.sum(a5_spec.phi(g)) * grid.h)
        assert lhs >= rhs * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# first solution


def test_first_solution_contract(a5_pipeline):
    first = a5_pipeline.first
    flags = a5_pipeline.first_flags
    assert flags["converged"]
    assert flags["interior"] and not flags["boundary_pinned"]
    assert first.residual < 1e-6
    assert first.H_value < a5_pipeline.admissibility.r_star
    assert np.all(first.u.values >= a5_pipeline.sub.u_under.values - 1e-10)
    assert np.all(first.u.values > 0.0)


def test_first_solution_small_lambda_continuation(a5_spec, a5_report):
    # as the weight decreases the constrained minimizer shrinks toward zero
    delta = a5_report.hf1.data["delta"]
    sups = []
    for lam in (0.02, 0.005, 0.00125):
        sub = ph.build_subsolution(a5_spec, delta, lam=lam)
        trunc = ph.truncate_reaction(a5_spec, sub)
        state, flags, _ = ph.first_solution(a5_spec, trunc, r_star=2.0, lam=lam)
        assert flags["converged"]
        assert np.all(state.u.values >= sub.u_under.values - 1e-10)
        sups.append(state.u.sup_norm())
    assert sups[0] > sups[1] > sups[2]
    # local quartic growth of the generator puts the amplitude near
    # lam^(1/3), so a 16x weight drop shrinks the sup by about 2.5x
    assert sups[2] < 0.6 * sups[0]


def test_first_solution_projects_onto_binding_radius(a5_spec, a5_truncation, a5_pipeline):
    # at half the free minimum's gradient energy the radius binds: steps
    # that leave the ball are scaled back onto its sphere
    r_star = 0.5 * a5_pipeline.first.H_value
    state, flags, _ = ph.first_solution(a5_spec, a5_truncation, r_star, a5_pipeline.lam,
                                        max_iter=50)
    assert flags["projections"] > 0
    assert state.H_value <= r_star
    assert flags["boundary_pinned"]


# ---------------------------------------------------------------------------
# uphill endpoint


def test_uphill_endpoint_drops_energy(a5_spec, a5_truncation, a5_pipeline):
    state = a5_pipeline.first
    u1 = a5_pipeline.uphill
    j1 = _j_parts(a5_spec, a5_truncation, u1.values, a5_pipeline.lam)[2]
    assert j1 < state.J_value - 1.0
    # found within 60 doublings of a unit bump
    assert u1.sup_norm() <= 2.0 ** 60


def test_uphill_requires_superlinearity(a5_spec, a5_truncation, a5_pipeline):
    from dataclasses import replace
    bad = replace(a5_spec, mu=3.5, _phi_star=a5_spec._phi_star)
    with pytest.raises(SolverError):
        ph.uphill_endpoint(bad, a5_truncation, a5_pipeline.first, a5_pipeline.lam)


# ---------------------------------------------------------------------------
# mountain pass


def test_mountain_pass_one_dof_oracle():
    # J(u) = u^4 - 2u^2: minima at -1 and 1, crossing point 0 at level 0
    out = mountain_pass_path(
        lambda u: u[..., 0] ** 4 - 2.0 * u[..., 0] ** 2,
        lambda u: np.array([4.0 * u[0] ** 3 - 4.0 * u[0]]),
        lambda u, rhs: rhs / (12.0 * u ** 2 - 4.0),
        np.array([-1.0]), np.array([1.0]), n_path=41, tol=1e-8)
    assert out["converged"] and not out["collapsed"]
    assert abs(out["v"][0]) < 1e-3
    assert abs(out["level"]) < 1e-6


def test_mountain_pass_convex_collapses():
    out = mountain_pass_path(
        lambda u: np.sum(u * u, axis=-1),
        lambda u: 2.0 * u,
        lambda u, rhs: rhs / 2.0,
        np.zeros(5), np.ones(5), n_path=21, tol=1e-8)
    assert out["collapsed"] and not out["converged"]


def test_path_energies_in_one_call(a5_spec, a5_truncation, a5_pipeline):
    # the 2-D evaluation of the path gives each state's energy bit for bit
    ts = np.linspace(0.0, 1.0, 41)[:, None]
    states = (1.0 - ts) * a5_pipeline.first.u.values + ts * a5_pipeline.uphill.values
    parts = _j_parts(a5_spec, a5_truncation, states, a5_pipeline.lam)
    single = np.array([_j_parts(a5_spec, a5_truncation, s, a5_pipeline.lam) for s in states])
    assert np.array(parts).T.tobytes() == single.tobytes()


def test_mountain_pass_two_distinct_solutions(a5_pipeline):
    mp = a5_pipeline.mp
    assert mp.converged and not mp.collapsed
    assert mp.residual < 1e-4
    assert mp.state.J_value >= a5_pipeline.first.J_value
    gap = np.max(np.abs(mp.state.u.values - a5_pipeline.first.u.values))
    assert gap > 1e-2
    assert mp.separation_ok
    # the path level dominates both endpoint energies
    assert mp.level >= a5_pipeline.first.J_value


def test_mountain_pass_polishes_straight_path_crest(a5_pipeline):
    # the crest of the straight path is already in Newton's basin
    assert a5_pipeline.mp.outer_iterations == 1


def test_mountain_pass_needs_second_derivative(a5_spec, a5_truncation, a5_pipeline):
    from dataclasses import replace
    phi = a5_spec.phi
    bare = ph.YoungFunction(phi, phi.prime, t_hi=phi.t_hi, name="no-second")
    with pytest.raises(ConstructionError, match="no-second: .*second derivative"):
        ph.mountain_pass(replace(a5_spec, phi=bare), a5_truncation, a5_pipeline.first,
                         a5_pipeline.uphill, a5_pipeline.lam)


def test_mountain_pass_pathological_fine_grid():
    # converges from the coarse grid's saddle; the straight path's first
    # crest also polishes to this solution at this grid size
    res = ph.two_solution_pipeline(
        ph.builtin_example("pathological-reaction", n_interior=1023))
    assert res.mp.converged and not res.mp.collapsed and res.mp.coarse_start
    assert abs(res.mp.level / 166821.0 - 1.0) < 1e-3


def _pipeline_at(n, example="A5"):
    spec = ph.builtin_example(example, n_interior=n)
    return spec, ph.two_solution_pipeline(spec)


def _rerun_mountain_pass(spec, res, r_star=True):
    return ph.mountain_pass(spec, ph.truncate_reaction(spec, res.sub), res.first,
                            res.uphill, res.lam,
                            r_star=res.admissibility.r_star if r_star else None)


def _count_solves(monkeypatch):
    # Newton solves; the mountain pass makes no other
    solve, calls = solver._tridiagonal_solve, []

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(solver, "_tridiagonal_solve", counting)
    return calls


def test_mountain_pass_coarse_start_fine_grid():
    spec, res = _pipeline_at(1023)
    assert res.mp.converged and res.mp.coarse_start
    assert abs(res.mp.level / 1.36104e8 - 1.0) < 1e-3
    assert res.verify_second.max_residual < 1e-4


def test_mountain_pass_coarse_start_solve_count(monkeypatch):
    # the straight path's crest lies outside Newton's basin at this grid
    # size; the coarse grid's saddle and one fine polish take ~35 solves
    spec, res = _pipeline_at(2047)
    calls = _count_solves(monkeypatch)
    mp = _rerun_mountain_pass(spec, res)
    assert mp.converged and mp.coarse_start
    assert len(calls) <= 60


def test_mountain_pass_coarse_start_without_r_star(monkeypatch):
    # the coarse start needs no radius: the library call without r_star
    # takes it too
    spec, res = _pipeline_at(1023)
    calls = _count_solves(monkeypatch)
    mp = _rerun_mountain_pass(spec, res, r_star=False)
    assert mp.converged and mp.coarse_start and mp.outer_iterations == 1
    assert len(calls) <= 40
    assert abs(mp.level / res.mp.level - 1.0) < 1e-6


@pytest.mark.parametrize("example", ["A4", "pathological-reaction"])
def test_mountain_pass_solve_count_n255(example, monkeypatch):
    # the coarse start samples the fine run's endpoints instead of solving
    # the chain again on the coarse grid
    spec, res = _pipeline_at(255, example)
    calls = _count_solves(monkeypatch)
    mp = _rerun_mountain_pass(spec, res)
    assert mp.converged and mp.coarse_start
    assert len(calls) <= 20


def _stall_coarse_chain(monkeypatch):
    # the pass on the coarse grid collapses
    path = solver.mountain_pass_path

    def failing(*args, **kwargs):
        out = path(*args, **kwargs)
        if args[3].size == solver.COARSE_N:
            out["converged"], out["collapsed"] = False, True
        return out

    monkeypatch.setattr(solver, "mountain_pass_path", failing)


def _reject_polish(monkeypatch):
    # the fine polish of the coarse saddle, the first fine-grid polish, is
    # rejected
    accept, fine = solver._polish_accept, []

    def rejecting(*args):
        out = accept(*args)
        if args[3].size > solver.COARSE_N and not fine:
            fine.append(1)
            out["converged"] = False
        return out

    monkeypatch.setattr(solver, "_polish_accept", rejecting)


@pytest.fixture(scope="module")
def a5_n255():
    return _pipeline_at(255)


@pytest.mark.parametrize("failure", [_reject_polish, _stall_coarse_chain])
def test_mountain_pass_coarse_start_falls_back(a5_n255, monkeypatch, failure):
    # the straight path's crest polishes at this grid size
    spec, res = a5_n255
    assert res.mp.coarse_start
    failure(monkeypatch)
    mp = _rerun_mountain_pass(spec, res)
    assert mp.converged and not mp.collapsed and not mp.coarse_start
    assert mp.outer_iterations == 2
    assert abs(mp.level / res.mp.level - 1.0) < 1e-6


def test_mountain_pass_solution_verifies(a5_pipeline):
    ver = a5_pipeline.verify_second
    assert ver.max_residual < 1e-4
    assert ver.positive
    assert ver.above_subsolution


# ---------------------------------------------------------------------------
# verification


def test_verify_first_solution(a5_pipeline):
    ver = a5_pipeline.verify_first
    assert ver.max_residual < 1e-6
    assert ver.positive and ver.above_subsolution


def test_verify_subsolution_slack_is_signed(a5_spec, a5_truncation, a5_pipeline):
    # the sub-solution satisfies the equation with a one-sided defect once
    # the weight dominates the torsion load
    rep = ph.verify_solution(a5_spec, a5_truncation,
                             a5_truncation.sub.u_under, a5_pipeline.lam)
    assert np.all(rep.residuals <= 1e-15)
    assert rep.max_residual > 0.0  # strictly a sub-solution, not a solution


def test_verify_perturbed_solution(a5_spec, a5_truncation, a5_pipeline):
    u = a5_pipeline.first.u
    bump = np.zeros_like(u.values)
    mid = len(bump) // 2
    bump[mid] = 0.1
    pert = ph.GridFunction(a5_spec.grid, u.values + bump)
    rep = ph.verify_solution(a5_spec, a5_truncation, pert, a5_pipeline.lam)
    assert rep.max_residual > 10.0 * 1e-6


# ---------------------------------------------------------------------------
# level-set sup bound


def test_degiorgi_constant_state():
    grid = ph.Grid(31, 1.0)
    u = ph.GridFunction(grid, np.full(31, 0.7))
    rep = degiorgi_bound(u, p_exp=3.0, r_exp=1.5, k_start=0.7)
    assert rep.M == pytest.approx(1.4)
    assert rep.masses[-1] == 0.0


def test_degiorgi_level_schedule(a5_pipeline):
    rep = a5_pipeline.degiorgi
    expected = rep.M * (1.0 - 0.5 ** (np.arange(len(rep.levels)) + 1.0))
    assert np.allclose(rep.levels, expected, rtol=1e-14)


def test_degiorgi_certifies_solution(a5_pipeline):
    rep = a5_pipeline.degiorgi
    u = a5_pipeline.first.u
    assert rep.masses[-1] == 0.0
    assert u.sup_norm() <= rep.M
    # masses are nonincreasing and the recursion holds at every step
    assert np.all(np.diff(rep.masses) <= 0.0)
    for n in range(len(rep.masses) - 1):
        bound = rep.C * rep.b ** n * rep.masses[n] ** (1.0 + rep.a)
        assert rep.masses[n + 1] <= bound * (1.0 + 1e-12)
    assert rep.masses[rep.smallness_index] <= rep.smallness_threshold


def test_degiorgi_rejects_negative_state():
    grid = ph.Grid(15, 1.0)
    u = ph.GridFunction(grid, -np.ones(15))
    with pytest.raises(Exception):
        degiorgi_bound(u, 3.0, 1.5, 1.0)


# ---------------------------------------------------------------------------
# energy ordering and CSV output


def test_energy_ordering(a5_pipeline):
    assert a5_pipeline.mp.state.J_value >= a5_pipeline.first.J_value
    assert a5_pipeline.mp.level >= a5_pipeline.first.J_value


def test_first_stage_is_the_head_of_the_pipeline(a5_spec, a5_pipeline):
    first = ph.first_stage(a5_spec, ph.threshold_stage(a5_spec, a5_pipeline.report))
    assert not hasattr(first, "mp")
    assert np.array_equal(first.first.u.values, a5_pipeline.first.u.values)
    assert first.verify_first.max_residual == a5_pipeline.verify_first.max_residual
    assert np.array_equal(first.degiorgi.masses, a5_pipeline.degiorgi.masses)


def test_csv_writers(tmp_path, a5_pipeline, a5_spec):
    sol = tmp_path / "solution.csv"
    write_solution_csv(sol, a5_spec.grid, {
        "u_lambda": a5_pipeline.first.u.values,
        "v_lambda": a5_pipeline.mp.state.u.values,
        "u_under": a5_pipeline.sub.u_under.values})
    lines = sol.read_text().splitlines()
    assert lines[0] == "x,u_lambda,v_lambda,u_under"
    assert len(lines) == a5_spec.grid.n_interior + 3

    conv = tmp_path / "convergence.csv"
    write_convergence_csv(conv, a5_pipeline.first_trace)
    assert conv.read_text().splitlines()[0] == "iteration,J,residual"

    dg = tmp_path / "degiorgi.csv"
    write_degiorgi_csv(dg, a5_pipeline.degiorgi)
    assert dg.read_text().splitlines()[0] == "n,k_n,y_n"
