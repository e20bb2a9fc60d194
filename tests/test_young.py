"""Young-function calculus: indices, conjugates, ordering, oscillating generator."""

import math
import re

import numpy as np
import pytest

import philap as ph
from philap import Ordering, young
from philap.errors import (
    ConstructionError,
    EvalDomainError,
    OutOfRangeError,
)
from philap.problems import upsilon_ratio_reaction


# ---------------------------------------------------------------------------
# indices


def test_indices_cubic_power_are_exact():
    pair = ph.compute_indices(ph.power_young(3.0))
    assert pair.lower == pytest.approx(3.0, abs=1e-9)
    assert pair.upper == pytest.approx(3.0, abs=1e-9)


def test_indices_pathological_hit_q_and_p(pathological):
    # extrema of the oscillation are attained inside the default grid
    pair = ph.compute_indices(pathological, ph.log_grid(1e-4, 1e6, 2000))
    assert pair.lower == pytest.approx(2.0, abs=1e-3)
    assert pair.upper == pytest.approx(3.0, abs=1e-3)


def test_indices_sum_of_powers_approach_analytic_limits():
    # oracle: ratio (2t^2+3t^3)/(t^2+t^3) tends to 2 at 0 and 3 at infinity
    psi = ph.YoungFunction(lambda t: t ** 2 + t ** 3,
                           lambda t: 2 * t + 3 * t ** 2,
                           lambda t: 2 + 6 * t, name="t2+t3")
    narrow = ph.compute_indices(psi, ph.log_grid(1e-4, 1e6, 2000))
    wide = ph.compute_indices(psi, ph.log_grid(1e-6, 1e8, 2000))
    assert 2.0 < wide.lower < narrow.lower < 2.001
    assert 2.999 < narrow.upper < wide.upper < 3.0


def test_compute_indices_leaves_the_generator_unchanged():
    def fresh():
        return ph.build_pathological(ph.PathologicalParams.make(3.0, 2.0, 1.9))
    psi = fresh()
    one_off = ph.compute_indices(psi, ph.log_grid(1e-2, 1e8, 1500))
    assert one_off != fresh().indices
    assert psi.indices == fresh().indices


def test_log_power_indices_sampled_up_to_the_trusted_range():
    psi = ph.log_power_young(3.0)
    assert psi.indices == ph.compute_indices(psi, ph.log_grid(1e-4, 9.9e43, 4000))
    assert psi.indices != ph.compute_indices(psi)  # the default grid ends at 1e6


def test_indices_grid_preconditions():
    psi = ph.power_young(2.0)
    with pytest.raises(ConstructionError):
        ph.compute_indices(psi, ph.log_grid(1e-2, 1e2, 2000))  # 4 decades only
    with pytest.raises(ConstructionError):
        ph.compute_indices(psi, ph.log_grid(1e-4, 1e6, 500))  # too few points
    for start in (0.0, -1.0):
        with pytest.raises(ConstructionError):
            ph.compute_indices(psi, np.linspace(start, 1e9, 2000))


def test_indices_nonfinite_ratio_raises():
    psi = ph.YoungFunction(lambda t: np.where(t > 1e3, 0.0, t ** 2),
                           lambda t: 2 * t, name="broken")
    with pytest.raises(EvalDomainError):
        ph.compute_indices(psi)


# ---------------------------------------------------------------------------
# scaling bounds and doubling flags


def test_scaling_bounds_trivial_cases():
    psi = ph.power_young(3.0)
    assert ph.scaling_bound_lower(psi, 1.0) == pytest.approx(1.0)
    assert ph.scaling_bound_upper(psi, 1.0) == pytest.approx(1.0)
    # equality case for pure powers: lower(k) psi(t) = psi(kt) = upper(k) psi(t)
    rng = np.random.default_rng(5)
    for _ in range(20):
        k, t = rng.uniform(0.1, 10.0, size=2)
        assert ph.scaling_bound_lower(psi, k) * psi(t) == pytest.approx(psi(k * t))


def test_scaling_bounds_on_fresh_generator_equal_those_after_reading_indices():
    def fresh():
        return ph.YoungFunction(lambda t: t ** 2 + t ** 3, lambda t: 2 * t + 3 * t ** 2,
                                name="fresh")
    k = np.array([0.1, 0.5, 2.0, 30.0])
    read = fresh()
    pair = read.indices
    assert read.indices is pair  # computed once, then kept
    for bound in (ph.scaling_bound_lower, ph.scaling_bound_upper):
        assert np.array_equal(bound(fresh(), k), bound(read, k))


def test_factor_bounds_on_pathological(pathological):
    # the exact limits are q = 2 and p = 3; the sandwiched inequality then
    # holds with the true index pair at every sample
    base = ph.build_pathological(ph.PathologicalParams.make(3.0, 2.0, 1.9))
    psi = ph.YoungFunction(base, base.prime, name=base.name,
                           indices=ph.IndexPair(2.0, 3.0, 2.0, 3.0))
    rng = np.random.default_rng(11)
    k = rng.uniform(0.05, 50.0, size=100)
    t = rng.uniform(0.05, 50.0, size=100)
    lhs = ph.scaling_bound_lower(psi, k) * psi(t)
    rhs = ph.scaling_bound_upper(psi, k) * psi(t)
    mid = psi(k * t)
    assert np.all(lhs <= mid * (1 + 1e-12))
    assert np.all(mid <= rhs * (1 + 1e-12))


def test_delta2_nabla2_flags():
    psi = ph.power_young(3.0)
    assert ph.delta2_nabla2(psi) == (True, True)


def test_delta2_nabla2_pathological(pathological):
    assert ph.delta2_nabla2(pathological) == (True, True)


def test_delta2_fails_for_exponential_growth():
    # oracle: the ratio behaves like t at infinity, hence is unbounded
    psi = ph.exp_young()
    pair = ph.compute_indices(psi)
    assert math.isinf(pair.at_infinity_upper)
    in_d2, in_n2 = ph.delta2_nabla2(psi)
    assert not in_d2
    assert in_n2


# ---------------------------------------------------------------------------
# Young conjugate


def test_conjugate_self_dual_quadratic():
    psi = ph.power_over_p_young(2.0)
    conj = ph.young_conjugate(psi)
    ts = ph.log_grid(1e-3, 1e3, 50)
    assert np.max(np.abs(conj(ts) - psi(ts)) / psi(ts)) < 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_conjugate_power_closed_form(p):
    psi = ph.power_over_p_young(p)
    conj = ph.young_conjugate(psi)
    pp = p / (p - 1.0)
    ts = ph.log_grid(1e-3, 1e3, 100)
    exact = ts ** pp / pp
    assert np.max(np.abs(conj(ts) - exact) / exact) < 1e-10


def test_conjugate_index_relation_pathological(pathological):
    # conjugates of the exponent window [q, p] = [2, 3] are [p', q'] = [1.5, 2];
    # grid extrema are inner estimates, so the bracketing holds within 1e-2
    conj = ph.young_conjugate(pathological)
    pair = ph.compute_indices(conj)
    s_prime = 3.0 / 2.0
    i_prime = 2.0
    assert pair.lower >= s_prime - 1e-2
    assert pair.upper <= i_prime + 1e-2


def test_conjugate_out_of_range_reports_offender():
    psi = ph.power_over_p_young(2.0)
    conj = ph.young_conjugate(psi)
    with pytest.raises(OutOfRangeError):
        conj(1e-32)  # maximizer would sit below psi's trusted range


def test_conjugate_inconsistent_root_names_t():
    # psi' = s + 1/2 on [1, 2) only: it jumps up at 1 and back down at 2, so
    # psi' = t has no root for t in (1, 3/2) and the bisection lands on the jump
    psi = ph.YoungFunction(lambda s: s * s / 2.0 + np.clip(s - 1.0, 0.0, 1.0) / 2.0,
                           lambda s: s + np.where((s >= 1.0) & (s < 2.0), 0.5, 0.0),
                           name="kinked")
    conj = ph.young_conjugate(psi)
    assert float(conj.prime(0.5)) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(OutOfRangeError, match=r"inconsistent.*1\.2"):
        conj.prime(np.array([0.5, 1.2]))


def test_conjugate_inverse_identity():
    # parametric inverse of the conjugate against the closed form for powers
    m = 4.5
    psi = ph.power_young(m)
    s = ph.log_grid(1e-3, 1e3, 60)
    got = ph.conjugate_inverse(psi, psi(s))
    exact = m / (m - 1.0) ** ((m - 1.0) / m) * s ** (m - 1.0)
    assert np.max(np.abs(got - exact) / exact) < 1e-9


def test_young_inequality_and_equality_case(pathological):
    rng = np.random.default_rng(3)
    for psi in (ph.power_over_p_young(1.5), ph.power_over_p_young(3.0), pathological):
        conj = ph.young_conjugate(psi)
        s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=1000))
        t = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=1000))
        slack = psi(s) + conj(t) - s * t
        assert np.min(slack) > -1e-9 * np.maximum(psi(s), conj(t)).max()
        # equality at t = psi'(s)
        tp = psi.prime(s[:100])
        total = psi(s[:100]) + conj(tp)
        assert np.max(np.abs(total - s[:100] * tp) / total) < 1e-8


def test_value_conjugate_sandwich(pathological):
    # psi(s) <= s * conj^{-1}(psi(s)) <= 2 psi(s) at every sample
    rng = np.random.default_rng(9)
    for psi in (ph.power_over_p_young(1.5), ph.power_young(3.0), pathological):
        s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=1000))
        mid = s * ph.conjugate_inverse(psi, psi(s))
        vals = psi(s)
        assert np.all(vals <= mid * (1 + 1e-10))
        assert np.all(mid <= 2 * vals * (1 + 1e-10))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_involution_powers(p):
    psi = ph.power_over_p_young(p)
    back = ph.young_conjugate(ph.young_conjugate(psi))
    ts = ph.log_grid(1e-3, 1e3, 100)
    assert np.max(np.abs(back(ts) - psi(ts)) / psi(ts)) < 1e-6


def test_involution_pathological(pathological):
    back = ph.young_conjugate(ph.young_conjugate(pathological))
    ts = ph.log_grid(1e-3, 1e3, 100)
    vals = pathological(ts)
    assert np.max(np.abs(back(ts) - vals) / vals) < 1e-6


# ---------------------------------------------------------------------------
# log-log tables


def _log_power3_primitive(s):
    """int_0^s t^2 log(1+t) dt = (s^3/3) log(1+s) - (s^3/3 - s^2/2 + s - log(1+s))/3.

    The bracket cancels catastrophically for small s, so below 0.1 it is
    summed as its series sum_{k>=4} (-1)^k s^k / k.
    """
    log1p = np.log1p(s)
    k = np.arange(4, 40)
    small = np.where(s < 0.1, s, 0.0)
    series = ((-1.0) ** k * small[:, None] ** k / k).sum(axis=1)
    bracket = np.where(s < 0.1, series, s ** 3 / 3 - s ** 2 / 2 + s - log1p)
    return s ** 3 / 3 * log1p - bracket / 3


def test_log_power_primitive_closed_form():
    # from below the 1e-12 cache grid (power-law head) to t_hi; the
    # measured worst relative error is 2.0e-11, near t = 1.6
    psi = ph.log_power_young(3.0)
    ts = ph.log_grid(1e-14, psi.t_hi, 20001)
    exact = _log_power3_primitive(ts)
    assert np.max(np.abs(psi(ts) - exact) / exact) < 1e-9


# ---------------------------------------------------------------------------
# Sobolev conjugate


def test_sobolev_conjugate_power_closed_form():
    # oracle by symbolic integration: for t^p the inverse integral is
    # p* t^(1/p*), hence the conjugate is (t/p*)^(p*)
    p, N = 3.0, 4
    psi = ph.power_young(p)
    star = ph.sobolev_conjugate(psi, N)
    p_star = N * p / (N - p)
    ts = ph.log_grid(max(star.t_lo * 2.0, 1e-2), min(star.t_hi / 2.0, 1e2), 60)
    exact = (ts / p_star) ** p_star
    assert np.max(np.abs(star(ts) - exact) / exact) < 1e-8
    got_inv = ph.inverse_value(star, exact)
    assert np.max(np.abs(got_inv - ts) / ts) < 1e-8


def test_sobolev_index_bracketing_pathological(pathological):
    # i* <= i_star <= s_star <= s* with r* = N r/(N-r), N = 5
    N = 5
    star = ph.sobolev_conjugate(pathological, N)
    pair = ph.compute_indices(star)
    i_conj = N * 2.0 / (N - 2.0)
    s_conj = N * 3.0 / (N - 3.0)
    assert pair.lower >= i_conj - 1e-2
    assert pair.upper <= s_conj + 1e-2


def test_sobolev_conjugate_log_power_exceeds_critical(a5_spec):
    # borderline upper growth; the regularized conjugate still has lower
    # index at the critical exponent Np/(N-p) = 12
    pair = a5_spec.phi_star_indices()
    assert pair.lower >= 12.0 - 1e-2
    assert a5_spec.phi_indices().upper < pair.lower


@pytest.mark.parametrize("grid", [None, ph.log_grid(1e-4, 1e6, 2000),
                                  ph.log_grid(1e-4, 9.9e43, 4000)])
def test_sobolev_conjugate_log_power_independent_of_prior_index_calls(grid):
    # the patched head takes the generator's own lower index, whatever
    # compute_indices was asked before
    fresh = ph.sobolev_conjugate(ph.log_power_young(3.0), 4)
    psi = ph.log_power_young(3.0)
    ph.compute_indices(psi, grid)
    star = ph.sobolev_conjugate(psi, 4)
    assert (star.t_lo, star.t_hi) == (fresh.t_lo, fresh.t_hi)
    ts = ph.log_grid(star.t_lo, star.t_hi, 2001)
    assert np.array_equal(star(ts), fresh(ts))
    assert np.array_equal(star.prime(ts), fresh.prime(ts))


@pytest.mark.parametrize("generator", ["power", "log-power", "pathological"])
def test_sobolev_conjugate_strictly_increasing(generator, pathological):
    # the exact-slope Hermite inverse table is not monotone by construction
    psi = {"power": ph.power_young(3.0), "log-power": ph.log_power_young(3.0),
           "pathological": pathological}[generator]
    star = ph.sobolev_conjugate(psi, 4)
    vals = star(ph.log_grid(star.t_lo, star.t_hi, 200001))
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("N", [4, 5])
def test_sobolev_conjugate_prime_power_closed_form(N):
    # (t/p*)^(p*) has derivative (t/p*)^(p*-1); across the whole table,
    # including below its first knot
    p = 3.0
    star = ph.sobolev_conjugate(ph.power_young(p), N)
    p_star = N * p / (N - p)
    ts = ph.log_grid(star.t_lo, star.t_hi, 2001)
    exact = (ts / p_star) ** (p_star - 1.0)
    assert np.max(np.abs(star.prime(ts) - exact) / exact) < 1e-11


@pytest.mark.parametrize("N", [4, 5])
@pytest.mark.parametrize("generator", ["log-power", "pathological"])
def test_sobolev_conjugate_prime_central_difference(generator, N, pathological):
    # log-power p = 3 is patched at N = 4; the pathological generator's
    # switch at t = e puts a kink in a higher derivative of the table
    psi = {"log-power": ph.log_power_young(3.0), "pathological": pathological}[generator]
    star = ph.sobolev_conjugate(psi, N)
    ts = ph.log_grid(star.t_lo * 2.0, star.t_hi / 2.0, 4001)
    h = 1e-5
    fd = (star(ts * (1.0 + h)) - star(ts * (1.0 - h))) / (2.0 * h * ts)
    assert np.max(np.abs(star.prime(ts) - fd) / fd) < 1e-6


@pytest.mark.parametrize("N", [4, 5])
def test_sobolev_conjugate_patched_head_power_law(N):
    # log-power with p = N - 1 grows like t^N at 0, so the integral
    # diverges there and the table is patched below s = phi(1) by the
    # head power t^{1/(e_patch+1)}, e_patch = 1/i_phi - 1 - 1/N
    psi = ph.log_power_young(N - 1.0)
    star = ph.sobolev_conjugate(psi, N)
    expo = 1.0 / (1.0 / psi.indices.lower - 1.0 / N)
    ts = ph.log_grid(star.t_lo, star.t_hi, 20001)
    vals = star(ts)
    head = vals < psi(1.0) / 10.0
    assert head.sum() > 1000
    th, vh = ts[head], vals[head]
    slopes = np.diff(np.log(vh)) / np.diff(np.log(th))
    assert np.max(np.abs(slopes - expo)) < 1e-9
    assert np.max(np.abs(star.prime(th) * th / vh - expo)) < 1e-10


@pytest.mark.parametrize("N", [4, 5])
@pytest.mark.parametrize("generator", ["power", "log-power", "pathological"])
def test_critical_tables_are_root_free(generator, N, pathological, monkeypatch):
    # after the substitution s = phi(tau), phi is inverted only at the
    # ends of the range (and the patch point) and at the decade ends
    psi = {"power": ph.power_young(3.0), "log-power": ph.log_power_young(N - 1.0),
           "pathological": pathological}[generator]
    ph.compute_indices(psi)
    targets = []
    solve = young._solve_increasing

    def counting(fn, target, lo, hi, *args, **kwargs):
        targets.append(np.size(target))
        return solve(fn, target, lo, hi, *args, **kwargs)

    monkeypatch.setattr(young, "_solve_increasing", counting)
    ph.sobolev_conjugate(psi, N)
    assert targets == [3]  # one call: both range ends and the patch point
    targets.clear()
    young.theta_growth_integrals(psi, N)
    assert sum(targets) <= 9


def _gl_cumulative(fn, edges, order):
    """_panel_cumulative with the Gauss-Legendre rule of the given order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = (edges[1:] - edges[:-1]) / 2.0
    pts = (edges[:-1] + half)[:, None] + half[:, None] * nodes
    vals = np.asarray(fn(pts.ravel())).reshape(pts.shape)
    return np.concatenate([[0.0], np.cumsum((vals * weights).sum(axis=1) * half)])


def test_table_rule_is_four_point_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert np.array_equal(young.GL_NODES, nodes)
    assert np.array_equal(young.GL_WEIGHTS, weights)


_TABLES = {
    "power-critical": lambda path, N: ph.sobolev_conjugate(ph.power_young(3.0), N),
    "log-power-critical": lambda path, N: ph.sobolev_conjugate(ph.log_power_young(3.0), N),
    "log-power-primitive": lambda path, N: ph.log_power_young(N - 1.0),
    "pathological-critical": lambda path, N: ph.sobolev_conjugate(path, N),
    "pathological-ratio-primitive": lambda path, N: upsilon_ratio_reaction(path),
}


@pytest.mark.parametrize("table, bound", [
    ("power-critical", 1e-13), ("log-power-critical", 1e-13), ("log-power-primitive", 1e-13),
    ("pathological-critical", 1e-8), ("pathological-ratio-primitive", 1e-8)])
def test_four_point_tables_match_gl20(table, bound, pathological, monkeypatch):
    # on the real integrands and panels; the pathological generator is only
    # C^2 across its switch at t = e, which keeps those tables near 1e-9
    gaps = []
    panel = young._panel_cumulative

    def compared(fn, edges):
        got = panel(fn, edges)
        ref = _gl_cumulative(fn, edges, 20)
        gaps.append(np.max(np.abs(got[1:] - ref[1:]) / ref[1:]))
        return got

    monkeypatch.setattr(young, "_panel_cumulative", compared)
    for N in (4, 5):
        _TABLES[table](pathological, N)
    assert gaps and max(gaps) <= bound


@pytest.mark.parametrize("generator, bound", [
    ("power", 1e-13), ("log-power", 1e-13), ("pathological", 1e-8)])
def test_theta_growth_integrals_match_gl20(generator, bound, pathological, monkeypatch):
    psi = {"power": ph.power_young(3.0), "log-power": ph.log_power_young(3.0),
           "pathological": pathological}[generator]
    got = young.theta_growth_integrals(psi, 5)
    monkeypatch.setattr(young, "_panel_cumulative",
                        lambda fn, edges: _gl_cumulative(fn, edges, 20))
    ref = young.theta_growth_integrals(psi, 5)
    assert np.max(np.abs(np.subtract(got, ref)) / ref) <= bound


def _counting(fn, count):
    def counted(t):
        count[0] += np.size(t)
        return fn(t)
    return counted


def test_sobolev_conjugate_evaluation_budget(monkeypatch):
    # phi and phi' at 4 nodes per panel, 48 panels per decade of s, plus
    # the root grids of the two range ends
    psi = ph.power_young(3.0)
    count = [0]
    monkeypatch.setattr(psi, "_value", _counting(psi._value, count))
    monkeypatch.setattr(psi, "_derivative", _counting(psi._derivative, count))
    ph.sobolev_conjugate(psi, 4)
    assert 0 < count[0] <= 53000


def test_log_power_primitive_evaluation_budget(monkeypatch):
    count = [0]
    primitive = young.cumulative_primitive
    monkeypatch.setattr(young, "cumulative_primitive",
                        lambda fn, *args: primitive(_counting(fn, count), *args))
    ph.log_power_young(3.0)
    assert 0 < count[0] <= 35000


def _bisect_all_rounds(fn, target, lo, hi):
    """Geometric bisection of [lo, hi] without an early stop."""
    t = np.atleast_1d(np.asarray(target, dtype=float))
    a, b = np.full(t.shape, float(lo)), np.full(t.shape, float(hi))
    for _ in range(young.ROOT_RTOL_ITERS):
        mid = np.sqrt(a) * np.sqrt(b)
        high = fn(mid) >= t
        b = np.where(high, mid, b)
        a = np.where(high, a, mid)
    return np.sqrt(a) * np.sqrt(b)


@pytest.mark.parametrize("generator", ["power", "log-power", "pathological"])
def test_solve_increasing_stops_at_fixed_point(generator, pathological):
    # the iteration stops at a flip pair whose upper end is the root, a few
    # ulps from bisection's; the grid call plus the regula falsi rounds stay
    # well below the 60-odd rounds bisection takes, also where log-power's
    # value table sits on the target psi(1) for a run of ulps (13 calls,
    # the most of these six)
    psi = {"power": ph.power_young(3.0), "log-power": ph.log_power_young(3.0),
           "pathological": pathological}[generator]
    calls = []

    def counted(fn):
        def wrapped(s):
            calls.append(1)
            return fn(s)
        return wrapped

    targets = np.concatenate([np.logspace(-20, 20, 41), [float(psi(1.0)), 7.3]])
    for fn in (psi, psi.prime):
        calls.clear()
        got = young._solve_increasing(counted(fn), targets, psi.t_lo, psi.t_hi)
        assert len(calls) <= 13
        inside = targets > fn(psi.t_lo)
        assert np.all(got[~inside] == psi.t_lo)
        assert np.all(fn(np.nextafter(got[inside], 0.0)) < targets[inside])
        assert np.all(targets <= fn(got))
        ref = _bisect_all_rounds(fn, targets, psi.t_lo, psi.t_hi)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))


_CALLER_FNS = {  # the function each caller of _solve_increasing inverts
    "inverse_value": lambda psi: psi,
    "conjugate_inverse": lambda psi: lambda s: s * psi.prime(s) - psi(s),
    "conj": lambda psi: psi.prime,
}


@pytest.mark.parametrize("caller", list(_CALLER_FNS))
@pytest.mark.parametrize("generator", ["power", "power-13", "log-power", "pathological"])
def test_solve_increasing_rows_match_single_calls(caller, generator, pathological,
                                                  monkeypatch):
    # each row of one call takes the path it takes alone, so merging
    # targets into one call (as sobolev_conjugate does) moves no bit; the
    # targets include log-power's plateau at psi(1) and, for t^13, values
    # up to the overflow near the top of its trusted range.  The endgame
    # closes each row on the flip pair the secant alone reaches.
    psi = {"power": ph.power_young(3.0), "power-13": ph.power_young(13.0),
           "log-power": ph.log_power_young(3.0), "pathological": pathological}[generator]
    fn = _CALLER_FNS[caller](psi)
    targets = np.concatenate([np.logspace(-30, 30, 31), fn(np.array([0.5, 1.0, 2.0, 7.3])),
                              [1e-300, 1e300, 3.0, 3.0]])
    together = young._solve_increasing(fn, targets, psi.t_lo, psi.t_hi)
    alone = [young._solve_increasing(fn, t, psi.t_lo, psi.t_hi)[0] for t in targets]
    assert together.tobytes() == np.array(alone).tobytes()
    monkeypatch.setattr(young, "ROOT_ENDGAME", 0)
    assert together.tobytes() == young._solve_increasing(fn, targets, psi.t_lo, psi.t_hi).tobytes()


@pytest.mark.parametrize("width", [young.ROOT_ENDGAME // 4, 40 * young.ROOT_ENDGAME])
def test_solve_increasing_returns_first_double_of_a_plateau(width):
    # fn(s) = s except on [p0, p1], `width` doubles wide, where it equals p1:
    # the smallest s with fn(s) >= p1 is p0, whether or not the plateau
    # fits in one endgame round
    p0 = 1.2345
    p1 = (np.array(p0).view(np.int64) + width).view(float)

    def stepped(s):
        return np.where((s >= p0) & (s <= p1), p1, s)

    for target in (p1, np.nextafter(p0, 0.0), p0):
        got = young._solve_increasing(stepped, [target, 7.3, p1], 1e-3, 1e3)
        assert got[0] == (p0 if target >= p0 else target)
        assert got[1:].tolist() == [7.3, p0]


@pytest.mark.parametrize("caller", ["inverse_value", "conjugate_inverse", "conj"])
def test_root_budget_names_the_caller(caller, pathological, monkeypatch):
    # a bracket still open when the budget runs out raises instead of
    # returning the bracket
    solve = young._solve_increasing

    def short(fn, target, lo, hi, iters=young.ROOT_RTOL_ITERS, **kwargs):
        return solve(fn, target, lo, hi, 2, **kwargs)

    monkeypatch.setattr(young, "_solve_increasing", short)
    targets = np.array([7.3, 123.4])
    call = {"inverse_value": lambda: ph.inverse_value(pathological, targets),
            "conjugate_inverse": lambda: ph.conjugate_inverse(pathological, targets),
            "conj": lambda: ph.young_conjugate(pathological).prime(targets)}[caller]
    with pytest.raises(EvalDomainError,
                       match=re.escape(f"{caller}({pathological.name}): regula falsi left a "
                                       f"bracket open after 2 rounds")):
        call()


def test_solve_increasing_limits_and_overflow():
    # targets outside the range of fn on [lo, hi] give the ends; a function
    # that overflows below the top of its trusted range brackets below it
    cube = ph.power_young(3.0)
    got = young._solve_increasing(cube, [0.0, cube(cube.t_lo), 8.0, 2e90, np.inf],
                                  cube.t_lo, cube.t_hi)
    assert got.tolist() == [cube.t_lo, cube.t_lo, 2.0, cube.t_hi, cube.t_hi]
    psi = ph.power_young(13.0)
    targets = np.array([1e-300, 8.0, 1e300])
    got = young._solve_increasing(psi, targets, psi.t_lo, psi.t_hi)
    assert np.all(psi(np.nextafter(got, 0.0)) < targets) and np.all(targets <= psi(got))


# ---------------------------------------------------------------------------
# ordering


def test_ordering_power_pairs():
    t2, t3 = ph.power_young(2.0), ph.power_young(3.0)
    assert ph.ordering(t2, t3) is Ordering.MUCH_LESS
    assert ph.ordering(t3, t3) is Ordering.LESS
    assert ph.ordering(t3, t2) is Ordering.NEITHER


def test_power_trusted_range_stays_finite():
    # t^p overflows above about 10^(308/p); the trusted range ends below
    # that, and stays at 1e30 for p <= 10
    for p in np.linspace(1.5, 30.0, 60):
        for coeff in (1.0, 1.0 / p):
            psi = ph.power_young(p, coeff)
            t = psi.t_hi
            assert (p > 10.0) or t == 1e30
            for fn in (psi, psi.prime, psi.second):
                assert math.isfinite(fn(t)), (p, coeff, fn)
            with pytest.raises(EvalDomainError):
                psi(t * 1.01)


@pytest.mark.parametrize("p", [1.4e154, 1e300])
def test_power_with_empty_trusted_range_is_rejected(p):
    # coeff p (p - 1) overflows, so the second derivative's limit is 0
    with pytest.raises(ConstructionError, match=re.escape(f"p={p:g}")):
        ph.power_young(p)
    assert ph.power_young(1.3e154).t_hi > 1e-30


def test_ordering_steep_power_against_log_power():
    # audit-sweep A5 draw 7 at seed 1: envelope t^(r+1) with r + 1 near 12
    verdict = ph.ordering(ph.power_young(11.97591669665383),
                          ph.log_power_young(3.794770059403826))
    assert isinstance(verdict, Ordering)


def test_ordering_index_shortcut(pathological):
    # gap between the upper index of the oscillating generator (3) and a
    # power envelope above it triggers the shortcut without a tail scan
    assert ph.ordering(pathological, ph.power_young(4.5)) is Ordering.MUCH_LESS


# ---------------------------------------------------------------------------
# oscillating generator


def test_pathological_params_validation():
    with pytest.raises(ConstructionError):
        ph.PathologicalParams.make(3.0, 2.0, 2.5)  # eps above (q-1)/beta = 2
    with pytest.raises(ConstructionError):
        ph.PathologicalParams.make(2.0, 3.0, 1.0)  # q > p
    with pytest.raises(ConstructionError):
        ph.PathologicalParams(p=3.0, q=2.0, eps=1.9, alpha=2.6, beta=0.5)


def test_pathological_branch_match_at_switch(pathological):
    E = math.e
    for fn in (pathological, pathological.prime, pathological.second):
        left = fn(E * (1.0 - 1e-12))
        right = fn(E * (1.0 + 1e-12))
        assert abs(left - right) / abs(left) < 1e-10


def test_pathological_pure_power_at_oscillation_peaks(pathological):
    # where the oscillation phase hits sin = 1 the value is t^(alpha + beta/(1+eps^2))
    p, q, eps = 3.0, 2.0, 1.9
    alpha, beta = 2.5, 0.5
    for k in range(2):
        z = math.pi / 2.0 + 2.0 * math.pi * k
        t = math.exp(math.exp(z / eps))
        if t > pathological.t_hi:
            continue
        expected = t ** (alpha + beta / (1.0 + eps * eps))
        assert pathological(t) == pytest.approx(expected, rel=1e-10)


def test_pathological_second_derivative_ratio_window(pathological):
    # ratio t psi''/psi' stays strictly inside (q-1-beta*eps, p-1+beta*eps)
    q, p, beta, eps = 2.0, 3.0, 0.5, 1.9
    t = ph.log_grid(1e-6, 1e24, 4000)
    ratio = t * pathological.second(t) / pathological.prime(t)
    assert ratio.min() > q - 1.0 - beta * eps
    assert ratio.max() < p - 1.0 + beta * eps


def test_pathological_positivity(pathological):
    t = ph.log_grid(1e-8, 1e24, 3000)
    assert np.all(pathological.prime(t) > 0.0)
    assert np.all(pathological.second(t) > 0.0)


def test_pathological_not_power_like(pathological):
    # over one full oscillation of the phase the normalized value spans a
    # ratio above 10, so no power function is equivalent
    eps, alpha = 1.9, 2.5
    phase = math.atan(eps)
    t1 = math.exp(math.exp((phase + math.pi / 2.0) / eps))
    t2 = math.exp(math.exp((phase + 5.0 * math.pi / 2.0) / eps))
    t = ph.log_grid(t1 * 0.5, min(t2 * 2.0, pathological.t_hi), 4000)
    normalized = pathological(t) / t ** alpha
    assert normalized.max() / normalized.min() > 10.0


def _masked_oscillating(params):
    """The reference: every eta piece computed on boolean masks of each
    branch and scattered into empty arrays, whatever the caller uses."""
    a, b, eps = params.alpha, params.beta, params.eps
    E = math.e
    shift = b * eps / (1.0 + eps * eps)

    def eta_pieces(t):
        eta, teta1, t2eta2 = np.empty_like(t), np.empty_like(t), np.empty_like(t)
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
            sin_z, cos_z = np.sin(z), np.cos(z)
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

    return ph.YoungFunction(value, derivative, second)


_E_POINTS = {
    "below e": np.geomspace(1e-8, 2.718, 1000),
    "above e": np.geomspace(2.7183, 1e29, 1000),
    "straddling": np.geomspace(1e-8, 1e29, 32 * 511),
    "shuffled": np.random.default_rng(5).permutation(np.geomspace(1e-8, 1e29, 32 * 511)),
    "with e": np.array([1.0, math.e, 2.0, 10.0, math.e]),
    "exactly e": np.array([math.e]),
    "one below": np.array([0.5]),
    "one above": np.array([30.0]),
    "0-d": np.float64(3.7),
    "0-d e": math.e,
    "block of a 2-D state": np.geomspace(1e-3, 1e6, 32 * 511).reshape(32, 511),
}


@pytest.mark.parametrize("points", list(_E_POINTS), ids=list(_E_POINTS))
@pytest.mark.parametrize("pqe", [(3.0, 2.0, 1.9), (3.0, 2.5, 1.9)], ids=["A4", "reaction"])
def test_oscillating_generator_matches_masked_oracle_bit_for_bit(pqe, points):
    params = ph.PathologicalParams.make(*pqe)
    psi, oracle = ph.build_pathological(params), _masked_oscillating(params)
    t = _E_POINTS[points]
    for name in ("__call__", "prime", "second"):
        got, want = getattr(psi, name)(t), getattr(oracle, name)(t)
        assert np.shape(got) == np.shape(t) and np.array_equal(got, want), name


def test_diverging_maxima_matches_a_per_decade_loop():
    def per_decade_loop(grid, vals):
        buckets = np.floor(np.log10(grid)).astype(int)
        maxima = np.array([vals[buckets == b].max() for b in np.unique(buckets)])
        if maxima.size < 4:
            return False
        tail = maxima[-4:]
        return bool(np.all(np.diff(tail) > 0) and tail[-1] >= 8.0 * tail[0])

    rng = np.random.default_rng(7)
    verdicts = []
    for decades in np.repeat(np.arange(1, 13), 20):
        lo = 10.0 ** rng.uniform(-8.0, 4.0)
        n = int(rng.integers(2, 3000))
        grid = np.sort(lo * 10.0 ** rng.uniform(0.0, decades, n))
        vals = grid ** rng.uniform(-0.2, 0.6) * rng.uniform(0.5, 2.0, n)
        verdict = young.diverging_maxima(grid, vals)
        assert verdict == per_decade_loop(grid, vals)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# guards


def test_eval_domain_guard():
    psi = ph.power_young(2.0)
    with pytest.raises(EvalDomainError):
        psi(1e31)
    with pytest.raises(EvalDomainError):
        psi(-1.0)
    assert psi(0.0) == 0.0
    assert psi.prime(0.0) == 0.0


def _full_check(psi, t):
    """The message of the full argument check on t, or None when t passes."""
    flat = np.atleast_1d(np.asarray(t, dtype=float))
    if flat.size and (not np.all(np.isfinite(flat)) or np.any(flat < 0.0)):
        return f"{psi.name}: argument outside [0, inf)"
    if flat.size and flat.max() > psi.t_hi:
        return f"{psi.name}: argument {float(flat.max()):.6g} above trusted range {psi.t_hi:.3g}"
    return None


@pytest.mark.parametrize("t_hi", [1e30, math.inf])
@pytest.mark.parametrize("t", [
    [1.0, np.nan], [np.nan, 1.0], [2.0, np.inf], [-np.inf, 1.0], [3.0, -1e-300],
    [1.0, 5e30], np.float64(-2.0), np.float64(np.nan), np.float64(7e30), np.float64(0.5),
    np.zeros(0), np.zeros((0, 3)), [[0.0, 1.0], [2.0, 3.0]], np.float64(0.0)])
def test_lean_guard_matches_full_check(t, t_hi):
    # the min/max pre-test raises the same error as the full check on the
    # same input, and passes what the full check passes
    psi = ph.YoungFunction(lambda s: s ** 2, lambda s: 2 * s, t_hi=t_hi, name="sq")
    expected = _full_check(psi, t)
    if expected is None:
        out = psi(t)
        assert np.shape(out) == np.shape(t)
        assert np.all(out == np.asarray(t, dtype=float) ** 2)
        return
    for fn in (psi, psi.prime):
        with pytest.raises(EvalDomainError) as err:
            fn(t)
        assert type(err.value) is EvalDomainError and str(err.value) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lean_guard_rejects_non_finite_values(bad):
    psi = ph.YoungFunction(lambda s: np.where(s > 1.0, bad, s), np.ones_like, name="jump")
    assert psi(np.array([0.5, 1.0])).tolist() == [0.5, 1.0]
    for t in (np.array([0.5, 2.0]), 2.0):
        with pytest.raises(EvalDomainError, match="jump: non-finite value inside domain"):
            psi(t)


def test_exp_young_overflow_guard():
    psi = ph.exp_young()
    with pytest.raises(EvalDomainError):
        psi(700.0)
