"""Young-function calculus: indices, conjugates, ordering, oscillating generator."""

import math

import numpy as np
import pytest

import philap as ph
from philap import Ordering, young
from philap.errors import (
    ConstructionError,
    EvalDomainError,
    MissingIndicesError,
    OutOfRangeError,
)


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


def test_indices_grid_preconditions():
    psi = ph.power_young(2.0)
    with pytest.raises(ConstructionError):
        ph.compute_indices(psi, ph.log_grid(1e-2, 1e2, 2000))  # 4 decades only
    with pytest.raises(ConstructionError):
        ph.compute_indices(psi, ph.log_grid(1e-4, 1e6, 500))  # too few points


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


def test_scaling_bounds_require_indices():
    psi = ph.YoungFunction(lambda t: t ** 2, lambda t: 2 * t, name="fresh")
    with pytest.raises(MissingIndicesError):
        ph.scaling_bound_lower(psi, 2.0)


def test_factor_bounds_on_pathological(pathological):
    # the exact limits are q = 2 and p = 3; the sandwiched inequality then
    # holds with the true index pair at every sample
    psi = ph.build_pathological(ph.PathologicalParams.make(3.0, 2.0, 1.9))
    psi.cache_indices(ph.IndexPair(2.0, 3.0, 2.0, 3.0))
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
    ph.compute_indices(psi)
    assert ph.delta2_nabla2(psi) == (True, True)


def test_delta2_nabla2_pathological(pathological):
    ph.compute_indices(pathological)
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
    assert 2 <= sum(targets) <= 3
    targets.clear()
    young.theta_growth_integrals(psi, N)
    assert sum(targets) <= 9


# ---------------------------------------------------------------------------
# ordering


def test_ordering_power_pairs():
    t2, t3 = ph.power_young(2.0), ph.power_young(3.0)
    assert ph.ordering(t2, t3) is Ordering.MUCH_LESS
    assert ph.ordering(t3, t3) is Ordering.LESS
    assert ph.ordering(t3, t2) is Ordering.NEITHER


def test_ordering_index_shortcut(pathological):
    # gap between the upper index of the oscillating generator (3) and a
    # power envelope above it triggers the shortcut without a tail scan
    ph.compute_indices(pathological)
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


def test_exp_young_overflow_guard():
    psi = ph.exp_young()
    with pytest.raises(EvalDomainError):
        psi(700.0)
