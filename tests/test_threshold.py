"""Truncation constants, case classification, thresholds, admissibility."""

import math

import numpy as np
import pytest

import philap as ph
from philap import GrowthCase
from philap.errors import CaseContradictionError, UnclassifiableError
from philap.orlicz import Grid
from philap.problems import ProblemSpec, power_singular_reaction
from philap.threshold import (
    TruncationConstants,
    case_four_minimum,
    intermediate_function,
    kappa_curve,
    lambda_star,
    truncation_constants,
)


def make_spec(phi, upsilon, N=5, seed=3, n=63, length=1.0):
    return ProblemSpec(phi, power_singular_reaction(2.0, 1.0, 0.5),
                       upsilon, c1=1.0, mu=6.0, ar_threshold=1.0, lam=1.0,
                       n_dim=N, grid=Grid(n, length), seed=seed, name="synthetic")


@pytest.fixture(scope="module")
def cubic_spec():
    return make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ph.power_young(2.0))


TC = TruncationConstants(C1=5.0, C2=4.0, alpha=1.0, beta=1.0)


# ---------------------------------------------------------------------------
# truncation constants


def test_constants_direct_substitution():
    # c1 = c2 = 1, gamma = 1/2, k2 d = 1, ups(1) = 1: C1 = 2+1+2, C2 = 2+2
    spec = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ph.power_young(4.5))
    tc = truncation_constants(spec, k1=1.0, k2=1.0)
    assert tc.C1 == pytest.approx(5.0, rel=1e-12)
    assert tc.C2 == pytest.approx(4.0, rel=1e-12)
    assert tc.alpha == pytest.approx(1.0)  # c2 * k1^(-gamma) with k1 = 1


def test_constants_alpha_and_pi(cubic_spec):
    tc = truncation_constants(cubic_spec, k1=1.0, k2=1.0)
    assert tc.alpha == pytest.approx(cubic_spec.c2)
    # the sublevel bound at rho = 0 reduces to C1 * measure
    assert float(tc.pi(cubic_spec.upsilon, 0.0, cubic_spec.grid.measure)) == \
        pytest.approx(tc.C1 * cubic_spec.grid.measure)


# ---------------------------------------------------------------------------
# classification


def test_classify_cases():
    phi3 = ph.power_young(3.0, coeff=1.0 / 3.0)
    assert ph.classify(ph.power_young(2.0), phi3) is GrowthCase.MUCH_LESS
    assert ph.classify(phi3, phi3) is GrowthCase.LESS
    assert ph.classify(ph.power_young(4.5), phi3) is GrowthCase.MUCH_GREATER


def test_classify_a5_pair(a5_spec):
    # envelope index 4.5 above the generator window [3, 4]
    assert ph.classify(a5_spec.upsilon, a5_spec.phi) is GrowthCase.MUCH_GREATER


def test_classify_unclassifiable(monkeypatch):
    # incomparable pairs do not arise from the bounded-index families in
    # scope; exercise the error contract by forcing the comparison result
    import philap.threshold as thr_mod
    monkeypatch.setattr(thr_mod, "ordering", lambda a, b: ph.Ordering.NEITHER)
    with pytest.raises(UnclassifiableError):
        thr_mod.classify(ph.power_young(3.0), ph.power_young(2.0))


# ---------------------------------------------------------------------------
# case-four closed form


def test_case_four_oracle_agreement():
    # independent golden-section minimization of A/r + B r^theta
    rng = np.random.default_rng(81)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(20):
        A = rng.uniform(0.1, 50.0)
        B = rng.uniform(0.1, 50.0)
        theta = rng.uniform(1e-3, 5.0)
        khat = lambda r: A / r + B * r ** theta
        a, b = math.log(1e-8), math.log(1e8)
        for _ in range(200):
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            if khat(math.exp(c)) < khat(math.exp(d)):
                b = d
            else:
                a = c
        oracle = khat(math.exp((a + b) / 2.0))
        r_star, k_min = case_four_minimum(A, B, theta)
        assert k_min == pytest.approx(oracle, rel=1e-8)
        # stationarity of the direct critical point
        kprime = -A / r_star ** 2 + theta * B * r_star ** (theta - 1.0)
        assert abs(kprime) < 1e-8 * k_min / r_star


def test_case_four_theta_one_discrepancy():
    # direct evaluation gives 2; the compact expression
    # [A^theta B (theta + theta^-theta)]^(1/(theta+1)) gives sqrt(2)
    r_star, direct = case_four_minimum(1.0, 1.0, 1.0)
    assert r_star == pytest.approx(1.0)
    assert direct == pytest.approx(2.0)
    compact = (1.0 * 1.0 * (1.0 + 1.0)) ** 0.5
    assert compact == pytest.approx(math.sqrt(2.0))
    assert abs(direct - compact) > 0.5


def test_case_four_rejects_nonpositive_theta():
    with pytest.raises(CaseContradictionError):
        case_four_minimum(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# thresholds per case


def test_case_much_less(cubic_spec):
    thr = lambda_star(cubic_spec, TC, GrowthCase.MUCH_LESS)
    assert math.isinf(thr.lambda_star)
    adm = thr.r_star(1.0)
    assert adm.r_star > 0.0
    assert 1.0 * adm.kappa_at_r_star < 1.0
    # eps = min(1, 1/(2 C2 zbar(2 d) lam)) with zbar(2) = 8 for the cubic
    assert adm.eps == pytest.approx(1.0 / (2.0 * 4.0 * 8.0))


def test_case_less_threshold_formula():
    # envelope equals the generator: c = 1 and lam* = 1/(C2 zbar(2 d))
    spec = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0),
                     ph.power_young(3.0, coeff=1.0 / 3.0))
    thr = lambda_star(spec, TC, GrowthCase.LESS)
    assert thr.c_used == 1.0
    assert thr.lambda_star == pytest.approx(1.0 / (4.0 * 8.0))
    lam = thr.lambda_star / 2.0
    adm = thr.r_star(lam)
    assert lam * adm.kappa_at_r_star < 1.0


def test_case_less_trivial_quarter():
    # C2 = 1 with quadratic generator: zbar(2) = 4 so lam* = 1/4
    spec = make_spec(ph.power_young(2.0, coeff=0.5), ph.power_young(2.0, coeff=0.25))
    tc = TruncationConstants(C1=1.0, C2=1.0, alpha=1.0, beta=1.0)
    thr = lambda_star(spec, tc, GrowthCase.LESS)
    assert thr.lambda_star == pytest.approx(0.25)


def test_case_much_greater(cubic_spec):
    spec = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ph.power_young(4.5))
    thr = lambda_star(spec, TC, GrowthCase.MUCH_GREATER)
    assert thr.theta == pytest.approx(0.5)
    lam = thr.lambda_star / 2.0
    adm = thr.r_star(lam)
    assert lam * adm.kappa_at_r_star == pytest.approx(0.5)
    # threshold equals the reciprocal of the bound at its own minimum
    assert thr.lambda_star == pytest.approx(1.0 / thr.kappa_min)


@pytest.fixture(scope="module")
def greater_case():
    # the envelope exceeds the generator by a logarithmic factor; the
    # strict-growth reduction through the geometric mean applies
    ups = ph.YoungFunction(lambda t: t ** 3 * np.log1p(t),
                           lambda t: 3.0 * t ** 2 * np.log1p(t) + t ** 3 / (1.0 + t),
                           name="t3log")
    spec = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ups, N=5)
    return spec, lambda_star(spec, TC, GrowthCase.GREATER)


def test_case_greater_reduction(greater_case):
    spec, thr = greater_case
    assert thr.theta is not None and thr.theta > 0.0
    assert thr.ups_hat is not None
    lam = thr.lambda_star / 2.0
    adm = thr.r_star(lam)
    assert lam * adm.kappa_at_r_star < 1.0


def test_case_greater_intermediate_orderings(greater_case):
    spec, thr = greater_case
    assert ph.ordering(spec.upsilon, thr.ups_hat) is ph.Ordering.MUCH_LESS
    assert ph.ordering(thr.ups_hat, spec.phi_star) is ph.Ordering.MUCH_LESS


def test_intermediate_index_average(greater_case):
    # the index ratio of the geometric mean is the mean of the factors'
    # ratios, so grid extrema bracket accordingly on a shared grid
    spec, thr = greater_case
    hat = intermediate_function(spec.upsilon, spec.phi_star)
    lo = max(spec.upsilon.t_lo, spec.phi_star.t_lo) * 2.0
    hi = min(spec.upsilon.t_hi, spec.phi_star.t_hi) / 2.0
    grid = ph.log_grid(lo, hi, 1200) if hi / lo >= 1e8 else ph.log_grid(lo, hi, 1200)
    pu = ph.compute_indices(spec.upsilon, grid)
    ps = ph.compute_indices(spec.phi_star, grid)
    pm = ph.compute_indices(hat, grid)
    assert pm.lower >= 0.5 * (pu.lower + ps.lower) - 1e-9
    assert pm.upper <= 0.5 * (pu.upper + ps.upper) + 1e-9


def test_lambda_star_monotone_in_c2():
    spec = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ph.power_young(4.5))
    spec_eq = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0),
                        ph.power_young(3.0, coeff=1.0 / 3.0))
    prev4 = prev2 = math.inf
    for c2 in (1.0, 2.0, 4.0, 8.0):
        tc = TruncationConstants(C1=5.0, C2=c2, alpha=1.0, beta=1.0)
        lam4 = lambda_star(spec, tc, GrowthCase.MUCH_GREATER).lambda_star
        lam2 = lambda_star(spec_eq, tc, GrowthCase.LESS).lambda_star
        assert lam4 <= prev4 + 1e-15
        assert lam2 <= prev2 + 1e-15
        prev4, prev2 = lam4, lam2


# ---------------------------------------------------------------------------
# bound curves


def test_kappa_curve_monotone_cases(cubic_spec):
    thr1 = lambda_star(cubic_spec, TC, GrowthCase.MUCH_LESS)
    # the tail constant eps scales the envelope level M_eps up to ~1e6, so
    # the flat part of the bound only emerges at very large radii
    r = np.geomspace(0.1, 1e16, 80)
    curve = kappa_curve(thr1, r, lam=1.0)
    assert np.all(np.diff(curve[:, 1]) < 0.0)
    eps = thr1.r_star(1.0).eps
    zbar = float(ph.scaling_bound_upper(cubic_spec.phi, 2.0))
    tail = TC.C2 * zbar * eps
    assert curve[-1, 1] == pytest.approx(tail, rel=1e-2)

    spec2 = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0),
                      ph.power_young(3.0, coeff=1.0 / 3.0))
    thr2 = lambda_star(spec2, TC, GrowthCase.LESS)
    curve2 = kappa_curve(thr2, r, lam=thr2.lambda_star / 2.0)
    assert np.all(np.diff(curve2[:, 1]) <= 0.0)  # flat tail saturates exactly
    assert curve2[0, 1] > curve2[-1, 1]


def test_kappa_curve_u_shape_case_four():
    spec = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ph.power_young(4.5))
    thr = lambda_star(spec, TC, GrowthCase.MUCH_GREATER)
    r = np.geomspace(thr.r_min / 100.0, thr.r_min * 100.0, 201)
    curve = kappa_curve(thr, r)
    k_min_idx = int(np.argmin(curve[:, 1]))
    assert curve[k_min_idx, 0] == pytest.approx(thr.r_min, rel=0.05)
    assert curve[0, 1] > curve[k_min_idx, 1] < curve[-1, 1]


def test_admissibility_all_four_cases(cubic_spec, greater_case):
    # lam * bound(r*) < 1 for lam below threshold in every case
    rows = []
    thr1 = lambda_star(cubic_spec, TC, GrowthCase.MUCH_LESS)
    rows.append((thr1, 1.0))
    spec2 = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0),
                      ph.power_young(3.0, coeff=1.0 / 3.0))
    thr2 = lambda_star(spec2, TC, GrowthCase.LESS)
    rows.append((thr2, thr2.lambda_star / 2.0))
    spec3, thr3 = greater_case
    rows.append((thr3, thr3.lambda_star / 2.0))
    spec4 = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ph.power_young(4.5))
    thr4 = lambda_star(spec4, TC, GrowthCase.MUCH_GREATER)
    rows.append((thr4, thr4.lambda_star / 2.0))
    for thr, lam in rows:
        adm = thr.r_star(lam)
        assert lam * adm.kappa_at_r_star < 1.0
        assert adm.r_star > 0.0
    with pytest.raises(CaseContradictionError):
        thr2.r_star(thr2.lambda_star * 2.0)


# ---------------------------------------------------------------------------
# CSV emission


def test_threshold_csv(tmp_path, cubic_spec):
    spec = make_spec(ph.power_young(3.0, coeff=1.0 / 3.0), ph.power_young(4.5))
    thr = lambda_star(spec, TC, GrowthCase.MUCH_GREATER)
    path = tmp_path / "thr.csv"
    ph.threshold.write_threshold_csv(thr, [thr.lambda_star / 2.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "case,C1,C2,A,B,theta,lambda_star,lambda,r_star"
    assert lines[1].startswith("much_greater,5,4,")
    kpath = tmp_path / "kappa.csv"
    ph.threshold.write_kappa_csv(thr, np.geomspace(0.1, 10, 20), kpath)
    assert kpath.read_text().splitlines()[0] == "r,kappa_bound"
