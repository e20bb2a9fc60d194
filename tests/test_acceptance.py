"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite run doubles as the
acceptance report (run with `pytest -s tests/test_acceptance.py`).
"""

import math
import time

import numpy as np
import pytest

import philap as ph
from philap.cli import main
from philap.solver import _j_gradient, _j_parts, mountain_pass_path
from philap.threshold import TruncationConstants, case_four_minimum, lambda_star


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Young-calculus suite


def test_acceptance_1_young_calculus(pathological):
    t0 = time.time()
    checks = []

    # conjugate involution on 100-point grids
    worst_inv = 0.0
    functions = [ph.power_over_p_young(p) for p in (1.5, 2.0, 3.0)] + [pathological]
    for psi in functions:
        back = ph.young_conjugate(ph.young_conjugate(psi))
        ts = ph.log_grid(1e-3, 1e3, 100)
        vals = psi(ts)
        worst_inv = max(worst_inv, float(np.max(np.abs(back(ts) - vals) / vals)))
    checks.append(("involution", worst_inv < 1e-6, f"err={worst_inv:.2e}"))

    # Young inequality and the value-conjugate sandwich, 1e3 samples each
    rng = np.random.default_rng(314)
    young_ok = sandwich_ok = True
    for psi in functions:
        conj = ph.young_conjugate(psi)
        s = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
        t = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
        slack = psi(s) + conj(t) - s * t
        young_ok &= bool(np.min(slack) > -1e-9 * float(np.max(psi(s) + conj(t))))
        mid = s * ph.conjugate_inverse(psi, psi(s))
        vals = psi(s)
        sandwich_ok &= bool(np.all(vals <= mid * (1 + 1e-10))
                            and np.all(mid <= 2 * vals * (1 + 1e-10)))
    checks.append(("young-inequality", young_ok, ""))
    checks.append(("value-conjugate sandwich", sandwich_ok, ""))

    # index bracketings for the oscillating generator with N = 5
    conj = ph.young_conjugate(pathological)
    pc = ph.compute_indices(conj)
    young_br = (pc.lower >= 1.5 - 1e-2) and (pc.upper <= 2.0 + 1e-2)
    checks.append(("conjugate index bracket", young_br,
                   f"[{pc.lower:.4f},{pc.upper:.4f}] in [1.5,2.0]"))
    star = ph.sobolev_conjugate(pathological, 5)
    ps = ph.compute_indices(star)
    sob_br = (ps.lower >= 10.0 / 3.0 - 1e-2) and (ps.upper <= 7.5 + 1e-2)
    checks.append(("critical conjugate index bracket", sob_br,
                   f"[{ps.lower:.4f},{ps.upper:.4f}] in [3.33,7.5]"))

    elapsed = time.time() - t0
    checks.append(("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f}s"))
    ok = all(c[1] for c in checks)
    _report("1 (Young calculus)", ok,
            "; ".join(f"{n}: {'ok' if p else 'FAIL ' + d}" for n, p, d in checks))


# ---------------------------------------------------------------------------
# 2. oscillating generator certification


def test_acceptance_2_pathological(pathological):
    t0 = time.time()
    p, q, eps = 3.0, 2.0, 1.9
    alpha, beta = 2.5, 0.5
    pair = ph.compute_indices(pathological, ph.log_grid(1e-4, 1e6, 2000))
    idx_ok = abs(pair.lower - q) < 1e-3 and abs(pair.upper - p) < 1e-3

    t = ph.log_grid(1e-6, 1e24, 4000)
    ratio2 = t * pathological.second(t) / pathological.prime(t)
    second_ok = (ratio2.min() > q - 1.0 - beta * eps
                 and ratio2.max() < p - 1.0 + beta * eps)

    phase = math.atan(eps)
    t1 = math.exp(math.exp((phase + math.pi / 2.0) / eps))
    t2 = math.exp(math.exp((phase + 5.0 * math.pi / 2.0) / eps))
    window = ph.log_grid(t1 * 0.5, min(t2 * 2.0, pathological.t_hi), 4000)
    normalized = pathological(window) / window ** alpha
    span = float(normalized.max() / normalized.min())
    span_ok = span > 10.0

    E = math.e
    branch_ok = True
    for fn in (pathological, pathological.prime, pathological.second):
        left = fn(E * (1.0 - 1e-13))
        right = fn(E * (1.0 + 1e-13))
        branch_ok &= abs(left - right) / abs(left) < 1e-10

    elapsed = time.time() - t0
    ok = idx_ok and second_ok and span_ok and branch_ok and elapsed < 10.0
    _report("2 (oscillating generator)", ok,
            f"indices=({pair.lower:.5f},{pair.upper:.5f}), span={span:.0f}, "
            f"branch-match, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. threshold suite


def test_acceptance_3_threshold(a5_spec):
    t0 = time.time()
    rng = np.random.default_rng(2718)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    oracle_ok = True
    stationary_ok = True
    for _ in range(20):
        A = rng.uniform(0.1, 50.0)
        B = rng.uniform(0.1, 50.0)
        theta = rng.uniform(1e-3, 5.0)
        khat = lambda r: A / r + B * r ** theta
        a, b = math.log(1e-9), math.log(1e9)
        for _ in range(220):
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            if khat(math.exp(c)) < khat(math.exp(d)):
                b = d
            else:
                a = c
        oracle = khat(math.exp((a + b) / 2.0))
        r_star, k_min = case_four_minimum(A, B, theta)
        oracle_ok &= abs(k_min - oracle) / oracle < 1e-8
        kprime = -A / r_star ** 2 + theta * B * r_star ** (theta - 1.0)
        stationary_ok &= abs(kprime) < 1e-8 * k_min / r_star

    _, direct = case_four_minimum(1.0, 1.0, 1.0)
    compact = math.sqrt(2.0)
    discrepancy_ok = (direct == pytest.approx(2.0)
                      and abs(direct - compact) > 0.5)

    # all four growth cases keep lam * bound(r*) < 1
    from philap.problems import ProblemSpec, power_singular_reaction

    def spec_with(ups):
        return ProblemSpec(ph.power_young(3.0, coeff=1.0 / 3.0),
                           power_singular_reaction(2.0, 1.0, 0.5), ups,
                           c1=1.0, mu=6.0, ar_threshold=1.0, lam=1.0, n_dim=5,
                           grid=ph.Grid(63, 1.0), seed=3)

    tc = TruncationConstants(C1=5.0, C2=4.0, alpha=1.0, beta=1.0)
    ups_log = ph.YoungFunction(
        lambda t: t ** 3 * np.log1p(t),
        lambda t: 3.0 * t ** 2 * np.log1p(t) + t ** 3 / (1.0 + t), name="t3log")
    rows = [
        (spec_with(ph.power_young(2.0)), ph.GrowthCase.MUCH_LESS),
        (spec_with(ph.power_young(3.0, coeff=1.0 / 3.0)), ph.GrowthCase.LESS),
        (spec_with(ups_log), ph.GrowthCase.GREATER),
        (spec_with(ph.power_young(4.5)), ph.GrowthCase.MUCH_GREATER),
    ]
    admissible_ok = True
    details = []
    for spec, case in rows:
        thr = lambda_star(spec, tc, case)
        lam = 1.0 if math.isinf(thr.lambda_star) else thr.lambda_star / 2.0
        adm = thr.r_star(lam)
        prod = lam * adm.kappa_at_r_star
        admissible_ok &= prod < 1.0
        details.append(f"{case.value}:{prod:.3f}")

    elapsed = time.time() - t0
    ok = (oracle_ok and stationary_ok and discrepancy_ok and admissible_ok
          and elapsed < 30.0)
    _report("3 (threshold suite)", ok,
            f"oracle20={'ok' if oracle_ok else 'FAIL'}, "
            f"theta1: direct=2 vs compact=1.414, "
            f"lam*kappa: {', '.join(details)}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. torsion oracle


def test_acceptance_4_torsion():
    t0 = time.time()

    def exact(p, c, x):
        m = p / (p - 1.0)
        return c ** (1.0 / (p - 1.0)) * ((p - 1.0) / p) * (0.5 ** m - np.abs(x - 0.5) ** m)

    ok = True
    details = []
    for p in (2.0, 3.0):
        phi = ph.power_over_p_young(p)
        for c in (1.0, 0.1):
            errs = {}
            for k in (6, 7, 8, 9):
                grid = ph.Grid(2 ** k - 1, 1.0)
                u = ph.solve_torsion(phi, c, grid)
                errs[k] = float(np.max(np.abs(u.values - exact(p, c, grid.nodes))))
            budget = 5.0 * 2.0 ** -8
            ok &= errs[8] <= budget
            if errs[9] < 1e-10:
                order = math.inf  # discretization-exact
            else:
                order = min(math.log2(errs[k] / errs[k + 1]) for k in (6, 7, 8))
            ok &= order >= 1.0
            details.append(f"p={p},c={c}: err={errs[8]:.1e}, order={order:.2f}")
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _report("4 (torsion oracle)", ok, "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. two-solution pipeline


def test_acceptance_5_pipeline(a5_spec, a5_pipeline, a5_report):
    t0 = time.time()
    res = a5_pipeline
    checks = {
        "hypotheses all PASS": a5_report.all_passed,
        "sub-solution max < delta < R":
            res.sub.u_under.sup_norm() < res.sub.delta < a5_spec.ar_threshold,
        "k1 d <= u_under <= k2 d":
            bool(np.all(res.sub.k1 * a5_spec.grid.distances
                        <= res.sub.u_under.values * (1 + 1e-12))
                 and np.all(res.sub.u_under.values
                            <= res.sub.k2 * a5_spec.grid.distances * (1 + 1e-12))),
        "first residual < 1e-6": res.verify_first.max_residual < 1e-6,
        "H(u) < r*": res.first.H_value < res.admissibility.r_star,
        "u >= u_under": res.verify_first.above_subsolution,
        "mountain residual < 1e-4": res.verify_second.max_residual < 1e-4,
        "J(v) >= J(u)": res.mp.state.J_value >= res.first.J_value,
        "two distinct solutions":
            float(np.max(np.abs(res.mp.state.u.values - res.first.u.values))) > 1e-2,
    }
    ok = all(checks.values())
    elapsed = time.time() - t0
    _report("5 (two-solution pipeline)", ok and elapsed < 600.0,
            "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))


# ---------------------------------------------------------------------------
# 6. gradient correctness


def test_acceptance_6_gradient(a5_spec, a5_truncation, a5_pipeline):
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
    _report("6 (gradient vs central differences)", worst < 1e-5,
            f"worst rel err = {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. level-set sup bound diagnostic


def test_acceptance_7_degiorgi(a5_pipeline):
    rep = a5_pipeline.degiorgi
    nonincreasing = bool(np.all(np.diff(rep.masses) <= 0.0))
    reaches_zero = rep.masses[-1] == 0.0
    recursion_ok = True
    for n in range(len(rep.masses) - 1):
        bound = rep.C * rep.b ** n * rep.masses[n] ** (1.0 + rep.a)
        recursion_ok &= rep.masses[n + 1] <= bound * (1.0 + 1e-12)
    smallness_ok = rep.masses[rep.smallness_index] <= rep.smallness_threshold
    ok = nonincreasing and reaches_zero and recursion_ok and smallness_ok
    _report("7 (level-set sup bound)", ok,
            f"levels={len(rep.levels)}, M={rep.M:.4g}, "
            f"y0={rep.masses[0]:.2e}, final=0")


# ---------------------------------------------------------------------------
# 8. negative controls


def test_acceptance_8_negative_controls(tmp_path, capsys):
    base = """
[operator]
kind = {op_kind}
p = {op_p}
N = 4

[reaction]
kind = {re_kind}
r = 3.5
c2 = {c2}
gamma = 0.5

[hypotheses]
upsilon = power
upsilon_power = 4.5
mu = {mu}
R = 1.0
"""
    controls = [
        ("power reaction fails blow-up",
         base.format(op_kind="log_power", op_p="3.0", re_kind="power",
                     mu="4.2", c2="0.0"),
         "H(f)1: FAIL"),
        ("log reaction fails superlinearity",
         base.format(op_kind="log_power", op_p="3.0", re_kind="log1p",
                     mu="4.2", c2="0.0"),
         "H(f)3: FAIL"),
        ("supercritical power fails conjugate growth",
         base.format(op_kind="power", op_p="5.0", re_kind="power_singular",
                     mu="6.0", c2="1.0"),
         "H(a)2: FAIL"),
    ]
    ok = True
    details = []
    for name, text, expected in controls:
        cfg = tmp_path / (expected[2:6].strip() + ".ini")
        cfg.write_text(text)
        code = main(["check", "--config", str(cfg),
                     "--out", str(tmp_path / ("out_" + cfg.stem))])
        out = capsys.readouterr().out
        good = code == 1 and expected in out
        ok &= good
        details.append(f"{name}: {'ok' if good else 'FAIL'}")
    _report("8 (negative controls)", ok, "; ".join(details))
