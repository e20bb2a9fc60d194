"""Problem specification, hypothesis audit, built-ins, config parsing."""

import numpy as np
import pytest

import philap as ph
from philap.errors import ConfigError, ConstructionError
from philap.problems import (
    check_ha1,
    check_hf1,
    log1p_reaction,
    power_reaction,
    power_singular_reaction,
    upsilon_ratio_reaction,
)


# ---------------------------------------------------------------------------
# H(a)1


def test_ha1_power_operator():
    entry = check_ha1(lambda t: t ** 1.0, lambda t: np.ones_like(t))  # a = t^(p-2), p = 3
    assert entry.passed
    assert entry.data["inf"] == pytest.approx(1.0, abs=1e-12)
    assert entry.data["sup"] == pytest.approx(1.0, abs=1e-12)


def test_ha1_log_power_window(a5_spec):
    entry = check_ha1(a5_spec.a, a5_spec.a_prime)
    assert entry.passed
    # ratio decreases from p-1 toward p-2 on the sample window
    assert 1.0 < entry.data["inf"] < 1.1
    assert 1.99 < entry.data["sup"] < 2.0


def test_ha1_fails_for_degenerate_operator():
    entry = check_ha1(lambda t: t ** -2.0, lambda t: -2.0 * t ** -3.0)
    assert not entry.passed
    assert entry.data["inf"] == pytest.approx(-2.0, abs=1e-12)


def test_ha1_rejects_nonpositive_coefficient():
    with pytest.raises(ConstructionError):
        check_ha1(lambda t: t - 1.0, lambda t: np.ones_like(t))


# ---------------------------------------------------------------------------
# H(a)2


def test_ha2_power_below_dimension_diverges():
    # oracle: closed-form antiderivative gives growth proportional to T^(1/p*)
    spec = _power_spec(p=3.0, N=4)
    entry = ph.check_ha2(spec)
    assert entry.passed
    assert entry.data["diverges"] == 1.0


def test_ha2_power_above_dimension_fails():
    # oracle: the same antiderivative converges for p > N
    spec = _power_spec(p=5.0, N=4, mu=6.0)
    entry = ph.check_ha2(spec)
    assert not entry.passed
    assert entry.data["diverges"] == 0.0


def test_ha2_log_power_example(a5_spec):
    entry = ph.check_ha2(a5_spec)
    assert entry.passed
    assert entry.data["s_phi"] < entry.data["i_phi_star"]


def _power_spec(p, N, mu=4.25):
    from philap.problems import ProblemSpec
    return ProblemSpec(ph.power_young(p, coeff=1.0 / p),
                       power_singular_reaction(3.5, 1.0, 0.5),
                       ph.power_young(4.5), c1=1.0, mu=mu, ar_threshold=4.0,
                       lam=1.0, n_dim=N, grid=ph.Grid(31, 1.0), name="power-spec")


# ---------------------------------------------------------------------------
# H(f)1


def test_hf1_singular_reaction_passes():
    entry = check_hf1(power_singular_reaction(3.5, 1.0, 0.5), np.array([0.5]))
    assert entry.passed
    assert entry.data["delta"] >= 1.0


def test_hf1_pure_power_fails():
    entry = check_hf1(power_reaction(3.5), np.array([0.5]))
    assert not entry.passed
    assert entry.data["delta"] == 0.0


def test_hf1_envelope_ratio_reaction_passes():
    ups = ph.power_young(4.5)
    entry = check_hf1(upsilon_ratio_reaction(ups, 1.0, 0.5), np.array([0.5]))
    assert entry.passed


@pytest.mark.parametrize("r, gamma", [(2.2789, 0.0017), (1.8507, 0.00044)])
def test_hf1_small_gamma_passes(r, gamma):
    # s^r + s^-gamma falls until its minimum near (gamma/r)^(1/(r+gamma)),
    # about 0.04 and 0.01 here, and grows toward 0 below it
    entry = check_hf1(power_singular_reaction(r, 1.0, gamma), np.array([0.5]))
    assert entry.passed
    assert entry.detail.endswith("near-zero minima increasing")


def test_hf1_sublinear_fails():
    # log(1+s) has its sampled minimum at the bottom sample: no blow-up
    entry = check_hf1(log1p_reaction(0.5), np.array([0.5]))
    assert not entry.passed
    assert entry.detail.endswith("not increasing")


@pytest.mark.parametrize("upsilon", ["power", "pathological"])
def test_ratio_slope_central_difference(upsilon):
    # the Newton polish of the mountain pass differentiates the reaction
    # through this slope
    ups = {"power": ph.power_young(4.5),
           "pathological": ph.build_pathological(ph.PathologicalParams.make(3.0, 2.5, 1.9))
           }[upsilon]
    reaction = upsilon_ratio_reaction(ups, 1.0, 0.5)
    s = ph.log_grid(1e-4, 1e4, 801)
    h = 1e-6
    for fn, slope in ((reaction.regular, reaction.regular_derivative),
                      (reaction.value, reaction.derivative)):
        fd = (fn(s * (1.0 + h)) - fn(s * (1.0 - h))) / (2.0 * h * s)
        assert np.max(np.abs(slope(s) - fd) / np.abs(fd)) < 1e-7


# ---------------------------------------------------------------------------
# H(f)2


def test_hf2_envelope_ratio_zero_slack():
    # the ratio form sits below the conjugate-inverse envelope pointwise
    spec = ph.builtin_example("pathological-reaction")
    entry = ph.check_hf2(spec)
    assert entry.passed
    assert entry.data["violation"] <= 1e-8


def test_hf2_doubled_envelope_fails(a5_spec):
    from dataclasses import replace
    bad = ph.Reaction(
        regular=lambda s: 2.0 * ph.conjugate_inverse(a5_spec.upsilon,
                                                     a5_spec.upsilon(s)),
        regular_primitive=lambda s: np.zeros_like(s),
        singular_coeff=0.0, gamma=0.5, name="2*conj_inv")
    spec = replace(a5_spec, reaction=bad, _phi_star=a5_spec._phi_star)
    entry = ph.check_hf2(spec)
    assert not entry.passed
    assert entry.data["violation"] > 1e-3


def test_hf2_index_window_violation(a5_spec):
    from dataclasses import replace
    spec = replace(a5_spec, upsilon=ph.power_young(13.0),
                   _phi_star=a5_spec._phi_star)
    entry = ph.check_hf2(spec)
    assert not entry.passed  # s_ups = 13 above the critical lower index


# ---------------------------------------------------------------------------
# H(f)3


def test_hf3_at_threshold_trivial(a5_spec):
    entry = ph.check_hf3(a5_spec)
    assert entry.passed
    assert entry.data["violation"] <= 1e-6


def test_hf3_log_reaction_fails(a5_spec):
    # oracle: the primitive of log(1+t) grows like t log t, matching t f(t),
    # so any mu > 1 wins eventually
    from dataclasses import replace
    spec = replace(a5_spec, reaction=log1p_reaction(), mu=4.2, ar_threshold=1.0,
                   _phi_star=a5_spec._phi_star)
    entry = ph.check_hf3(spec, t_max=1e4)
    assert not entry.passed
    assert entry.data["violation"] > 0.1


def test_hf3_mu_below_upper_index_fails(a5_spec):
    from dataclasses import replace
    spec = replace(a5_spec, mu=3.5, _phi_star=a5_spec._phi_star)
    entry = ph.check_hf3(spec)
    assert not entry.passed


# ---------------------------------------------------------------------------
# built-in examples


def test_a5_all_checks_pass(a5_report):
    assert a5_report.all_passed
    for line in a5_report.lines():
        assert "PASS" in line


def test_a5_operator_indices(a5_spec):
    pair = a5_spec.phi_indices()
    assert pair.lower == pytest.approx(3.0, abs=1e-2)
    assert pair.upper == pytest.approx(4.0, abs=1e-2)


def test_a5_ratio_identity(a5_spec):
    # H_a(t) = p-2 + t/((1+t) log(1+t)) matches a finite difference of a
    t = ph.log_grid(1e-2, 1e2, 50)
    analytic = 1.0 + t / ((1.0 + t) * np.log1p(t))
    step = 1e-6 * t
    fd = (np.asarray(a5_spec.a(t + step)) - np.asarray(a5_spec.a(t - step))) / (2 * step)
    ratio_fd = t * fd / np.asarray(a5_spec.a(t))
    assert np.max(np.abs(ratio_fd - analytic) / analytic) < 1e-6


def test_a5_growth_index_bracketing(a5_spec):
    # i_a + 2 <= i_phi <= s_phi <= s_a + 2 with i_a = p-2, s_a = p-1,
    # sampled on one common grid so the pointwise identity transfers
    grid = ph.log_grid(1e-4, 1e6, 2000)
    entry = check_ha1(a5_spec.a, a5_spec.a_prime, grid)
    pair = ph.compute_indices(a5_spec.phi, grid, cache=False)
    # the generator ratio averages the operator ratio over (0, t), so the
    # bracketing holds only up to the sampling error of the window edges
    assert entry.data["inf"] + 2.0 <= pair.lower + 1e-3
    assert pair.upper <= entry.data["sup"] + 2.0 + 1e-3


def test_a5_parameter_validation():
    with pytest.raises(ConstructionError):
        ph.builtin_example("A5", p=3.0, N=4, r=12.0)  # r above p*-1
    with pytest.raises(ConstructionError):
        ph.builtin_example("A5", p=1.5, N=4)  # N >= p + p^2
    with pytest.raises(ConstructionError):
        ph.builtin_example("A5", p=3.5, N=4)  # p above N-1


def test_a4_all_checks_pass():
    spec = ph.builtin_example("A4", p=3.0, q=2.0, N=4, eps=1.9)
    report = ph.run_all_checks(spec)
    assert report.all_passed


def test_pathological_reaction_builtin():
    spec = ph.builtin_example("pathological-reaction")
    report = ph.run_all_checks(spec)
    assert report.all_passed


def test_unknown_builtin():
    with pytest.raises(ConstructionError):
        ph.builtin_example("A7")


# ---------------------------------------------------------------------------
# configuration


A5_CONFIG = """
[operator]
kind = log_power
p = 3.0
N = 4

[reaction]
kind = power_singular
r = 3.5
c2 = 1.0
gamma = 0.5

[hypotheses]
c1 = 1.0
upsilon = power
upsilon_power = 4.5

[grid]
length = 1.0
n_interior = 63

[solver]
lambda = auto
seed = 42
"""


def test_config_roundtrip():
    spec, settings, text = ph.load_problem(text=A5_CONFIG)
    assert spec.n_dim == 4
    assert spec.grid.n_interior == 63
    assert settings.seed == 42
    assert settings.lam is None
    assert "log_power" in text
    report = ph.run_all_checks(spec)
    assert report.all_passed


def test_config_unknown_key_is_hard_error():
    with pytest.raises(ConfigError):
        ph.load_problem(text=A5_CONFIG + "\n[operator]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        ph.load_problem(text=A5_CONFIG.replace("[grid]", "[mesh]"))


def test_config_overrides():
    spec, settings, _ = ph.load_problem(text=A5_CONFIG,
                                        overrides=["grid.n_interior=31",
                                                   "solver.lambda=0.01"])
    assert spec.grid.n_interior == 31
    assert settings.lam == 0.01
    with pytest.raises(ConfigError):
        ph.load_problem(text=A5_CONFIG, overrides=["oops"])


def test_config_bad_operator():
    with pytest.raises(ConfigError):
        ph.load_problem(text=A5_CONFIG.replace("kind = log_power", "kind = mystery"))
    with pytest.raises(ConfigError):
        ph.load_problem(text=A5_CONFIG.replace("p = 3.0", "p = 0.5"))


def test_operator_derived_from_phi():
    # t a(t) = phi'(t); the Laplacian keeps an exactly zero a'
    t = ph.log_grid(1e-3, 1e3, 50)
    laplacian = _power_spec(2.0, 4)
    assert np.all(laplacian.a(t) == 1.0)
    assert np.all(laplacian.a_prime(t) == 0.0)
    cubic = _power_spec(3.0, 4)  # phi = t^3/3, a = t
    assert np.allclose(t * cubic.a(t), cubic.phi.prime(t), rtol=1e-14, atol=0.0)
    assert np.allclose(cubic.a_prime(t), 1.0, rtol=1e-13, atol=0.0)
