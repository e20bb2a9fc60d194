"""The dyadic scans against plain per-window reference loops."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import philap as ph
from philap import problems, threshold
from philap.errors import CaseContradictionError, ConstructionError, PhilapError
from philap.problems import HF1_NEAR_ZERO, check_hf1, load_problem
from philap.young import Ordering, first_window, ordering

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _audit_sweep_draws():
    """The overrides of the 32 A5 draws of an audit-sweep round (seed 1)."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cmds = workloads.round_commands("audit-sweep", 1, 0)
    return [list(c.args) for c in cmds if c.example == "A5-draw"]


def _fixtures():
    specs = {}
    for k, args in enumerate(_audit_sweep_draws()):
        overrides = [args[i + 1] for i in range(0, len(args), 2)]
        specs[f"draw{k}"] = load_problem(CONFIGS / "two_solutions.ini", overrides=overrides)[0]
    for name in ("A5", "A4", "pathological-reaction"):
        specs[name] = ph.builtin_example(name)
    for path in sorted(CONFIGS.glob("control_*.ini")):
        specs[path.stem] = load_problem(path)[0]
    return specs


@pytest.fixture(scope="module")
def fixtures():
    return _fixtures()


# ---------------------------------------------------------------------------
# reference loops: one generator call per candidate window


def ref_ordering(psi1, psi2):
    try:
        if psi1.indices.upper < psi2.indices.lower - 1e-9:
            return Ordering.MUCH_LESS
    except (ph.EvalDomainError, ConstructionError):
        pass

    def window(factor):
        hi = min(psi1.t_hi, psi2.t_hi / max(factor, 1.0))
        lo = hi / 1e4
        return None if lo <= max(psi1.t_lo, psi2.t_lo) else np.geomspace(lo, hi, 160)

    for eta in (0.1, 1.0, 10.0):
        t = window(eta)
        if t is None:
            break
        ratio = psi1(t) / psi2(eta * t)
        if not (np.all(np.diff(ratio) <= 1e-9 * ratio[:-1] + 1e-300)
                and ratio[-1] <= 1e-2 * ratio[0]):
            break
    else:
        return Ordering.MUCH_LESS
    for j in range(31):
        c = 2.0 ** j
        t = window(c)
        if t is not None and np.all(psi1(t) <= psi2(c * t) * (1.0 + 1e-10)):
            return Ordering.LESS
    return Ordering.NEITHER


def ref_ar_threshold(mu, gamma, upsilon, i_ups):
    margin = 1.0 - mu / i_ups
    for j in range(-10, 61):
        R = 2.0 ** j
        t = np.geomspace(R, 1e8, 200)
        if np.all(mu / (1.0 - gamma) * t ** (1.0 - gamma) <= margin * upsilon(t)):
            return R
    raise ConstructionError("no dyadic superlinearity threshold found")


def ref_delta(reaction):
    for j in range(5, -41, -1):
        cand = 2.0 ** j
        if np.min(reaction.value(np.geomspace(cand * 1e-9, cand, 50))) >= 1.0:
            return cand
    return 0.0


def ref_tail_m(lhs, rhs, factor):
    cap = min(lhs.t_hi, rhs.t_hi / factor, 1e30)
    m = 1.0
    while m < cap / 10.0:
        t = np.geomspace(m, cap, max(int(16 * np.log10(cap / m)), 8))
        if np.all(lhs(t) <= rhs(factor * t) * (1.0 + 1e-12)):
            return m
        m *= 2.0
    raise CaseContradictionError("no tail bound")


def outcome(fn, *args):
    """fn's result, or the class of the PhilapError it raises."""
    try:
        return fn(*args)
    except PhilapError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# the scans equal the loops


def test_fixture_set_size(fixtures):
    assert len(fixtures) == 38


def test_first_window_contract():
    lo = np.array([1.0, 2.0, 4.0])
    assert first_window(lo, 100.0, 5, lambda t: t >= 2.0) == 1
    assert first_window(lo, 100.0, 5, lambda t: t > 1e3) == -1
    assert first_window(lo[:0], 100.0, 5, lambda t: t > 0.0) == -1
    rows = np.geomspace(lo, 100.0, 7, axis=-1)
    for k in range(lo.size):
        assert np.array_equal(rows[k], np.geomspace(lo[k], 100.0, 7))


def test_ar_threshold_matches_loop(fixtures):
    for name, spec in fixtures.items():
        args = (spec.mu, spec.gamma, spec.upsilon, spec.upsilon.indices.lower)
        assert outcome(problems._find_ar_threshold, *args) == outcome(ref_ar_threshold, *args), name


def test_hf1_matches_loop(fixtures):
    for name, spec in fixtures.items():
        entry = check_hf1(spec.reaction, spec.grid.nodes)
        assert entry.data["delta"] == ref_delta(spec.reaction), name
        scalar = [float(spec.reaction.value(np.array([s]))[0]) for s in HF1_NEAR_ZERO]
        assert np.array_equal(spec.reaction.value(HF1_NEAR_ZERO), scalar), name


def test_ordering_matches_loop(fixtures):
    for name, spec in fixtures.items():
        for a, b in ((spec.upsilon, spec.phi), (spec.phi, spec.upsilon)):
            assert outcome(ordering, a, b) is outcome(ref_ordering, a, b), name


def test_tail_m_matches_loop(fixtures):
    for name, spec in fixtures.items():
        star = outcome(lambda: spec.phi_star)
        for rhs in (spec.phi,) if isinstance(star, type) else (spec.phi, star):
            args = (spec.upsilon, rhs, 1.0)
            assert outcome(threshold._find_tail_m, *args) == outcome(ref_tail_m, *args), name


def _threshold_fixtures():
    # the LESS and GREATER pairs of test_threshold.py, and the MUCH_LESS cubic
    cubic = ph.power_young(3.0, coeff=1.0 / 3.0)
    t3log = ph.YoungFunction(lambda t: t ** 3 * np.log1p(t),
                             lambda t: 3.0 * t ** 2 * np.log1p(t) + t ** 3 / (1.0 + t),
                             name="t3log")
    return cubic, t3log, ph.power_young(2.0)


def test_threshold_fixture_scans_match_loops():
    cubic, t3log, square = _threshold_fixtures()
    star = ph.sobolev_conjugate(cubic, 5)
    for a, b in ((cubic, cubic), (t3log, cubic), (square, cubic), (t3log, star)):
        assert ordering(a, b) is ref_ordering(a, b)
        assert ordering(b, a) is ref_ordering(b, a)
    for lhs, rhs, factor in ((cubic, cubic, 1.0), (t3log, star, 1.0), (square, cubic, 1 / 64),
                             (t3log, cubic, 1.0), (t3log, cubic, 2.0 ** 30)):
        args = (lhs, rhs, factor)
        assert outcome(threshold._find_tail_m, *args) == outcome(ref_tail_m, *args)


# ---------------------------------------------------------------------------
# call counts


def _count_values(monkeypatch, psi):
    calls = []
    value = psi._value
    monkeypatch.setattr(psi, "_value", lambda t: calls.append(1) or value(t))
    return calls


def test_ordering_evaluates_each_generator_at_most_twice(monkeypatch):
    spec = ph.builtin_example("A5")
    ups_calls = _count_values(monkeypatch, spec.upsilon)
    phi_calls = _count_values(monkeypatch, spec.phi)
    for a, b in ((spec.upsilon, spec.phi), (spec.phi, spec.upsilon)):
        ups_calls.clear()
        phi_calls.clear()
        ordering(a, b)
        assert len(ups_calls) <= 2 and len(phi_calls) <= 2


def test_ar_threshold_evaluates_upsilon_once(monkeypatch):
    ups = ph.power_young(4.5)
    calls = _count_values(monkeypatch, ups)
    got = problems._find_ar_threshold(3.75, 0.5, ups, 4.5)
    assert len(calls) == 1
    assert got == ref_ar_threshold(3.75, 0.5, ups, 4.5)


def test_classify_compares_each_direction_once(monkeypatch):
    calls = []
    monkeypatch.setattr(threshold, "ordering", lambda a, b: calls.append(1) or ordering(a, b))
    phi3 = ph.power_young(3.0, coeff=1.0 / 3.0)
    assert threshold.classify(phi3, phi3) is ph.GrowthCase.LESS
    assert len(calls) == 2
