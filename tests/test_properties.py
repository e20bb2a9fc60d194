"""Property tests: Young's inequality, lockstep Luxemburg norms and their flip
pairs, flip pairs of the root finder, config fuzzing."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import philap as ph
from philap import young
from philap.cli import main
from philap.orlicz import luxemburg_of, modular_of
from philap.problems import _ALLOWED_KEYS

# derandomized and without an example database, so that every run draws
# the same examples; hypothesis still caches the literals it collects from
# the source under .hypothesis/constants/ (ignored by git)
FIXED = settings(max_examples=25, deadline=None, derandomize=True, database=None)
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "two_solutions.ini"


@FIXED
@given(p=st.floats(1.1, 6.0), log_s=st.floats(-3.0, 3.0), log_sigma=st.floats(-3.0, 3.0))
def test_young_inequality_power(p, log_s, log_sigma):
    psi = ph.power_young(p)
    conj = ph.young_conjugate(psi)
    s, sigma = 10.0 ** log_s, 10.0 ** log_sigma
    t = psi.prime(sigma)
    assert s * t <= (psi(s) + conj(t)) * (1.0 + 1e-12)
    # equality where t is the slope at s
    t_s = psi.prime(s)
    assert abs(s * t_s - (psi(s) + conj(t_s))) <= 1e-9 * s * t_s


@FIXED
@given(values=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 40)),
                     elements=st.floats(-1e3, 1e3)),
       log_scale=st.integers(-100, 100), weight=st.floats(1e-3, 1.0),
       generator=st.sampled_from(["power", "log-power"]))
def test_luxemburg_rows_equal_single_calls(values, log_scale, weight, generator):
    psi = ph.power_young(3.0) if generator == "power" else ph.log_power_young(3.0)
    rows = values * 10.0 ** log_scale
    norms = luxemburg_of(psi, rows, weight)
    assert norms.tobytes() == np.array([luxemburg_of(psi, r, weight) for r in rows]).tobytes()


@FIXED
@given(values=arrays(np.float64, st.integers(1, 40), elements=st.floats(0.0, 1e3)),
       log_scale=st.integers(-100, 100), weight=st.floats(1e-3, 1.0),
       generator=st.sampled_from(["power", "log-power"]))
@example(values=np.array([5e-324]), log_scale=0, weight=1e-3, generator="power")
@example(values=np.array([0.0, 3e-323]), log_scale=0, weight=0.5, generator="power")
def test_luxemburg_flip_pair(values, log_scale, weight, generator):
    # the norm is feasible and its lower neighbouring double is not, with
    # the modular summed as the norm computation sums it
    psi = ph.power_young(3.0) if generator == "power" else ph.log_power_young(3.0)
    row = values * 10.0 ** log_scale
    lam = luxemburg_of(psi, row, weight)
    if lam == 0.0:
        # the bracket vanished: M <= 1 down to the smallest positive double
        assert np.sum(psi(row / 5e-324)) * weight <= 1.0
        return
    pair = np.array([np.nextafter(lam, 0.0), lam])
    m = np.sum(psi(row / pair[:, None]), axis=1) * weight
    assert m[0] > 1.0 >= m[1]
    assert modular_of(psi, row / lam, weight) <= 1.0


GENERATORS = {
    "power": ph.power_young(3.0),
    "log-power": ph.log_power_young(3.0),
    "pathological": ph.build_pathological(ph.PathologicalParams.make(3.0, 2.0, 1.9)),
}
# each caller of the root finder with the function whose values it inverts
ROOT_CALLERS = {
    "inverse_value": (lambda psi, x: psi(x), ph.inverse_value),
    "conjugate_inverse": (lambda psi, x: x * psi.prime(x) - psi(x), ph.conjugate_inverse),
    "conj": (lambda psi, x: psi.prime(x), lambda psi, t: ph.young_conjugate(psi).prime(t)),
}


@pytest.mark.parametrize("caller", sorted(ROOT_CALLERS))
@pytest.mark.parametrize("generator", sorted(GENERATORS))
@settings(FIXED, max_examples=8)
@given(u=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=8))
def test_root_finder_flip_pair(generator, caller, u):
    # each root s the callers find and its lower neighbouring double
    # straddle the target: fn(prev(s)) < t <= fn(s), for fn as called; the
    # targets are values of fn, so some fall on its plateaus of equal values;
    # u stays below 1, where the conjugate's trusted range ends
    psi = GENERATORS[generator]
    image, call = ROOT_CALLERS[caller]
    targets = image(psi, psi.t_lo * (psi.t_hi / psi.t_lo) ** np.array(u))
    solves = []
    solve = young._solve_increasing

    def record(fn, target, lo, hi, *args, **kwargs):
        s = solve(fn, target, lo, hi, *args, **kwargs)
        solves.append((fn, np.atleast_1d(target), s, lo))
        return s

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_solve_increasing", record)
        call(psi, targets)
    assert solves
    for fn, t, s, lo in solves:
        inside = t > fn(np.array([lo]))
        assert np.all(s[~inside] == lo)
        assert np.all(fn(np.nextafter(s[inside], 0.0)) < t[inside])
        assert np.all(t <= fn(s))


_KEYS = sorted(f"{section}.{key}" for section, keys in _ALLOWED_KEYS.items() for key in keys)
_VALUES = st.one_of(
    st.sampled_from(["", "auto", "abc", "nan", "inf", "-inf", "0", "-1", "1e400",
                     "power", "log_power", "pathological", "upsilon_ratio"]),
    st.floats().map(repr),
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-3, 300).map(str))


@settings(FIXED, max_examples=20)
@given(command=st.sampled_from(["check", "lambda-star"]),
       overrides=st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), min_size=1, max_size=3))
def test_config_fuzz_exit_codes(command, overrides):
    argv = [command, "--config", str(CONFIG)]
    for key, value in overrides:
        argv += ["--override", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", tmp])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
