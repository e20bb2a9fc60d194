"""Discrete grid space: modulars, Luxemburg norms, gradients, embedding."""

import re
from pathlib import Path

import numpy as np
import pytest

import philap as ph
from philap import orlicz, threshold
from philap.errors import ConstructionError, EvalDomainError
from philap.orlicz import (
    LUXEMBURG_BLOCK,
    LUXEMBURG_ITERS,
    estimate_embedding_constant,
    luxemburg_of,
    modular_of,
)
from philap.problems import load_problem
from philap.solver import threshold_stage

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "two_solutions.ini"


@pytest.fixture
def grid():
    return ph.Grid(127, 1.0)


def test_grid_geometry(grid):
    assert grid.h * (grid.n_interior + 1) == pytest.approx(grid.length, rel=1e-15)
    assert np.all(grid.distances > 0.0)
    assert grid.diameter == grid.measure == 1.0


def test_grid_validation():
    with pytest.raises(ConstructionError):
        ph.Grid(0, 1.0)
    with pytest.raises(ConstructionError):
        ph.Grid(10, -1.0)


def test_gridfunction_validation(grid):
    with pytest.raises(ConstructionError):
        ph.GridFunction(grid, np.zeros(5))
    with pytest.raises(ConstructionError):
        ph.GridFunction(grid, np.full(grid.n_interior, np.nan))


# ---------------------------------------------------------------------------
# modular


def test_modular_zero(grid):
    assert ph.modular(ph.power_young(2.0), ph.GridFunction.zero(grid)) == 0.0


def test_modular_constant_one(grid):
    u = ph.GridFunction(grid, np.ones(grid.n_interior))
    val = ph.modular(ph.power_young(2.0), u)
    # nodal rule integrates 1 over the interior nodes only
    assert val == pytest.approx(grid.n_interior * grid.h, rel=1e-14)
    assert val == pytest.approx(1.0, abs=2 * grid.h)


def test_modular_norm_sandwich(pathological, grid):
    ph.compute_indices(pathological)
    rng = np.random.default_rng(21)
    for _ in range(25):
        u = ph.GridFunction(grid, rng.uniform(0.2, 3.0, grid.n_interior))
        norm = ph.luxemburg_norm(pathological, u)
        mod = ph.modular(pathological, u)
        lower = float(ph.scaling_bound_lower(pathological, norm))
        upper = float(ph.scaling_bound_upper(pathological, norm))
        # indices are sampled estimates; allow a matching slack
        assert lower * (1 - 1e-3) <= mod <= upper * (1 + 1e-3)


# ---------------------------------------------------------------------------
# Luxemburg norm


def test_luxemburg_zero_and_power_identity(grid):
    assert ph.luxemburg_norm(ph.power_young(3.0), ph.GridFunction.zero(grid)) == 0.0
    p = 4.5
    u = ph.GridFunction(grid, np.sin(np.pi * grid.nodes) * 2.3)
    ln = ph.luxemburg_norm(ph.power_young(p), u)
    lp = (np.sum(np.abs(u.values) ** p) * grid.h) ** (1.0 / p)
    assert ln == pytest.approx(lp, rel=1e-10)


def test_luxemburg_homogeneity(grid, pathological):
    rng = np.random.default_rng(4)
    u = ph.GridFunction(grid, rng.uniform(0.1, 2.0, grid.n_interior))
    base = ph.luxemburg_norm(pathological, u)
    for c in (-3.0, 0.25, 7.0):
        scaled = ph.GridFunction(grid, c * u.values)
        assert ph.luxemburg_norm(pathological, scaled) == pytest.approx(
            abs(c) * base, rel=1e-9)


def test_luxemburg_norm_modular_consistency(grid, pathological):
    rng = np.random.default_rng(12)
    for _ in range(100):
        u = ph.GridFunction(grid, rng.uniform(-2.0, 2.0, grid.n_interior))
        if not np.any(u.values):
            continue
        norm = ph.luxemburg_norm(pathological, u)
        mod = ph.modular(pathological, ph.GridFunction(grid, u.values / norm))
        assert mod == pytest.approx(1.0, abs=1e-8)


def test_luxemburg_triangle_inequality(grid, pathological):
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = rng.uniform(-1.0, 3.0, grid.n_interior)
        v = rng.uniform(-2.0, 2.0, grid.n_interior)
        nu = luxemburg_of(pathological, u, grid.h)
        nv = luxemburg_of(pathological, v, grid.h)
        nuv = luxemburg_of(pathological, u + v, grid.h)
        assert nuv <= (nu + nv) * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# gradient and energy


def test_gradient_zero_and_hat(grid):
    assert np.all(ph.cell_gradient(ph.GridFunction.zero(grid)) == 0.0)
    # hat peaking at 1 mid-domain: slopes +-2
    x = grid.nodes
    hat = ph.GridFunction(grid, 1.0 - 2.0 * np.abs(x - 0.5))
    g = ph.cell_gradient(hat)
    assert np.all(np.abs(np.abs(g) - 2.0) < 1e-12)


def test_gradient_telescoping(grid):
    rng = np.random.default_rng(7)
    u = ph.GridFunction(grid, rng.normal(size=grid.n_interior))
    assert np.sum(ph.cell_gradient(u)) * grid.h == pytest.approx(0.0, abs=1e-12)


def test_energy_modular_zero_is_minimum(grid, pathological):
    zero = ph.GridFunction.zero(grid)
    assert ph.energy_modular(pathological, zero) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = ph.GridFunction(grid, rng.normal(size=grid.n_interior))
        assert ph.energy_modular(pathological, u) > 0.0


def test_energy_modular_hat_value(grid):
    x = grid.nodes
    hat = ph.GridFunction(grid, 1.0 - 2.0 * np.abs(x - 0.5))
    val = ph.energy_modular(ph.power_young(2.0, coeff=0.5), hat)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_energy_modular_convexity(grid, a5_spec):
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = ph.GridFunction(grid, rng.uniform(0.0, 2.0, grid.n_interior))
        v = ph.GridFunction(grid, rng.uniform(0.0, 2.0, grid.n_interior))
        mid = ph.GridFunction(grid, 0.5 * (u.values + v.values))
        lhs = ph.energy_modular(a5_spec.phi, mid)
        rhs = 0.5 * (ph.energy_modular(a5_spec.phi, u) + ph.energy_modular(a5_spec.phi, v))
        assert lhs <= rhs * (1.0 + 1e-12)


def test_refinement_stability():
    phi = ph.power_young(2.0)
    vals = []
    for n in (63, 127, 255, 511):
        grid = ph.Grid(n, 1.0)
        u = ph.GridFunction(grid, np.sin(np.pi * grid.nodes))
        vals.append((grid.h, ph.modular(phi, u), ph.luxemburg_norm(phi, u)))
    for (h1, m1, l1), (h2, m2, l2) in zip(vals, vals[1:]):
        assert abs(m2 - m1) <= 2.0 * h1
        assert abs(l2 - l1) <= 2.0 * h1


def _bracket_rows(grid):
    """Rows for the lockstep tests: a zero row, a row whose norm lies above
    its sup (upward expansion), a spike whose norm lies below it (downward
    expansion), that spike scaled to 1e-305 (a norm near the bottom of the
    double range), and random rows."""
    n = grid.n_interior
    rng = np.random.default_rng(21)
    spike = np.zeros(n)
    spike[n // 3] = -4.0
    rows = [np.zeros(n), np.full(n, 1.5 / grid.h), spike, spike * 1e-305]
    rows += list(rng.uniform(-3.0, 3.0, (5, n)))
    return np.array(rows)


@pytest.mark.parametrize("generator", ["power", "pathological"])
def test_luxemburg_rows_match_single_calls(grid, pathological, generator):
    psi = {"power": ph.power_young(3.0), "pathological": pathological}[generator]
    rows = _bracket_rows(grid)
    weight = 40.0 * grid.h  # the flat row's modular exceeds 1 at its sup
    assert modular_of(psi, rows[1] / np.abs(rows[1]).max(), weight) > 1.0
    assert modular_of(psi, rows[2] / np.abs(rows[2]).max(), weight) <= 1.0
    norms = luxemburg_of(psi, rows, weight)
    single = [luxemburg_of(psi, row, weight) for row in rows]
    assert isinstance(single[0], float)
    assert norms.shape == (len(rows),)
    assert norms.tobytes() == np.array(single).tobytes()  # bit for bit
    assert norms[0] == 0.0 and norms[3] > 0.0
    assert norms[1] > np.abs(rows[1]).max() and norms[2] < np.abs(rows[2]).max()
    if generator == "power":
        # one nonzero value v: the norm solves (v / lam)^3 weight = 1
        assert norms[3] == pytest.approx(4e-305 * weight ** (1.0 / 3.0), rel=1e-12)


def test_luxemburg_rows_span_blocks(pathological):
    # more rows than one lockstep block holds: blocks give the same bits
    n = 999
    rows = np.random.default_rng(22).normal(size=(3 * (LUXEMBURG_BLOCK // n) + 5, n))
    norms = luxemburg_of(pathological, rows, 1.0 / n)
    assert norms.tobytes() == np.array(
        [luxemburg_of(pathological, row, 1.0 / n) for row in rows]).tobytes()


@pytest.mark.parametrize("scale", [1e-305, 1e200])
def test_luxemburg_extreme_magnitudes(scale):
    # the product of the bracket ends underflows to 0 (then psi is evaluated
    # at v / 0) or overflows to inf at these magnitudes
    weight = 40.0 / 128.0
    norm = luxemburg_of(ph.power_young(3.0), np.full(127, scale), weight)
    assert norm == pytest.approx(scale * (127 * weight) ** (1.0 / 3.0), rel=1e-12)


def test_luxemburg_upward_budget_names_psi():
    # the modular of a weight this large exceeds 1 at every scaling the
    # 200 doublings reach
    psi = ph.power_young(2.0)
    with pytest.raises(EvalDomainError, match="Luxemburg bracket expansion"):
        luxemburg_of(psi, np.ones((2, 4)), 1e300)


def test_luxemburg_downward_budget_names_psi():
    # psi(t) = t trusted up to 1e300: the modular of a weight this small stays
    # <= 1 at every scaling the 400 halvings reach (the norm is 1e-200)
    psi = ph.YoungFunction(lambda t: t, np.ones_like, t_hi=1e300, name="linear")
    with pytest.raises(EvalDomainError,
                       match="linear: Luxemburg bracket expansion failed downward"):
        luxemburg_of(psi, np.ones(4), 1e-200)


def test_luxemburg_iteration_budget_names_psi(pathological, monkeypatch):
    # a row that needs more rounds than the budget allows raises instead of
    # returning an open bracket
    monkeypatch.setattr(orlicz, "LUXEMBURG_ITERS", 3)
    rows = np.random.default_rng(23).uniform(0.1, 2.0, (2, 50))
    with pytest.raises(EvalDomainError,
                       match=re.escape(pathological.name) + ": Luxemburg regula falsi"):
        luxemburg_of(pathological, rows, 0.02)


@pytest.fixture(scope="module")
def critical_table():
    return ph.sobolev_conjugate(ph.log_power_young(3.0), 4)


@pytest.mark.parametrize("generator", ["power", "pathological", "sobolev-conjugate"])
def test_luxemburg_flip_pair(grid, pathological, critical_table, generator):
    # each norm is feasible and its lower neighbouring double is not, with
    # the modular summed as the norm computation sums it
    psi = {"power": ph.power_young(3.0), "pathological": pathological,
           "sobolev-conjugate": critical_table}[generator]
    rows = np.abs(_bracket_rows(grid))
    weight = 40.0 * grid.h
    norms = luxemburg_of(psi, rows, weight)
    for row, lam in zip(rows[1:], norms[1:]):
        pair = np.array([np.nextafter(lam, 0.0), lam])
        m = np.sum(psi(row / pair[:, None]), axis=1) * weight
        assert m[0] > 1.0 >= m[1]
        assert modular_of(psi, row / lam, weight) <= 1.0


def test_luxemburg_leaves_input_unchanged(pathological):
    rows = np.random.default_rng(24).normal(size=(3, 40))
    before = rows.copy()
    luxemburg_of(pathological, rows, 0.05)
    luxemburg_of(pathological, rows[0], 0.05)
    assert rows.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# embedding constant


def test_embedding_constant_eigen_oracle(grid):
    # oracle: the first Dirichlet eigenvalue of the discrete second
    # difference is (2/h^2)(1-cos(pi h)), so the best ratio is its
    # inverse square root (about 1/pi)
    phi = ph.power_young(2.0)
    est = ph.estimate_embedding_constant(phi, phi, grid, n_trials=32,
                                         rng=np.random.default_rng(7))
    lam1 = 2.0 / grid.h ** 2 * (1.0 - np.cos(np.pi * grid.h))
    true = 1.0 / np.sqrt(lam1)
    assert est / 2.0 <= true * (1.0 + 1e-9)
    assert 0.25 <= est <= 0.7


def test_embedding_constant_scales_with_length():
    # oracle: dilation moves the ratio linearly in the interval length
    # for power norms
    phi = ph.power_young(3.0)
    ests = []
    for L in (1.0, 2.0, 4.0):
        grid = ph.Grid(63, L)
        ests.append(ph.estimate_embedding_constant(
            phi, phi, grid, n_trials=16, rng=np.random.default_rng(1)))
    assert ests[1] / ests[0] == pytest.approx(2.0, rel=1e-9)
    assert ests[2] / ests[0] == pytest.approx(4.0, rel=1e-9)


def test_embedding_zero_trials_skipped(grid):
    # an all-zero trial must contribute nothing rather than divide by zero
    phi = ph.power_young(2.0)

    class ZeroRng:
        def normal(self, size):
            return np.zeros(size)

    est = ph.estimate_embedding_constant(phi, phi, grid, n_trials=2, rng=ZeroRng())
    assert est > 0.0  # the deterministic fundamental-mode trial remains


def _embedding_reference(phi, target, grid, n_trials, rng, n_modes=6):
    """The estimate as a loop of one-trial norms."""
    modes = np.array([np.sin(k * np.pi * grid.nodes / grid.length)
                      for k in range(1, n_modes + 1)])
    best = 0.0
    for trial in range(n_trials):
        if trial == 0:
            coeffs = np.zeros(n_modes)
            coeffs[0] = 1.0
        else:
            coeffs = rng.normal(size=n_modes) / np.arange(1, n_modes + 1) ** 2
        u = ph.GridFunction(grid, coeffs @ modes)
        if not np.any(u.values):
            continue
        denom = luxemburg_of(phi, ph.cell_gradient(u), grid.h)
        if denom == 0.0:
            continue
        best = max(best, ph.luxemburg_norm(target, u) / denom)
    return 2.0 * best


@pytest.mark.parametrize("n", [127, 600])
def test_embedding_constant_matches_trial_loop(pathological, n):
    # 600 nodes need two lockstep blocks for 32 trials
    grid = ph.Grid(n, 1.0)
    target = ph.power_young(4.0)
    rng_batch, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
    est = ph.estimate_embedding_constant(pathological, target, grid, rng=rng_batch)
    ref = _embedding_reference(pathological, target, grid, 32, rng_loop)
    assert est == ref
    assert rng_batch.bit_generator.state == rng_loop.bit_generator.state


def _counting(fn, calls):
    def wrapped(t):
        calls.append(np.size(t))
        return fn(t)
    return wrapped


@pytest.mark.parametrize("n", [127, 2047])
def test_embedding_constant_evaluation_count(pathological, n, monkeypatch):
    # one psi call per lockstep round of each block, not one per trial and round
    grid = ph.Grid(n, 1.0)
    target = ph.power_young(4.0)
    calls = []
    for psi in (pathological, target):
        monkeypatch.setattr(psi, "_value", _counting(psi._value, calls))
    ph.estimate_embedding_constant(pathological, target, grid, rng=np.random.default_rng(5))
    blocks = 2 * -(-32 // (LUXEMBURG_BLOCK // (n + 1)))
    assert len(calls) <= blocks * (LUXEMBURG_ITERS + 10)


def test_embedding_constant_evaluation_total(monkeypatch):
    # the threshold stage of configs/two_solutions.ini at n = 2047: the
    # regula falsi evaluates about 0.9M psi values where bisection took 7.4M
    spec, settings, _ = load_problem(CONFIG, overrides=["grid.n_interior=2047"])
    counts = []

    def counted(phi, target, grid, **kwargs):
        sizes = []
        for psi in {id(phi): phi, id(target): target}.values():
            monkeypatch.setattr(psi, "_value", _counting(psi._value, sizes))
        counts.append(sizes)
        return estimate_embedding_constant(phi, target, grid, **kwargs)

    monkeypatch.setattr(threshold, "estimate_embedding_constant", counted)
    threshold_stage(spec, ph.run_all_checks(spec), rng=np.random.default_rng(settings.seed))
    assert len(counts) == 1
    assert 0 < sum(counts[0]) <= 2_500_000


def test_embedding_budget_error_names_stage(grid):
    # a generator this steep keeps the gradient modular above 1 beyond the
    # 200 doublings of the upward bracket expansion
    steep = ph.YoungFunction(lambda t: 1e300 * t, lambda t: np.full_like(t, 1e300),
                             name="steep")
    with pytest.raises(EvalDomainError,
                       match="embedding-constant estimate: steep: Luxemburg bracket"):
        ph.estimate_embedding_constant(steep, ph.power_young(2.0), grid, n_trials=2)


# ---------------------------------------------------------------------------
# CSV tables


def test_write_table_matches_csv_writer(tmp_path):
    import csv
    import io

    header = ["name", "value", "note"]
    rows = [["a,b", 1, 2.5],
            ['say "hi"', np.float64(1.0 / 3.0), ""],
            ["", float("nan"), float("inf")],
            ['both, "and"', -7, np.float64(-1e-300)],
            ["plain", True, np.float64(12345678901234.5)]]
    path = tmp_path / "t.csv"
    orlicz.write_table(path, header, rows)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                     for row in rows)
    assert path.read_bytes() == expected.getvalue().encode()
