"""Discrete function space on a uniform 1D Dirichlet grid.

Modulars and Luxemburg norms by nodal quadrature, forward-difference
gradients on cells, the gradient-energy modular, and a randomized
estimate of the embedding constant between gradient and value norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConstructionError, EvalDomainError
from .young import YoungFunction, _regula_falsi

__all__ = [
    "Grid",
    "GridFunction",
    "cell_gradient",
    "energy_modular",
    "estimate_embedding_constant",
    "luxemburg_norm",
    "luxemburg_of",
    "modular",
    "modular_of",
    "write_table",
]

# rounds of regula falsi per Luxemburg bracket: by young.ROOT_RTOL_ITERS's
# bound a bracket of log width log 2 closes within 3 + 2 * (52 - 0.53) < 106
# rounds.  The benchmark workloads' rows close in 2-11.
LUXEMBURG_ITERS = 110
# elements per lockstep Luxemburg block (128 KiB of float64): the 32
# trial rows of the embedding estimate at 2048 cells close faster in blocks
# of 8 rows than in blocks of 4, 16 or 32 rows
LUXEMBURG_BLOCK = 16384


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0, L) with homogeneous Dirichlet boundary.

    n_interior interior nodes at x_i = i*h, h = L/(n_interior+1); the
    measure and the diameter of the interval both equal L.
    """

    n_interior: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_interior < 1 or not (math.isfinite(self.length) and self.length > 0.0):
            raise ConstructionError(
                f"grid needs n_interior >= 1 and finite length > 0, got "
                f"{self.n_interior}, {self.length}")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_interior + 1)

    @property
    def distances(self) -> np.ndarray:
        x = self.nodes
        return np.minimum(x, self.length - x)

    @property
    def diameter(self) -> float:
        return self.length

    @property
    def measure(self) -> float:
        return self.length


@dataclass
class GridFunction:
    """Interior nodal values; the boundary values are implicitly zero."""

    grid: Grid
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_interior,):
            raise ConstructionError(
                f"expected {self.grid.n_interior} interior values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ConstructionError("grid function values must be finite")
        self.values = vals.copy()

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.n_interior))

    def padded(self) -> np.ndarray:
        return np.concatenate([[0.0], self.values, [0.0]])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))


def cell_gradient(u: GridFunction) -> np.ndarray:
    """Forward differences on the n_interior + 1 cells."""
    return np.diff(u.padded()) / u.grid.h


def modular_of(psi: YoungFunction, values: np.ndarray, weight: float) -> float:
    """Sum of psi(|v|) * weight over the samples, skipping exact zeros."""
    return float(np.sum(psi(np.abs(np.asarray(values, dtype=float)))) * weight)


def modular(psi: YoungFunction, u: GridFunction) -> float:
    """Nodal midpoint-rule modular of the interior values."""
    return modular_of(psi, u.values, u.grid.h)


def _luxemburg_rows(psi: YoungFunction, vals: np.ndarray, weight: float) -> np.ndarray:
    """Luxemburg norms of the rows of a non-negative 2-D array, in lockstep.

    The modular M(lam) = sum psi(v/lam) weight falls with lam almost as a
    power law (its log-log slope lies between minus the growth indices),
    so each row brackets M = 1 between probes a factor 2 apart, closed by
    young._regula_falsi on (log lam, log M) to a flip pair a < b with
    M(a) > 1 >= M(b).  Every row takes exactly the path it takes alone;
    one psi call per round serves all rows that are still open.
    """
    n = vals.shape[0]
    vmax = vals.max(axis=1, initial=0.0)
    a, b = np.zeros(n), np.zeros(n)  # M(a) > 1 >= M(b)
    ma, mb = np.zeros(n), np.zeros(n)
    live = vmax > 0.0  # an all-zero row has norm 0

    def modular_rows(block: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return np.sum(psi(block / lam[:, None]), axis=1) * weight

    def settle(rows, lam, m):
        """Store each probe as the end of the bracket it belongs to; return
        the rows whose probe stayed above 1."""
        high = m > 1.0
        a[rows[high]], ma[rows[high]] = lam[high], m[high]
        b[rows[~high]], mb[rows[~high]] = lam[~high], m[~high]
        return high

    # the first probe, at vmax, picks each row's direction: double upward
    # (200 probes) until the modular is <= 1, or halve downward (400 probes)
    # until it is > 1; the last two probes bracket the norm
    rows = np.flatnonzero(live)
    first = settle(rows, vmax[rows], modular_rows(vals[rows], vmax[rows]))
    up, down = rows[first], rows[~first]
    for _ in range(200):
        if not up.size:
            break
        lam = a[up] * 2.0
        up = up[settle(up, lam, modular_rows(vals[up], lam))]
    if up.size:
        raise EvalDomainError(f"{psi.name}: Luxemburg bracket expansion failed upward "
                              f"after 200 doublings")
    for _ in range(400):
        if not down.size:
            break
        lam = b[down] / 2.0
        # the bracket vanished: the modular stays <= 1 down to the smallest
        # positive double, so the norm rounds to 0
        gone = lam == 0.0
        live[down[gone]] = False
        down, lam = down[~gone], lam[~gone]
        down = down[~settle(down, lam, modular_rows(vals[down], lam))]
    if down.size:
        raise EvalDomainError(f"{psi.name}: Luxemburg bracket expansion failed downward "
                              f"after 400 halvings")

    rows, norms = np.flatnonzero(live), np.zeros(n)
    with np.errstate(divide="ignore"):  # log M is -inf where M vanishes
        norms[rows] = _regula_falsi(  # b, the feasible end: M(norm) <= 1
            lambda k, lam: np.log(modular_rows(vals[rows[k]], lam)),
            a[rows], b[rows], np.log(ma[rows]), np.log(mb[rows]),
            LUXEMBURG_ITERS, f"{psi.name}: Luxemburg regula falsi")
    return norms


def luxemburg_of(psi: YoungFunction, values, weight: float):
    """inf{lam > 0 : sum psi(|v|/lam) weight <= 1}, closed by the secant the
    root finder uses (young._regula_falsi), so the norm is the upper end b
    of a flip pair a < b with M(a) > 1 >= M(b) and is feasible.  A 1-D array
    gives a float.  A 2-D array gives one norm per row: rows iterate in
    lockstep, LUXEMBURG_BLOCK elements at a time, and each row's norm is
    bit-identical to the norm of that row alone.  The input is not modified.
    """
    vals = np.abs(np.asarray(values, dtype=float))
    if vals.ndim <= 1:
        return float(_luxemburg_rows(psi, vals.reshape(1, -1), weight)[0])
    if vals.ndim != 2:
        raise ConstructionError(f"Luxemburg norm needs 1-D or 2-D values, got {vals.shape}")
    rows = max(1, LUXEMBURG_BLOCK // max(vals.shape[1], 1))
    norms = np.empty(vals.shape[0])
    for i in range(0, vals.shape[0], rows):
        norms[i:i + rows] = _luxemburg_rows(psi, vals[i:i + rows], weight)
    return norms


def luxemburg_norm(psi: YoungFunction, u: GridFunction) -> float:
    """Luxemburg norm of the interior values under nodal quadrature."""
    return luxemburg_of(psi, u.values, u.grid.h)


def energy_modular(phi: YoungFunction, u: GridFunction) -> float:
    """Gradient-energy modular: sum of phi(|grad u|) * h over cells."""
    return modular_of(phi, cell_gradient(u), u.grid.h)


def estimate_embedding_constant(phi: YoungFunction, target: YoungFunction,
                                grid: Grid, n_trials: int = 32,
                                rng: Optional[np.random.Generator] = None,
                                safety: float = 2.0, n_modes: int = 6) -> float:
    """Conservative estimate of sup ||u||_target / ||grad u||_phi.

    Randomized Rayleigh sampling over smooth low-frequency trial
    functions (the fundamental mode is always included), inflated by a
    safety factor.  A larger constant only tightens the admissible
    parameter range downstream, so conservative is safe.  The trials are
    stacked as rows, and the gradient norms and the value norms are one
    lockstep Luxemburg computation each.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = grid.nodes
    modes = np.array([np.sin(k * math.pi * x / grid.length)
                      for k in range(1, n_modes + 1)])
    vals = np.empty((n_trials, x.size))
    # one draw and one product per trial: a single (n_trials-1, n_modes)
    # draw gives the same stream, but its matrix product not the same bits
    for trial in range(n_trials):
        if trial == 0:
            coeffs = np.zeros(n_modes)
            coeffs[0] = 1.0
        else:
            coeffs = rng.normal(size=n_modes) / np.arange(1, n_modes + 1) ** 2
        vals[trial] = coeffs @ modes
    vals = vals[vals.any(axis=1)]  # an all-zero trial contributes nothing
    grads = np.diff(vals, axis=1, prepend=0.0, append=0.0) / grid.h
    try:
        denom = luxemburg_of(phi, grads, grid.h)
        keep = denom != 0.0
        numer = luxemburg_of(target, vals[keep], grid.h)
    except EvalDomainError as exc:
        raise EvalDomainError(f"embedding-constant estimate: {exc}") from exc
    # fmax skips a NaN ratio (inf/inf after overflow) as max() over floats did
    return safety * float(np.fmax.reduce(numer / denom[keep], initial=0.0))


def _field(v) -> str:
    """A float as .12g; anything else as its text, quoted where it holds a
    comma, a quote or a newline, as csv.writer quotes it."""
    if isinstance(v, float):
        return f"{v:.12g}"
    text = str(v)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, header, rows) -> None:
    """CSV file with a header row and LF line endings; floats as .12g."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(",".join(map(_field, row)) + "\n" for row in (header, *rows))
