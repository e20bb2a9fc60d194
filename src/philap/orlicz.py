"""Discrete function space on a uniform 1D Dirichlet grid.

Modulars and Luxembourg norms by nodal quadrature, forward-difference
gradients on cells, the gradient-energy modular, and a randomized
estimate of the embedding constant between gradient and value norms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConstructionError, EvalDomainError
from .young import YoungFunction

__all__ = [
    "Grid",
    "GridFunction",
    "cell_gradient",
    "energy_modular",
    "estimate_embedding_constant",
    "gridfunction_from_csv",
    "gridfunction_to_csv",
    "luxemburg_norm",
    "luxemburg_of",
    "modular",
    "modular_of",
    "write_table",
]

LUXEMBURG_ITERS = 70  # geometric bisection, resolves well below 1e-10 relative


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


def luxemburg_of(psi: YoungFunction, values: np.ndarray, weight: float) -> float:
    """inf{lam > 0 : sum psi(|v|/lam) weight <= 1} by geometric bisection."""
    vals = np.abs(np.asarray(values, dtype=float))
    vmax = float(vals.max(initial=0.0))
    if vmax == 0.0:
        return 0.0

    def mod(lam: float) -> float:
        return modular_of(psi, vals / lam, weight)

    lo = hi = vmax
    # expand until the bracket straddles modular = 1
    for _ in range(200):
        if mod(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise EvalDomainError("Luxembourg bracket expansion failed upward")
    for _ in range(400):
        if mod(lo) > 1.0:
            break
        lo /= 2.0
        if lo < 1e-300:
            # modular stays <= 1 for arbitrarily small scalings: zero norm
            return 0.0
    for _ in range(LUXEMBURG_ITERS):
        mid = math.sqrt(lo * hi)
        if mod(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def luxemburg_norm(psi: YoungFunction, u: GridFunction) -> float:
    """Luxembourg norm of the interior values under nodal quadrature."""
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
    parameter range downstream, so conservative is safe.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = grid.nodes
    modes = np.array([np.sin(k * math.pi * x / grid.length)
                      for k in range(1, n_modes + 1)])
    best = 0.0
    for trial in range(n_trials):
        if trial == 0:
            coeffs = np.zeros(n_modes)
            coeffs[0] = 1.0
        else:
            coeffs = rng.normal(size=n_modes) / np.arange(1, n_modes + 1) ** 2
        vals = coeffs @ modes
        if not np.any(vals):
            continue
        u = GridFunction(grid, vals)
        denom = luxemburg_of(phi, cell_gradient(u), grid.h)
        if denom == 0.0:
            continue
        best = max(best, luxemburg_norm(target, u) / denom)
    return safety * best


def write_table(path, header, rows) -> None:
    """CSV file with a header row and LF line endings; floats as .12g."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def gridfunction_to_csv(u: GridFunction, path) -> None:
    """Write columns x,u with header; boundary rows included as zeros."""
    xs = np.concatenate([[0.0], u.grid.nodes, [u.grid.length]])
    write_table(path, ["x", "u"], zip(xs, u.padded()))


def gridfunction_from_csv(path) -> GridFunction:
    """Read a grid function written by gridfunction_to_csv."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["x", "u"]:
            raise ConstructionError(f"unexpected CSV header {header!r} in {path}")
        for row in reader:
            rows.append((float(row[0]), float(row[1])))
    xs = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    if len(rows) < 3 or xs[0] != 0.0:
        raise ConstructionError(f"malformed grid CSV {Path(path)}")
    grid = Grid(n_interior=len(rows) - 2, length=float(xs[-1]))
    return GridFunction(grid, vals[1:-1])
