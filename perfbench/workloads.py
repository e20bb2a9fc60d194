"""Seeded command generation for the three benchmark workloads.

A workload run is a sequence of rounds.  Each round is a list of CLI
commands drawn from the workload seed and the round number only, so the
same seed always yields the same commands in the same order.  The
program sees nothing but the configs written here (or the ones shipped in
``configs/``) and ``--override`` arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("pipeline", "audit-sweep", "young-tables")

GRID_SIZES = (127, 255, 511, 1023, 2047)
EXAMPLES = ("A5", "A4", "pathological-reaction")
# the mountain-pass residual gates are passed explicitly so that the
# output checks compare against the tolerances the program was given
TOL_FIRST = 1e-6
TOL_MOUNTAIN = 1e-4
# solver.seed is drawn from this pool so that every pipeline command has
# a stored reference value (reference.json, made by make_reference.py)
SOLVER_SEEDS = (1729, 1, 2, 987654)

# each negative control fails the hypothesis it is named for
CONTROLS = {
    "control_no_blowup": "H(f)1",
    "control_sublinear": "H(f)3",
    "control_supercritical": "H(a)2",
}
A5_DRAWS_PER_N = 16  # stratified over p for each N in {4, 5}
# A young-tables round repeats its commands so that one round, like a
# pipeline or audit-sweep round, lasts well over run_seconds.  The cheap
# `indices` commands (about 5 ms) repeat less often than the
# `sobolev-conjugate` ones, so that the median command lies inside a
# cluster of like commands rather than in the gap between two clusters.
INDICES_REPEATS = 11
SOBOLEV_REPEATS = 16

YOUNG_COMMANDS = (
    ("indices", "power", ("--p", "2")),
    ("indices", "log-power", ("--p", "3")),
    ("indices", "pathological", ("--p", "3", "--q", "2", "--eps", "1.9")),
    ("sobolev-conjugate", "power", ("--p", "3")),
    ("sobolev-conjugate", "log-power", ("--p", "3")),
    ("sobolev-conjugate", "pathological", ("--p", "3", "--q", "2", "--eps", "1.9")),
)
# `philap conjugate` evaluates the double conjugate one scalar at a time
# and takes about 70 s, longer than a whole benchmark run may last; the
# traced young-tables run replays its library calls instead.
CONJUGATE_REPLAY = ("power", 2.0)


@dataclass(frozen=True)
class Command:
    """One CLI invocation with what the benchmark expects from it."""

    workload: str
    subcommand: str
    label: str                      # short human-readable input description
    config: str | None = None       # key understood by config_path()
    args: tuple = ()                # extra argv (builtin flags or overrides)
    example: str | None = None      # paper example name, when there is one
    n_interior: int | None = None
    solver_seed: int | None = None
    expected_exit: int = 0
    expected_fail: str | None = None  # hypothesis the command must report as FAIL

    def argv(self, root: Path, workdir: Path, out: Path) -> list[str]:
        argv = [self.subcommand]
        if self.config is not None:
            argv += ["--config", str(config_path(self.config, root, workdir))]
        return argv + list(self.args) + ["--out", str(out)]


# ---------------------------------------------------------------------------
# configs


def _a4_config() -> str:
    """Config equal to builtin_example("A4") with its defaults."""
    p, q, eps, n_dim = 3.0, 2.0, 1.9, 4
    q_star = n_dim * q / (n_dim - q)
    s_idx = p + (q_star - p) / 3.0
    r_idx = p + 2.0 * (q_star - p) / 3.0
    eps_ups = min(eps, 0.9 * (s_idx - 1.0) / ((r_idx - s_idx) / 2.0), 3.9)
    return ("[operator]\nkind = pathological\n"
            f"p = {p!r}\nq = {q!r}\neps = {eps!r}\nN = {n_dim}\n\n"
            "[reaction]\nkind = upsilon_ratio\nc2 = 1.0\ngamma = 0.5\n\n"
            "[hypotheses]\nc1 = 1.0\nupsilon = pathological\n"
            f"upsilon_p = {r_idx!r}\nupsilon_q = {s_idx!r}\nupsilon_eps = {eps_ups!r}\n")


def _pathological_reaction_config() -> str:
    """Config equal to builtin_example("pathological-reaction")."""
    return ("[operator]\nkind = power\np = 2.0\nN = 5\n\n"
            "[reaction]\nkind = upsilon_ratio\nc2 = 1.0\ngamma = 0.5\n\n"
            "[hypotheses]\nc1 = 1.0\nupsilon = pathological\n"
            "upsilon_p = 3.0\nupsilon_q = 2.5\nupsilon_eps = 1.9\n")


GENERATED_CONFIGS = {
    "A4": _a4_config,
    "pathological-reaction": _pathological_reaction_config,
}


def config_path(key: str, root: Path, workdir: Path) -> Path:
    if key == "A5":
        return root / "configs" / "two_solutions.ini"
    if key in CONTROLS:
        return root / "configs" / f"{key}.ini"
    return workdir / f"{key}.ini"


def write_generated_configs(workdir: Path) -> None:
    for key, make in GENERATED_CONFIGS.items():
        (workdir / f"{key}.ini").write_text(make())


# ---------------------------------------------------------------------------
# rounds


def _overrides(**pairs) -> tuple:
    out = []
    for key, value in pairs.items():
        out += ["--override", f"{key.replace('__', '.')}={value}"]
    return tuple(out)


def example_command(workload: str, subcommand: str, example: str, n: int,
                    seed: int) -> Command:
    return Command(
        workload=workload, subcommand=subcommand,
        label=f"{example} n={n} seed={seed}", config=example, example=example,
        n_interior=n, solver_seed=seed,
        args=_overrides(grid__n_interior=n, solver__seed=seed,
                        solver__tol_first=TOL_FIRST, solver__tol_mountain=TOL_MOUNTAIN))


def _a5_draws(rng: np.random.Generator, workload: str) -> list[Command]:
    """A5-family draws from the paper's window, stratified over p.

    Window: 1 < p <= N-1, N < p + p^2, p < r < p* - 1 with p* = Np/(N-p),
    0 < gamma < 1, N in {4, 5}.  The envelope is t^(r+1), as in
    configs/two_solutions.ini.
    """
    cmds = []
    for n_dim in (4, 5):
        p_lo = (math.sqrt(1.0 + 4.0 * n_dim) - 1.0) / 2.0  # root of p + p^2 = N
        p_hi = n_dim - 1.0
        width = (p_hi - p_lo) / A5_DRAWS_PER_N
        for k in range(A5_DRAWS_PER_N):
            # open at the lower end of each stratum
            p = p_lo + width * (k + 1.0 - rng.uniform(0.0, 1.0))
            p_star = n_dim * p / (n_dim - p)
            r = p + (p_star - 1.0 - p) * rng.uniform(0.0, 1.0)
            gamma = float(rng.uniform(0.0, 1.0))
            seed = int(rng.integers(1, 2 ** 31 - 1))
            cmds.append(Command(
                workload=workload, subcommand="lambda-star",
                label=f"A5 draw N={n_dim} p={p:.4f} r={r:.4f} gamma={gamma:.3f}",
                config="A5", example="A5-draw", n_interior=127, solver_seed=seed,
                args=_overrides(operator__p=repr(p), operator__N=n_dim,
                                reaction__r=repr(r), reaction__gamma=repr(gamma),
                                hypotheses__upsilon_power=repr(r + 1.0),
                                solver__seed=seed)))
    return cmds


def round_commands(workload: str, seed: int, round_index: int) -> list[Command]:
    """The commands of one round, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), round_index])
    if workload == "pipeline":
        cmds = [example_command(workload, "mountain-pass", ex, n,
                                int(rng.choice(SOLVER_SEEDS)))
                for ex in EXAMPLES for n in GRID_SIZES]
    elif workload == "audit-sweep":
        cmds = [example_command(workload, "lambda-star", ex, 127,
                                int(rng.choice(SOLVER_SEEDS)))
                for ex in EXAMPLES]
        cmds += [Command(workload=workload, subcommand="lambda-star", label=name,
                         config=name, example=name, expected_exit=1,
                         expected_fail=check)
                 for name, check in CONTROLS.items()]
        cmds += _a5_draws(rng, workload)
    else:
        cmds = [Command(workload=workload, subcommand=sub,
                        label=f"{sub} {builtin} {' '.join(flags)}",
                        args=("--builtin", builtin) + flags)
                for sub, builtin, flags in YOUNG_COMMANDS
                for _ in range(INDICES_REPEATS if sub == "indices" else SOBOLEV_REPEATS)]
    order = rng.permutation(len(cmds))
    return [cmds[i] for i in order]
