#!/usr/bin/env python3
"""Write perfbench/reference.json: lambda_star and mountain-pass level for
every pipeline command the benchmark can draw.

    python3 perfbench/make_reference.py

Runs `philap mountain-pass` on each paper example, grid size and solver
seed of the pool, and first checks that the generated A4 and
pathological-reaction configs reproduce ``builtin_example`` through the
library pipeline.  Run it on the commit whose outputs are the reference;
the benchmark then accepts results within ``TOLERANCE_REL`` of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import philap as ph  # noqa: E402
from philap import cli  # noqa: E402

from checks import REFERENCE_FILE, command_facts, reference_key  # noqa: E402
from workloads import (EXAMPLES, GRID_SIZES, SOLVER_SEEDS, TOL_FIRST,  # noqa: E402
                       TOL_MOUNTAIN, example_command, config_path,
                       write_generated_configs)

TOLERANCE_REL = 1e-3


def check_generated_configs(workdir: Path) -> None:
    """Generated configs and builtin_example give the same pipeline."""
    for name in ("A4", "pathological-reaction"):
        spec, settings, _ = ph.load_problem(config_path(name, ROOT, workdir))
        built = ph.two_solution_pipeline(ph.builtin_example(name),
                                         rng=np.random.default_rng(1729))
        loaded = ph.two_solution_pipeline(
            spec, tol_first=TOL_FIRST, tol_mountain=TOL_MOUNTAIN,
            rng=np.random.default_rng(settings.seed))
        if (built.threshold.lambda_star != loaded.threshold.lambda_star
                or built.mp.level != loaded.mp.level):
            raise SystemExit(f"generated {name} config differs from builtin_example: "
                             f"{loaded.mp.level!r} vs {built.mp.level!r}")
        print(f"{name}: config reproduces builtin_example, level {built.mp.level:.6g}")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench"))
    values = {}
    try:
        write_generated_configs(workdir)
        check_generated_configs(workdir)
        for example in EXAMPLES:
            for n in GRID_SIZES:
                for seed in SOLVER_SEEDS:
                    cmd = example_command("pipeline", "mountain-pass", example, n, seed)
                    out = workdir / "out"
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(cmd.argv(ROOT, workdir, out))
                    facts = command_facts(cmd, stdout.getvalue(), stderr.getvalue(), out)
                    shutil.rmtree(out)
                    key = reference_key(example, n, seed)
                    values[key] = {"exit": code, "lambda_star": facts["lambda_star"],
                                   "level": facts["level"] if code == 0 else None}
                    print(f"{cmd.label}: {values[key]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps({
        "tolerance_rel": TOLERANCE_REL, "examples": list(EXAMPLES),
        "solver_seeds": list(SOLVER_SEEDS), "values": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
