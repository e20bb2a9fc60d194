#!/usr/bin/env python3
"""philap benchmark: seeded CLI workloads driven in-process.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

One client runs a closed loop in one process: each command starts when
the previous one has returned and its outputs have been checked.  A run
repeats whole rounds of its workload's commands until ``--seconds`` have
passed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also
replays every command as library calls with a span around each and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # pinned before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import (INVOLUTION_TOL, check_command, known_failure, load_ledger,  # noqa: E402
                    load_reference, over_cap)
from workloads import (GRID_SIZES, WORKLOADS, Command, config_path,  # noqa: E402
                       round_commands, write_generated_configs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_LAUNCHES = 7
SCIPY_LAUNCHES = 3
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
# Seconds the calibration kernel takes at the reference speed.  Every
# end-to-end time is scaled to that speed; see Pace.
CAL_REF_S = 0.030

SPAN_METRICS = (
    "young.sobolev_conjugate", "young.compute_indices", "young.young_conjugate",
    "problems.load_problem", "problems.check_ha1", "problems.check_ha2",
    "problems.check_hf1", "problems.check_hf2", "problems.check_hf3",
    "threshold.truncation_constants", "threshold.classify", "threshold.lambda_star",
    "solver.build_subsolution", "solver.first_solution", "solver.mountain_pass",
    "solver.uphill_endpoint", "solver.verify_solution", "solver.degiorgi_bound",
)
BY_GRID = ("threshold.lambda_star", "solver.first_solution", "solver.mountain_pass")

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s"}
PER_LAYER = {"cli.self_s": "s", "trace.overhead_s": "s", "import.scipy_s": "s"}
PER_LAYER.update({f"{name}_s": "s" for name in SPAN_METRICS})
PER_LAYER.update({f"{name}_s.n{n}": "s" for name in BY_GRID for n in GRID_SIZES})
PER_LAYER.update({"solver.first_solution.iterations": "count",
                  "solver.mountain_pass.outer_iterations": "count",
                  "solver.mountain_pass.converged_frac": "ratio"})


@dataclass
class Record:
    """One executed command."""

    cmd: Command
    seconds: float
    ok: bool
    paced: float = 0.0  # seconds at the reference speed
    cause: str = ""
    known: dict | None = None
    layers: dict = field(default_factory=dict)   # traced runs only
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
        "machine": platform.machine(), "clients": 1, "loop": "closed",
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch_seconds(code: str) -> float:
    """Wall time from starting a fresh interpreter until ``code`` has run."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code + "\nprint('ready', flush=True)"],
                            stdout=subprocess.PIPE, cwd=ROOT, env=_child_env())
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed to run {code!r}")
    return elapsed


def scipy_modules() -> list[str]:
    """The scipy modules philap imports, read from its source."""
    pattern = re.compile(r"^\s*(?:from|import)\s+(scipy(?:\.\w+)*)", re.M)
    found = set()
    for path in sorted((SRC / "philap").glob("*.py")):
        found.update(pattern.findall(path.read_text()))
    return sorted(found)


# ---------------------------------------------------------------------------
# pace of the host


def calibration_kernel() -> float:
    """Seconds that one fixed piece of work takes now: a pure-Python loop
    and a chain of one-thread numpy operations, the mix that philap runs."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.linspace(-1.0, 1.0, 20_000)
    for _ in range(200):
        a = np.sqrt(np.abs(a) + 1.0) * 0.5
    return time.perf_counter() - start


class Pace:
    """Scales a time measured now to the reference speed.

    On a shared host the speed of one core changes by tens of percent
    within seconds and between minutes, for the program and the
    calibration kernel alike.  Each measured span is multiplied by
    CAL_REF_S over the mean of the kernel's time just before and just
    after the span, so the change of speed drops out of the metrics."""

    def __init__(self):
        self.last = calibration_kernel()
        self.samples = [self.last]

    def scale(self) -> float:
        """The factor for the span that ended just now."""
        before, self.last = self.last, calibration_kernel()
        self.samples.append(self.last)
        return CAL_REF_S / ((before + self.last) / 2.0)


# ---------------------------------------------------------------------------
# running commands


def execute(cmd, workdir: Path, index: int, ref: dict, ledger: list, pace: Pace):
    """Run one command through philap.cli.main and check its outputs."""
    from philap import cli

    out = workdir / f"out-{index}"
    argv = cmd.argv(ROOT, workdir, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the command failed; the run goes on
            code = -1
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    paced = seconds * pace.scale()
    outcome = check_command(cmd, code, stdout.getvalue(), stderr.getvalue(), out, ref)
    shutil.rmtree(out, ignore_errors=True)
    record = Record(cmd, seconds, outcome.ok, paced, outcome.cause)
    if not outcome.ok:
        record.known = known_failure(cmd, outcome.cause, ledger)
    return record, outcome


def faithful(outcome, rep) -> str:
    """Empty when the replay reproduced the command, else the difference."""
    if rep.code != outcome.code:
        return f"replay exit {rep.code} != command exit {outcome.code}"
    for key in sorted(set(rep.facts) & set(outcome.facts)):
        if rep.facts[key] != outcome.facts[key]:
            return f"replay {key}={rep.facts[key]!r} != command {outcome.facts[key]!r}"
    missing = {"lambda_star", "level", "converged", "fails", "error"} & (
        set(rep.facts) ^ set(outcome.facts))
    if missing:
        return f"replay and command disagree on reporting {sorted(missing)}"
    return ""


def trace_command(cmd, workdir: Path, record: Record, outcome) -> str:
    """Replay traced and untraced; fill record.layers; return a fidelity error."""
    from replay import Tracer, replay

    config = str(config_path(cmd.config, ROOT, workdir)) if cmd.config else None
    tracer = Tracer()
    start = time.perf_counter()
    rep = replay(cmd, config, tracer)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    plain = replay(cmd, config, Tracer(enabled=False))
    untraced = time.perf_counter() - start
    record.layers = tracer.self_times()
    record.layers["cli.self"] = record.seconds - traced
    record.layers["trace.overhead"] = traced - untraced
    record.counts = rep.counts
    return faithful(outcome, rep) or faithful(outcome, plain)


def trace_conjugate() -> tuple[dict, str]:
    """Replay of `philap conjugate`; its verdict is the involution check."""
    from replay import Tracer, replay_conjugate

    tracer = Tracer()
    start = time.perf_counter()
    err = replay_conjugate(tracer)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    err_plain = replay_conjugate(Tracer(enabled=False))
    layers = tracer.self_times()
    layers["trace.overhead"] = traced - (time.perf_counter() - start)
    worst = max(err, err_plain)
    return layers, ("" if worst < INVOLUTION_TOL else
                    f"conjugate replay involution error {worst:.3e}")


def run_loop(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
             pace: Pace):
    """Closed loop over whole rounds.

    Returns the records, the loop's wall time, the number of rounds, the
    replay differences and the layer times of the conjugate replays."""
    ref, ledger = load_reference(), load_ledger()
    write_generated_configs(workdir)
    records, errors, extra_layers = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for cmd in round_commands(workload, seed, rounds):
            record, outcome = execute(cmd, workdir, len(records), ref, ledger, pace)
            records.append(record)
            if trace:
                err = trace_command(cmd, workdir, record, outcome)
                if err:
                    errors.append(f"{cmd.label}: {err}")
        if trace and workload == "young-tables":
            layers, err = trace_conjugate()
            extra_layers.append(layers)
            if err:
                errors.append(err)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start, rounds, errors, extra_layers


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the (n - TAIL_BEYOND)-th smallest value, or the smallest when n is less
    than TAIL_BEYOND + 1."""
    k = max(len(values) - TAIL_BEYOND, 1)  # 1-based rank
    return sorted(values)[k - 1], 100.0 * k / len(values)


def end_to_end(records, setup: list[float], raw_setup: list[float],
               pace: Pace) -> tuple[dict, list[str]]:
    """Metrics from paced times; the notes give the raw figures too."""
    ok = [r for r in records if r.ok]
    if not ok:
        raise RuntimeError("no command succeeded; no timing to report")
    times = [r.paced for r in ok]
    tail_s, pct = tail(times)
    attempted = len(records)
    failed = attempted - len(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": len(times) / sum(r.paced for r in records),
    }
    raw = [r.seconds for r in ok]
    notes = [f"op_s.tail is p{pct:.1f} of {len(times)} successful commands",
             f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted})",
             f"calibration kernel: median {statistics.median(pace.samples):.5f} s of "
             f"{len(pace.samples)} (reference {CAL_REF_S} s)",
             f"raw: setup_s {statistics.median(raw_setup):.5g} s, op_s.p50 "
             f"{statistics.median(raw):.5g} s, op_s.tail {tail(raw)[0]:.5g} s, ops_per_s "
             f"{len(raw) / sum(r.seconds for r in records):.5g} 1/s",
             f"setup_s launches: {', '.join(f'{s:.4f}' for s in setup)}"]
    return metrics, notes


def per_layer(records, extra_layers, scipy_s: float) -> dict:
    def median_of(name, rows):
        vals = [row[name] for row in rows if name in row]
        return statistics.median(vals) if vals else 0.0

    layer_rows = [r.layers for r in records] + extra_layers
    metrics = {"cli.self_s": median_of("cli.self", [r.layers for r in records]),
               "trace.overhead_s": median_of("trace.overhead", layer_rows),
               "import.scipy_s": scipy_s}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = median_of(name, layer_rows)
    for name in BY_GRID:
        for n in GRID_SIZES:
            rows = [r.layers for r in records if r.cmd.n_interior == n]
            metrics[f"{name}_s.n{n}"] = median_of(name, rows)
    counts = [r.counts for r in records if "mp_converged" in r.counts]
    metrics["solver.first_solution.iterations"] = median_of(
        "first_iterations", [r.counts for r in records])
    metrics["solver.mountain_pass.outer_iterations"] = median_of("mp_outer_iterations", counts)
    metrics["solver.mountain_pass.converged_frac"] = (
        sum(c["mp_converged"] for c in counts) / len(counts) if counts else 0.0)
    return metrics


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "philap" / "cli.py").is_file():
        print(f"error: the philap sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported here first so that a fresh checkout's bytecode is written
    # before the setup launches are timed
    import philap.cli  # noqa: F401

    # one core for the harness, the commands and the setup launches, so
    # that the calibration kernel runs on the core whose pace it measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(args)
    pace = Pace()
    raw_setup, setup = [], []
    for _ in range(0 if args.trace else SETUP_LAUNCHES):
        raw_setup.append(launch_seconds("import philap.cli"))
        setup.append(raw_setup[-1] * pace.scale())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        records, wall, rounds, errors, extra = run_loop(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, pace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in records if not r.ok]
    unknown = [r for r in failures if r.known is None]
    known = Counter(r.known["id"] for r in failures if r.known)
    capped = over_cap(known, load_ledger())
    if args.trace:
        modules = scipy_modules()
        scipy_s = (statistics.median(launch_seconds("import " + ", ".join(modules))
                                     for _ in range(SCIPY_LAUNCHES)) if modules else 0.0)
        metrics, notes = per_layer(records, extra, scipy_s), []
    else:
        metrics, notes = end_to_end(records, setup, raw_setup, pace)
    units = PER_LAYER if args.trace else END_TO_END

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {rounds} rounds, {len(records)} commands "
          f"in {wall:.3f} s, {len(failures)} failed ({len(unknown)} not in the ledger)")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print("  " + note)
    for ledger_id, count in sorted(known.items()):
        print(f"  known failure {ledger_id}: {count} commands")
    for entry in capped:
        print(f"  known failure {entry['id']}: more than {entry['max_per_run']} commands "
              "in one run")
    for r in unknown:
        print(f"  failed, not in the ledger: {r.cmd.subcommand} {r.cmd.label}: {r.cause}")
    for err in errors:
        print(f"  replay differs: {err}")
    correct = not unknown and not capped and not errors
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
