"""Output checks for every benchmarked command, and the known-failure ledger.

``check_command`` reads what one CLI command printed and wrote and
returns an ``Outcome``: whether the command succeeded (expected exit
code, no traceback, every output check true), the cause when it did not,
and the facts the traced replay must reproduce.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import TOL_FIRST, TOL_MOUNTAIN, Command

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
LEDGER_FILE = HERE / "known_failures.json"

INVOLUTION_TOL = 1e-6
INDEX_TOL = 1e-3          # pathological generator indices against (q, p)
SUBSOLUTION_SLACK = 1e-10  # same slack as the solver's own comparison flag

_LEVEL_RE = re.compile(r"mountain pass: level=(\S+) residual=(\S+) "
                       r"converged=(True|False) collapsed=(True|False)")
_LAMBDA_RE = re.compile(r"case=(\S+) lambda_star=(\S+) ")
_SOBOLEV_RE = re.compile(r"indices \[(\S+), (\S+)\]")


@dataclass
class Outcome:
    ok: bool
    code: int
    cause: str = ""
    facts: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(path: Path) -> list[list[str]]:
    _require(path.exists(), f"missing {path.name}")
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _manifest(out: Path) -> dict:
    path = out / "manifest.txt"
    _require(path.exists(), "missing manifest.txt")
    pairs = [line.split("=", 1) for line in path.read_text().splitlines() if "=" in line]
    manifest = dict(pairs)
    _require("seed" in manifest, "manifest.txt has no seed")
    return manifest


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# reference values of the seed commit


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def reference_key(example: str, n: int, seed: int) -> str:
    return f"{example}/{n}/{seed}"


def _reference_level(ref: dict, cmd: Command) -> float:
    """Reference mountain-pass level; a grid size whose run failed at the
    seed commit borrows the level of the nearest grid size that converged."""
    values = ref["values"]
    sizes = sorted({int(k.split("/")[1]) for k in values},
                   key=lambda n: (abs(math.log(n / cmd.n_interior)), n))
    for n in sizes:
        entry = values.get(reference_key(cmd.example, n, cmd.solver_seed))
        if entry and entry.get("level") is not None:
            return entry["level"]
    raise CheckFailed(f"no reference level for {cmd.label}")


# ---------------------------------------------------------------------------
# per-command checks


def command_facts(cmd: Command, stdout: str, stderr: str, out: Path) -> dict:
    """What the command reported: the values a replay must reproduce."""
    facts = {}
    for line in stderr.splitlines():
        if line.startswith("error: "):
            facts["error"] = line[len("error: "):]
    fails = sorted(l.split(":")[0] for l in stdout.splitlines() if ": FAIL" in l)
    if fails:
        facts["fails"] = fails
    manifest = out / "manifest.txt"
    if manifest.exists():
        for line in manifest.read_text().splitlines():
            if line.startswith("lambda_star="):
                facts["lambda_star"] = float(line.split("=", 1)[1])
    match = _LEVEL_RE.search(stdout)
    if match:
        facts["level"] = float(match.group(1))
        facts["converged"] = match.group(3) == "True"
    match = _SOBOLEV_RE.search(stdout)
    if match:
        facts["indices"] = (match.group(1), match.group(2))
    indices = out / "indices.csv"
    if cmd.subcommand == "indices" and indices.exists():
        rows = _rows(indices)
        if len(rows) == 2:
            row = dict(zip(rows[0], rows[1]))
            facts["lower"], facts["upper"] = float(row["lower"]), float(row["upper"])
    return facts


def _check_mountain_pass(cmd: Command, out: Path, stdout: str, facts: dict, ref: dict) -> None:
    _require("level" in facts, "no mountain-pass summary line")
    manifest = _manifest(out)
    lam, lam_star = float(manifest["lambda"]), facts["lambda_star"]
    _require(0.0 < lam < lam_star, f"lambda {lam:g} not below lambda_star {lam_star:g}")
    _require(float(manifest["first_residual"]) < TOL_FIRST,
             f"first residual {manifest['first_residual']} >= {TOL_FIRST:g}")
    _require(float(manifest["mountain_residual"]) < TOL_MOUNTAIN,
             f"mountain residual {manifest['mountain_residual']} >= {TOL_MOUNTAIN:g}")

    rows = _rows(out / "solution.csv")
    _require(rows[0] == ["x", "u_lambda", "v_lambda", "u_under"], "solution.csv header")
    body = [[float(v) for v in row] for row in rows[1:]]
    _require(len(body) == cmd.n_interior + 2,
             f"solution.csv has {len(body)} rows, expected {cmd.n_interior + 2}")
    _require(all(u >= under - SUBSOLUTION_SLACK for _, u, _, under in body),
             "u_lambda below u_under")
    _require(all(v > 0.0 for _, _, v, _ in body[1:-1]), "v_lambda not positive")

    dg = _rows(out / "degiorgi.csv")
    _require(len(dg) > 1 and float(dg[-1][2]) == 0.0, "last De Giorgi mass is not 0")

    tol = ref["tolerance_rel"]
    entry = ref["values"].get(reference_key(cmd.example, cmd.n_interior, cmd.solver_seed))
    _require(entry is not None, f"no reference for {cmd.label}")
    _require(_rel(lam_star, entry["lambda_star"]) <= tol,
             f"lambda_star {lam_star:.9g} vs reference {entry['lambda_star']:.9g}")
    level_ref = _reference_level(ref, cmd)
    _require(_rel(facts["level"], level_ref) <= tol,
             f"level {facts['level']:.6g} vs reference {level_ref:.6g}")


def _check_lambda_star(cmd: Command, out: Path, stdout: str, facts: dict, ref: dict) -> None:
    _manifest(out)
    if cmd.expected_fail is not None:
        _require(cmd.expected_fail in facts.get("fails", []),
                 f"no '{cmd.expected_fail}: FAIL' line")
        rows = _rows(out / "hypotheses.csv")
        _require([cmd.expected_fail, "False"] in [r[:2] for r in rows[1:]],
                 f"hypotheses.csv does not record {cmd.expected_fail} as failed")
        return
    match = _LAMBDA_RE.search(stdout)
    _require(match is not None, "no threshold summary line")
    rows = _rows(out / "threshold.csv")
    _require(rows[0] == ["case", "C1", "C2", "A", "B", "theta",
                         "lambda_star", "lambda", "r_star"], "threshold.csv header")
    _require(len(rows) == 2, f"threshold.csv has {len(rows) - 1} rows, expected 1")
    row = dict(zip(rows[0], rows[1]))
    lam_star, lam, r_star = (float(row[k]) for k in ("lambda_star", "lambda", "r_star"))
    _require(row["case"] == match.group(1), "threshold.csv case differs from the report")
    _require(math.isfinite(lam_star) and lam_star > 0.0, f"lambda_star {lam_star}")
    _require(0.0 < lam < lam_star, f"lambda {lam:g} not below lambda_star {lam_star:g}")
    _require(math.isfinite(r_star) and r_star > 0.0, f"r_star {r_star}")
    _require(_rel(lam_star, facts["lambda_star"]) <= 1e-9,
             "threshold.csv lambda_star differs from the manifest")
    if cmd.example in ref["examples"]:
        entry = ref["values"].get(reference_key(cmd.example, cmd.n_interior, cmd.solver_seed))
        _require(entry is not None, f"no reference for {cmd.label}")
        _require(_rel(lam_star, entry["lambda_star"]) <= ref["tolerance_rel"],
                 f"lambda_star {lam_star:.9g} vs reference {entry['lambda_star']:.9g}")


def builtin_flags(cmd: Command) -> tuple[str, dict]:
    """--builtin and the generator parameters, with the CLI defaults."""
    args = list(cmd.args)
    flags = {"p": 3.0, "q": 2.0, "eps": 1.9}
    for i, a in enumerate(args):
        if a in ("--p", "--q", "--eps"):
            flags[a[2:]] = float(args[i + 1])
    return args[args.index("--builtin") + 1], flags


def _check_indices(cmd: Command, out: Path, stdout: str, facts: dict, ref: dict) -> None:
    _require("lower" in facts, "indices.csv must hold one row")
    lower, upper = facts["lower"], facts["upper"]
    _require(math.isfinite(lower) and 1.0 < lower <= upper, f"indices ({lower}, {upper})")
    builtin, flags = builtin_flags(cmd)
    p = flags["p"]
    if builtin == "power":
        _require(lower == p and upper == p, f"power indices ({lower}, {upper}) != ({p}, {p})")
    elif builtin == "pathological":
        _require(abs(lower - flags["q"]) <= INDEX_TOL and abs(upper - p) <= INDEX_TOL,
                 f"pathological indices ({lower}, {upper}) vs ({flags['q']}, {p})")
    else:
        _require(p <= lower and upper <= p + 1.0, f"log-power indices ({lower}, {upper})")
    _manifest(out)


def _check_sobolev(cmd: Command, out: Path, stdout: str, facts: dict, ref: dict) -> None:
    _require("indices" in facts, "no indices line")
    rows = _rows(out / "sobolev_conjugate.csv")
    _require(rows[0] == ["t", "phi_star"], "sobolev_conjugate.csv header")
    body = [(float(t), float(v)) for t, v in rows[1:]]
    _require(len(body) == 200, f"sobolev_conjugate.csv has {len(body)} rows")
    _require(all(v > 0.0 and math.isfinite(v) for _, v in body), "non-positive phi_star")
    _require(all(b[0] > a[0] and b[1] > a[1] for a, b in zip(body, body[1:])),
             "phi_star table does not increase monotonically")
    _manifest(out)


CHECKS = {
    "mountain-pass": _check_mountain_pass,
    "lambda-star": _check_lambda_star,
    "indices": _check_indices,
    "sobolev-conjugate": _check_sobolev,
}


def check_command(cmd: Command, code: int, stdout: str, stderr: str, out: Path,
                  ref: dict) -> Outcome:
    """Success means the expected exit code, no traceback, all checks true."""
    tail = (stderr.strip() or stdout.strip()).splitlines()[-1:] or [""]
    try:
        facts = command_facts(cmd, stdout, stderr, out)
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(False, code, f"unreadable output: {exc}")
    if "Traceback (most recent call last)" in stdout + stderr:
        return Outcome(False, code, f"traceback: {tail[0]}", facts)
    if code != cmd.expected_exit:
        if "error" in facts:
            detail = "error: " + facts["error"]
        elif "fails" in facts:
            detail = "FAIL " + " ".join(facts["fails"])
        else:
            detail = tail[0]
        return Outcome(False, code, f"exit {code}, expected {cmd.expected_exit}: {detail}",
                       facts)
    try:
        CHECKS[cmd.subcommand](cmd, out, stdout, facts, ref)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(False, code, f"output check: {exc}", facts)
    return Outcome(True, code, facts=facts)


# ---------------------------------------------------------------------------
# known failures


def load_ledger() -> list[dict]:
    return json.loads(LEDGER_FILE.read_text())["failures"]


def override_values(cmd: Command) -> dict:
    """The numeric ``--override section.key=value`` arguments of a command."""
    values = {}
    for flag, item in zip(cmd.args, cmd.args[1:]):
        if flag == "--override":
            key, value = item.split("=", 1)
            values[key] = float(value)
    return values


def _in_region(values: dict, region: dict) -> bool:
    """True when every override named in ``region`` lies in its [lo, hi]."""
    return all(key in values and lo <= values[key] <= hi
               for key, (lo, hi) in region.items())


def known_failure(cmd: Command, cause: str, ledger: list[dict]) -> dict | None:
    """The ledger entry explaining this failure, if any.  An entry with
    ``regions`` explains only commands whose overrides lie in one of them."""
    values = override_values(cmd)
    for entry in ledger:
        if (entry["workload"] == cmd.workload and entry["subcommand"] == cmd.subcommand
                and entry["example"] == cmd.example
                and entry.get("n_interior", cmd.n_interior) == cmd.n_interior
                and entry["pattern"] in cause
                and any(_in_region(values, r) for r in entry.get("regions", [{}]))):
            return entry
    return None


def over_cap(counts: dict, ledger: list[dict]) -> list[dict]:
    """Ledger entries that explain more commands of one run than they allow."""
    return [e for e in ledger if counts.get(e["id"], 0) > e.get("max_per_run", math.inf)]
