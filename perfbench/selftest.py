#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of philap).

    python3 perfbench/selftest.py

Checks that a seed fixes the command list and configs, that a command
with a deliberately wrong expected exit code counts as failed and in no
timing, that the known-failure ledger explains a failure only inside its
regions and caps, and that BENCHMARK.json names exactly the metrics
run.py prints.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import GENERATED_CONFIGS, WORKLOADS, Command, round_commands

FAKE_ROOT, FAKE_WORK = Path("/checkout"), Path("/checkout/work")


def argv_lists(workload: str, seed: int, rounds: int = 3) -> list:
    return [cmd.argv(FAKE_ROOT, FAKE_WORK, FAKE_WORK / "out")
            for r in range(rounds) for cmd in round_commands(workload, seed, r)]


def check_seeding() -> None:
    for workload in WORKLOADS:
        assert argv_lists(workload, 11) == argv_lists(workload, 11), workload
        assert argv_lists(workload, 11) != argv_lists(workload, 12), workload
    assert all(make() == make() for make in GENERATED_CONFIGS.values())


def check_failure_accounting() -> None:
    sys.path.insert(0, str(run.SRC))
    good = Command(workload="young-tables", subcommand="indices", label="power p=2",
                   args=("--builtin", "power", "--p", "2"))
    wrong = dataclasses.replace(good, label="power p=2, wrong exit", expected_exit=1)
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        ref, ledger = run.load_reference(), run.load_ledger()
        pace = run.Pace()
        records = [run.execute(cmd, workdir, i, ref, ledger, pace)[0]
                   for i, cmd in enumerate([good, wrong, good])]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert [r.ok for r in records] == [True, False, True], [r.cause for r in records]
    assert "exit 0, expected 1" in records[1].cause and records[1].known is None
    metrics, notes = run.end_to_end(records, setup=[0.5], raw_setup=[0.5], pace=pace)
    ok_times = [records[0].paced, records[2].paced]
    assert math.isclose(metrics["op_s.p50"], sum(ok_times) / 2), metrics
    assert math.isclose(metrics["ops_per_s"], 2 / sum(r.paced for r in records)), metrics
    assert "fail_frac 0.333333 ratio (1 of 3)" in notes


def check_tail() -> None:
    value, pct = run.tail([float(v) for v in range(20, 0, -1)])
    assert pct == 50.0 and value == 10.0, (value, pct)
    assert run.tail([2.0, 1.0]) == (1.0, 50.0)


def a5_draw(n_dim: int, p: float, gamma: float) -> Command:
    return Command(workload="audit-sweep", subcommand="lambda-star", label="draw",
                   config="A5", example="A5-draw", n_interior=127,
                   args=("--override", f"operator.p={p!r}", "--override", f"operator.N={n_dim}",
                         "--override", f"reaction.gamma={gamma!r}"))


def check_ledger_regions() -> None:
    ledger = run.load_ledger()
    short = "exit 1, expected 0: error: index grid needs >= 1000 points over >= 8 decades"
    hf1 = "exit 1, expected 0: FAIL H(f)1"
    stall = "exit 1, expected 0: error: torsion solve stalled after 4000 iterations"

    def known(cmd, cause):
        entry = run.known_failure(cmd, cause, ledger)
        return entry and entry["id"]

    assert known(a5_draw(4, 2.5, 0.5), short) == "a5-draw-short-index-grid"
    assert known(a5_draw(5, 3.5, 0.5), short) == "a5-draw-short-index-grid"
    assert known(a5_draw(4, 2.0, 0.5), short) is None
    assert known(a5_draw(5, 2.5, 0.5), short) is None
    assert known(a5_draw(4, 2.0, 0.002), hf1) == "a5-draw-hf1-small-gamma"
    assert known(a5_draw(4, 2.0, 0.5), hf1) is None
    assert known(a5_draw(5, 2.0, 0.5), stall) == "a5-draw-torsion-stall"
    assert run.over_cap({"a5-draw-torsion-stall": 1}, ledger) == []
    assert [e["id"] for e in run.over_cap({"a5-draw-torsion-stall": 2}, ledger)] == [
        "a5-draw-torsion-stall"]


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def main() -> int:
    failed = 0
    for test in (check_seeding, check_tail, check_ledger_regions, check_failure_accounting,
                 check_benchmark_json):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
