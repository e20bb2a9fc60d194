"""Command-line interface: exit codes, reports, determinism, manifest."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import philap
from philap.cli import main

A5_CONFIG = """
[operator]
kind = log_power
p = 3.0
N = 4

[reaction]
kind = power_singular
r = 3.5
c2 = 1.0
gamma = 0.5

[hypotheses]
c1 = 1.0
upsilon = power
upsilon_power = 4.5

[grid]
length = 1.0
n_interior = 127

[solver]
lambda = auto
seed = 1729
"""


@pytest.fixture
def a5_config(tmp_path):
    path = tmp_path / "a5.ini"
    path.write_text(A5_CONFIG)
    return path


def test_verify_example_a5(tmp_path, capsys):
    code = main(["verify-example", "A5", "--p", "3", "--N", "4", "--r", "3.5",
                 "--gamma", "0.5", "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5
    assert (tmp_path / "out" / "hypotheses.csv").exists()
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_indices_command(tmp_path, capsys):
    import csv

    code = main(["indices", "--builtin", "pathological", "--p", "3", "--q", "2",
                 "--eps", "1.9", "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "indices.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["function", "lower", "upper",
                       "at_infinity_lower", "at_infinity_upper"]
    assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-3)
    assert float(rows[1][2]) == pytest.approx(3.0, abs=1e-3)


def test_conjugate_command(tmp_path):
    code = main(["conjugate", "--builtin", "power", "--p", "2.0",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "conjugate.csv").read_text().splitlines()
    assert rows[0] == "t,value,conjugate,involution_rel_err"
    errs = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(errs) < 1e-6


def test_sobolev_conjugate_command(tmp_path):
    code = main(["sobolev-conjugate", "--builtin", "power", "--p", "3.0",
                 "--N", "4", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "sobolev_conjugate.csv").exists()


def test_check_a5_passes(a5_config, tmp_path):
    code = main(["check", "--config", str(a5_config), "--out", str(tmp_path / "o")])
    assert code == 0


def test_lambda_star_command(a5_config, tmp_path, capsys):
    code = main(["lambda-star", "--config", str(a5_config),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    rows = (tmp_path / "o" / "threshold.csv").read_text().splitlines()
    assert rows[0].startswith("case,C1,C2")
    assert rows[1].startswith("much_greater")
    assert (tmp_path / "o" / "kappa_curve.csv").exists()


@pytest.mark.parametrize("p", ["1.756", "1.733"])
def test_lambda_star_where_a_torsion_descent_stalls(p, tmp_path, capsys):
    # regression inputs: an energy descent for the torsion stalled here at
    # its iteration budget (exit 1 after about 6 s)
    config = Path(__file__).resolve().parents[1] / "configs" / "two_solutions.ini"
    code = main(["lambda-star", "--config", str(config), "--out", str(tmp_path / "o"),
                 "--override", f"operator.p={p}", "--override", "reaction.r=1.9",
                 "--override", "hypotheses.upsilon_power=2.9"])
    assert code == 0
    assert capsys.readouterr().out.startswith("case=")


def test_solve_requires_config(tmp_path):
    assert main(["solve", "--out", str(tmp_path / "o")]) == 2


def test_unknown_command_usage_error():
    assert main(["frobnicate"]) == 2


def test_unknown_config_key_exit_two(a5_config, tmp_path):
    code = main(["check", "--config", str(a5_config),
                 "--override", "grid.bogus=1", "--out", str(tmp_path / "o")])
    assert code == 2


def test_negative_controls_exit_one(tmp_path, capsys):
    # each control fails its targeted hypothesis with a report line
    base = A5_CONFIG.replace("kind = power_singular\nr = 3.5\nc2 = 1.0\n", "")
    cases = {
        "hf1": (A5_CONFIG.replace("kind = power_singular", "kind = power")
                .replace("c2 = 1.0\n", ""), "H(f)1: FAIL"),
        "hf3": (base.replace("kind = log_power", "kind = log_power")
                .replace("[reaction]\n", "[reaction]\nkind = log1p\n")
                .replace("upsilon_power = 4.5",
                         "upsilon_power = 4.5\nmu = 4.2\nR = 1.0"),
                "H(f)3: FAIL"),
        "ha2": (A5_CONFIG.replace("kind = log_power\np = 3.0", "kind = power\np = 5.0")
                .replace("upsilon_power = 4.5",
                         "upsilon_power = 4.5\nmu = 6.0\nR = 1.0"),
                "H(a)2: FAIL"),
    }
    for name, (text, expected) in cases.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / name)])
        out = capsys.readouterr().out
        assert code == 1, name
        assert expected in out, name
        report = (tmp_path / name / "hypotheses.csv").read_text()
        assert "False" in report


def test_mountain_pass_determinism(a5_config, tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["mountain-pass", "--config", str(a5_config), "--out", str(out1)]) == 0
    assert main(["mountain-pass", "--config", str(a5_config), "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("solution.csv", "convergence.csv", "threshold.csv",
                 "degiorgi.csv", "hypotheses.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_mountain_pass_tolerance_below_polish_floor(tmp_path, capsys):
    # the coarse saddle seeds the fine polish even though the coarse pass
    # misses the tolerance, so the pass fails at the fine polish floor above
    # the endpoints instead of collapsing from the straight path's crest
    config = Path(__file__).resolve().parents[1] / "configs" / "two_solutions.ini"
    code = main(["mountain-pass", "--config", str(config),
                 "--override", "solver.tol_mountain=1e-12",
                 "--override", "grid.n_interior=1023", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    line = next(x for x in captured.out.splitlines() if x.startswith("mountain pass:"))
    fields = dict(item.split("=") for item in line.split()[2:])
    assert fields["converged"] == "False" and fields["collapsed"] == "False"
    assert float(fields["level"]) == pytest.approx(1.361e8, rel=1e-3)
    assert float(fields["residual"]) < 1e-5
    assert "error: mountain pass did not reach solver.tol_mountain=1e-12" in captured.err


def test_manifest_records_seed_and_tolerances(a5_config, tmp_path):
    out = tmp_path / "o"
    main(["check", "--config", str(a5_config), "--out", str(out)])
    manifest = (out / "manifest.txt").read_text()
    assert "seed=1729" in manifest
    assert "config_sha256=" in manifest
    assert "tolerance_version=" in manifest
    assert "first_solution_tol=1e-6" in manifest


def test_manifest_records_the_run_tolerances(a5_config, tmp_path):
    out = tmp_path / "o"
    main(["check", "--config", str(a5_config), "--out", str(out),
          "--override", "solver.tol_first=1e-7", "--override", "solver.tol_mountain=2.5e-5"])
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "first_solution_tol=1e-7" in manifest
    assert "mountain_pass_tol=2.5e-5" in manifest


def test_tolerance_registry_follows_the_constants():
    from philap import cli, orlicz, problems, solver, young
    assert cli.TOLERANCES == {
        "tolerance_version": "1",
        "root_find_iters": str(young.ROOT_RTOL_ITERS),
        "luxemburg_iters": str(orlicz.LUXEMBURG_ITERS),
        "index_grid": "2000pts@[1e-4,1e6]",
        "first_solution_tol": "1e-6",
        "mountain_pass_tol": "1e-4",
        "coarse_n": str(solver.COARSE_N),
        "newton_steps": str(solver.NEWTON_STEPS),
        "hf2_slack": "1e-8",
        "hf3_slack": "1e-6",
    }
    assert (young.INDEX_GRID_POINTS, young.INDEX_GRID_LO, young.INDEX_GRID_HI) == (2000, 1e-4, 1e6)
    assert (problems.HF2_SLACK, problems.HF3_SLACK) == (1e-8, 1e-6)
    assert [cli._sci(x) for x in (1e-6, 1e6, 1.5e-7, 1.0 / 3.0)] == [
        "1e-6", "1e6", "1.5e-7", "3.333333333333333e-1"]


@pytest.mark.parametrize("override", [
    "solver.lambda=abc", "hypotheses.mu=foo", "hypotheses.R=x",
    "solver.embed_trials=0", "grid.n_interior=0", "reaction.gamma=1.5",
    "solver.seed=-1", "hypotheses.t_max=0", "hypotheses.t_max=-5",
    "grid.length=nan", "grid.length=inf", "solver.tol_first=0",
    "solver.tol_first=nan", "solver.tol_mountain=0", "solver.max_iter=0",
    "operator.N=nan", "operator.N=inf"])
def test_config_load_errors_exit_two(a5_config, tmp_path, capsys, override):
    code = main(["lambda-star", "--config", str(a5_config), "--override", override,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["indices", "--builtin", "power", "--p", "0.5"],
    ["indices", "--builtin", "power", "--grid-n", "1"],
    ["indices", "--builtin", "power", "--grid-lo", "-1"],
    ["sobolev-conjugate", "--builtin", "power", "--N", "1"],
    ["conjugate", "--builtin", "pathological", "--q", "5"],
    ["verify-example", "A5", "--p", "9"],
    ["indices", "--builtin", "power", "--p", "nan"],
    ["sobolev-conjugate", "--builtin", "power", "--p", "inf"],
    ["indices", "--builtin", "log-power", "--p", "inf"],
    ["indices", "--builtin", "log-power", "--p", "nan"]])
def test_builtin_argument_errors_exit_two(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_unmet_mountain_tolerance_is_named(a5_config, tmp_path, capsys):
    # the polish floor grows with the level, about 1e-8 for A5 at 1.36e8
    code = main(["mountain-pass", "--config", str(a5_config), "--out", str(tmp_path / "o"),
                 "--override", "solver.tol_mountain=1e-12"])
    captured = capsys.readouterr()
    assert code == 1
    assert "converged=False" in captured.out
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "solver.tol_mountain=1e-12" in errors[0]
    assert 1e-12 < float(errors[0].split()[-1]) < 1e-4


@pytest.mark.parametrize("command", ["mountain-pass", "solve", "degiorgi"])
def test_pipeline_commands_audit_once(a5_config, tmp_path, monkeypatch, command):
    from philap import problems

    calls = []
    check_ha2 = problems.check_ha2
    monkeypatch.setattr(problems, "check_ha2",
                        lambda spec: calls.append(spec) or check_ha2(spec))
    main([command, "--config", str(a5_config), "--out", str(tmp_path / "o")])
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["solve", "degiorgi"])
def test_first_solution_commands_skip_the_mountain_pass(a5_config, tmp_path, monkeypatch,
                                                         command):
    from philap import solver

    calls = []
    mountain_pass = solver.mountain_pass
    monkeypatch.setattr(solver, "mountain_pass",
                        lambda *a, **k: calls.append(a) or mountain_pass(*a, **k))
    out = tmp_path / "o"
    assert main([command, "--config", str(a5_config), "--out", str(out)]) == 0
    assert calls == []
    assert (out / "solution.csv").read_text().splitlines()[0] == "x,u_lambda,u_under"
    assert not (out / "subsolution.csv").exists()
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert not [line for line in manifest if line.startswith("mountain_residual=")]
    assert [line for line in manifest if line.startswith("first_residual=")]


@pytest.mark.parametrize("p", ["7", "20", "1e300"])
def test_log_power_primitive_overflow_is_one_error(tmp_path, capsys, p):
    # the primitive of t^(p-1) log(1+t) passes the float range below the
    # table's upper end 1e46 for every p >= 7
    code = main(["indices", "--builtin", "log-power", "--p", p, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert err.startswith(("error:", "configuration error:"))
    assert len(err.splitlines()) == 1


def test_solving_commands_run_without_scipy(tmp_path):
    # scipy is blocked: the torsion (closed form), the first solution
    # (closed-form preconditioner solves), the coarse start and the fine
    # Newton polish, then the threshold stage
    config = Path(__file__).resolve().parents[1] / "configs" / "two_solutions.ini"
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from philap.cli import main\n"
            "config, out = sys.argv[1:]\n"
            "codes = [main(['mountain-pass', '--config', config, '--out', out + '/mp',\n"
            "               '--override', 'grid.n_interior=255']),\n"
            "         main(['lambda-star', '--config', config, '--out', out + '/ls'])]\n"
            "print(codes, sorted(m for m, mod in sys.modules.items()\n"
            "                    if m.split('.')[0] == 'scipy' and mod is not None))")
    env = {**os.environ, "PYTHONPATH": str(Path(philap.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "converged=True" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
