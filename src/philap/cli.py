"""Command-line front end: parse config, dispatch subcommands, emit CSV.

Exit codes: 0 success, 1 numeric or hypothesis failure (reports are
still written), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ConstructionError, PhilapError
from .orlicz import LUXEMBURG_ITERS, gridfunction_to_csv, write_table
from .problems import (
    HF2_SLACK,
    HF3_SLACK,
    SolverSettings,
    builtin_example,
    load_problem,
    run_all_checks,
)
from .solver import (
    COARSE_N,
    NEWTON_STEPS,
    TORSION_TOL,
    solution_stage,
    threshold_stage,
    write_convergence_csv,
    write_degiorgi_csv,
    write_solution_csv,
)
from .threshold import write_kappa_csv, write_threshold_csv
from .young import (
    INDEX_GRID_HI,
    INDEX_GRID_LO,
    INDEX_GRID_POINTS,
    ROOT_RTOL_ITERS,
    PathologicalParams,
    build_pathological,
    compute_indices,
    log_grid,
    log_power_young,
    power_young,
    sobolev_conjugate,
    young_conjugate,
)


def _sci(x: float) -> str:
    """Shortest scientific form that reads back as x: 1e-6, not 1e-06."""
    text = next(s for s in (f"{x:.{d}e}" for d in range(17)) if float(s) == x)
    mantissa, exponent = text.split("e")
    return f"{mantissa}e{int(exponent)}"


# the registry of the constants the numerics use; the two solver
# tolerances are the run's own, these are their defaults
TOLERANCES = {
    "tolerance_version": "1",
    "root_find_iters": str(ROOT_RTOL_ITERS),
    "luxemburg_iters": str(LUXEMBURG_ITERS),
    "index_grid": f"{INDEX_GRID_POINTS}pts@[{_sci(INDEX_GRID_LO)},{_sci(INDEX_GRID_HI)}]",
    "torsion_tol": _sci(TORSION_TOL),
    "first_solution_tol": _sci(SolverSettings.tol_first),
    "mountain_pass_tol": _sci(SolverSettings.tol_mountain),
    "coarse_n": str(COARSE_N),
    "newton_steps": str(NEWTON_STEPS),
    "hf2_slack": _sci(HF2_SLACK),
    "hf3_slack": _sci(HF3_SLACK),
}
# commands without a config record seed 0 and the default tolerances
_NO_CONFIG = SolverSettings(lam=None, seed=0)


def _write_manifest(out: Path, config_text: str, settings: SolverSettings,
                    extra=None) -> None:
    digest = hashlib.sha256(config_text.encode()).hexdigest()
    lines = [f"version={__version__}", f"config_sha256={digest}", f"seed={settings.seed}"]
    tolerances = dict(TOLERANCES, first_solution_tol=_sci(settings.tol_first),
                      mountain_pass_tol=_sci(settings.tol_mountain))
    lines += [f"{k}={v}" for k, v in tolerances.items()]
    lines += [f"{k}={v}" for k, v in (extra or {}).items()]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


@contextmanager
def _from_arguments():
    """Parameters from the command line that a constructor rejects exit 2."""
    try:
        yield
    except ConstructionError as exc:
        raise ConfigError(str(exc)) from exc


def _builtin_generator(args):
    with _from_arguments():
        if args.builtin == "power":
            return power_young(args.p)
        if args.builtin == "log-power":
            return log_power_young(args.p)
        if args.builtin == "pathological":
            return build_pathological(PathologicalParams.make(args.p, args.q, args.eps))
    raise ConfigError(f"unknown builtin generator {args.builtin!r}")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_indices(args) -> int:
    psi = _builtin_generator(args)
    with _from_arguments():
        grid = log_grid(args.grid_lo, min(args.grid_hi, psi.t_hi * 0.999), args.grid_n)
    pair = compute_indices(psi, grid)
    out = _outdir(args)
    write_table(out / "indices.csv",
                ["function", "lower", "upper", "at_infinity_lower", "at_infinity_upper"],
                [[psi.name, pair.lower, pair.upper,
                  pair.at_infinity_lower, pair.at_infinity_upper]])
    _write_manifest(out, f"indices:{psi.name}:{args.grid_lo}:{args.grid_hi}:{args.grid_n}",
                    _NO_CONFIG)
    print(f"indices of {psi.name}: lower={pair.lower:.6g} upper={pair.upper:.6g}")
    return 0


def _cmd_conjugate(args) -> int:
    psi = _builtin_generator(args)
    conj = young_conjugate(psi)
    back = young_conjugate(conj)
    ts = log_grid(1e-3, 1e3, 100)
    vals = psi(ts)
    err = np.abs(back(ts) - vals) / vals
    out = _outdir(args)
    write_table(out / "conjugate.csv", ["t", "value", "conjugate", "involution_rel_err"],
                zip(ts, vals, conj(ts), err))
    _write_manifest(out, f"conjugate:{psi.name}", _NO_CONFIG)
    print(f"conjugate of {psi.name} written; worst involution error on [1e-3,1e3] "
          f"= {err.max():.3e}")
    return 0


def _cmd_sobolev_conjugate(args) -> int:
    if args.N < 2:
        raise ConfigError(f"dimension parameter must be >= 2, got {args.N}")
    psi = _builtin_generator(args)
    star = sobolev_conjugate(psi, args.N)
    pair = compute_indices(star)
    lo = star.t_lo * 1.01
    hi = star.t_hi * 0.99
    ts = log_grid(lo, hi, 200)
    out = _outdir(args)
    write_table(out / "sobolev_conjugate.csv", ["t", "phi_star"], zip(ts, star(ts)))
    _write_manifest(out, f"sobolev:{psi.name}:N={args.N}", _NO_CONFIG)
    print(f"critical conjugate of {psi.name} (N={args.N}): "
          f"indices [{pair.lower:.4g}, {pair.upper:.4g}]")
    return 0


def _audit(args):
    """Audit stage: load the problem and check its hypotheses.
    hypotheses.csv is written whatever the verdict."""
    if not args.config:
        raise ConfigError("this command requires --config")
    spec, settings, text = load_problem(args.config, overrides=args.override)
    report = run_all_checks(spec, t_max=settings.t_max)
    out = _outdir(args)
    report.to_csv(out / "hypotheses.csv")
    return spec, settings, text, report, out


def _report_audit(report, out, text, settings) -> int:
    """Finish a run that ends with the audit: manifest, report lines, and
    the exit code of the verdict."""
    _write_manifest(out, text, settings)
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def _threshold(spec, settings, report):
    """Threshold stage, seeded and sized from the solver settings."""
    return threshold_stage(spec, report, lam=settings.lam,
                           embed_trials=settings.embed_trials,
                           rng=np.random.default_rng(settings.seed))


def _cmd_check(args) -> int:
    _, settings, text, report, out = _audit(args)
    return _report_audit(report, out, text, settings)


def _cmd_lambda_star(args) -> int:
    spec, settings, text, report, out = _audit(args)
    if not report.all_passed:
        return _report_audit(report, out, text, settings)
    stage = _threshold(spec, settings, report)
    thr, lam, adm = stage.threshold, stage.lam, stage.admissibility
    write_threshold_csv(thr, [lam], out / "threshold.csv")
    r_grid = np.geomspace(adm.r_star / 100.0, adm.r_star * 100.0, 200)
    write_kappa_csv(thr, r_grid, out / "kappa_curve.csv", lam=lam)
    _write_manifest(out, text, settings,
                    extra={"case": thr.case.value,
                           "lambda_star": f"{thr.lambda_star:.12g}"})
    print(f"case={thr.case.value} lambda_star={thr.lambda_star:.6g} "
          f"r_star({lam:.6g})={adm.r_star:.6g}")
    return 0


def _run_pipeline(args, need_mountain: bool):
    """Every stage, the audit once; (None, 1) when the audit fails."""
    spec, settings, text, report, out = _audit(args)
    if not report.all_passed:
        return None, _report_audit(report, out, text, settings)
    stage = _threshold(spec, settings, report)
    result = solution_stage(spec, stage, tol_first=settings.tol_first,
                            tol_mountain=settings.tol_mountain, n_path=settings.n_path,
                            max_iter=settings.max_iter)
    write_solution_csv(out / "solution.csv", spec.grid, {
        "u_lambda": result.first.u.values,
        "v_lambda": result.mp.state.u.values,
        "u_under": result.sub.u_under.values,
    })
    write_convergence_csv(out / "convergence.csv", result.first_trace)
    write_threshold_csv(result.threshold, [result.lam], out / "threshold.csv")
    write_degiorgi_csv(out / "degiorgi.csv", result.degiorgi)
    gridfunction_to_csv(result.sub.u_under, out / "subsolution.csv")
    _write_manifest(out, text, settings, extra={
        "lambda": f"{result.lam:.12g}",
        "lambda_star": f"{result.threshold.lambda_star:.12g}",
        "first_residual": f"{result.verify_first.max_residual:.12g}",
        "mountain_residual": f"{result.verify_second.max_residual:.12g}",
    })
    code = 0
    print(f"lambda={result.lam:.6g} first residual={result.verify_first.max_residual:.3e} "
          f"J={result.first.J_value:.6g}")
    if need_mountain:
        mp = result.mp
        print(f"mountain pass: level={mp.level:.6g} residual={mp.residual:.3e} "
              f"converged={mp.converged} collapsed={mp.collapsed}")
        if not mp.converged:
            print(f"error: mountain pass did not reach solver.tol_mountain="
                  f"{_sci(settings.tol_mountain)}; smallest residual of a polish "
                  f"above the endpoints {mp.polish_residual:.3e}", file=sys.stderr)
            code = 1
    return result, code


def _cmd_solve(args) -> int:
    _, code = _run_pipeline(args, need_mountain=False)
    return code


def _cmd_mountain_pass(args) -> int:
    _, code = _run_pipeline(args, need_mountain=True)
    return code


def _cmd_degiorgi(args) -> int:
    result, code = _run_pipeline(args, need_mountain=False)
    if result is None:
        return code
    dg = result.degiorgi
    print(f"sup bound M={dg.M:.6g} with {len(dg.levels)} levels, "
          f"final mass {dg.masses[-1]:.3g}")
    return code


def _cmd_verify_example(args) -> int:
    with _from_arguments():
        spec = builtin_example(args.name, p=args.p, N=args.N, r=args.r,
                               gamma=args.gamma, q=args.q, eps=args.eps)
    report = run_all_checks(spec)
    out = _outdir(args)
    report.to_csv(out / "hypotheses.csv")
    _write_manifest(out, f"verify-example:{spec.name}",
                    SolverSettings(lam=None, seed=spec.seed))
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="philap",
        description="Numerical laboratory for singular quasilinear problems "
                    "in Orlicz-Sobolev settings (1D grids)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="philap-out", help="output directory")

    def add_builtin(p):
        p.add_argument("--builtin", required=True,
                       choices=["power", "log-power", "pathological"])
        p.add_argument("--p", type=float, default=3.0)
        p.add_argument("--q", type=float, default=2.0)
        p.add_argument("--eps", type=float, default=1.9)

    p = sub.add_parser("indices", help="growth indices of a built-in generator")
    add_builtin(p)
    p.add_argument("--grid-lo", type=float, default=1e-4)
    p.add_argument("--grid-hi", type=float, default=1e6)
    p.add_argument("--grid-n", type=int, default=2000)
    add_common(p)
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("conjugate", help="Young conjugate table and involution check")
    add_builtin(p)
    add_common(p)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("sobolev-conjugate", help="critical-growth conjugate table")
    add_builtin(p)
    p.add_argument("--N", type=int, default=4)
    add_common(p)
    p.set_defaults(func=_cmd_sobolev_conjugate)

    def add_config(p):
        p.add_argument("--config", help="problem configuration file (INI)")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
        add_common(p)

    p = sub.add_parser("check", help="audit the structural hypotheses")
    add_config(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lambda-star", help="threshold and admissible radius")
    add_config(p)
    p.set_defaults(func=_cmd_lambda_star)

    p = sub.add_parser("solve", help="constrained first solution")
    add_config(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mountain-pass", help="two-solution pipeline")
    add_config(p)
    p.set_defaults(func=_cmd_mountain_pass)

    p = sub.add_parser("degiorgi", help="sup-bound diagnostic on the first solution")
    add_config(p)
    p.set_defaults(func=_cmd_degiorgi)

    p = sub.add_parser("verify-example", help="audit a built-in example problem")
    p.add_argument("name", choices=["A5", "A4", "pathological-reaction"])
    p.add_argument("--p", type=float, default=3.0)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--r", type=float, default=3.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=1.9)
    add_common(p)
    p.set_defaults(func=_cmd_verify_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PhilapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
