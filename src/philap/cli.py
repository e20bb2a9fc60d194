"""Command-line front end: parse config, dispatch subcommands, emit CSV.

Exit codes: 0 success, 1 numeric or hypothesis failure (reports are
still written), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ConstructionError, PhilapError
from .orlicz import LUXEMBURG_ITERS, write_table
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
    first_stage,
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
                zip(ts.tolist(), vals.tolist(), conj(ts).tolist(), err.tolist()))
    _write_manifest(out, f"conjugate:{psi.name}", _NO_CONFIG)
    print(f"conjugate of {psi.name} written; worst involution error on [1e-3,1e3] "
          f"= {err.max():.3e}")
    return 0


def _cmd_sobolev_conjugate(args) -> int:
    if args.N < 2:
        raise ConfigError(f"dimension parameter must be >= 2, got {args.N}")
    psi = _builtin_generator(args)
    star = sobolev_conjugate(psi, args.N)
    pair = star.indices
    lo = star.t_lo * 1.01
    hi = star.t_hi * 0.99
    ts = log_grid(lo, hi, 200)
    out = _outdir(args)
    write_table(out / "sobolev_conjugate.csv", ["t", "phi_star"],
                zip(ts.tolist(), star(ts).tolist()))
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


def _run_pipeline(args, mountain: bool):
    """Audit (once), threshold, first solution and, for `mountain`, the mountain
    pass; writes what they computed.  (None, 1) when the audit fails."""
    spec, settings, text, report, out = _audit(args)
    if not report.all_passed:
        return None, _report_audit(report, out, text, settings)
    stage = _threshold(spec, settings, report)
    columns, extra = {}, {}
    if mountain:
        result = solution_stage(spec, stage, tol_first=settings.tol_first,
                                tol_mountain=settings.tol_mountain, n_path=settings.n_path,
                                max_iter=settings.max_iter)
        columns["v_lambda"] = result.mp.state.u.values
        extra["mountain_residual"] = f"{result.verify_second.max_residual:.12g}"
    else:
        result = first_stage(spec, stage, tol_first=settings.tol_first, max_iter=settings.max_iter)
    write_solution_csv(out / "solution.csv", spec.grid, {
        "u_lambda": result.first.u.values, **columns, "u_under": result.sub.u_under.values})
    write_convergence_csv(out / "convergence.csv", result.first_trace)
    write_threshold_csv(result.threshold, [result.lam], out / "threshold.csv")
    write_degiorgi_csv(out / "degiorgi.csv", result.degiorgi)
    _write_manifest(out, text, settings, extra={
        "lambda": f"{result.lam:.12g}",
        "lambda_star": f"{result.threshold.lambda_star:.12g}",
        "first_residual": f"{result.verify_first.max_residual:.12g}",
        **extra,
    })
    print(f"lambda={result.lam:.6g} first residual={result.verify_first.max_residual:.3e} "
          f"J={result.first.J_value:.6g}")
    if not mountain:
        return result, 0
    mp = result.mp
    print(f"mountain pass: level={mp.level:.6g} residual={mp.residual:.3e} "
          f"converged={mp.converged} collapsed={mp.collapsed}")
    if not mp.converged:
        print(f"error: mountain pass did not reach solver.tol_mountain="
              f"{_sci(settings.tol_mountain)}; smallest residual of a polish "
              f"above the endpoints {mp.polish_residual:.3e}", file=sys.stderr)
        return result, 1
    return result, 0


def _cmd_solve(args) -> int:
    return _run_pipeline(args, mountain=False)[1]


def _cmd_mountain_pass(args) -> int:
    return _run_pipeline(args, mountain=True)[1]


def _cmd_degiorgi(args) -> int:
    result, code = _run_pipeline(args, mountain=False)
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
    """The philap parser: each option group is declared once and shared
    through parents=, and the subcommands come from one table."""
    builtin, grid, dimension, config, example, out = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    builtin.add_argument("--builtin", required=True,
                         choices=["power", "log-power", "pathological"])
    builtin.add_argument("--p", type=float, default=3.0)
    builtin.add_argument("--q", type=float, default=2.0)
    builtin.add_argument("--eps", type=float, default=1.9)
    grid.add_argument("--grid-lo", type=float, default=1e-4)
    grid.add_argument("--grid-hi", type=float, default=1e6)
    grid.add_argument("--grid-n", type=int, default=2000)
    dimension.add_argument("--N", type=int, default=4)
    config.add_argument("--config", help="problem configuration file (INI)")
    config.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    example.add_argument("name", choices=["A5", "A4", "pathological-reaction"])
    example.add_argument("--p", type=float, default=3.0)
    example.add_argument("--N", type=int, default=4)
    example.add_argument("--r", type=float, default=3.5)
    example.add_argument("--gamma", type=float, default=0.5)
    example.add_argument("--q", type=float, default=2.0)
    example.add_argument("--eps", type=float, default=1.9)
    out.add_argument("--out", default="philap-out", help="output directory")
    commands = [
        ("indices", "growth indices of a built-in generator", _cmd_indices, [builtin, grid]),
        ("conjugate", "Young conjugate table and involution check", _cmd_conjugate, [builtin]),
        ("sobolev-conjugate", "critical-growth conjugate table", _cmd_sobolev_conjugate,
         [builtin, dimension]),
        ("check", "audit the structural hypotheses", _cmd_check, [config]),
        ("lambda-star", "threshold and admissible radius", _cmd_lambda_star, [config]),
        ("solve", "constrained first solution", _cmd_solve, [config]),
        ("mountain-pass", "two-solution pipeline", _cmd_mountain_pass, [config]),
        ("degiorgi", "sup-bound diagnostic on the first solution", _cmd_degiorgi, [config]),
        ("verify-example", "audit a built-in example problem", _cmd_verify_example, [example]),
    ]
    parser = argparse.ArgumentParser(
        prog="philap",
        description="Numerical laboratory for singular quasilinear problems "
                    "in Orlicz-Sobolev settings (1D grids)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, groups in commands:
        sub.add_parser(name, help=text, parents=[*groups, out]).set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
