"""Traced replay: each CLI command re-run as the library calls it makes.

The replay calls the public functions of ``philap.problems``,
``philap.young``, ``philap.threshold`` and ``philap.solver`` in the order
the CLI does and opens a span around each call.  ``compute_indices`` and
``sobolev_conjugate`` also run nested inside other calls, so while a
replay is traced they are wrapped wherever a philap module binds them.
No file of the program changes.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import philap
from philap import problems, solver, threshold, young
from philap.errors import ConfigError, PhilapError

from checks import builtin_flags
from workloads import CONJUGATE_REPLAY, Command

# functions that also run nested inside other calls
NESTED = {"young.compute_indices": "compute_indices",
          "young.sobolev_conjugate": "sobolev_conjugate"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """Spans of one command, kept in memory.  With ``enabled`` false every
    span is a no-op, which gives the untraced replay."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            span = self.spans[index]
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.end - span.start

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out


@contextmanager
def nested_spans(tracer: Tracer):
    """Wrap the NESTED functions in every philap module that binds them."""
    if not tracer.enabled:
        yield
        return
    patched = []
    for span_name, attr in NESTED.items():
        original = getattr(young, attr)

        def wrapper(*args, _fn=original, _name=span_name, **kwargs):
            return tracer.call(_name, _fn, *args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("philap")
                    and getattr(module, attr, None) is original):
                patched.append((module, attr, original))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


@dataclass
class Replay:
    code: int
    facts: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# replays, one per subcommand


def _audit(tr: Tracer, spec, t_max: float):
    """run_all_checks, one span per check."""
    ha1 = tr.call("problems.check_ha1", problems.check_ha1, spec.a, spec.a_prime)
    ha2 = tr.call("problems.check_ha2", problems.check_ha2, spec)
    hf1 = tr.call("problems.check_hf1", problems.check_hf1, spec.reaction, spec.grid.nodes)
    if ha2.passed:
        hf2 = tr.call("problems.check_hf2", problems.check_hf2, spec)
    else:
        hf2 = problems.CheckEntry("H(f)2", False, "skipped: conjugate growth unavailable", {})
    hf3 = tr.call("problems.check_hf3", problems.check_hf3, spec, t_max=t_max)
    return problems.HypothesisReport(ha1, ha2, hf1, hf2, hf3)


def _fails(report) -> dict:
    return {"fails": sorted(e.name for e in report.entries() if not e.passed)}


def _threshold(tr: Tracer, spec, settings, delta: float):
    sub0 = tr.call("solver.build_subsolution", solver.build_subsolution, spec, delta, lam=1.0)
    constants = tr.call("threshold.truncation_constants", threshold.truncation_constants,
                        spec, sub0.k1, sub0.k2)
    case = tr.call("threshold.classify", threshold.classify, spec.upsilon, spec.phi)
    thr = tr.call("threshold.lambda_star", threshold.lambda_star, spec, constants, case,
                  rng=np.random.default_rng(settings.seed),
                  embed_trials=settings.embed_trials)
    return sub0, thr


def _replay_lambda_star(tr: Tracer, cmd: Command, config: str) -> Replay:
    spec, settings, _ = tr.call("problems.load_problem", problems.load_problem, config,
                                overrides=_overrides(cmd))
    report = _audit(tr, spec, settings.t_max)
    if not report.all_passed:
        return Replay(1, _fails(report))
    _, thr = _threshold(tr, spec, settings, report.hf1.data["delta"])
    return Replay(0, {"lambda_star": float(f"{thr.lambda_star:.12g}")})


def _replay_mountain_pass(tr: Tracer, cmd: Command, config: str) -> Replay:
    """_run_pipeline and two_solution_pipeline, call by call."""
    spec, settings, _ = tr.call("problems.load_problem", problems.load_problem, config,
                                overrides=_overrides(cmd))
    report = _audit(tr, spec, settings.t_max)
    if not report.all_passed:
        return Replay(1, _fails(report))
    report = _audit(tr, spec, settings.t_max)  # the pipeline audits again
    delta = report.hf1.data["delta"]
    sub0, thr = _threshold(tr, spec, settings, delta)
    lam = settings.lam
    if lam is None:
        lam = thr.lambda_star / 2.0 if math.isfinite(thr.lambda_star) else 1.0
    if not (0.0 < lam < thr.lambda_star):
        raise philap.SolverError(f"lambda {lam:g} not below the threshold {thr.lambda_star:g}")
    spec.lam = lam
    adm = thr.r_star(lam)
    sub = sub0
    if 1.0 / sub0.n_hat > lam:
        sub = tr.call("solver.build_subsolution", solver.build_subsolution, spec, delta, lam=lam)
    trunc = solver.truncate_reaction(spec, sub)
    first, flags, _ = tr.call("solver.first_solution", solver.first_solution, spec, trunc,
                              adm.r_star, lam, tol=settings.tol_first,
                              max_iter=settings.max_iter)
    counts = {"first_iterations": flags["iterations"]}
    if not flags["converged"]:
        raise philap.SolverError(f"first solution stalled at residual {first.residual:.3e}")
    up = tr.call("solver.uphill_endpoint", solver.uphill_endpoint, spec, trunc, first, lam)
    mp = tr.call("solver.mountain_pass", solver.mountain_pass, spec, trunc, first, up, lam,
                 n_path=settings.n_path, tol=settings.tol_mountain,
                 max_outer=settings.max_iter, r_star=adm.r_star)
    counts.update(mp_outer_iterations=mp.outer_iterations, mp_converged=mp.converged)
    tr.call("solver.verify_solution", solver.verify_solution, spec, trunc, first.u, lam)
    tr.call("solver.verify_solution", solver.verify_solution, spec, trunc, mp.state.u, lam)
    p_exp = spec.phi_star_indices().lower
    r_exp = p_exp / spec.phi_indices().upper
    tr.call("solver.degiorgi_bound", solver.degiorgi_bound, first.u, p_exp, r_exp,
            k_start=max(0.6 * first.u.sup_norm(), 1e-9))
    facts = {"lambda_star": float(f"{thr.lambda_star:.12g}"),
             "level": float(f"{mp.level:.6g}"), "converged": bool(mp.converged)}
    return Replay(0 if mp.converged else 1, facts, counts)


def _generator(builtin: str, flags: dict):
    if builtin == "power":
        return young.power_young(flags["p"])
    if builtin == "log-power":
        return young.log_power_young(flags["p"])
    return young.build_pathological(
        young.PathologicalParams.make(flags["p"], flags["q"], flags["eps"]))


def _replay_indices(tr: Tracer, cmd: Command, config: str) -> Replay:
    psi = _generator(*builtin_flags(cmd))
    grid = young.log_grid(1e-4, min(1e6, psi.t_hi * 0.999), 2000)
    pair = young.compute_indices(psi, grid)
    return Replay(0, {"lower": float(f"{pair.lower:.12g}"),
                      "upper": float(f"{pair.upper:.12g}")})


def _replay_sobolev(tr: Tracer, cmd: Command, config: str) -> Replay:
    psi = _generator(*builtin_flags(cmd))
    star = young.sobolev_conjugate(psi, 4)
    pair = young.compute_indices(star)
    return Replay(0, {"indices": (f"{pair.lower:.4g}", f"{pair.upper:.4g}")})


def replay_conjugate(tr: Tracer) -> float:
    """`philap conjugate --builtin power --p 2`, evaluated vectorized on the
    command's 100 points; returns the worst involution error."""
    builtin, p = CONJUGATE_REPLAY
    psi = _generator(builtin, {"p": p})
    with tr.span("young.young_conjugate"):
        conj = young.young_conjugate(psi)
    with tr.span("young.young_conjugate"):
        back = young.young_conjugate(conj)
    with tr.span("young.young_conjugate"):
        ts = young.log_grid(1e-3, 1e3, 100)
        vals = psi(ts)
        conj(ts)
        err = np.abs(back(ts) - vals) / vals
    return float(err.max())


REPLAYS = {
    "lambda-star": _replay_lambda_star,
    "mountain-pass": _replay_mountain_pass,
    "indices": _replay_indices,
    "sobolev-conjugate": _replay_sobolev,
}


def _overrides(cmd: Command) -> list[str]:
    args = list(cmd.args)
    return [args[i + 1] for i, a in enumerate(args) if a == "--override"]


def replay(cmd: Command, config: str | None, tracer: Tracer) -> Replay:
    """Replay one command; errors map to exit codes as in philap.cli.main."""
    with nested_spans(tracer):
        try:
            return REPLAYS[cmd.subcommand](tracer, cmd, config)
        except ConfigError as exc:
            return Replay(2, {"error": str(exc)})
        except PhilapError as exc:
            return Replay(1, {"error": str(exc)})
