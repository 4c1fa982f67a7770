"""Batch experiment runner.

``varint run --config <file> [key=value ...]`` executes one configured run
and writes CSV diagnostics, a key=value summary, and a standalone plot
script into the output directory.  ``varint suite <name>`` runs a named
bundle of experiments concurrently and adds a cross-run comparison CSV.
Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import bea, diagnostics
from .errors import ConfigurationError, IntegrationError, VarintError, check_finite
from .integrators import (
    avi_run,
    epavi_run,
    make_monitor,
    midpoint_fixed_run,
    reference_solve,
)
from .models import make_model, model_names
from .precision import DOUBLE, with_precision
from .solvers import CONDITION_WARN, SolverConfig

KEPLER_PERIOD = 2 * math.pi

INTEGRATOR_NAMES = ("epavi", "avi1", "avi2", "midpoint_fixed", "reference")


@dataclass
class ExperimentConfig:
    """One run: problem + parameters, integrator, stepping and solver tolerance."""

    problem: str = "kepler"
    e: float = 0.1
    k: float = 1.0
    m: float = 1.0
    q0: float = 1.0
    p0: float = 0.0
    integrator: str = "epavi"
    h0: float = 0.001
    T_final: Optional[float] = None
    periods: Optional[float] = None
    tol: Optional[float] = None
    digits: int = 16
    outdir: str = "out"
    reference: bool = True

    def build(self):
        """The run's context, solver config and model, after the rules of this
        runner: a known integrator, one finite span, finite h0, and periods and
        avi2 for Kepler only.  The constructors of the three check the digits,
        tol, problem and model parameters."""
        if self.integrator not in INTEGRATOR_NAMES:
            raise ConfigurationError(
                f"unknown integrator {self.integrator!r}; known: {list(INTEGRATOR_NAMES)}"
            )
        # runs have no step budget: an infinite span would never return
        check_finite(self.h0, "h0 must be positive and finite, got {}")
        if self.periods is not None and self.T_final is not None:
            raise ConfigurationError("set periods or T_final, not both")
        if self.periods is not None and self.problem != "kepler":
            raise ConfigurationError("periods is only defined for the kepler problem")
        # g2 = q'q, Kepler's second-law density, vanishes at q = 0, which the
        # 1-DOF runs from rest cross: the steps collapse there and t never reaches T_final
        if self.integrator == "avi2" and self.problem != "kepler":
            raise ConfigurationError("avi2 is only defined for the kepler problem")
        check_finite(self.final_time(), "T_final must be positive and finite, got {}")
        ctx = with_precision(self.digits)
        return ctx, SolverConfig.for_context(ctx, tol=self.tol), make_model(self.problem, self.model_params(), ctx)

    def final_time(self) -> float:
        if self.T_final is not None:
            return float(self.T_final)
        if self.periods is not None:
            return float(self.periods) * KEPLER_PERIOD
        return 2 * math.pi

    def model_params(self) -> dict:
        """Every problem field; each model and start reads its own."""
        return {"e": self.e, "k": self.k, "m": self.m, "q0": self.q0, "p0": self.p0}

    def as_lines(self) -> List[str]:
        out = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out.append(f"{f.name}={v}")
        return out


def _parse_value(key: str, raw: str):
    """``raw`` as the type of the field's default; a None default is a float."""
    kind = type(getattr(ExperimentConfig, key))
    if kind is str:
        return raw
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"cannot parse boolean {key}={raw!r}")
    try:
        return int(raw) if kind is int else float(raw)
    except ValueError:
        raise ConfigurationError(f"cannot parse {key}={raw!r}") from None


def parse_config(path: Optional[str] = None, overrides: Optional[List[str]] = None) -> ExperimentConfig:
    """Flat key=value file plus command-line overrides, each value parsed as
    its field's type; :meth:`ExperimentConfig.build` checks the config."""
    values = {}
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}

    def ingest(line, origin):
        line = line.split("#", 1)[0].strip()
        if not line:
            return
        if "=" not in line:
            raise ConfigurationError(f"{origin}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigurationError(f"{origin}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)

    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:  # missing, or a directory
            raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not UTF-8: {exc}") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            ingest(line, f"{path}:{lineno}")
    for item in overrides or []:
        ingest(item, "override")
    return ExperimentConfig(**values)


# -- single experiment -------------------------------------------------------------


def _run_integrator(cfg: ExperimentConfig, model, state0, scfg):
    T = cfg.final_time()
    name = cfg.integrator
    if name == "epavi":
        return epavi_run(model, state0, cfg.h0, T, scfg)
    if name == "midpoint_fixed":
        return midpoint_fixed_run(model, state0, cfg.h0, T, scfg)
    monitor = make_monitor("g1" if name == "avi1" else "g2", model, state0)
    return avi_run(model, monitor, state0, T, scfg, h0=cfg.h0)


def _reference_trajectory_outputs(cfg, model, state0, outdir):
    """`reference` as the configured integrator: dense solve, sampled CSV.

    The solve runs in double at any ``digits``, so its values and H are
    written as doubles; the energy error is each sample's H against the
    first's, the start's H bit for bit."""
    ref = reference_solve(model, state0, cfg.final_time())
    dm = model.double
    times = np.linspace(ref.t_min, ref.t_max, 2001)
    Q, P = ref.eval(times)
    H = dm.hamiltonian_rows(Q.T, P.T)
    max_drift = max(abs(float(h - H[0])) for h in H)
    rows = ((k, t, *q, *p, h) for k, (t, q, p, h) in enumerate(zip(times, Q.T, P.T, H)))
    diagnostics.write_csv(outdir / "trajectory.csv", diagnostics.state_header(model.n), rows, DOUBLE)
    return {"n_steps": len(times) - 1, "max_energy_error": max_drift}


def run_experiment(cfg: ExperimentConfig, outdir: Optional[Path] = None) -> dict:
    """Execute one configured run and write its output bundle.

    Returns the machine-readable summary (also written as summary.txt).
    Its ``error`` is the first numerical failure, and ``success`` is True
    exactly when there is none.  A failed start (e.g. inside the Kepler
    collision guard) writes no trajectory outputs; a failed run, in its
    setup or in a step, writes the outputs of the trajectory it reached, and
    its own message stays the error when that trajectory's reference solve
    fails too; a run that completed fails when its outputs do (its reference
    solve, say).  A :class:`ConfigurationError` propagates; one from
    :meth:`ExperimentConfig.build` or the start (an eccentricity outside
    [0, 1), say), both taken first, leaves no output directory, and so does
    an output directory that cannot be made.
    The start, the run and its diagnostics compute under the context's
    :meth:`~varint.precision.PrecisionContext.arithmetic`, so the states and
    output bytes of an extended run do not depend on the caller's decimal
    context, which is restored when the experiment returns or raises.
    """
    ctx, scfg, model = cfg.build()
    started = time.perf_counter()
    with ctx.arithmetic():
        try:
            state0 = model.initial_state(cfg.model_params())
        except ConfigurationError:
            raise
        except VarintError as exc:  # a numerical failure, which writes its summary below
            state0 = exc
    outdir = _make_outdir(outdir if outdir is not None else cfg.outdir)
    (outdir / "config.txt").write_text("\n".join(cfg.as_lines()) + "\n")

    summary = {
        "problem": cfg.problem,
        "integrator": cfg.integrator,
        "h0": cfg.h0,
        "tol": scfg.tol,
        "digits": cfg.digits,
        "T_final": cfg.final_time(),
    }
    with ctx.arithmetic():
        try:
            if isinstance(state0, VarintError):
                raise state0
            if cfg.integrator == "reference":
                summary.update(_reference_trajectory_outputs(cfg, model, state0, outdir))
            else:
                try:
                    traj = _run_integrator(cfg, model, state0, scfg)
                except IntegrationError as exc:
                    summary["error"], traj = str(exc), exc.trajectory
                _trajectory_outputs(cfg, model, traj, outdir, summary)
        except ConfigurationError:
            raise
        except VarintError as exc:  # a failed run's error stays when its reference solve fails too
            summary.setdefault("error", str(exc))
    summary["success"] = "error" not in summary
    summary["wall_time_s"] = round(time.perf_counter() - started, 3)

    _write_summary(outdir / "summary.txt", summary)
    (outdir / "plot.py").write_text(_PLOT_SCRIPT)
    return summary


def _trajectory_outputs(cfg, model, traj, outdir, summary):
    ctx = traj.ctx
    diagnostics.write_trajectory_csv(traj, outdir / "trajectory.csv")
    e_series = diagnostics.energy_error_series(traj)
    h_series = diagnostics.hamiltonian_error_series(traj, model)
    diagnostics.write_error_series_csv([e_series, h_series], outdir / "energy_error.csv", ctx)

    if len(traj) > 1:
        stats = diagnostics.timestep_stats(traj)
        tele = diagnostics.telescoping_bound_check(traj)
        max_energy_error = e_series.max()
        diagnostics.write_stats_csv(stats, tele, max_energy_error, outdir / "stats.csv", ctx)
        condition = traj.step_columns["condition_estimate"]
        summary.update(
            n_steps=stats.n_steps,
            mean_step_ratio=stats.mean_ratio,
            max_step_ratio=stats.max_ratio,
            max_energy_error=max_energy_error,
            max_hamiltonian_error=h_series.max(),
            max_step_defect=tele.max_step_defect,
            telescoping_holds=tele.holds,
            stalled_steps=sum(traj.step_columns["stalled"]),
            newton_iterations=sum(traj.step_columns["iterations"]),
            retried_steps=sum(traj.step_columns["retried"]),
            max_residual=max(map(float, traj.step_columns["residual_norm"])),
            max_condition_estimate=max(condition),
            condition_warnings=sum(c > CONDITION_WARN for c in condition),
        )
        if traj.states[-1].t >= cfg.final_time():
            summary["overshoot"] = float(traj.states[-1].t - ctx.real(cfg.final_time()))

    if cfg.reference and len(traj) > 1:
        ref = reference_solve(model, traj.states[0], float(traj.states[-1].t))
        err = diagnostics.trajectory_error(traj, ref)
        diagnostics.write_error_series_csv(err, outdir / "traj_error.csv", ctx)
        for s in err:
            summary[f"max_{s.label}"] = s.max()


def _make_outdir(path) -> Path:
    """``path`` as a directory, made with its parents if missing; one that
    cannot be made (a file is in the way, say) is a :class:`ConfigurationError`."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot make output directory {path}: {exc.strerror}") from None
    return path


def _write_summary(path: Path, summary: dict):
    lines = [f"{key}={summary[key]}" for key in sorted(summary)]
    path.write_text("\n".join(lines) + "\n")


# -- suites -------------------------------------------------------------------------
#
# A suite is a table from member label, the member's output directory, to its
# config, or a function that runs the whole suite into its output directory.


def _figure_suite(e: float) -> dict:
    """EpAVI against AVI g1 and g2 over one Kepler period at eccentricity ``e``."""
    kepler = dict(problem="kepler", e=e, h0=0.001, periods=1.0)
    return {
        "epavi_tol1e-15": ExperimentConfig(integrator="epavi", tol=1e-15, **kepler),
        "avi1_tol1e-13": ExperimentConfig(integrator="avi1", tol=1e-13, **kepler),
        "avi2_tol1e-13": ExperimentConfig(integrator="avi2", tol=1e-13, **kepler),
    }


_KEPLER_E07 = dict(problem="kepler", e=0.7, periods=1.0, reference=False)
_VPA = dict(_KEPLER_E07, integrator="epavi", h0=0.01)


def _run_bea_orders(outdir: Path) -> dict:
    from .models import HarmonicOscillator, Pendulum

    rows = []
    summary = {"suite": "bea_orders", "success": True}
    for label, model, profile in [
        ("oscillator", HarmonicOscillator(), bea.IdentityProfile()),
        ("pendulum", Pendulum(), bea.SineProfile(0.1)),
    ]:
        leading, modified = (bea.residual_order_estimate(model, profile, flag) for flag in (False, True))
        for flag, tag, est in ((False, "leading", leading), (True, "modified", modified)):
            rows += ([label, profile.label, flag, *sample] for sample in est.samples)
            summary[f"slope_{label}_{tag}"] = round(est.slope, 3)
            summary[f"slope_energy_{label}_{tag}"] = round(est.slope_energy, 3)
        summary[f"improvement_{label}"] = round(modified.slope - leading.slope, 3)
    diagnostics.write_csv(
        outdir / "bea_orders.csv",
        ["problem", "profile", "modified", "delta_a", "residual_inf_norm", "energy_residual_inf_norm"],
        rows,
    )
    _write_summary(outdir / "summary.txt", summary)
    return summary


#: The registered suites, in the order ``varint list`` prints them.
SUITES = {
    "fig_e01": _figure_suite(0.1),
    "fig_e07": _figure_suite(0.7),
    "vpa_study": {
        "epavi_tol1e-15_h0.01": ExperimentConfig(digits=16, tol=1e-15, **_VPA),
        "epavi_d18_tol1e-15_h0.01": ExperimentConfig(digits=18, tol=1e-15, **_VPA),
        "epavi_d18_tol1e-16_h0.01": ExperimentConfig(digits=18, tol=1e-16, **_VPA),
        "epavi_d18_tol1e-17_h0.01": ExperimentConfig(digits=18, tol=1e-17, **_VPA),
    },
    "bea_orders": _run_bea_orders,
    "h0_sensitivity": {
        "epavi_tol1e-15": ExperimentConfig(integrator="epavi", h0=0.001, tol=1e-15, **_KEPLER_E07),
        "epavi_tol1e-15_h0.01": ExperimentConfig(integrator="epavi", h0=0.01, tol=1e-15, **_KEPLER_E07),
        "avi2_tol1e-13": ExperimentConfig(integrator="avi2", h0=0.001, tol=1e-13, **_KEPLER_E07),
        "avi2_tol1e-13_h0.01": ExperimentConfig(integrator="avi2", h0=0.01, tol=1e-13, **_KEPLER_E07),
    },
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, outdir, workers: int = 2) -> dict:
    """Run a registered suite; member failures are recorded and the suite
    continues."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ConfigurationError(f"unknown suite {name!r}; known: {list(SUITES)}") from None
    outdir = _make_outdir(outdir)
    if callable(suite):
        return suite(outdir)

    dirs = [outdir / label for label in suite]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(suite))) as pool:
            summaries = list(pool.map(run_experiment, suite.values(), dirs))
    else:
        summaries = list(map(run_experiment, suite.values(), dirs))

    keys = ["label", "integrator", "digits", "tol", "h0", "success", "n_steps",
            "mean_step_ratio", "max_step_ratio", "max_energy_error", "max_step_defect"]
    rows = [[{"label": label, **summary}.get(k, "") for k in keys] for label, summary in zip(suite, summaries)]
    diagnostics.write_csv(outdir / "comparison.csv", keys, rows)

    ok = all(s.get("success") for s in summaries)
    suite_summary = {"suite": name, "members": len(summaries), "success": ok}
    _write_summary(outdir / "summary.txt", suite_summary)
    return suite_summary


# -- entry point ----------------------------------------------------------------------


_PLOT_SCRIPT = '''\
"""Render the four-panel comparison plot from this run's CSV files."""
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt


def read(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def column(rows, key):
    return [float(r[key]) for r in rows if r.get(key)]


here = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent
traj = read(here / "trajectory.csv")
fig, axes = plt.subplots(2, 2, figsize=(11, 7))

ts = column(traj, "t")
if traj and traj[0].get("h"):
    axes[0, 0].plot(ts[:-1], column(traj, "h"))
axes[0, 0].set(xlabel="t", ylabel="h", title="Adaptive time step")

if (here / "energy_error.csv").exists():
    err = read(here / "energy_error.csv")
    axes[0, 1].semilogy(column(err, "t"), [v or 1e-20 for v in column(err, "energy_error")])
axes[0, 1].set(xlabel="t", ylabel="|E_k - E_0|", title="Energy error")

if (here / "traj_error.csv").exists():
    terr = read(here / "traj_error.csv")
    axes[1, 0].semilogy(column(terr, "t"), column(terr, "q1_error"))
    axes[1, 0].set(xlabel="t", ylabel="|q1 - q1_ref|", title="q1 trajectory error")
    axes[1, 1].semilogy(column(terr, "t"), column(terr, "q2_error"))
    axes[1, 1].set(xlabel="t", ylabel="|q2 - q2_ref|", title="q2 trajectory error")

fig.tight_layout()
out = here / "figure.png"
fig.savefig(out, dpi=150)
print(f"wrote {out}")
'''


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="varint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", help="key=value config file")
    p_run.add_argument("--outdir", help="output directory (overrides config)")
    p_run.add_argument("overrides", nargs="*", metavar="key=value")

    p_suite = sub.add_parser("suite", help="run a registered experiment bundle")
    p_suite.add_argument("name", choices=SUITE_NAMES)
    p_suite.add_argument("--outdir", default=None)
    p_suite.add_argument("--workers", type=int, default=2)

    sub.add_parser("list", help="list problems, integrators and suites")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "list":
            print("problems:   ", " ".join(model_names()))
            print("integrators:", " ".join(INTEGRATOR_NAMES))
            print("suites:     ", " ".join(SUITE_NAMES))
            return 0
        if args.command == "run":
            cfg = parse_config(args.config, args.overrides)
            summary = run_experiment(cfg, Path(args.outdir) if args.outdir else None)
            status = "ok" if summary["success"] else f"FAILED: {summary['error']}"
            print(f"{cfg.integrator} on {cfg.problem}: {status}")
            return 0 if summary["success"] else 1
        # argparse requires a command, and "suite" is the one left
        summary = run_suite(args.name, args.outdir or f"suite_{args.name}", workers=args.workers)
        print(f"suite {args.name}: {'ok' if summary['success'] else 'member failures'}")
        return 0 if summary["success"] else 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VarintError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
