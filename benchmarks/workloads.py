"""The three benchmark workloads and the correctness gate of every run.

``kepler_double`` and ``kepler_extended`` are fixed lists of one-period
Kepler runs driven through the package-level calls (``varint.epavi_run``,
``varint.avi_run``, ``varint.midpoint_fixed_run``); ``cli_suite`` is the
paper's e = 0.1 three-integrator comparison driven through
``varint.cli.main``.  The program is deterministic: the seed only turns
each library run's initial state (both q and p) about the origin by an
angle drawn in [0, 2 pi), which changes the inputs and the rounding but
not the orbit's shape, so every seed asks for the same work.  Seed 0 gives
the paper's perihelion start, on which the ROADMAP baseline counts were
measured.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import hostspeed

PERIOD = 2 * math.pi  # one period for every e: the orbits have semi-major axis 1

#: ROADMAP baseline at seed 0: (accepted steps, sum of StepRecord.iterations).
BASELINE = {
    "epavi_e0.1": (5365, 30827),
    "epavi_e0.7": (1010, 6943),
    "avi_g2_e0.7": (793, 2236),
    "epavi_d18_e0.7_tol1e-17": (109, 745),
}


@dataclass(frozen=True)
class KeplerRun:
    label: str
    integrator: str  # epavi | avi | midpoint_fixed
    e: float
    h0: float
    tol: Optional[float] = None  # None: the solver's default for the precision
    digits: int = 16
    monitor: Optional[str] = None


@dataclass
class Outcome:
    """One request: a library run, or one whole suite invocation."""

    label: str
    seconds: float
    steps: int
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)  # wrong outputs, not reported errors
    record_iters: Optional[int] = None  # sum of StepRecord.iterations
    chunk_s: float = 0.0  # hostspeed chunk time during the request

    @property
    def scaled(self) -> float:
        """``seconds`` at the measuring host's full speed (see hostspeed.py)."""
        return self.seconds * hostspeed.REFERENCE_S / self.chunk_s


def _double_runs():
    return [
        KeplerRun("epavi_e0.1", "epavi", 0.1, 1e-3, 1e-15),
        KeplerRun("epavi_e0.7", "epavi", 0.7, 1e-3, 1e-15),
        KeplerRun("avi_g1_e0.7", "avi", 0.7, 1e-3, 1e-13, monitor="g1"),
        KeplerRun("avi_g2_e0.7", "avi", 0.7, 1e-3, 1e-13, monitor="g2"),
        KeplerRun("midpoint_fixed_e0.7", "midpoint_fixed", 0.7, 1e-3),
    ]


def _extended_runs():
    runs = [
        KeplerRun(f"epavi_d18_e0.7_tol{tol:.0e}".replace("-0", "-"), "epavi", 0.7, 1e-2, tol, 18)
        for tol in (1e-15, 1e-16, 1e-17)
    ]
    return runs + [KeplerRun("epavi_d18_e0.1_tol1e-17", "epavi", 0.1, 1e-2, 1e-17, 18)]


# -- correctness gate --------------------------------------------------------


def _energy_band(run: KeplerRun):
    """(low, high) for max |E_k - E_0|: acceptance criteria 1, 2 and 4."""
    if run.integrator == "epavi":
        if run.digits > 16 and run.tol is not None and run.tol <= 1e-17:
            return 0.0, 1e-16
        return 0.0, 1e-13 if run.e < 0.4 else 1e-12
    if run.integrator == "avi":
        return (1e-8, 1e-6) if run.e < 0.4 else (1e-5, 1e-3)
    return 0.0, 1e-3  # midpoint_fixed: no worse than the AVI band at e = 0.7


def gate(run: KeplerRun, traj) -> list:
    """Problems with a completed trajectory; empty when it is correct."""
    problems = []
    E = [s.E for s in traj.states]
    if float(traj.states[-1].t) < PERIOD:
        problems.append(f"stopped at t = {float(traj.states[-1].t)} < {PERIOD}")
    errors = [abs(x - E[0]) for x in E]
    worst = float(max(errors))
    low, high = _energy_band(run)
    if not low <= worst <= high:
        problems.append(f"max energy error {worst:.3e} outside [{low:g}, {high:g}]")
    max_defect = 0 * errors[0]
    for k in range(1, len(E)):
        max_defect = max(max_defect, abs(E[k] - E[k - 1]))
        if errors[k] > k * max_defect:
            problems.append(f"telescoping bound fails at step {k}")
            break
    if run.integrator == "epavi" and run.tol is not None and float(max_defect) > 10 * run.tol:
        problems.append(f"per-step energy defect {float(max_defect):.3e} > 10 tol")
    return problems


# -- workloads ---------------------------------------------------------------


def _turned(state, angle: float, ctx):
    """``state`` with q and p turned by ``angle`` about the origin."""
    if not angle:
        return state
    from varint.models import ExtendedState, kepler_hamiltonian

    with ctx.activate():
        c, s = ctx.cos(ctx.real(angle)), ctx.sin(ctx.real(angle))

        def turn(v):
            w = ctx.array([0, 0])
            w[0] = c * v[0] - s * v[1]
            w[1] = s * v[0] + c * v[1]
            return w

        q, p = turn(state.q), turn(state.p)
        return ExtendedState(t=state.t, q=q, p=p, E=kepler_hamiltonian(q, p, ctx))


class KeplerWorkload:
    """A fixed list of one-period Kepler runs, each its own request."""

    workers = 1

    def __init__(self, runs, seed: int):
        rng = random.Random(seed)
        self.runs = runs
        self.angles = [rng.uniform(0.0, 2 * math.pi) if seed else 0.0 for _ in runs]

    def prepare(self):
        """Models, initial states, solver configs and monitors of every run."""
        import varint

        prepared = []
        for run, angle in zip(self.runs, self.angles):
            ctx = varint.with_precision(run.digits)
            model = varint.KeplerTwoBody(ctx)
            state0 = _turned(varint.kepler_initial_state(run.e, ctx), angle, ctx)
            cfg = varint.SolverConfig.for_context(ctx, **({"tol": run.tol} if run.tol else {}))
            monitor = varint.make_monitor(run.monitor, model, state0) if run.monitor else None
            prepared.append((model, state0, cfg, monitor, ctx.real(run.h0)))
        return prepared

    def run_pass(self, prepared, outdir: Path, tracer=None) -> list:
        from varint.errors import IntegrationError

        pkg = sys.modules["varint"]  # looked up per call so traced passes see the wrappers
        outcomes = []
        for run, angle, (model, state0, cfg, monitor, h0) in zip(self.runs, self.angles, prepared):
            error = None
            span = tracer.span("bench.request") if tracer else contextlib.nullcontext()
            with hostspeed.Sampler(pin_caller=True) as sampler, span:
                started = time.perf_counter()
                try:
                    if run.integrator == "epavi":
                        traj = pkg.epavi_run(model, state0, h0, PERIOD, cfg)
                    elif run.integrator == "avi":
                        traj = pkg.avi_run(model, monitor, state0, PERIOD, cfg, h0=h0)
                    else:
                        traj = pkg.midpoint_fixed_run(model, state0, h0, PERIOD, cfg)
                except IntegrationError as exc:
                    traj, error = exc.trajectory, exc
                seconds = time.perf_counter() - started
            if error is not None:
                # a reported failure, not a wrong answer: it counts as failed only
                print(f"  {run.label} (angle={angle!r}): FAILED after {seconds:.3f} s: {error}")
                steps = len(traj.steps) if traj is not None else 0
                outcome = Outcome(run.label, seconds, steps, failed=1)
            else:
                problems = gate(run, traj)
                outcome = Outcome(
                    run.label, seconds, len(traj.steps), failed=int(bool(problems)), problems=problems,
                    record_iters=sum(r.iterations for r in traj.steps),
                )
            outcome.chunk_s = sampler.chunk_s()
            outcomes.append(outcome)
        return outcomes


#: comparison.csv bands of the fig_e01 members (acceptance criterion 1).
_SUITE_BANDS = {"epavi": (0.0, 1e-13), "avi1": (1e-8, 1e-6), "avi2": (1e-8, 1e-6)}


class SuiteWorkload:
    """``varint suite fig_e01 --workers 2`` as one request of three members."""

    workers = 2
    runs = ()

    def __init__(self):
        self._count = 0

    def prepare(self):
        import varint.cli  # noqa: F401 - the suite builds its own models

        return None

    def run_pass(self, prepared, outdir: Path, tracer=None) -> list:
        import varint.cli

        self._count += 1
        suite_dir = outdir / f"suite-{self._count}"
        argv = ["suite", "fig_e01", "--workers", str(self.workers), "--outdir", str(suite_dir)]
        sys.stdout.flush()  # forked pool workers must not inherit unwritten output
        span = tracer.span("bench.request") if tracer else contextlib.nullcontext()
        with hostspeed.Sampler(pin_caller=False) as sampler, span, contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = varint.cli.main(argv)
            seconds = time.perf_counter() - started
        outcome = Outcome("fig_e01", seconds, 0, attempted=len(_SUITE_BANDS), chunk_s=sampler.chunk_s())
        rows = _read_rows(suite_dir / "comparison.csv")
        if code != 0:
            outcome.problems.append(f"varint suite exited with {code}")
        if sorted(r["integrator"] for r in rows) != sorted(_SUITE_BANDS):
            outcome.problems.append(f"comparison.csv members {[r['integrator'] for r in rows]}")
        passed = 0
        for row in rows:
            if row["success"] != "True":
                print(f"  {row['label']}: FAILED (success={row['success']})")
                continue
            outcome.steps += int(row["n_steps"])
            low, high = _SUITE_BANDS.get(row["integrator"], (0.0, -1.0))
            if low <= float(row["max_energy_error"]) <= high:
                passed += 1
            else:
                outcome.problems.append(f"{row['label']}: max energy error "
                                        f"{row['max_energy_error']} outside [{low:g}, {high:g}]")
        outcome.failed = outcome.attempted - passed
        shutil.rmtree(suite_dir)
        return [outcome]


def _read_rows(path: Path) -> list:
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_MAKERS = {
    "kepler_double": lambda seed: KeplerWorkload(_double_runs(), seed),
    "kepler_extended": lambda seed: KeplerWorkload(_extended_runs(), seed),
    "cli_suite": lambda seed: SuiteWorkload(),
}
NAMES = tuple(_MAKERS)


def make(name: str, seed: int):
    return _MAKERS[name](seed)
