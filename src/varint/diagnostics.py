"""Post-run analysis: energy error series, telescoping bound, trajectory
error against the dense reference, and time-adaptation statistics.

Each reads the trajectory's columns (``Trajectory.stacked``, ``rows``,
``energies`` and ``step_columns``), never its per-state views, and the CSV
writers stream their rows.  The analyses of a trajectory compute in the
:meth:`~varint.precision.PrecisionContext.arithmetic` of its ``traj.ctx``,
as the run that made it did, whatever decimal context the caller holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import chain, zip_longest
from typing import List

import numpy as np

from .errors import ConfigurationError
from .integrators import ReferenceSolution, Trajectory
from .models import LagrangianModel
from .precision import DOUBLE, PrecisionContext


@dataclass
class ErrorSeries:
    """Non-negative error values against strictly increasing sample times."""

    times: np.ndarray
    values: list
    label: str

    def max(self) -> float:
        return max(float(v) for v in self.values)


@dataclass
class StepStats:
    mean_h: float
    max_h: float
    min_h: float
    mean_ratio: float
    max_ratio: float
    n_steps: int


@dataclass
class TelescopingReport:
    """Final |E_N - E_0| against N * max_i |E_i - E_{i-1}|, plus whether the
    bound held at every intermediate step (an arithmetic identity)."""

    lhs: float
    rhs: float
    holds: bool
    max_step_defect: float


def _in_run_arithmetic(analysis):
    """``analysis(traj, ...)`` computed in the arithmetic of ``traj``'s context."""
    @wraps(analysis)
    def wrapped(traj: Trajectory, *args):
        with traj.ctx.arithmetic():
            return analysis(traj, *args)
    return wrapped


@_in_run_arithmetic
def energy_error_series(traj: Trajectory) -> ErrorSeries:
    """|E_k - E_0| at every recorded state (AVI stores E_k = H(q_k, p_k))."""
    E = traj.energies()
    E0 = E[0]
    return ErrorSeries(times=traj.times(), values=[abs(e - E0) for e in E], label="energy_error")


@_in_run_arithmetic
def hamiltonian_error_series(traj: Trajectory, model: LagrangianModel) -> ErrorSeries:
    """|H(q_k, p_k) - H(q_0, p_0)|, reported alongside the discrete-energy
    error for the energy-preserving runs; H from ``model.hamiltonian_rows``."""
    n, rows = traj.n, traj.stacked()
    H = model.hamiltonian_rows(rows[:, 1:n + 1], rows[:, n + 1:2 * n + 1])
    H0 = H[0]
    return ErrorSeries(times=traj.times(), values=[abs(h - H0) for h in H], label="hamiltonian_error")


@_in_run_arithmetic
def telescoping_bound_check(traj: Trajectory) -> TelescopingReport:
    if len(traj) < 2:
        raise ConfigurationError("telescoping check needs at least two states")
    E = traj.energies()
    E0 = E[0]
    holds = True
    max_defect = 0 * abs(E[1] - E[0])
    for k in range(1, len(E)):
        defect = abs(E[k] - E[k - 1])
        if defect > max_defect:
            max_defect = defect
        lhs_k = abs(E[k] - E0)
        if lhs_k > k * max_defect:
            holds = False
    return TelescopingReport(
        lhs=float(abs(E[-1] - E0)),
        rhs=float((len(E) - 1) * max_defect),
        holds=holds,
        max_step_defect=float(max_defect),
    )


def trajectory_error(traj: Trajectory, reference: ReferenceSolution) -> List[ErrorSeries]:
    """Per-coordinate |q_k^i - q_ref^i(t_k)| at the discrete times."""
    times = traj.times()
    q_ref, _ = reference.eval(times)
    Q = np.asarray(traj.stacked()[:, 1:traj.n + 1], dtype=float)
    return [
        ErrorSeries(times=times, values=np.abs(Q[:, i] - q_ref[i]).tolist(), label=f"q{i + 1}_error")
        for i in range(reference.n)
    ]


@_in_run_arithmetic
def timestep_stats(traj: Trajectory) -> StepStats:
    """Step sizes of a run, the ratios taken to its meta's h0."""
    if len(traj) < 2:
        raise ConfigurationError("step statistics need at least one step")
    hs = traj.step_sizes()
    h0 = traj.meta["h0"]
    # elapsed time over step count, clamped against summation roundoff so
    # min <= mean <= max holds exactly
    mean_h = float((traj.states[-1].t - traj.states[0].t) / len(hs))
    mean_h = min(max(mean_h, float(hs.min())), float(hs.max()))
    return StepStats(
        mean_h=mean_h,
        max_h=float(hs.max()),
        min_h=float(hs.min()),
        mean_ratio=mean_h / h0,
        max_ratio=float(hs.max()) / h0,
        n_steps=len(hs),
    )


# -- CSV output -----------------------------------------------------------------
#
# The bytes are those of csv.writer (excel dialect: comma, minimal quoting,
# CRLF line ends) over the fields _row_format describes; a row is formatted
# by one %-template, so double-precision rows never call ctx.format.


def _quote(text: str) -> str:
    """A text field as csv.writer quotes it under QUOTE_MINIMAL."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _field_format(kind, ctx: PrecisionContext):
    """The %-conversion of a field of type ``kind``, and the function that
    prepares its value for it (None: the value as it is)."""
    if issubclass(kind, (bool, np.bool_)):
        return "%s", None
    if issubclass(kind, (int, np.integer)):
        return "%d", None
    if kind is type(None):
        return "%.0s", None  # str(None) cut to no characters: an empty field
    if issubclass(kind, str):
        return "%s", _quote
    if ctx.is_native:
        return "%.16e", None  # what ctx.format writes, in one C-level step
    return "%s", ctx.format


def _row_format(kinds, ctx: PrecisionContext):
    """Line formatter for rows whose fields have the types ``kinds``.

    Booleans read True/False, integers are decimal, None is an empty field,
    text keeps csv quoting, and reals carry the context's serialization
    digits: ``%.16e`` in double (17 significant digits, so parsing the field
    returns the same float), ``ctx.format`` one value at a time above it.
    """
    fields = [_field_format(kind, ctx) for kind in kinds]
    template = ",".join(spec for spec, _ in fields)
    prepare = [f for _, f in fields]
    if not any(prepare):
        def line(row):
            return template % tuple(row)
    else:
        def line(row):
            return template % tuple(v if f is None else f(v) for f, v in zip(prepare, row))
    if len(kinds) == 1:
        # csv.writer quotes a row's only field when it is empty
        return lambda row: line(row) or '""'
    return line


def _csv_lines(rows, ctx: PrecisionContext):
    formats = {}
    for row in rows:
        kinds = tuple(map(type, row))
        line = formats.get(kinds)
        if line is None:
            line = formats[kinds] = _row_format(kinds, ctx)
        yield line(row)


def write_csv(path, header, rows, ctx: PrecisionContext = DOUBLE):
    """Write a header and rows of mixed values, an iterable read once, as CSV
    (see :func:`_row_format`)."""
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\r\n" for line in _csv_lines(chain((header,), rows), ctx))


def state_header(n: int) -> list:
    """The columns k, t, q1..qn, p1..pn, E of a state row."""
    return ["k", "t"] + [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)] + ["E"]


def write_trajectory_csv(traj: Trajectory, path):
    """k, t, q..., p..., E, h, residual, newton_iters, retried; the step
    columns of row k describe the step from state k to state k+1, and
    retried is 1 when that step came from EpAVI's cold fallback, else 0."""
    header = state_header(traj.n) + ["h", "residual", "newton_iters", "retried"]
    steps = zip(*(traj.step_columns[name] for name in ("h", "residual_norm", "iterations", "retried")))
    rows = ((k, *state, *step)
            for k, (state, step) in enumerate(zip_longest(traj.rows(), steps, fillvalue=(None,) * 4)))
    write_csv(path, header, rows, traj.ctx)


def write_error_series_csv(series_list: List[ErrorSeries], path, ctx: PrecisionContext = DOUBLE):
    header = ["k", "t"] + [s.label for s in series_list]
    times = series_list[0].times.tolist()
    rows = zip(range(len(times)), times, *(s.values for s in series_list))
    write_csv(path, header, rows, ctx)


def write_stats_csv(stats: StepStats, tele: TelescopingReport, max_energy_error, path,
                    ctx: PrecisionContext = DOUBLE):
    """One row: the step statistics, the largest energy error and the
    telescoping check of a run, each computed once by the caller."""
    row = {
        "n_steps": stats.n_steps,
        "mean_h": stats.mean_h,
        "max_h": stats.max_h,
        "min_h": stats.min_h,
        "mean_ratio": stats.mean_ratio,
        "max_ratio": stats.max_ratio,
        "max_energy_error": max_energy_error,
        "max_step_defect": tele.max_step_defect,
        "telescoping_lhs": tele.lhs,
        "telescoping_rhs": tele.rhs,
        "telescoping_holds": tele.holds,
    }
    write_csv(path, list(row.keys()), [list(row.values())], ctx)
