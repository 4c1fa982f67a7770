"""Damped Newton iteration for the implicit per-step equations.

The update equations of the adaptive integrators are ill-conditioned near
degenerate points, so every solve carries the condition number of its
Jacobian.  The residual bottoms out a few roundings of its largest term
above zero; the solver therefore accepts a stalled iterate whose residual
lies within :data:`STALL_FACTOR` of the tolerance, or at the context's
residual floor, within :data:`FLOOR_ULPS` eps of the largest term s of the
residual rows, instead of looping forever.  s is read only when a stall
above STALL_FACTOR times the tolerance is judged.  Only an accepted solve
is judged ill-posed.

The residual is evaluated in the context's precision, ``Decimal`` in an
extended context, rounding in the thread's decimal context (a run's
:meth:`~varint.precision.PrecisionContext.arithmetic`); every integrator
hands in a Jacobian formed in double, from the by-products its residual
returned at the iterate rounded to double, and the Newton step is solved in
double: in an extended context this is iterative refinement, which reaches
the residual's precision while the Jacobian is well conditioned in double.

Each iteration takes the first trial that lowers the residual norm, the
Newton step halved at most :data:`MAX_HALVINGS` times; without one the
solve has stalled (Deuflhard, Newton Methods for Nonlinear Problems, 2004,
ch. 2).  A Jacobian is formed only while the residual exceeds the
tolerance; an iteration from an iterate within it is a polish step, one
undamped refinement that re-solves with the Jacobian in hand (Moler, JACM
14, 1967).
The solve ends once :data:`POLISH` accepted iterates lie within the
tolerance, the one that first met it included (with POLISH = 2, one polish
step after a Newton step meets it, two from a starting guess within it),
or at the first polish step that does not lower the residual or move the
iterate.  The condition number is ||J|| ||J^-1|| in the infinity norm of
the last Jacobian, computed once, at the end, from J's adjugate (its
inverse above 3 x 3).

The residual hands back its by-products with its value, and the solver
carries those of its solution to the caller and to the caller's analytic
Jacobian; :func:`fd_jacobian` is the difference Jacobian it is checked by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import InvalidOperation
from functools import lru_cache
from typing import Any, Callable

from .errors import (
    IllPosednessError,
    MonitorDomainError,
    NonconvergenceError,
    NonMonotoneTimeError,
    SingularityError,
    check_finite,
)
from .precision import DOUBLE, PrecisionContext, Real, inf_norm

#: Errors that mark a trial point infeasible: a domain error, an overflow, or
#: an invalid ``Decimal`` operation (inf - inf, say), which a run's decimal
#: context traps where a float would give nan.
_INFEASIBLE = (SingularityError, MonitorDomainError, NonMonotoneTimeError, OverflowError, InvalidOperation)

#: A stalled iterate is accepted when its residual is within this factor of
#: the tolerance: the double-precision floor of the energy equation.
STALL_FACTOR = 10.0

#: ... or within this many eps of the largest term of the residual rows:
#: the floor of any context, where a tolerance below it would otherwise fail.
FLOOR_ULPS = 4

#: Damping halves a Newton step at most this many times.
MAX_HALVINGS = 10

#: Newton iterations per solve; the accepted iterates within tol that end it.
MAX_ITER = 50
POLISH = 2

#: Condition-number policy: an estimate at or above COND_LIMIT is ill-posed
#: (the double-precision step no longer resolves the update); run summaries
#: count the steps whose estimate exceeds CONDITION_WARN.
COND_LIMIT = 0.01 / DOUBLE.eps
CONDITION_WARN = 1e12


@dataclass(frozen=True)
class SolverConfig:
    """The Newton solve's one setting, its residual tolerance ``tol``, positive and finite.

    Polish steps past ``tol`` put per-step defects at the representation
    floor rather than just under it, and a stall within
    :data:`STALL_FACTOR` of ``tol`` is accepted (see the module docstring).
    """

    tol: float = 1e-12

    def __post_init__(self):
        check_finite(self.tol, "tol must be positive and finite, got {}")

    @classmethod
    def for_context(cls, ctx: PrecisionContext, tol: float | None = None) -> "SolverConfig":
        """``tol``, or by default 1e-12 in double and 1e-17 in extended precision."""
        if tol is None:
            tol = 1e-12 if ctx.is_native else 1e-17
        return cls(tol=tol)


@dataclass(slots=True)
class SolveReport:
    """Outcome of :func:`newton_solve`.

    ``residual_norm`` <= the tolerance marks a converged solve; ``stalled``
    one accepted at its floor above it.  ``condition_estimate`` is the
    infinity-norm condition number of the last Jacobian formed: in a
    polished solve, the Jacobian at the last iterate whose residual exceeded
    the tolerance, not at ``solution``.
    ``aux`` is what the residual returned with its value at ``solution``.
    """

    solution: list
    residual_norm: Real
    iterations: int
    condition_estimate: float
    stalled: bool
    aux: Any


def fd_jacobian(F: Callable, x, fd_step) -> list:
    """Central-difference Jacobian, J[i][j] = (F_i(x+d e_j) - F_i(x-d e_j)) / 2d,
    with d = fd_step * (1 + |x_j|), of a residual ``F`` that takes and returns
    sequences of context scalars, as a list of rows."""
    cols = []
    for j, x_j in enumerate(x):
        d = fd_step * (1 + abs(x_j))
        xp, xm = list(x), list(x)
        xp[j], xm[j] = x_j + d, x_j - d
        col = [(a - b) / (2 * d) for a, b in zip(F(xp), F(xm))]
        if not inf_norm(col) < math.inf:
            raise NonconvergenceError(f"non-finite residual while differencing column {j}")
        cols.append(col)
    return [list(row) for row in zip(*cols)]


@lru_cache(maxsize=64)
def _tol_and_one(digits: int, tol) -> tuple:
    """``tol`` and 1 as scalars of the context of ``digits``, converted once
    per pair (a context is its digits) rather than once per solve."""
    ctx = PrecisionContext(digits)
    return ctx.real(tol), ctx.real(1)


def newton_solve(
    F: Callable,
    x0,
    cfg: SolverConfig,
    ctx: PrecisionContext = DOUBLE,
    *,
    jacobian: Callable,
    scale: Callable,
) -> SolveReport:
    """Solve F(x) = 0 by damped Newton iteration from the sequence ``x0``.

    The iterate x is a list of context scalars, from ``x0`` to the report's
    ``solution``.  ``F(x)`` returns ``(residual, aux)``: the residual a
    sequence of context scalars, and ``aux`` whatever the caller wants back
    at the solution; ``jacobian(x, aux)`` supplies the analytic partials at
    x as rows, given the ``aux`` that ``F`` returned there.  ``scale(aux)``
    is the largest absolute term of the residual rows there, read
    only to judge a stall above :data:`STALL_FACTOR` tol, which is accepted
    within :data:`FLOOR_ULPS` ``ctx.eps`` of it.
    The report carries the ``aux`` of its solution.  A domain error (a
    collision, a non-positive monitor or time step), an ``OverflowError`` or
    an invalid ``Decimal`` operation raised by ``F`` at a trial point marks
    it infeasible for the damping.

    Raises :class:`NonconvergenceError`, its report carrying the last condition
    estimate, when the solve is not accepted (:data:`MAX_ITER` iterations run
    out, the residual stalls far from tol and its floor, the Jacobian overflows or is singular),
    and :class:`IllPosednessError` when an accepted solve's estimate reaches :data:`COND_LIMIT`.

    The Jacobian's rows go to :meth:`PrecisionContext.solve` and ``cond_inf``
    as ``jacobian`` returns them, each entry rounded to double there.
    """
    tol, one = _tol_and_one(ctx.digits, cfg.tol)

    x = list(x0)
    Fx, aux = F(x)
    r = inf_norm(Fx)
    if r == math.inf:
        raise NonconvergenceError("residual not finite at the initial guess")

    J = None
    iterations = 0
    polish_left = POLISH
    stalled = False

    while iterations < MAX_ITER and polish_left > 0:
        polishing = r <= tol
        if J is None or not polishing:
            try:
                J = jacobian(x, aux)
            except OverflowError:
                raise NonconvergenceError(f"Jacobian overflows after {iterations} iterations") from None
        dx = ctx.solve(J, Fx)  # the Newton step is -dx
        if dx[0] != dx[0]:  # nan: an exactly singular Jacobian, whose condition number reads inf
            stalled = True
            break

        # the first trial that lowers the residual norm; rn stays >= r when
        # none does, or when a polish step does not move the iterate
        lam, rn = one, r  # a Decimal times a float raises TypeError
        for _ in range(1 if polishing else MAX_HALVINGS + 1):
            xn = [a - lam * d for a, d in zip(x, dx)]
            lam = lam / 2
            if polishing and xn == x:
                break
            try:
                Fn, aux_n = F(xn)
            except _INFEASIBLE:
                continue
            rn = inf_norm(Fn)  # inf for a non-finite trial, which never beats r
            if rn < r:
                break
        if not rn < r:
            stalled = True
            break
        x, Fx, r, aux = xn, Fn, rn, aux_n
        iterations += 1
        if r <= tol:
            polish_left -= 1

    report = SolveReport(x, r, iterations, ctx.cond_inf(J), stalled and r > tol, aux)
    accepted = r <= tol or stalled and (
        r <= STALL_FACTOR * cfg.tol or r <= FLOOR_ULPS * ctx.eps * float(scale(aux)))
    if not accepted:
        raise NonconvergenceError(
            f"no convergence: residual {float(r):.3e} after {iterations} iterations "
            f"(tol {float(cfg.tol):.1e})",
            report=report,
        )
    if report.condition_estimate >= COND_LIMIT:
        raise IllPosednessError(
            f"Jacobian condition estimate {report.condition_estimate:.2e} at the solution; "
            "the update equations do not determine the unknowns"
        )
    return report
