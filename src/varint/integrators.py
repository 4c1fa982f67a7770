"""The integrator families.

* EpAVI: energy-preserving adaptive steps.  Both the configuration update
  and the time step come from one coupled implicit system built on the
  midpoint discrete Lagrangian over the extended states (t, q),

      L_d = (t_{k+1} - t_k) * L((q_k + q_{k+1})/2, (q_{k+1} - q_k)/(t_{k+1} - t_k)).

  The implicit pair is  -D2 L_d = p_k  and  D1 L_d = E_k;  afterwards
  p_{k+1} = D4 L_d  and  E_{k+1} = -D3 L_d  are explicit.  For the midpoint
  rule D1 = -D3 identically, so the discrete energy is conserved up to the
  solver residual of the energy row.

* AVI: a monitor function g(q) > 0 prescribes dt/da = g; implicit midpoint
  with fixed fictitious step da applied to the rescaled Hamiltonian field
  gives the coupled equations

      (q_{k+1}-q_k)/da =  g(q_av) H_p(q_av, p_av),
      (p_{k+1}-p_k)/da = -g(q_av) H_q(q_av, p_av),
      (t_{k+1}-t_k)/da =  g(q_av),

  with arithmetic midpoints q_av, p_av.  For a separable H the p row is
  explicit, dp = -h grad V(q_av) with h = da g(q_av), and with v = dq/h the
  q row becomes the fixed-step momentum equation

      M v + (h/2) grad V(q_av) = p_k,   i.e.  -D2 L_d = p_k,

  in dq alone; then p_{k+1} = D4 L_d = Mv - (h/2) grad V(q_av).  In the
  fictitious time a the scheme is the fixed-step variational midpoint rule
  (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2006,
  sec. VIII.2), and the unit monitor g = 1 is that rule.  A run is sized,
  as EpAVI's is, by its first physical step h0: da is calibrated to it
  once and kept in the run's meta, the one place of a run's constants.

* A fixed-step implicit midpoint integrator (Lagrangian form), whose
  step is the AVI step and whose run is the AVI run with the unit monitor,
  and a dense reference solver: the exact flow of a bound Kepler start,
  adaptive Runge-Kutta otherwise.

Four shared pieces carry the stepping schemes.  ``_increment`` is the
midpoint kernel: (v, Mv, (h/2) grad V(mid), V(mid), h, mid) from (q_k, dq, h),
with h scaled by the monitor density when one is given, under the partials
of L_d, the EpAVI and momentum residuals and the step updates; each residual
returns its kernel with its value, each Jacobian ``jacobian(x, aux)`` is
formed from that kernel's mid, v, Mv and h rounded to double
(:func:`_double_partials`), and the step update reads the kernel at the
Newton solution from ``SolveReport.aux``.  The kernel, the residuals and
Jacobians, the Newton iterate from its start to ``SolveReport.solution``,
the monitors and the warm start are Python lists of context scalars: on two
or three components NumPy's fixed cost per call outweighs the arithmetic.
The states' q and p are tuples of context scalars.  The Newton step's
linear algebra (``PrecisionContext.solve`` and ``cond_inf``) works on the
Jacobian's own rows in Python floats too, so no BLAS or LAPACK kernel
chooses a bit of a step.  Each operation is the array formula's, in its
order (sums from 0 in index order).  The mass enters only through
the model's ``mass_times`` and ``inverse_mass_times``.
:func:`_momentum_system` is the momentum equation above, with its Jacobian:
one system for an AVI step, a fixed step (the unit monitor, da = h, which
evaluates no monitor) and EpAVI's fixed-h solves; both Jacobians are built on
:func:`_double_partials`.  ``_march`` is the run driver: it steps until
t >= T_final, aborts on a step below the resolution of t, and raises every
failure as an :class:`IntegrationError` carrying the partial trajectory.
A :class:`Trajectory` stores its states as the rows of one buffer and its
step records as columns.
:class:`Monitor` is the AVI density dt/da = g(q) with its gradient, built by
:func:`make_monitor`.

All implicit solves use step increments as unknowns, (dq, h) for EpAVI and
dq for the momentum equation: the residuals are then insensitive to the
absolute magnitude of t, which keeps the attainable residual floor at the
representation level over a full period.  Every solve is given its analytic
Jacobian, formed in double.  ``_march`` starts each Newton solve after the
first from :func:`_extrapolate`, the polynomial extrapolation through the
last five accepted increments z = (dq, h), whatever the integrator.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial
from operator import add, mul, sub
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigurationError,
    IntegrationError,
    MonitorDomainError,
    NonconvergenceError,
    NonMonotoneTimeError,
    StiffnessError,
    VarintError,
    check_finite,
)
from .models import ExtendedState, KeplerTwoBody, LagrangianModel
from .precision import PrecisionContext, Real
from .solvers import SolveReport, SolverConfig, newton_solve

# -- discrete Lagrangian and its partials --------------------------------------


@dataclass(frozen=True)
class DiscretePartials:
    """Partial derivatives of the midpoint L_d at one step pair.

    d1 = dL_d/dt_k (scalar; dL_d/dt_{k+1} = -d1), d2 = dL_d/dq_k,
    d4 = dL_d/dq_{k+1}.
    """

    d1: Real
    d2: list
    d4: list


def _step_length(t_k, t_k1):
    h = t_k1 - t_k
    if h <= 0:
        raise NonMonotoneTimeError(f"t_{{k+1}} - t_k = {h} must be positive")
    return h


def _increment(model, q_k, dq, h, g=None):
    """Midpoint kernel of the step increments: (v, Mv, (h/2) grad V(mid), V(mid), h, mid),
    the vectors as lists, from the sequences ``q_k`` and ``dq``.

    Given a monitor density ``g``, the step is h g(mid, V(mid), grad V(mid))
    and must be positive.  Working from (dq, h) instead of re-differencing
    the endpoints avoids an ulp(t)/h error in the velocity, which would
    dominate the per-step energy defect late in a run.
    """
    mid = [a + b / 2 for a, b in zip(q_k, dq)]
    V, grad = model.potential_and_gradient(mid)
    if g is not None:
        g_mid = g(mid, V, grad)
        if not g_mid > 0:
            raise MonitorDomainError(f"monitor value {g_mid} is not positive")
        h = h * g_mid
    v = [d / h for d in dq]
    half_h = h / 2
    return v, model.mass_times(v), [x * half_h for x in grad], V, h, mid


def _double_partials(dm, kernel):
    """What every step Jacobian reads at the :func:`_increment` ``kernel``, in
    double from the double twin ``dm``, as lists: (mid, grad V, hess V, v,
    Mv, h, A), where A = M/h + (h/4) hess V is the momentum residual's dq
    block.  The h column grad V/2 - Mv/h is formed only by the two Jacobians
    that read it, EpAVI's and the monitored momentum Jacobian.

    The kernel's mid, v, Mv and h are read rounded to double, which in a
    double run leaves them as they are: there they are the bits that
    (q_k + dq/2, dq/h, M dq/h) formed in double would have, so only grad V
    and hess V at mid are evaluated here.  In an extended run they are the
    context's values rounded once, not their double recomputation."""
    v, Mv, _, _, h, mid = kernel[:6]
    if type(h) is not float:
        mid, h, rounded = list(map(float, mid)), float(h), list(map(float, v))
        v, Mv = rounded, rounded if Mv is v else list(map(float, Mv))  # Kepler's M v is v itself
    grad, hess = dm.potential_gradient_and_hessian(mid)
    quarter_h = h / 4
    A = []
    for i, (row, m) in enumerate(zip(hess, dm.masses)):
        row = [x * quarter_h for x in row]
        row[i] = m / h + row[i]
        A.append(row)
    return mid, grad, hess, v, Mv, h, A


def _discrete_energy(v, Mv, V) -> Real:
    """D1 L_d = v'Mv/2 + V(mid) from the kernel values; this module's dot products
    sum from 0 in index order, as numpy's ``(a * b).sum()`` does for a few components."""
    return sum(map(mul, v, Mv)) / 2 + V


def discrete_partials_midpoint(model: LagrangianModel, t_k, q_k, t_k1, q_k1) -> DiscretePartials:
    """Closed-form partials of the midpoint L_d for separable models.

    With v the difference velocity and V evaluated at the configuration
    midpoint:  d1 = v'Mv/2 + V  (the discrete energy), and
    d2 = -Mv - (h/2) grad V,  d4 = Mv - (h/2) grad V.
    """
    v, Mv, half_grad, V, _, _ = _increment(model, q_k, list(map(sub, q_k1, q_k)), _step_length(t_k, t_k1))
    d1 = _discrete_energy(v, Mv, V)
    return DiscretePartials(d1=d1, d2=[-a - b for a, b in zip(Mv, half_grad)],
                            d4=[a - b for a, b in zip(Mv, half_grad)])


# -- trajectories ----------------------------------------------------------------


@dataclass
class StepRecord:
    """Per-step solver metadata.

    ``retried`` marks an EpAVI step whose first Newton attempt failed and
    that was solved by the cold fallback of :func:`epavi_step`; its
    ``iterations`` then sum the fallback's fixed-momentum and coupled solves.
    """

    h: Real
    residual_norm: Real
    iterations: int
    condition_estimate: float = 0.0
    stalled: bool = False
    retried: bool = False


def _record(h, report: SolveReport, retried=False) -> StepRecord:
    return StepRecord(h, report.residual_norm, report.iterations,
                      report.condition_estimate, report.stalled, retried)


class _View(Sequence):
    """Read-only sequence of ``item(k)`` for k in the range ``indices``; each
    access builds its item, and a slice is a view of its own."""

    __slots__ = ("_item", "_indices")

    def __init__(self, item: Callable, indices: range):
        self._item, self._indices = item, indices

    def __len__(self):
        return len(self._indices)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _View(self._item, self._indices[k])
        return self._item(self._indices[k])

    def __iter__(self):
        return map(self._item, self._indices)


class Trajectory:
    """Ordered extended states with per-step solver metadata, stored as columns.

    ``ctx`` is the context of the run that made it.  The states are the rows
    (t, q..., p..., E) of one growing buffer, an ``array('d')`` in a native
    context and a list of context scalars otherwise.  ``step_columns`` holds
    a column per :class:`StepRecord` field, entry k for the step from state
    k to k + 1 (stalled and retried as 0 or 1); what is constant over a run,
    such as AVI's fictitious step, is in ``meta``.  A trajectory starts from
    its ``states`` and grows by :meth:`append`.  ``states`` and ``steps``
    are read-only views that build one :class:`ExtendedState` or
    :class:`StepRecord` per access; analyses read :meth:`stacked`,
    :meth:`rows` and the columns.
    """

    def __init__(self, states, ctx: PrecisionContext, meta: dict):
        self.ctx = ctx
        self.meta = meta
        self.n = len(states[0].q)
        self._width = 2 * self.n + 2
        real = partial(array, "d") if ctx.is_native else list
        self._rows = real(x for s in states for x in (s.t, *s.q, *s.p, s.E))
        # in the order of StepRecord's fields, which _record_at reads
        self.step_columns = {"h": real(), "residual_norm": real(), "iterations": array("q"),
                             "condition_estimate": array("d"), "stalled": bytearray(), "retried": bytearray()}
        # array.fromlist takes a row in half the time of array.extend; a list has only extend
        self._extend = getattr(self._rows, "fromlist", self._rows.extend)
        self._appends = tuple(column.append for column in self.step_columns.values())

    def append(self, state: ExtendedState, record: StepRecord):
        """Add the state that the step ``record`` reached."""
        self._extend([state.t, *state.q, *state.p, state.E])
        h, res, iters, cond, stalled, retried = self._appends
        h(record.h)
        res(record.residual_norm)
        iters(record.iterations)
        cond(record.condition_estimate)
        stalled(record.stalled)
        retried(record.retried)

    def __len__(self):
        return len(self._rows) // self._width

    def _state_at(self, k) -> ExtendedState:
        n, w = self.n, self._width
        row = self._rows[k * w:(k + 1) * w]
        return ExtendedState(t=row[0], q=tuple(row[1:n + 1]), p=tuple(row[n + 1:w - 1]), E=row[w - 1])

    def _record_at(self, k) -> StepRecord:
        h, res, iters, cond, stalled, retried = (c[k] for c in self.step_columns.values())
        return StepRecord(h, res, iters, cond, bool(stalled), bool(retried))

    @property
    def states(self) -> Sequence:
        return _View(self._state_at, range(len(self)))

    @property
    def steps(self) -> Sequence:
        return _View(self._record_at, range(len(self.step_columns["h"])))

    def stacked(self) -> np.ndarray:
        """The states as one (N, 2n + 2) array of rows: in double a view of
        the buffer, not a copy (the trajectory cannot grow while one is
        alive), else an object array of the context scalars."""
        if self.ctx.is_native:
            return np.frombuffer(self._rows, dtype=float).reshape(-1, self._width)
        return np.array(self._rows, dtype=object).reshape(-1, self._width)

    def rows(self):
        """The state rows as tuples of context scalars, built one at a time."""
        return zip(*[iter(self._rows)] * self._width)

    def times(self) -> np.ndarray:
        return np.array(self._rows[::self._width], dtype=float)

    def energies(self) -> list:
        return list(self._rows[self._width - 1::self._width])

    def step_sizes(self) -> np.ndarray:
        return np.array(self.step_columns["h"], dtype=float)


# -- the run driver -----------------------------------------------------------------


#: Extrapolation through the last m = 1..5 accepted increments, componentwise,
#: oldest first: form m - 1, sum_j w_j z_j with the integer weights (1,), (-1, 2),
#: (1, -3, 3), (-1, 4, -6, 4) or (1, -5, 10, -10, 5), reproduces the next term of
#: a polynomial of degree < m in the step index.  It sums from 0, oldest first,
#: a negative weight's term subtracted: x + b*-w is x - b*w in every bit, for a
#: float and a ``Decimal``, which multiplies an integer exactly (a float not at all).
#: Each form takes the m increments and returns the prediction as a list.
_PREDICTORS = (
    lambda A: [0 + a for a in A],
    lambda A, B: [0 - a + b * 2 for a, b in zip(A, B)],
    lambda A, B, C: [0 + a - b * 3 + c * 3 for a, b, c in zip(A, B, C)],
    lambda A, B, C, D: [0 - a + b * 4 - c * 6 + d * 4 for a, b, c, d in zip(A, B, C, D)],
    lambda A, B, C, D, E: [0 + a - b * 5 + c * 10 - d * 10 + e * 5 for a, b, c, d, e in zip(A, B, C, D, E)],
)


def _extrapolate(history) -> list:
    """Predicted next increment from the accepted increments ``history``
    (oldest first, one to five sequences), the predictor of Hairer & Wanner,
    Solving ODEs II, 1996, sec. IV.8 (:data:`_PREDICTORS`), as a list."""
    return _PREDICTORS[len(history) - 1](*history)


def _run_config(model, state0: ExtendedState, T_final, cfg: Optional[SolverConfig], **steps):
    """Reject a bad start, span or step (each of ``steps`` positive and finite);
    return the start in the model's context, q and p as tuples, and the solver config."""
    _check_span(model, state0, T_final)
    for name, value in steps.items():
        check_finite(value, name + " must be positive and finite, got {}")
    ctx = model.ctx
    state0 = ExtendedState(t=ctx.real(state0.t), q=tuple(map(ctx.real, state0.q)),
                           p=tuple(map(ctx.real, state0.p)), E=ctx.real(state0.E))
    return state0, cfg or SolverConfig.for_context(ctx)


def _check_span(model, state0: ExtendedState, T_final):
    """Reject a bad start, or a T_final that precedes it or is not finite."""
    state0.validate(model.n)
    check_finite(T_final, "T_final must be finite and not precede the initial time, got {}",
                 state0.t, inclusive=True)


def _march(model, name, setup: Callable, state0, T_final, cfg, **meta) -> Trajectory:
    """Set a run up with ``setup`` and apply its steps until t >= T_final.

    ``setup(state0, meta) -> (state0, step, h)`` gives the run's start, its
    step ``step(state, h_prev, z0) -> (state, record)`` and ``h``, the first
    step's ``h_prev``; it may record in ``meta`` what it finds (an AVI run's
    calibrated delta_a).  Every later ``h_prev`` is the previous record's h.
    The warm start ``z0`` is None for the first step, then the
    :func:`_extrapolate` prediction from the last five accepted increments
    z = (q_{k+1} - q_k, record h), or the last of them if it predicts h <= 0;
    each is a list of context scalars.
    A step below the resolution of t means the adaptation collapsed (e.g. a
    monitor decaying to zero) and aborts the run instead of looping towards
    t = const; T_final (if a float) and the floor 64 eps (1 + |t|) meet t in
    its own type, which holds a float exactly, so an extended run compares
    ``Decimal``s.  A failed setup or step raises an :class:`IntegrationError`
    carrying the trajectory so far, with the run's meta either way; after a
    failed setup it holds ``state0`` alone.  The setup and the steps run
    under the context's :meth:`~varint.precision.PrecisionContext.arithmetic`:
    an extended run's ``Decimal`` operations round at its working precision
    whatever decimal context the caller holds, and no step enters one of its
    own.
    """
    meta = {"integrator": name, "model": model.name, "params": dict(model.params), **meta,
            "T_final": float(T_final), "tol": float(cfg.tol), "digits": model.ctx.digits}
    traj = Trajectory([state0], model.ctx, meta)
    try:
        with model.ctx.arithmetic():
            state, step, h = setup(state0, meta)
            traj = Trajectory([state], model.ctx, meta)
            end = type(state.t)(T_final) if isinstance(T_final, float) else T_final
            floor = type(state.t)(64 * model.ctx.eps)
            history = []  # the last five accepted increments, oldest first
            while state.t < end:
                z0 = None
                if history:
                    z0 = _extrapolate(history)
                    if z0[-1] <= 0:
                        z0 = history[-1]
                new_state, record = step(state, h, z0)
                h = record.h
                if h < floor * (1 + abs(new_state.t)):
                    raise NonMonotoneTimeError(f"time step {float(h):.3e} underflowed at t = {float(new_state.t):.6g}")
                history.append([*map(sub, new_state.q, state.q), h])
                del history[:-5]
                state = new_state
                traj.append(state, record)
    except VarintError as exc:
        message = f"{name} run aborted at t = {float(traj.states[-1].t):.6g} after {len(traj.steps)} steps: {exc}"
        raise IntegrationError(message, trajectory=traj) from exc
    return traj


# -- EpAVI ------------------------------------------------------------------------


def _largest_term(state, energy_row: bool, kernel) -> Real:
    """The largest |term| of the residual rows at ``kernel``, the scale of a
    solve's residual floor: Mv, (h/2) grad V(mid) and p_k, and with the
    energy row also v'Mv/2, V(mid) and E_k."""
    v, Mv, half_grad, V = kernel[:4]
    terms = [*Mv, *half_grad, *state.p]
    if energy_row:
        terms += [sum(map(mul, v, Mv)) / 2, V, state.E]
    return max(map(abs, terms))


def _epavi_system(model, state):
    """Residual and analytic Jacobian in the increments z = (dq, h).

    The residual is in the context's arithmetic and returns the kernel
    :func:`_increment` at z, with the discrete energy D1 L_d there appended,
    with its value; the Jacobian is formed in double from the model's
    double twin, the precision the Newton step is solved in, at that
    kernel's mid, v, Mv and h (:func:`_double_partials`).
    """
    p_k, E_k, q_k = state.p, state.E, state.q
    dm = model.double

    def residual(z):
        dq, h = z[:-1], z[-1]
        if not h > 0:  # a nan h included
            raise NonMonotoneTimeError(f"time step {h} must be positive")
        kernel = _increment(model, q_k, dq, h)
        v, Mv, half_grad, V, _, _ = kernel
        out = [a + b - c for a, b, c in zip(Mv, half_grad, p_k)]
        energy = _discrete_energy(v, Mv, V)
        out.append(energy - E_k)
        return out, (*kernel, energy)

    def jacobian(z, kernel):
        _, grad, _, v, Mv, h, J = _double_partials(dm, kernel)
        for row, g, y in zip(J, grad, Mv):
            row.append(g / 2 - y / h)
        J.append([y / h + g / 2 for y, g in zip(Mv, grad)] + [-sum(map(mul, v, Mv)) / h])
        return J

    return residual, jacobian


def epavi_step(model: LagrangianModel, state: ExtendedState, h_guess, cfg: SolverConfig, z0=None):
    """One energy-preserving adaptive step.

    Solves the implicit pair for the increments z = (dq, h), then applies
    the explicit momentum/energy updates.  Newton starts from ``z0`` when it
    is given (the warm start of :func:`epavi_run`), else from the
    explicit-Euler guess (h_guess M^{-1} p_k, h_guess).  If that attempt
    fails, the cold fallback solves the momentum equation alone at h_guess
    and restarts the coupled solve once from (dq(h_guess), h_guess); the
    record is then marked ``retried`` and counts the iterations of both of
    those solves.
    """
    check_finite(h_guess, "h_guess must be positive and finite, got {}")
    ctx, h_guess = model.ctx, model.ctx.real(h_guess)
    residual, jacobian = _epavi_system(model, state)
    scale = partial(_largest_term, state, True)
    if z0 is None:
        z0 = [*_explicit_euler(model, state, h_guess), h_guess]
    try:
        report, retried = newton_solve(residual, z0, cfg, ctx, jacobian=jacobian, scale=scale), False
    except NonconvergenceError:
        fixed = _solve_momentum(model, _UNIT, state, h_guess, cfg)
        report = newton_solve(residual, [*fixed.solution, h_guess], cfg, ctx, jacobian=jacobian, scale=scale)
        report, retried = replace(report, iterations=fixed.iterations + report.iterations), True
    z, (_, Mv, half_grad, _, h, _, E) = report.solution, report.aux  # z = (dq, h): q + z stops at q's end
    new_state = ExtendedState(t=state.t + h, q=tuple(map(add, state.q, z)), p=tuple(map(sub, Mv, half_grad)), E=E)
    return new_state, _record(h, report, retried=retried)


def initial_discrete_energy(model: LagrangianModel, state: ExtendedState, h0, cfg: SolverConfig) -> Real:
    """Discrete energy level consistent with a first step of size h0.

    At exactly consistent data (E = H(q, p)) the coupled step system admits
    only the degenerate h -> 0 solution, so a run must first fix the energy
    level: solve the momentum equation alone over a step of size h0 and
    evaluate D1 L_d there.  Every subsequent coupled step then reproduces
    this level, and its first solution lands on h = h0.
    """
    check_finite(h0, "h0 must be positive and finite, got {}")
    v, Mv, _, V, _, _ = _solve_momentum(model, _UNIT, state, model.ctx.real(h0), cfg).aux
    return _discrete_energy(v, Mv, V)


def epavi_run(model: LagrangianModel, state0: ExtendedState, h0, T_final,
              cfg: Optional[SolverConfig] = None) -> Trajectory:
    """March EpAVI steps until t >= T_final.

    The first step starts from the explicit-Euler guess with h0, every
    later one from the warm start z0 = (dq, h) of :func:`_march`; on the
    one-period Kepler runs this takes 1.3-1.4 Newton iterations per step.
    The previously accepted h is each step's h_guess for the cold fallback of
    :func:`epavi_step`.  The starting state's E is replaced by the
    h0-consistent discrete level (see :func:`initial_discrete_energy`).
    """
    state0, cfg = _run_config(model, state0, T_final, cfg, h0=h0)

    def setup(state0, _):
        if T_final > state0.t:
            state0 = replace(state0, E=initial_discrete_energy(model, state0, h0, cfg))
        return state0, lambda state, h, z0: epavi_step(model, state, h, cfg, z0), h0

    return _march(model, "epavi", setup, state0, T_final, cfg, h0=float(h0))


# -- monitor functions -------------------------------------------------------------


@dataclass(frozen=True)
class Monitor:
    """Positive time-reparametrization density dt/da = ``g(q, V, dV)`` and
    its gradient ``grad(q, g, dV, d2V)``, given V = V(q), dV = grad V(q),
    d2V = hess V(q) and g = g(q, V, dV), which the momentum system has at
    hand, as the lists of the models' pair methods; ``grad`` takes and
    returns doubles, the precision the Jacobian is formed in, and returns a
    list.  See :func:`make_monitor`."""

    identifier: str
    g: Callable
    grad: Callable


#: g = 1: the fictitious step is the physical one.
_UNIT = Monitor("unit", lambda q, V, dV: 1, lambda q, g, dV, d2V: [0 * x for x in q])


def make_monitor(name: str, model: LagrangianModel, state0: ExtendedState) -> Monitor:
    """Monitor by name, one of ``g1``, ``g2`` and ``unit``.

    ``g1`` is the arclength monitor
    g = R^(-1/2), R = 2(H0 - V) + grad V' M^{-1} grad V, with H0 = H(q_0, p_0)
    and gradient g^3 (grad V - hess V M^{-1} grad V);
    ``g2`` is the second-law monitor q'q with gradient 2q;
    ``unit`` is 1 with gradient 0.
    """
    if name == "g1":
        with model.ctx.arithmetic():
            H0 = model.hamiltonian(model.ctx.array(state0.q), model.ctx.array(state0.p))
        dm = model.double

        def arclength(q, V, dV):
            radicand = 2 * (H0 - V) + sum(map(mul, dV, model.inverse_mass_times(dV)))
            if radicand <= 0:
                raise MonitorDomainError(f"arclength monitor radicand {radicand} is not positive")
            return 1 / model.ctx.sqrt(radicand)

        def arclength_grad(q, g, dV, d2V) -> list:
            u, g3 = dm.inverse_mass_times(dV), g ** 3
            return [(d - sum(map(mul, row, u))) * g3 for d, row in zip(dV, d2V)]

        return Monitor("g1", arclength, arclength_grad)
    if name == "g2":
        return Monitor("g2", lambda q, V, dV: sum(map(mul, q, q)), lambda q, g, dV, d2V: [2 * x for x in q])
    if name == "unit":
        return _UNIT
    raise ConfigurationError(f"unknown monitor {name!r}")


# -- the momentum equation: AVI, the fixed step and EpAVI's fixed-h solve ----------


def _momentum_system(model, monitor, state, delta_a):
    """Residual and analytic Jacobian of the momentum equation in dq.

    The residual is Mv + (h/2) grad V(q_av) - p_k with v = dq/h and
    h = delta_a g(q_av).  It returns the kernel :func:`_increment` at dq
    with its value.  The Jacobian, formed in double as in
    :func:`_epavi_system` from the kernel's mid, v, Mv and h, is the fixed-h
    block A = M/h + (h/4) hess V(q_av) of :func:`_double_partials` plus the
    rank-one term c (delta_a/2) grad g', with c = grad V/2 - Mv/h, the h
    column of the EpAVI Jacobian, formed here.

    The unit monitor is no monitor: its system is the fixed step
    h = delta_a, with no g in the kernel (h times 1 is h) and the Jacobian
    A alone, with no c formed.  Its rank-one term would be c times a zero
    gradient, an exact zero wherever c is finite, and adding a zero changes
    an entry of A only where that entry is -0.0.
    """
    p_k, q_k = state.p, state.q
    unit = monitor is _UNIT
    g = None if unit else monitor.g
    dm, dad = model.double, float(delta_a)

    def residual(dq):
        kernel = _increment(model, q_k, dq, delta_a, g)
        _, Mv, half_grad, _, _, _ = kernel
        return [a + b - c for a, b, c in zip(Mv, half_grad, p_k)], kernel

    def jacobian(dq, kernel):
        mid, grad, hess, _, Mv, h, A = _double_partials(dm, kernel)
        if unit:
            return A
        half_da = dad / 2
        w = [x * half_da for x in monitor.grad(mid, h / dad, grad, hess)]
        c = [g / 2 - y / h for g, y in zip(grad, Mv)]
        return [[a + c_i * w_j for a, w_j in zip(row, w)] for row, c_i in zip(A, c)]

    return residual, jacobian


def _explicit_euler(model, state, h) -> list:
    """The explicit-Euler increment h M^{-1} p_k, every step's start without a
    warm one, as a list."""
    return [x * h for x in model.inverse_mass_times(state.p)]


def _solve_momentum(model, monitor, state, delta_a, cfg, dq0=None) -> SolveReport:
    """Solve :func:`_momentum_system` from ``dq0``, by default the
    explicit-Euler guess delta_a M^{-1} p_k; the report's ``aux`` is the
    kernel (v, Mv, (h/2) grad V, V, h, mid) at its solution."""
    residual, jacobian = _momentum_system(model, monitor, state, delta_a)
    if dq0 is None:
        dq0 = _explicit_euler(model, state, delta_a)
    return newton_solve(residual, dq0, cfg, model.ctx, jacobian=jacobian,
                        scale=partial(_largest_term, state, False))


# -- AVI ----------------------------------------------------------------------------


def avi_step(model: LagrangianModel, monitor: Monitor, state: ExtendedState, delta_a,
             cfg: SolverConfig, dq0=None):
    """One implicit-midpoint step of the monitor-rescaled system.

    Solves the momentum equation for dq with h = da g(q_av); then
    t_{k+1} = t_k + h and p_{k+1} = Mv - (h/2) grad V(q_av) are explicit.
    Newton starts from ``dq0`` when it is given (the run driver's warm
    start), else from the explicit-Euler guess da g(q_k) M^{-1} p_k, the
    only use of the model at q_k.  Every residual rejects g(q_av) <= 0, the
    one at ``dq0`` included.
    """
    check_finite(delta_a, "delta_a must be positive and finite, got {}")
    delta_a = model.ctx.real(delta_a)
    if dq0 is None:
        g0 = monitor.g(state.q, *model.potential_and_gradient(state.q))
        if g0 <= 0:
            raise MonitorDomainError(f"monitor value {g0} at the step start is not positive")
        dq0 = _explicit_euler(model, state, delta_a * g0)
    report = _solve_momentum(model, monitor, state, delta_a, cfg, dq0)
    _, Mv, half_grad, _, h, _ = report.aux
    q1, p1 = tuple(map(add, state.q, report.solution)), tuple(map(sub, Mv, half_grad))
    new_state = ExtendedState(t=state.t + h, q=q1, p=p1, E=model.hamiltonian(q1, p1))
    return new_state, _record(h, report)


def avi_calibrate_delta_a(model, monitor, state0, h0, cfg: SolverConfig) -> Real:
    """Fictitious step giving a first physical step of h0 (within 1%).

    Starts from da = h0 / g(q_0) and refines with implicit solves until the
    realized first step matches h0 to one percent; the da returned is the
    one whose solve did.  The unit monitor's da is h0 itself, bit for bit.
    Raises :class:`NonconvergenceError` when five solves miss h0.
    """
    check_finite(h0, "h0 must be positive and finite, got {}")
    h0 = model.ctx.real(h0)
    g0 = monitor.g(state0.q, *model.potential_and_gradient(state0.q))
    if g0 <= 0:
        raise MonitorDomainError(f"monitor value {g0} at the initial state is not positive")
    delta_a = h0 / g0
    for _ in range(5):
        _, record = avi_step(model, monitor, state0, delta_a, cfg)
        if abs(record.h - h0) <= model.ctx.real(0.01) * h0:
            return delta_a
        delta_a = delta_a * (h0 / record.h)
    raise NonconvergenceError(f"delta_a calibration missed h0 = {float(h0):.6g} by more than 1% "
                              f"after 5 solves (last first step {float(record.h):.6g})")


def avi_run(model: LagrangianModel, monitor: Monitor, state0: ExtendedState, T_final,
            cfg: Optional[SolverConfig] = None, *, h0) -> Trajectory:
    """Fixed-da monitor-adaptive run until t >= T_final, with da calibrated
    so that the first physical step is ``h0`` (:func:`avi_calibrate_delta_a`);
    the meta's ``delta_a`` is that da, or None if the calibration failed or
    the span is empty, which calibrates nothing.
    Recorded energies are H(q_k, p_k).  Each Newton solve after the first
    starts from the dq part of :func:`_march`'s warm start, as in
    :func:`epavi_run`; on the one-period Kepler runs at e = 0.7 this takes
    1.7-1.8 Newton iterations per step.
    """
    state0, cfg = _run_config(model, state0, T_final, cfg, h0=h0)

    def setup(state0, meta):
        da = None  # an empty span takes no step, and no solve to size one
        if T_final > state0.t:
            da = avi_calibrate_delta_a(model, monitor, state0, h0, cfg)
            meta["delta_a"] = float(da)
        return _avi_start(model, monitor, state0, da, cfg)

    return _march(model, f"avi_{monitor.identifier}", setup, state0, T_final, cfg, monitor=monitor.identifier,
                  h0=float(h0), delta_a=None)


def _avi_start(model, monitor, state0, delta_a, cfg):
    """:func:`_march`'s (start, step, h) for :func:`avi_step` at ``delta_a``:
    E_0 = H(q_0, p_0), and each step starts from the dq part of the warm start."""

    def step(state, _, z0):
        return avi_step(model, monitor, state, delta_a, cfg, None if z0 is None else z0[:-1])

    return replace(state0, E=model.hamiltonian(state0.q, state0.p)), step, delta_a


# -- fixed-step implicit midpoint (Lagrangian form) -------------------------------


def midpoint_fixed_step(model: LagrangianModel, state: ExtendedState, h, cfg: SolverConfig):
    """One fixed-step variational midpoint step: :func:`avi_step` with the
    unit monitor (da = h), whose explicit-Euler start is then h M^{-1} p_k;
    E is reported as H(q, p)."""
    check_finite(h, "h must be positive and finite, got {}")
    return avi_step(model, _UNIT, state, h, cfg)


def midpoint_fixed_run(model, state0, h, T_final, cfg=None) -> Trajectory:
    """Fixed-step run until t >= T_final: bit for bit the unit-monitor
    :func:`avi_run` with ``h0=h``, warm-started after the first step."""
    state0, cfg = _run_config(model, state0, T_final, cfg, h=h)
    return _march(model, "midpoint_fixed", lambda state0, _: _avi_start(model, _UNIT, state0, h, cfg),
                  state0, T_final, cfg, h0=float(h))


# -- dense reference solution --------------------------------------------------------


class ReferenceSolution:
    """Dense reference trajectory of Hamilton's equations, evaluable at
    arbitrary times within the solved span.

    ``sol`` is the dense evaluator t -> stacked (q, p): the exact flow of a
    bound Kepler start (:func:`_kepler_flow`), else RK45's quartic
    dense-output interpolant.
    """

    def __init__(self, model, t0, t1, sol):
        self.t_min = t0
        self.t_max = t1
        self._sol = sol
        self.n = model.n

    def eval(self, t):
        """(q, p) at physical time t (vectorized over an array of times); a
        time outside the span, nan included, is a :class:`ConfigurationError`."""
        t_arr = np.asarray(t, dtype=float)
        if not np.all((t_arr >= self.t_min - 1e-12) & (t_arr <= self.t_max + 1e-12)):
            raise ConfigurationError(
                f"query time outside the reference span [{self.t_min}, {self.t_max}]"
            )
        y = self._sol(np.clip(t_arr, self.t_min, self.t_max))
        return y[: self.n], y[self.n:]


#: The shortest step before the last, as a fraction of the span, that the
#: reference solve accepts.
REFERENCE_MIN_STEP = 1e-12


def reference_solve(model, state0: ExtendedState, T_final) -> ReferenceSolution:
    """Reference solution of Hamilton's equations from ``state0`` to
    ``T_final``, in double: the exact flow for a bound Kepler start (H < 0),
    else :func:`_runge_kutta`."""
    model = model.double
    _check_span(model, state0, T_final)  # RK45 never returns on a nan right-hand side or span
    t0, t1 = float(state0.t), float(T_final)
    q0, p0 = np.asarray(state0.q, dtype=float), np.asarray(state0.p, dtype=float)
    if isinstance(model, KeplerTwoBody):
        H = model.hamiltonian(q0, p0)
        if H < 0:
            return ReferenceSolution(model, t0, t1, _kepler_flow(q0, p0, t0, -2 * H))
    return ReferenceSolution(model, t0, t1, _runge_kutta(model, t0, t1, np.concatenate([q0, p0])))


def _runge_kutta(model, t0, t1, y0):
    """RK45's dense solution from y0 = (q0, p0) at t0 to t1, at relative
    tolerance 1e-12 and absolute tolerance 1e-14; loads ``scipy.integrate``.

    Raises :class:`StiffnessError` when RK45 fails or accepts a step, other
    than the last, shorter than :data:`REFERENCE_MIN_STEP` of the span.
    """
    from scipy.integrate import RK45, OdeSolution  # loaded on the first solve, not by `import varint`
    n = model.n

    def rhs(t, y):
        q, p = y[:n], y[n:]
        return np.concatenate([model.inverse_mass_times(p), np.negative(model.potential_gradient(q))])

    # the loop of solve_ivp, which has no floor on the step; an overflow in
    # RK45's first-step or error norms is judged by the step floor, not warned of
    with np.errstate(over="ignore"):
        solver = RK45(rhs, t0, y0, t1, rtol=1e-12, atol=1e-14)
        ts, pieces = [t0], []
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise StiffnessError(f"reference solver failed: {message}")
            h = solver.t - solver.t_old
            if solver.status == "running" and h < REFERENCE_MIN_STEP * (t1 - t0):
                raise StiffnessError(f"reference step {h:.3e} at t = {solver.t_old:.6g} is below "
                                     f"{REFERENCE_MIN_STEP:g} of the span")
            ts.append(solver.t)
            pieces.append(solver.dense_output())
    return OdeSolution(ts, pieces)


def _kepler_flow(q0, p0, t0, inv_a) -> Callable:
    """The exact Kepler flow from (q0, p0) at t0 on the ellipse of semi-major
    axis a = 1/inv_a, as the evaluator t -> stacked (q, p).

    Lagrange's f and g (Danby, Fundamentals of Celestial Mechanics, 1988,
    ch. 6): q = f q0 + g p0 and p = f' q0 + g' p0, with x = E - E0 the
    change of the eccentric anomaly, r = a (1 - ec cos x + es sin x) and

        f = 1 - (a/r0)(1 - cos x),        g = r0 sqrt(a) sin x + s0 a (1 - cos x),
        f' = -sqrt(a) sin x / (r r0),     g' = 1 - (a/r)(1 - cos x),

    where s0 = q0'p0, ec = 1 - r0/a = e cos E0 and es = s0/sqrt(a) = e sin E0.
    Each depends on x only through sin x and cos x, so x is solved for the
    mean anomaly n (t - t0) reduced modulo 2 pi (:func:`_kepler_anomaly`).
    At t0, x = 0 gives f = g' = 1 and g = f' = 0: the start comes back bit
    for bit, with no perifocal frame and no special case for a circle.
    """
    r0, s0, root = math.hypot(*q0), sum(map(mul, q0.tolist(), p0.tolist())), math.sqrt(inv_a)
    a, sqrt_a, n = 1 / inv_a, 1 / root, inv_a * root
    ec, es = 1 - r0 * inv_a, s0 * root

    def flow(t):
        x = _kepler_anomaly(np.mod(n * (t - t0), 2 * math.pi), ec, es)
        sin, cos = np.sin(x), np.cos(x)
        one_cos = 1 - cos
        r = a * (1 - ec * cos + es * sin)
        f, g = 1 - a / r0 * one_cos, r0 * sqrt_a * sin + s0 * a * one_cos
        fdot, gdot = -sqrt_a * sin / (r * r0), 1 - a / r * one_cos
        return np.concatenate([np.multiply.outer(q0, f) + np.multiply.outer(p0, g),
                               np.multiply.outer(q0, fdot) + np.multiply.outer(p0, gdot)])

    return flow


#: Newton iterations of :func:`_kepler_anomaly` after which Kepler's equation
#: counts as unsolved; the bracket alone halves 4e below 1e-16 in 56.
_KEPLER_MAX_ITER = 64


def _kepler_anomaly(m, ec, es):
    """The x with F(x) = x - ec sin x + es (1 - cos x) = m, for m in
    [0, 2 pi] (an array), by Newton's method kept inside a shrinking bracket.

    F is Kepler's equation E - e sin E = M written in x = E - E0: it
    increases (F' = 1 - e cos E >= 1 - e > 0 for e = hypot(ec, es) < 1),
    and F(x) - x = e (sin E0 - sin E) lies in [-2e, 2e], so the root lies
    in [m - 2e, m + 2e].  Newton starts from x = m, and a step that leaves
    the bracket is replaced by its midpoint.  Once every |F(x) - m| is below
    4e-14 (the terms of F are below 9, so their rounding is near 1e-15) one
    more Newton step is returned: its error is the rounding of F over F',
    up to 1e-13 at perihelion for e = 0.99.  m = 0 gives x = 0 exactly.
    """
    e = math.hypot(ec, es)
    x, lo, hi = m, m - 2 * e, m + 2 * e
    for _ in range(_KEPLER_MAX_ITER):
        sin, cos = np.sin(x), np.cos(x)
        residual = x - ec * sin + es * (1 - cos) - m
        step = x - residual / (1 - ec * cos + es * sin)
        if np.all(np.abs(residual) <= 4e-14):
            return step
        lo, hi = np.where(residual < 0, x, lo), np.where(residual > 0, x, hi)
        x = np.where((lo <= step) & (step <= hi), step, (lo + hi) / 2)
    raise StiffnessError(f"Kepler's equation unsolved after {_KEPLER_MAX_ITER} iterations")
