"""Backward-error-analysis verification.

In the fictitious time a with a prescribed smooth monotone map t(a), the
adaptive scheme is a fixed-step variational integrator for the transformed
Lagrangian t'(a) L(q, q'/t').  The residual of the discrete equations on a
smooth curve, the second-order modified equation for 1-DOF separable
systems, and the associated modified Lagrangians are implemented here,
together with numerical order-of-accuracy estimation.

Residual scaling: the discrete Euler-Lagrange residual evaluated on
solutions of the leading-order equation is O(da^3); on solutions of the
second-order modified equation it is O(da^5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, NonMonotoneTimeError, StiffnessError, check_finite
from .integrators import discrete_partials_midpoint, reference_solve
from .models import LagrangianModel
from .precision import Real, inf_norm

#: Fictitious-step sweep of the order estimate, largest first.  The smallest
#: value keeps the O(da^5) residual of the modified solutions two decades
#: above the inner ODE solver noise.
DELTA_A_SWEEP = (0.32, 0.2263, 0.16, 0.1131, 0.08)

_INNER_RTOL = 1e-13
_INNER_ATOL = 1e-15


# -- time profiles ---------------------------------------------------------------


class TimeProfile:
    """Smooth map a -> t(a) with analytic derivatives to second order."""

    label = "profile"

    def value(self, a: float) -> float:
        raise NotImplementedError

    def d1(self, a: float) -> float:
        raise NotImplementedError

    def d2(self, a: float) -> float:
        raise NotImplementedError

    def check_monotone(self, a0: float, a1: float) -> None:
        """Raise unless t' > 0 at 257 equally spaced points of [a0, a1]; an
        end that is neither finite nor nan is a :class:`ConfigurationError`."""
        for end in (a0, a1):
            if end == end:  # a nan, a float's or a Decimal's, is unequal to itself and fails below
                check_finite(end, "profile span ends must be finite, got {}", -math.inf)
        for a in np.linspace(a0, a1, 257):
            if not self.d1(a) > 0:
                raise NonMonotoneTimeError(f"{self.label}: t'({a}) = {self.d1(a)} is not positive")


class IdentityProfile(TimeProfile):
    label = "t=a"

    def value(self, a):
        return a

    def d1(self, a):
        return 1.0

    def d2(self, a):
        return 0.0


class SineProfile(TimeProfile):
    """t(a) = a + c sin a, monotone for |c| < 1."""

    def __init__(self, c: float):
        check_finite(c, "sine profile needs |c| < 1 for monotonicity, got {}", -1, upper=1)
        self.c = c
        self.label = f"t=a+{c}sin(a)"

    def value(self, a):
        return a + self.c * math.sin(a)

    def d1(self, a):
        return 1.0 + self.c * math.cos(a)

    def d2(self, a):
        return -self.c * math.sin(a)


# -- jets and pointwise operations -------------------------------------------------


def _check_time_derivative(tp, owner: str):
    """A nan or non-positive t' raises NonMonotoneTimeError, any other non-finite one ConfigurationError."""
    if tp == tp:  # a nan t', unequal to itself, is not positive below
        check_finite(tp, f"{owner} needs a finite t', got {{}}", -math.inf)
    if not (tp == tp and tp > 0):
        raise NonMonotoneTimeError(f"{owner} has t' = {tp}, not positive")


@dataclass(frozen=True)
class Jet1D:
    """Curve data (q, q', t', t'') at one fictitious-time point.

    ``qpp`` extends the jet where an operation needs curvature of the
    configuration path.  A nan or non-positive t' is a :class:`NonMonotoneTimeError`,
    any other that is not finite a :class:`ConfigurationError`, as is a negative,
    nan, infinite or missing ``delta_a``; ``delta_a = 0`` gives the leading-order
    truncation.  The formulas take ``delta_a`` into the model's context
    (``ctx.real``), so a float or int step meets the extended scalars of the others.
    """

    q: Real
    qp: Real
    tp: Real
    tpp: Real
    delta_a: Real = 0.0
    qpp: Optional[Real] = None

    def __post_init__(self):
        _check_time_derivative(self.tp, "jet")
        check_finite(self.delta_a, "delta_a must be non-negative and finite, got {}", inclusive=True)


@dataclass(frozen=True)
class ResidualPair:
    """Discrete Euler-Lagrange residual (per configuration component) and
    discrete energy residual at an interior point."""

    psi_el: list
    psi_e: Real


def _require_1dof(model: LagrangianModel):
    if model.n != 1:
        raise ConfigurationError("this operation is defined for 1-DOF separable models")


def _derivs(model: LagrangianModel, q: Real):
    """(V, V_q, V_qq, V_qqq) of a 1-DOF model at the context scalar q."""
    q = [q]
    return (model.potential(q), model.potential_gradient(q)[0], model.potential_hessian(q)[0][0],
            model.potential_third(q))


def discrete_residual(model, prev: Tuple, mid: Tuple, nxt: Tuple) -> ResidualPair:
    """Residual of the discrete equations at the middle of three (t, q) points.

    ``psi_el`` sums the configuration partials of the two adjacent discrete
    Lagrangians at the middle point; ``psi_e`` sums the time partials.  In
    the transformed setting the discrete Lagrangian takes identical values
    to the physical midpoint L_d at the same points, so the fictitious step
    that spaced the points does not enter the value.
    """
    (t_m, q_m), (t_0, q_0), (t_p, q_p) = prev, mid, nxt
    q_m, q_0, q_p = (np.atleast_1d(x).tolist() for x in (q_m, q_0, q_p))
    if not (t_m < t_0 < t_p):
        raise NonMonotoneTimeError("points must have strictly increasing times")
    left = discrete_partials_midpoint(model, t_m, q_m, t_0, q_0)
    right = discrete_partials_midpoint(model, t_0, q_0, t_p, q_p)
    return ResidualPair(psi_el=[a + b for a, b in zip(left.d4, right.d2)], psi_e=right.d1 - left.d1)


def modified_rhs_order2(model: LagrangianModel, jet: Jet1D) -> Real:
    """q'' of the second-order modified equation in the transformed time.

    q'' = q' t''/t' - t'^2 V_q / m
        + (da^2 / 24m) (4 t'^4 V_q V_qq / m - 4 q' t' t'' V_qq - q'^2 t'^2 V_qqq)
    """
    _require_1dof(model)
    m = model.masses[0]
    _, Vq, Vqq, Vqqq = _derivs(model, jet.q)
    qp, tp, tpp, da = jet.qp, jet.tp, jet.tpp, model.ctx.real(jet.delta_a)
    leading = qp * tpp / tp - tp ** 2 * Vq / m
    correction = (da ** 2 / (24 * m)) * (
        4 * tp ** 4 * Vq * Vqq / m - 4 * qp * tp * tpp * Vqq - qp ** 2 * tp ** 2 * Vqqq
    )
    return leading + correction


def modified_lagrangian_mod3(model: LagrangianModel, q, qp, tp, delta_a) -> Real:
    """Truncated modified Lagrangian (first-derivative data only).

    t' (m (q'/t')^2 / 2 - V) + (da^2 / 24) (t'^3 V_q^2 / m + q'^2 t' V_qq)
    """
    _require_1dof(model)
    _check_time_derivative(tp, "modified Lagrangian")
    m, da = model.masses[0], model.ctx.real(delta_a)
    V, Vq, Vqq, _ = _derivs(model, q)
    leading = tp * (m * (qp / tp) ** 2 / 2 - V)
    return leading + (da ** 2 / 24) * (tp ** 3 * Vq ** 2 / m + qp ** 2 * tp * Vqq)


def meshed_lagrangian_order2(model: LagrangianModel, jet: Jet1D) -> Real:
    """Second-order meshed modified Lagrangian (needs q'' in the jet)."""
    _require_1dof(model)
    if jet.qpp is None:
        raise ConfigurationError("meshed evaluation needs q'' in the jet")
    m = model.masses[0]
    V, Vq, Vqq, _ = _derivs(model, jet.q)
    qp, qpp, tp, tpp, da = jet.qp, jet.qpp, jet.tp, jet.tpp, model.ctx.real(jet.delta_a)
    leading = tp * (m * (qp / tp) ** 2 / 2 - V)
    second = (
        -m * qpp ** 2 / tp
        + 2 * m * qp * qpp * tpp / tp ** 2
        - m * qp ** 2 * tpp ** 2 / tp ** 3
        + 2 * qp * tpp * Vq
        + qp ** 2 * tp * Vqq
        - 2 * qpp * tp * Vq
    )
    return leading + (da ** 2 / 24) * second


# -- order-of-accuracy estimation ----------------------------------------------------


def _transformed_rhs_1dof(model, profile, delta_a, use_modified):
    def rhs(a, y):
        jet = Jet1D(
            q=y[0], qp=y[1],
            tp=profile.d1(a), tpp=profile.d2(a),
            delta_a=delta_a if use_modified else 0.0,
        )
        return [y[1], modified_rhs_order2(model, jet)]

    return rhs


@dataclass
class OrderEstimate:
    """Least-squares slopes of log residual norm against log delta_a."""

    slope: float
    slope_energy: float
    samples: List[Tuple[float, float, float]]  # (delta_a, |psi_el|_inf, |psi_e|_inf)


def residual_order_estimate(
    model: LagrangianModel,
    profile: TimeProfile,
    use_modified: bool,
) -> OrderEstimate:
    """Numerical order of the discrete residual on smooth solution families.

    For each fictitious step of :data:`DELTA_A_SWEEP`, integrates the
    leading-order equation (flag off) or the second-order modified equation
    (flag on) against the given time profile over the window a in [0, 2 pi]
    from (q, q') = (1, 0), samples centred triples at 10 interior points (a
    margin of 2 da is excluded at each end), and fits the slope of
    log |psi_el|_inf versus log da.  The psi_e slope is measured alongside
    and reported.
    """
    window = 2 * math.pi
    model = model.double
    _require_1dof(model)
    da_max = DELTA_A_SWEEP[0]
    profile.check_monotone(-da_max, window + da_max)
    from scipy.integrate import solve_ivp  # loaded on the first solve, not by `import varint`

    samples = []
    for da in DELTA_A_SWEEP:
        sol = solve_ivp(
            _transformed_rhs_1dof(model, profile, da, use_modified),
            (0.0, window), [1.0, 0.0],
            method="DOP853", rtol=_INNER_RTOL, atol=_INNER_ATOL, dense_output=True,
        )
        if not sol.success:
            raise StiffnessError(f"inner solve failed at delta_a={da}: {sol.message}")
        el_max, e_max = 0.0, 0.0
        for a in np.linspace(2 * da, window - 2 * da, 10):
            pts = [
                (profile.value(x), sol.sol(x)[0]) for x in (a - da, a, a + da)
            ]
            pair = discrete_residual(model, *pts)
            el_max = max(el_max, float(inf_norm(pair.psi_el)))
            e_max = max(e_max, abs(float(pair.psi_e)))
        samples.append((da, el_max, e_max))

    logs = np.log(np.asarray(samples, dtype=float))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    slope_e = float(np.polyfit(logs[:, 0], logs[:, 2], 1)[0])
    return OrderEstimate(slope=slope, slope_energy=slope_e, samples=samples)


def lemma1_reparametrization_check(
    model: LagrangianModel,
    profile: TimeProfile,
    state0,
    T: float,
) -> float:
    """Max deviation between the transformed-time solution and the
    reparametrized physical solution.

    Integrates the transformed Euler-Lagrange equation for q(a) with the
    prescribed t(a) and compares q(a) against q_phys(t0 + alpha(a)) with
    alpha(a) = t(a) - t(0); equality of trajectories makes the deviation
    solver-level small.
    """
    check_finite(T, "T must be positive and finite, got {}")
    model = model.double
    profile.check_monotone(0.0, T)
    n = model.n
    q0 = np.asarray(state0.q, dtype=float)
    v0 = np.array(model.inverse_mass_times([float(x) for x in state0.p]))

    def rhs(a, y):
        q, qp = y[:n], y[n:]
        tp, tpp = profile.d1(a), profile.d2(a)
        inv_m_grad = np.array(model.inverse_mass_times(model.potential_gradient(q)))
        return np.concatenate([qp, qp * tpp / tp - tp ** 2 * inv_m_grad])

    y0 = np.concatenate([q0, profile.d1(0.0) * v0])
    from scipy.integrate import solve_ivp  # loaded on the first solve, not by `import varint`
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853",
                    rtol=_INNER_RTOL, atol=_INNER_ATOL, dense_output=True)
    if not sol.success:
        raise StiffnessError(f"transformed solve failed: {sol.message}")

    alpha_T = profile.value(T) - profile.value(0.0)
    ref = reference_solve(model, state0, float(state0.t) + alpha_T)

    a_grid = np.linspace(0.0, T, 201)
    t_grid = float(state0.t) + np.array([profile.value(a) - profile.value(0.0) for a in a_grid])
    q_ref, _ = ref.eval(t_grid)
    return float(np.abs(sol.sol(a_grid)[:n] - q_ref).max())
