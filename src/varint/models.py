"""Problem definitions: Kepler two-body and 1-DOF separable mechanical systems.

All models are separable with a constant diagonal mass M = diag(m_1, ...,
m_n):  L(q, v) = v'Mv/2 - V(q)  and  H(q, p) = p'M^{-1}p/2 + V(q).  The masses
and their reciprocals are context scalars, so M^{-1} carries the run's digits.
Each model writes V and each of its derivatives once, on a sequence of
context scalars, and returns a context scalar, a list, or a matrix as a
list of rows.  Models are immutable after construction and safe for shared
reads.  What a model or a start state holds is computed under its context's
arithmetic (:meth:`~varint.precision.PrecisionContext.arithmetic`), so it
does not depend on the caller's decimal context; the methods compute in the
context the caller holds, which a run sets.  A state is an
:class:`ExtendedState`, a slotted dataclass that is not frozen: each step
makes a new one, and none is changed after it is made.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Optional

import numpy as np

from .errors import ConfigurationError, SingularityError, UnsupportedOrderError, check_finite
from .precision import DOUBLE, PrecisionContext, Real

#: Reject configurations closer to the gravitational singularity than this;
#: trajectories in scope never approach collision, so hitting the guard
#: indicates solver divergence.
KEPLER_RADIUS_GUARD = 1e-8


@dataclass(slots=True)
class ExtendedState:
    """One point of the extended discrete trajectory: (t, q, p, E), with q
    and p tuples of context scalars.  The runs bring a start given with other
    sequences (arrays, say) into this form once, before the first step.  Not
    frozen: a frozen dataclass sets each field through ``object.__setattr__``,
    which doubles the cost of the state that every step builds."""

    t: Real
    q: tuple
    p: tuple
    E: Real

    def validate(self, n: Optional[int] = None) -> "ExtendedState":
        if len(self.q) != len(self.p):
            raise ConfigurationError("q and p must have equal dimension")
        if n is not None and len(self.q) != n:
            raise ConfigurationError(f"state dimension {len(self.q)} != model dimension {n}")
        for x in (self.t, self.E, *self.q, *self.p):
            check_finite(x, "state has non-finite components", -np.inf)
        return self


class LagrangianModel:
    """Base class: a constant diagonal mass and the potential with its
    derivatives.  ``masses`` holds m_1, ..., m_n and ``inverse_masses`` their
    reciprocals 1/m_i, formed in the context's arithmetic, both as tuples of
    context scalars.  A model's constructor takes its ``params`` as
    keywords, plus ``ctx``: :attr:`double` rebuilds the model from them."""

    name: str = "model"

    def __init__(self, masses, ctx: PrecisionContext = DOUBLE):
        for m in masses:
            check_finite(m, f"{self.name} mass m must lie in (0, inf), got {{}}")
        self.n = len(masses)
        self.ctx = ctx
        self.masses = tuple(map(ctx.real, masses))
        with ctx.arithmetic():
            self.inverse_masses = tuple(1 / m for m in self.masses)
        self.params: dict = {}

    @cached_property
    def double(self) -> "LagrangianModel":
        """This model in double precision: itself in a native context."""
        return self if self.ctx.is_native else type(self)(**self.params, ctx=DOUBLE)

    def initial_state(self, params: Optional[dict] = None) -> ExtendedState:
        """Canonical start of a 1-DOF model: t = 0, q = q0 (default 1) and
        p = p0 (default 0), from ``params``; other keys are ignored."""
        params = params or {}
        q0, p0 = params.get("q0", 1.0), params.get("p0", 0.0)
        check_finite(q0, "state has non-finite components: q0 = {}", -np.inf)
        check_finite(p0, "state has non-finite components: p0 = {}", -np.inf)
        ctx = self.ctx
        q, p = (ctx.real(q0),), (ctx.real(p0),)
        with ctx.arithmetic():
            return ExtendedState(t=ctx.real(0), q=q, p=p, E=self.hamiltonian(q, p))

    def mass_times(self, v) -> list:
        """M v of a sequence of context scalars, as a list."""
        return [m * x for m, x in zip(self.masses, v)]

    def inverse_mass_times(self, p) -> list:
        """M^{-1} p of a sequence of context scalars, as a list."""
        return [w * x for w, x in zip(self.inverse_masses, p)]

    # potential interface -----------------------------------------------------

    def potential(self, q) -> Real:
        raise NotImplementedError

    def potential_gradient(self, q) -> list:
        raise NotImplementedError

    def potential_hessian(self, q) -> list:
        raise NotImplementedError

    # The pair methods serve the step kernel's midpoint from one call: V with
    # grad V for the residuals, grad V with hess V for the Jacobians.  These
    # defaults call the single methods; Kepler forms each pair on one radius.

    def potential_and_gradient(self, q):
        """(V(q), grad V(q)) in one call: a scalar and a list."""
        return self.potential(q), self.potential_gradient(q)

    def potential_gradient_and_hessian(self, q):
        """(grad V(q), Hessian of V(q)) in one call: a list and a list of rows."""
        return self.potential_gradient(q), self.potential_hessian(q)

    def potential_third(self, q) -> Real:
        """Third derivative; only defined for 1-DOF models."""
        raise UnsupportedOrderError(f"third potential derivative unavailable for {self.name}")

    # energies ---------------------------------------------------------------

    def hamiltonian(self, q, p) -> Real:
        """p'M^{-1}p/2 + V(q) of sequences q and p, the sum from 0 in index order."""
        return sum(map(mul, p, self.inverse_mass_times(p))) / 2 + self.potential(q)

    def hamiltonian_rows(self, Q, P) -> list:
        """H(q, p) at each row of the (N, n) arrays Q and P, as a list: one
        :meth:`hamiltonian` call per row."""
        return [self.hamiltonian(q, p) for q, p in zip(Q, P)]


class KeplerTwoBody(LagrangianModel):
    """Planar two-body problem, H = (p1^2 + p2^2)/2 - 1/sqrt(q1^2 + q2^2)."""

    name = "kepler"

    def __init__(self, ctx: PrecisionContext = DOUBLE):
        super().__init__((1.0, 1.0), ctx)
        self._guard = ctx.real(KEPLER_RADIUS_GUARD)

    def mass_times(self, v):
        """M v = v for unit masses: ``1.0 * x`` is ``x`` in every bit."""
        return v

    def inverse_mass_times(self, p):
        """M^{-1} p = p, as :meth:`mass_times`."""
        return p

    def _radius(self, q) -> Real:
        r = self.ctx.sqrt(q[0] * q[0] + q[1] * q[1])
        if r < self._guard:
            raise SingularityError(f"|q| = {r} below collision guard {KEPLER_RADIUS_GUARD}")
        return r

    def potential(self, q) -> Real:
        return -1 / self._radius(q)

    def potential_gradient(self, q) -> list:
        return self.potential_and_gradient(q)[1]

    def potential_and_gradient(self, q):
        r = self._radius(q)
        r3 = r ** 3
        return -1 / r, [q[0] / r3, q[1] / r3]

    def hamiltonian_rows(self, Q, P) -> list:
        """In double one stacked evaluation of :meth:`hamiltonian`, bit for
        bit its per-row values: np.sqrt rounds correctly, as math.sqrt does."""
        if not self.ctx.is_native:
            return super().hamiltonian_rows(Q, P)
        r = np.sqrt(Q[:, 0] * Q[:, 0] + Q[:, 1] * Q[:, 1])
        inside = r[r < self._guard]
        if inside.size:
            raise SingularityError(f"|q| = {inside[0]} below collision guard {KEPLER_RADIUS_GUARD}")
        return ((P[:, 0] * P[:, 0] + P[:, 1] * P[:, 1]) / 2 + -1 / r).tolist()

    def potential_hessian(self, q) -> list:
        return self.potential_gradient_and_hessian(q)[1]

    def potential_gradient_and_hessian(self, q):
        """grad_i = q_i / r^3 and hess_ij = delta_ij / r^3 - 3 (q_i q_j) / r^5,
        one radius for both; delta_ij / r^3 is also formed off the diagonal,
        as 0 / r^3, so a zero q_i q_j leaves +0.0 there."""
        r = self._radius(q)
        q0, q1 = q
        r3, r5 = r ** 3, r ** 5
        off = 0 / r3 - 3 * (q0 * q1) / r5
        return [q0 / r3, q1 / r3], [[1 / r3 - 3 * (q0 * q0) / r5, off], [off, 1 / r3 - 3 * (q1 * q1) / r5]]

    def initial_state(self, params: Optional[dict] = None) -> ExtendedState:
        """Perihelion start for e = ``params["e"]`` (default 0.1): q = (1-e, 0)
        and p = (0, sqrt((1+e)/(1-e))), energy -1/2 and period 2*pi for every e."""
        e = (params or {}).get("e", 0.1)
        check_finite(e, "eccentricity must lie in [0, 1), got {}", inclusive=True, upper=1)
        ctx = self.ctx
        one, ev, zero = ctx.real(1), ctx.real(e), ctx.real(0)
        with ctx.arithmetic():
            q = (one - ev, zero)
            p = (zero, ctx.sqrt((one + ev) / (one - ev)))
            return ExtendedState(t=ctx.real(0), q=q, p=p, E=self.hamiltonian(q, p))


class HarmonicOscillator(LagrangianModel):
    """1-DOF oscillator, V = k q^2 / 2.  k = 0 gives a free particle."""

    name = "oscillator"

    def __init__(self, k: float = 1.0, m: float = 1.0, ctx: PrecisionContext = DOUBLE):
        super().__init__((m,), ctx)
        check_finite(k, "oscillator stiffness k must be finite, got {}", -np.inf)
        self.k = ctx.real(k)
        self.params = {"k": k, "m": m}

    def potential(self, q) -> Real:
        return self.k * q[0] ** 2 / 2

    def potential_gradient(self, q) -> list:
        return [q[0] * self.k]

    def potential_hessian(self, q) -> list:
        return [[self.k]]

    def potential_third(self, q) -> Real:
        return self.ctx.real(0)


class Pendulum(LagrangianModel):
    """1-DOF pendulum, V = -cos(q); exercises a non-vanishing third derivative."""

    name = "pendulum"

    def __init__(self, m: float = 1.0, ctx: PrecisionContext = DOUBLE):
        super().__init__((m,), ctx)
        self.params = {"m": m}

    def potential(self, q) -> Real:
        return -self.ctx.cos(q[0])

    def potential_gradient(self, q) -> list:
        return [self.ctx.sin(q[0])]

    def potential_hessian(self, q) -> list:
        return [[self.ctx.cos(q[0])]]

    def potential_third(self, q) -> Real:
        return -self.ctx.sin(q[0])


# -- module-level operations --------------------------------------------------


def kepler_hamiltonian(q, p, ctx: PrecisionContext = DOUBLE) -> Real:
    """Energy ((p1)^2 + (p2)^2)/2 - 1/sqrt((q1)^2 + (q2)^2) of a Kepler state."""
    with ctx.arithmetic():
        return KeplerTwoBody(ctx).hamiltonian(ctx.array(q), ctx.array(p))


def kepler_initial_state(e: float, ctx: PrecisionContext = DOUBLE) -> ExtendedState:
    """Perihelion start of the eccentricity-e orbit (:meth:`KeplerTwoBody.initial_state`)."""
    return KeplerTwoBody(ctx).initial_state({"e": e})


def angular_momentum(q, p) -> Real:
    """Planar angular momentum Lz = q1 p2 - q2 p1."""
    return q[0] * p[1] - q[1] * p[0]


#: The models the CLI knows, by problem name.
MODELS = {cls.name: cls for cls in (KeplerTwoBody, HarmonicOscillator, Pendulum)}


def model_names():
    return sorted(MODELS)


def make_model(name: str, params: Optional[dict] = None, ctx: PrecisionContext = DOUBLE):
    """Build a model by its CLI problem name (:data:`MODELS`), passing it the
    ``params`` its constructor takes; the constructor's defaults fill the rest."""
    try:
        cls = MODELS[name]
    except KeyError:
        raise ConfigurationError(f"unknown problem {name!r}; known: {model_names()}") from None
    keys = inspect.signature(cls).parameters.keys() - {"ctx"}
    return cls(**{k: v for k, v in (params or {}).items() if k in keys}, ctx=ctx)
