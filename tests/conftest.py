"""Shared fixtures: the long Kepler runs are computed once per session.
Also the bit-for-bit comparison of context scalars that several test modules
use, and the helpers only tests call: the Lagrangian, the midpoint discrete
Lagrangian, a linear time profile, a trajectory built from given states and
step records, a reference state and the summary reader."""

import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from varint import (
    ConfigurationError,
    KeplerTwoBody,
    SolverConfig,
    avi_run,
    epavi_run,
    kepler_initial_state,
    make_monitor,
    reference_solve,
    with_precision,
)

from varint.bea import TimeProfile
from varint.integrators import Trajectory, _step_length
from varint.models import ExtendedState
from varint.precision import DOUBLE

PERIOD = 2 * math.pi


def lagrangian(model, q, v):
    """L(q, v) = v'Mv/2 - V(q) of an array velocity."""
    return (v * model.mass_times(v)).sum() / 2 - model.potential(q)


def discrete_lagrangian_midpoint(model, t_k, q_k, t_k1, q_k1):
    """(t_{k+1} - t_k) * L(midpoint configuration, difference velocity), of
    array configurations."""
    h = _step_length(t_k, t_k1)
    return h * lagrangian(model, (q_k + q_k1) / 2, (q_k1 - q_k) / h)


class LinearProfile(TimeProfile):
    """t(a) = rate a."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ConfigurationError("profile rate must be positive")
        self.rate = rate
        self.label = f"t={rate}a"

    def value(self, a):
        return self.rate * a

    def d1(self, a):
        return self.rate

    def d2(self, a):
        return 0.0


def trajectory(states, steps, meta) -> Trajectory:
    """The double-precision trajectory from ``states[0]`` through the other
    states, each reached by its step record in ``steps``."""
    traj = Trajectory(states[:1], DOUBLE, meta)
    for state, record in zip(states[1:], steps, strict=True):
        traj.append(state, record)
    return traj


def reference_state(reference, model, t) -> ExtendedState:
    """The reference's state at time t, q and p as tuples and E = H(q, p)
    in double."""
    q, p = (tuple(x.tolist()) for x in reference.eval(float(t)))
    return ExtendedState(t=float(t), q=q, p=p, E=model.double.hamiltonian(q, p))


def read_summary(path) -> dict:
    """The key=value lines of a summary.txt as a dict of strings.  A run's
    summary (one with an integrator) is held to the outcome rule on the way:
    it has an error line exactly when it has success=False."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            out[key] = val
    if "integrator" in out:
        assert ("error" in out) == (out["success"] == "False"), out
    return out


def typed_bits(ctx, x):
    """Every bit of a context scalar, or of each component of an array or a
    (nested) list or tuple of them, as a string, asserting that each is of
    the context's scalar type: a float (numpy's float64 is one), or a
    ``Decimal`` of at most the working digits, which ``str`` writes exactly
    (sign, coefficient and exponent)."""
    if isinstance(x, (np.ndarray, list, tuple)):
        return [typed_bits(ctx, c) for c in x]
    if ctx.is_native:
        assert isinstance(x, float), type(x)
        return float(x).hex()
    assert type(x) is Decimal and len(x.as_tuple().digits) <= ctx.working_dps, repr(x)
    return str(x)


def _kepler_run(integrator, e, h0=1e-3, tol=None, digits=16, T=PERIOD):
    ctx = with_precision(digits)
    model = KeplerTwoBody(ctx)
    state0 = kepler_initial_state(e, ctx)
    cfg = SolverConfig.for_context(ctx, **({"tol": tol} if tol else {}))
    if integrator == "epavi":
        return epavi_run(model, state0, ctx.real(h0), T, cfg)
    monitor = make_monitor(integrator, model, state0)
    return avi_run(model, monitor, state0, T, cfg, h0=ctx.real(h0))


@pytest.fixture(scope="session")
def epavi_e07(request):
    return _kepler_run("epavi", 0.7, tol=1e-15)


@pytest.fixture(scope="session")
def epavi_e01(request):
    return _kepler_run("epavi", 0.1, tol=1e-15)


@pytest.fixture(scope="session")
def avi1_e07(request):
    return _kepler_run("g1", 0.7, tol=1e-13)


@pytest.fixture(scope="session")
def avi2_e07(request):
    return _kepler_run("g2", 0.7, tol=1e-13)


@pytest.fixture(scope="session")
def avi1_e01(request):
    return _kepler_run("g1", 0.1, tol=1e-13)


@pytest.fixture(scope="session")
def avi2_e01(request):
    return _kepler_run("g2", 0.1, tol=1e-13)


@pytest.fixture(scope="session")
def epavi_e07_h01(request):
    return _kepler_run("epavi", 0.7, h0=1e-2, tol=1e-15)


@pytest.fixture(scope="session")
def avi2_e07_h01(request):
    return _kepler_run("g2", 0.7, h0=1e-2, tol=1e-13)


@pytest.fixture(scope="session")
def epavi_e07_tol12(request):
    return _kepler_run("epavi", 0.7, tol=1e-12)


@pytest.fixture(scope="session")
def avi1_e07_tol12(request):
    return _kepler_run("g1", 0.7, tol=1e-12)


@pytest.fixture(scope="session")
def avi2_e07_tol12(request):
    return _kepler_run("g2", 0.7, tol=1e-12)


@pytest.fixture(scope="session")
def vpa_double_tol15(epavi_e07_h01):
    # double-precision leg of the variable-precision study (h0 = 0.01 run)
    return epavi_e07_h01


@pytest.fixture(scope="session")
def vpa_extended_tol17(request):
    return _kepler_run("epavi", 0.7, h0=1e-2, tol=1e-17, digits=18)


@pytest.fixture(scope="session")
def reference_e01(request):
    return reference_solve(KeplerTwoBody(), kepler_initial_state(0.1), PERIOD)


@pytest.fixture(scope="session")
def reference_e07(request):
    return reference_solve(KeplerTwoBody(), kepler_initial_state(0.7), PERIOD)
