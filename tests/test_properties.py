"""Property tests over random inputs: the paper's invariants and the CSV format.

Hypothesis draws the inputs; ``derandomize=True`` fixes the draws so a
Tier-1 run is deterministic, and no example database is written.
"""

import csv
import math
import tempfile
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import mpmath
import numpy as np
from conftest import typed_bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varint import (
    HarmonicOscillator,
    KeplerTwoBody,
    Pendulum,
    SolverConfig,
    VarintError,
    epavi_run,
    epavi_step,
    initial_discrete_energy,
    kepler_initial_state,
    midpoint_fixed_step,
    with_precision,
)
from varint.diagnostics import write_csv
from varint.integrators import _UNIT, Monitor, _momentum_system
from varint.models import ExtendedState
from varint.precision import DOUBLE

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@settings(PROPERTY, max_examples=100)
@given(
    digits=st.integers(18, 40),
    numerator=st.integers(-(10 ** 40), 10 ** 40).filter(bool),
    denominator=st.integers(1, 10 ** 40),
    exponent=st.integers(-300, 300),
)
def test_extended_format_parse_round_trip(digits, numerator, denominator, exponent):
    # format carries enough digits that parse recovers every bit of a
    # value computed in the context's arithmetic
    ctx = with_precision(digits)
    with ctx.arithmetic():
        x = ctx.real(numerator) / ctx.real(denominator) * ctx.real(10) ** exponent
    assert ctx.real(ctx.format(x)) == x


def _ulp(x: Decimal, digits: int) -> Decimal:
    """The spacing of ``digits``-digit decimals at x's magnitude."""
    return Decimal(1).scaleb(x.adjusted() - digits + 1)


def _near_multiples_of_half_pi(test):
    """Add the 23-, 33- and 35-digit roundings of pi/2, pi and 3 pi/2 as
    examples: there the reduction x - k pi/2 cancels all but a few digits."""
    with mpmath.workdps(60):
        for digits, n in ((18, 23), (30, 33), (30, 35)):
            for k in (1, 2, 3):
                test = example(digits=digits, x=Decimal(mpmath.nstr(k * mpmath.pi / 2, n)))(test)
    return test


@settings(PROPERTY, max_examples=300)
@given(
    digits=st.sampled_from([18, 30]),
    x=st.one_of(st.floats(-8.0, 8.0), st.floats(-1e15, 1e15), st.floats(-1e-30, 1e-30),
                st.decimals(-10 ** 6, 10 ** 6, places=30)),
)
@_near_multiples_of_half_pi
def test_extended_cos_sin_sqrt_are_within_one_ulp_of_mpmath(digits, x):
    # decimal's sqrt is correctly rounded, and cos and sin, reduced by pi/2
    # and summed at extra digits (more where the reduction cancels), lie
    # within one unit in the last working digit of mpmath's values; mpmath
    # carries twice the working digits and 20 more, as x near k pi/2 loses
    # up to the working digits of its binary value to the cancellation
    ctx = with_precision(digits)
    d = ctx.real(x)
    with mpmath.workdps(2 * ctx.working_dps + 20):
        exact = mpmath.mpf(str(d))
        for got, want in ((ctx.cos(d), mpmath.cos(exact)), (ctx.sin(d), mpmath.sin(exact)),
                          (ctx.sqrt(d.copy_abs()), mpmath.sqrt(abs(exact)))):
            assert type(got) is Decimal and len(got.as_tuple().digits) <= ctx.working_dps
            assert abs(mpmath.mpf(str(got)) - want) <= mpmath.mpf(str(_ulp(got, ctx.working_dps))), (got, want)


@settings(PROPERTY, max_examples=50)
@given(e=st.floats(0.0, 0.9))
def test_epavi_energy_defect_per_step_within_ten_tol(e):
    # each EpAVI step conserves the discrete energy to the solve's
    # tolerance: the energy row of a converged or stalled solve is <= 10 tol
    cfg, h0 = SolverConfig(tol=1e-15), 1e-3
    traj = epavi_run(KeplerTwoBody(), kepler_initial_state(e), h0, 20 * h0, cfg)
    assert len(traj.steps) >= 18
    E = traj.energies()
    assert max(abs(b - a) for a, b in zip(E, E[1:])) <= 10 * cfg.tol


def _orbit_state(e, mean_anomaly):
    """The state at ``mean_anomaly`` on the perihelion-started orbit of
    eccentricity e (semi-major axis 1, period 2 pi), from Kepler's equation
    E - e sin E = M solved by Newton's method."""
    E = mean_anomaly
    for _ in range(60):
        E -= (E - e * math.sin(E) - mean_anomaly) / (1 - e * math.cos(E))
    s, d = math.sqrt(1 - e * e), 1 - e * math.cos(E)
    return ExtendedState(t=0.0, q=np.array([math.cos(E) - e, s * math.sin(E)]),
                         p=np.array([-math.sin(E) / d, s * math.cos(E) / d]), E=0.0)


def _back(state):
    """``state`` with its momentum negated: the start of the step back."""
    return replace(state, p=tuple(-x for x in state.p))


# e stays below 0.79, where the midpoint energy row loses its root (the fold)
_ORBIT = {"e": st.floats(0.0, 0.75), "mean_anomaly": st.floats(0.0, 2 * math.pi)}


@settings(PROPERTY, max_examples=100)
@given(**_ORBIT)
def test_fixed_midpoint_step_is_time_reversible(e, mean_anomaly):
    # a step from (q1, -p1) returns to (q0, -p0); over 2,000 seeded orbit
    # states (h = 1e-3, tol 1e-15) the largest miss was 4.4e-16
    model, cfg, h = KeplerTwoBody(), SolverConfig(tol=1e-15), 1e-3
    s0 = _orbit_state(e, mean_anomaly)
    s1, _ = midpoint_fixed_step(model, s0, h, cfg)
    s2, _ = midpoint_fixed_step(model, _back(s1), h, cfg)
    assert np.abs(np.subtract(s2.q, s0.q)).max() <= 1e-15
    assert np.abs(np.add(s2.p, s0.p)).max() <= 1e-15


@settings(PROPERTY, max_examples=100)
@given(**_ORBIT)
def test_epavi_step_is_time_reversible(e, mean_anomaly):
    # the step back from (q1, -p1) at the same discrete energy, guessing the
    # forward h, returns to (q0, -p0) with the same h.  The energy row pins h
    # only weakly (its h-derivative is O(h)), so over 2,000 seeded orbit
    # states (h0 = 1e-3, tol 1e-15) the largest misses were 2.9e-12 in q and
    # p and 5.8e-9 relative in h
    model, cfg, h0 = KeplerTwoBody(), SolverConfig(tol=1e-15), 1e-3
    s0 = _orbit_state(e, mean_anomaly)
    s0 = replace(s0, E=initial_discrete_energy(model, s0, h0, cfg))
    s1, forward = epavi_step(model, s0, h0, cfg)
    s2, back = epavi_step(model, _back(s1), forward.h, cfg)
    assert np.abs(np.subtract(s2.q, s0.q)).max() <= 1e-11
    assert np.abs(np.add(s2.p, s0.p)).max() <= 1e-11
    assert abs(back.h - forward.h) <= 2e-8 * forward.h


def _fmt(value, ctx):
    """One field as the CSV writer formatted it before rows became one
    %-template: the reference the template must match byte for byte."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return ctx.format(value)


def _decimal(pair):
    numerator, denominator = pair
    with localcontext(prec=40):
        return Decimal(numerator) / denominator


#: Labels, drawing often the characters that need csv quoting.
_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters()), max_size=8)

_FIELDS = st.one_of(
    st.floats(),  # nan, +-inf, +-0.0 and subnormals included
    st.sampled_from([0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -2.2250738585072e-308]),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.floats().map(Decimal),
    st.decimals(allow_nan=True).filter(lambda x: not x.is_snan()),
    st.tuples(st.integers(-(10 ** 30), 10 ** 30), st.integers(1, 10 ** 30)).map(_decimal),
    _TEXT,
)


@settings(PROPERTY, max_examples=150)
@given(
    digits=st.sampled_from([16, 18, 24]),
    header=st.lists(_TEXT, max_size=4),
    rows=st.lists(st.lists(_FIELDS, max_size=6), max_size=6),
)
def test_row_template_matches_csv_writer(digits, header, rows):
    # every row, in double and above it, reads as csv.writer wrote the
    # per-value strings, down to quoting and the CRLF line ends
    ctx = DOUBLE if digits == 16 else with_precision(digits)
    with tempfile.TemporaryDirectory() as tmp:
        expected, written = Path(tmp) / "expected.csv", Path(tmp) / "written.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v, ctx) for v in row])
        write_csv(written, header, rows, ctx)
        assert written.read_bytes() == expected.read_bytes()


# -- the unit monitor -------------------------------------------------------------

#: g = 1 written out as a monitor like any other: the momentum system then
#: multiplies h by 1 and adds the rank-one term c (da/2) 0 to its Jacobian.
_EXPLICIT_ONE = Monitor("one", lambda q, V, dV: 1, lambda q, g, dV, d2V: [0 * x for x in q])

#: Coordinates with zeros of both signs, negatives and subnormals among them.
_COORDINATE = st.one_of(st.floats(-1.7, 1.7), st.floats(-2.3e-308, 2.3e-308))


@st.composite
def _unit_monitor_cases(draw):
    """(model, state, dq, delta_a): Kepler beyond its collision guard, the
    oscillator with k = 0 among its stiffnesses, and the pendulum with q
    beyond pi/2, where its hess V = cos q is negative."""
    ctx = with_precision(draw(st.sampled_from([16, 18])))
    name = draw(st.sampled_from(["kepler", "oscillator", "pendulum"]))
    if name == "kepler":
        model = KeplerTwoBody(ctx)
        radius = draw(st.floats(0.3, 1.7)) * draw(st.sampled_from([1, -1]))
        q = [radius, draw(_COORDINATE)][::draw(st.sampled_from([1, -1]))]
    elif name == "oscillator":
        model = HarmonicOscillator(draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0))), draw(st.floats(0.1, 4.0)), ctx)
        q = [draw(_COORDINATE)]
    else:
        model = Pendulum(draw(st.floats(0.1, 4.0)), ctx)
        q = [draw(st.one_of(_COORDINATE, st.floats(-4.0, 4.0)))]
    n = model.n
    p = draw(st.lists(_COORDINATE, min_size=n, max_size=n))
    dq = draw(st.lists(_COORDINATE.map(lambda x: x / 16), min_size=n, max_size=n))
    state = ExtendedState(t=ctx.real(0), q=tuple(map(ctx.real, q)), p=tuple(map(ctx.real, p)), E=ctx.real(0))
    return model, state, [ctx.real(x) for x in dq], ctx.real(draw(st.floats(1e-4, 0.5)))


def _system_bits(model, monitor, state, dq, delta_a):
    """The bits of the momentum system's residual and kernel at dq and of
    its Jacobian there, or the type of the error the residual raises and None."""
    residual, jacobian = _momentum_system(model, monitor, state, delta_a)
    with model.ctx.arithmetic():  # the run's
        try:
            F, kernel = residual(dq)
        except VarintError as exc:
            return type(exc), None
    return typed_bits(model.ctx, [F, kernel]), typed_bits(DOUBLE, jacobian(dq, kernel))


def _subnormal_kepler_case(digits):
    """Kepler at q = (1, 5e-324), at rest, dq = 0: the Hessian's off-diagonal
    -3 q0 q1 / r^5 times h/4 rounds to -0.0."""
    ctx = with_precision(digits)
    zero = ctx.real(0)
    state = ExtendedState(t=zero, q=(ctx.real(1), ctx.real(5e-324)), p=(zero, zero), E=zero)
    return KeplerTwoBody(ctx), state, [zero, zero], ctx.real(0.01)


@settings(PROPERTY, max_examples=400)
@given(case=_unit_monitor_cases())
@example(case=_subnormal_kepler_case(16))
@example(case=_subnormal_kepler_case(18))
def test_unit_monitor_system_is_the_explicit_unit_monitors_bit_for_bit(case):
    # the unit monitor's system builds no g and adds no rank-one term.  Its
    # residual and kernel are bit for bit those of g = 1 written out, and so
    # is its Jacobian, zero signs included, but for one case: an entry of
    # A = M/h + (h/4) hess V that is -0.0 (an off-diagonal rounded to zero
    # from below, as in the pinned examples) stays -0.0, where adding the
    # explicit term's +0.0 made it +0.0.  Equal as numbers either way.
    model, state, dq, delta_a = case
    unit_F, unit_J = _system_bits(model, _UNIT, state, dq, delta_a)
    one_F, one_J = _system_bits(model, _EXPLICIT_ONE, state, dq, delta_a)
    assert unit_F == one_F
    if unit_J is not None:
        for unit_row, one_row in zip(unit_J, one_J, strict=True):
            for unit, one in zip(unit_row, one_row, strict=True):
                assert unit == one or (unit, one) == ("-0x0.0p+0", "0x0.0p+0")
