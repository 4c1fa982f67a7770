"""Property tests over random inputs: the paper's invariants and the CSV format.

Hypothesis draws the inputs; ``derandomize=True`` fixes the draws so a
Tier-1 run is deterministic, and no example database is written.
"""

import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from varint import (
    KeplerTwoBody,
    SolverConfig,
    epavi_run,
    epavi_step,
    initial_discrete_energy,
    kepler_initial_state,
    midpoint_fixed_step,
    with_precision,
)
from varint.diagnostics import write_csv
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
    # format carries enough digits that parse recovers every bit
    ctx = with_precision(digits)
    x = ctx.real(numerator) / ctx.real(denominator) * ctx.real(10) ** exponent
    assert ctx.parse(ctx.format(x)) == x


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


def _mpf(pair):
    numerator, denominator = pair
    with mpmath.mp.workdps(40):
        return mpmath.mpf(numerator) / denominator


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
    st.floats().map(mpmath.mpf),
    st.tuples(st.integers(-(10 ** 30), 10 ** 30), st.integers(1, 10 ** 30)).map(_mpf),
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
