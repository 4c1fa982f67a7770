"""Property tests over random inputs: the paper's invariants and the CSV format.

Hypothesis draws the inputs; ``derandomize=True`` fixes the draws so a
Tier-1 run is deterministic, and no example database is written.
"""

import csv
import tempfile
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from varint import KeplerTwoBody, SolverConfig, epavi_run, kepler_initial_state, with_precision
from varint.diagnostics import write_csv
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
