"""Property tests of the paper's invariants over random inputs.

Hypothesis draws the inputs; ``derandomize=True`` fixes the draws so a
Tier-1 run is deterministic, and no example database is written.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from varint import KeplerTwoBody, SolverConfig, epavi_run, kepler_initial_state, with_precision

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
    with ctx.activate():
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
