import hashlib
import math
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from conftest import reference_state, trajectory, typed_bits

from varint import (
    ConfigurationError,
    HarmonicOscillator,
    KeplerTwoBody,
    SingularityError,
    SolverConfig,
    Trajectory,
    energy_error_series,
    hamiltonian_error_series,
    kepler_initial_state,
    midpoint_fixed_run,
    reference_solve,
    telescoping_bound_check,
    timestep_stats,
    trajectory_error,
)
from varint.diagnostics import write_error_series_csv, write_stats_csv, write_trajectory_csv
from varint.integrators import StepRecord
from varint.models import ExtendedState
from varint.precision import DOUBLE


def _synthetic_trajectory(energies, dt=0.1, h0=0.1):
    states = [
        ExtendedState(t=k * dt, q=np.array([0.0, 0.0]) + 1.0, p=np.array([0.0, 1.0]), E=E)
        for k, E in enumerate(energies)
    ]
    steps = [StepRecord(h=dt, residual_norm=0.0, iterations=1) for _ in energies[1:]]
    return trajectory(states, steps, meta={"h0": h0})


def test_energy_error_series_single_state():
    traj = _synthetic_trajectory([-0.5])
    series = energy_error_series(traj)
    assert list(series.values) == [0.0]


def test_energy_error_series_values():
    traj = _synthetic_trajectory([-0.5, -0.5 + 2e-15, -0.5 - 1e-15])
    series = energy_error_series(traj)
    assert series.values[1] == pytest.approx(2e-15)
    assert series.values[2] == pytest.approx(1e-15)


def test_telescoping_bound_is_identity():
    rng = np.random.default_rng(5)
    energies = -0.5 + np.cumsum(rng.uniform(-1, 1, 200)) * 1e-15
    report = telescoping_bound_check(_synthetic_trajectory(list(energies)))
    assert report.holds
    assert report.lhs <= report.rhs


def test_telescoping_needs_two_states():
    with pytest.raises(ConfigurationError):
        telescoping_bound_check(_synthetic_trajectory([-0.5]))


def test_step_statistics_need_a_step():
    with pytest.raises(ConfigurationError, match="^step statistics need at least one step$"):
        timestep_stats(_synthetic_trajectory([-0.5]))


def test_telescoping_on_real_run(epavi_e07):
    report = telescoping_bound_check(epavi_e07)
    assert report.holds
    assert report.rhs <= len(epavi_e07.steps) * 5e-15


def test_worst_case_crossover_projection():
    # fixed-step error 1e-6 against per-step defect 1e-15: the adaptive
    # scheme wins until k = 1e-6 / 1e-15 = 1e9 steps
    assert 1e-6 / 1e-15 == pytest.approx(1e9)


def test_trajectory_error_self_comparison():
    model = KeplerTwoBody()
    s0 = kepler_initial_state(0.1)
    ref = reference_solve(model, s0, 1.0)
    times = np.linspace(0.0, 1.0, 11)
    states = [reference_state(ref, model, t) for t in times]
    traj = Trajectory(states, DOUBLE, {"h0": 0.1})
    series = trajectory_error(traj, ref)
    assert len(series) == 2
    assert max(s.max() for s in series) <= 1e-12


@pytest.mark.parametrize("name", ["epavi_e07", "vpa_extended_tol17"])
def test_trajectory_error_matches_per_state_loop(request, name):
    # the vectorised error is the per-state, per-coordinate difference bit
    # for bit, in double and from an 18-digit trajectory alike
    traj = request.getfixturevalue(name)
    ref = reference_solve(KeplerTwoBody(), kepler_initial_state(0.7), float(traj.states[-1].t))
    q_ref, _ = ref.eval(traj.times())
    for i, series in enumerate(trajectory_error(traj, ref)):
        loop = [abs(float(s.q[i]) - q_ref[i, k]) for k, s in enumerate(traj.states)]
        assert [float(v).hex() for v in series.values] == [float(v).hex() for v in loop]


def test_trajectory_error_outside_span(reference_e01):
    traj = _synthetic_trajectory([-0.5, -0.5], dt=10.0)
    with pytest.raises(ConfigurationError):
        trajectory_error(traj, reference_e01)


def test_timestep_stats_fixed_run():
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    traj = midpoint_fixed_run(model, s0, 0.1, 1.0, SolverConfig(tol=1e-13))
    stats = timestep_stats(traj)
    assert stats.mean_h == pytest.approx(0.1, rel=1e-12)
    assert stats.max_h == pytest.approx(stats.min_h, rel=1e-12)
    assert stats.min_h <= stats.mean_h <= stats.max_h
    assert stats.mean_ratio == pytest.approx(1.0, rel=1e-12)



def test_reference_energy_conservation_over_period(reference_e01):
    model = KeplerTwoBody()
    worst = 0.0
    for t in np.linspace(0.0, 2 * math.pi, 400):
        q, p = reference_e01.eval(float(t))
        worst = max(worst, abs(model.hamiltonian(q, p) + 0.5))
    assert worst <= 1e-9


def test_hamiltonian_error_series_on_epavi(epavi_e07):
    model = KeplerTwoBody()
    series = hamiltonian_error_series(epavi_e07, model)
    # the continuous Hamiltonian oscillates at the midpoint-rule level,
    # orders above the discrete-energy defect
    assert 1e-9 <= series.max() <= 1e-3


@pytest.mark.parametrize("name", ["epavi_e01", "avi1_e07", "vpa_extended_tol17"])
def test_hamiltonian_rows_are_the_per_state_values_bit_for_bit(request, name):
    # one stacked evaluation in double (np.sqrt and math.sqrt both round
    # correctly), one call per state at 18 digits
    traj = request.getfixturevalue(name)
    ctx = traj.ctx
    model = KeplerTwoBody(ctx)
    rows = traj.stacked()
    with ctx.arithmetic():
        stacked = model.hamiltonian_rows(rows[:, 1:3], rows[:, 3:5])
        per_state = [model.hamiltonian(s.q, s.p) for s in traj.states]
    assert len(stacked) == len(traj)
    assert typed_bits(ctx, stacked) == typed_bits(ctx, per_state)


def test_stacked_hamiltonian_keeps_the_collision_guard():
    model = KeplerTwoBody()
    Q = np.array([[0.5, 0.5], [1e-9, 0.0]])
    with pytest.raises(SingularityError):
        model.hamiltonian_rows(Q, np.zeros_like(Q))


def _write_bundle_csvs(traj, outdir):
    """The run's trajectory, energy-error and stats CSVs, as the runner writes
    them, in whatever decimal context the caller holds."""
    ctx = traj.ctx
    e_series = energy_error_series(traj)
    h_series = hamiltonian_error_series(traj, KeplerTwoBody(ctx))
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    write_error_series_csv([e_series, h_series], outdir / "energy_error.csv", ctx)
    write_stats_csv(timestep_stats(traj), telescoping_bound_check(traj), e_series.max(),
                    outdir / "stats.csv", ctx)


def test_csv_writers(tmp_path, epavi_e07):
    _write_bundle_csvs(epavi_e07, tmp_path)
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "k,t,q1,q2,p1,p2,E,h,residual,newton_iters,retried"
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert {row.rsplit(",", 1)[1] for row in rows[:-1]} == {"0"} and rows[-1].endswith(",")
    stats_lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert len(stats_lines) == 2
    assert "telescoping_holds" in stats_lines[0]


#: SHA-256 of the CSVs of seed-0 one-period Kepler runs at e = 0.7 in double
#: and in 18 digits, recorded while every field still went through csv.writer
#: and one ``ctx.format`` call per real.  The 18-digit ``stats.csv`` was
#: recorded again once its mean_h and mean_ratio were correctly rounded
#: (see test_extended_mean_step_is_correctly_rounded).  The ``avi1_e07``
#: CSVs were recorded again once AVI solved its momentum equation in dq alone
#: (see test_avi_steps_satisfy_the_coupled_rows).  The 18-digit CSVs were
#: recorded again when extended precision moved to 23-digit decimals: its
#: trajectory moved (see TRAJECTORY_DIGESTS), and each real is written with
#: the 23 digits of the context in scientific notation, "0.0000000000000000000000e+0"
#: for a zero.  The "epavi_e07" and 18-digit CSVs were recorded again when
#: the Newton step moved from numpy's LAPACK gufuncs to Python floats: their
#: trajectories moved (see TRAJECTORY_DIGESTS).  The 18-digit CSVs were
#: recorded again when the Jacobians came to be formed from the residual's
#: kernel rounded to double: that trajectory moved (see TRAJECTORY_DIGESTS).
BUNDLE_CSV_DIGESTS = {
    "epavi_e07": {
        "trajectory.csv": "76aaad34ef95e8da019951e1b89768698e6baf17e2f2e50d5a476c54de26076c",
        "energy_error.csv": "9b533475492301a0bf0446962ac7602d9f4fe414bf86a08e7b235cea4db1e101",
        "stats.csv": "3d7b897ef220515e6e3cce5d3a247e36539025b04528410c250ba51264975eab",
    },
    "avi1_e07": {
        "trajectory.csv": "31bdc6e0e431324a9f4cb58ae2038cfaec7f1d7fd986a5aff4bba58f5583de80",
        "energy_error.csv": "42a19cc76c4dd8f7038799a45a15453c70aea9aea6c768c28423209b275d4cbd",
        "stats.csv": "4f197d4ba47e81d88ddd98262db250ba58f99374b52fe372273c55bb655fe948",
    },
    "vpa_extended_tol17": {
        "trajectory.csv": "cd8ba1ee9a761802c0498821f06996aa84ceb4b95065a7e1cc09f1b8c0008ecd",
        "energy_error.csv": "d209116022151c6e21c512b82b59c887f7ce8ef3e209d4b88405ea7ea29d9e10",
        "stats.csv": "ce1a0a8b97a512c1a345562f9ef2391871188387f25dd30b7dda80358f2beffd",
    },
}


@pytest.mark.parametrize("name", sorted(BUNDLE_CSV_DIGESTS))
def test_csv_bytes_of_both_precisions(request, tmp_path, name):
    _write_bundle_csvs(request.getfixturevalue(name), tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in BUNDLE_CSV_DIGESTS[name]}
    assert digests == BUNDLE_CSV_DIGESTS[name]


def test_bundle_csv_bytes_ignore_the_thread_decimal_context(tmp_path, vpa_extended_tol17):
    # the analyses and writers called directly, outside a run: each analysis
    # computes in the trajectory's own arithmetic, and the caller's decimal
    # context is neither read nor changed
    for prec in (8, 50):
        (tmp_path / str(prec)).mkdir()
        with localcontext(prec=prec) as caller:
            _write_bundle_csvs(vpa_extended_tol17, tmp_path / str(prec))
            assert getcontext() is caller and caller.prec == prec
    for name in ("trajectory.csv", "energy_error.csv", "stats.csv"):
        assert (tmp_path / "8" / name).read_bytes() == (tmp_path / "50" / name).read_bytes()
        assert hashlib.sha256((tmp_path / "8" / name).read_bytes()).hexdigest() == \
            BUNDLE_CSV_DIGESTS["vpa_extended_tol17"][name]


def test_extended_mean_step_is_correctly_rounded(vpa_extended_tol17):
    traj = vpa_extended_tol17
    with localcontext(prec=60):
        exact = (traj.states[-1].t - traj.states[0].t) / len(traj.steps)
    assert type(exact) is Decimal and timestep_stats(traj).mean_h == float(exact)
