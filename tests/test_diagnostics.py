import math

import numpy as np
import pytest

from varint import (
    ConfigurationError,
    HarmonicOscillator,
    KeplerTwoBody,
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
from varint.diagnostics import write_stats_csv, write_trajectory_csv
from varint.integrators import StepRecord
from varint.models import ExtendedState


def _synthetic_trajectory(energies, dt=0.1, h0=0.1):
    states = [
        ExtendedState(t=k * dt, q=np.array([0.0, 0.0]) + 1.0, p=np.array([0.0, 1.0]), E=E)
        for k, E in enumerate(energies)
    ]
    steps = [StepRecord(h=dt, residual_norm=0.0, iterations=1) for _ in energies[1:]]
    return Trajectory(states=states, steps=steps, meta={"h0": h0})


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
    states = [ref.state(t) for t in times]
    traj = Trajectory(states=states, meta={"h0": 0.1})
    series = trajectory_error(traj, ref)
    assert len(series) == 2
    assert max(s.max() for s in series) <= 1e-12


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


def test_csv_writers(tmp_path, epavi_e07):
    write_trajectory_csv(epavi_e07, tmp_path / "trajectory.csv")
    write_stats_csv(epavi_e07, tmp_path / "stats.csv")
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "k,t,q1,q2,p1,p2,E,h,residual,newton_iters,retried"
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert {row.rsplit(",", 1)[1] for row in rows[:-1]} == {"0"} and rows[-1].endswith(",")
    stats_lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert len(stats_lines) == 2
    assert "telescoping_holds" in stats_lines[0]
