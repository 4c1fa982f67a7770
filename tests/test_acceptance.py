"""Acceptance criteria.

Every test prints one pass/fail line with the measured quantities; run with
``pytest -s tests/test_acceptance.py`` to see the full report.  The long
Kepler runs come from session fixtures in conftest.py.
"""

import math

import numpy as np
from conftest import LinearProfile

from varint import (
    HarmonicOscillator,
    IdentityProfile,
    KeplerTwoBody,
    Pendulum,
    SineProfile,
    SolverConfig,
    angular_momentum,
    avi_run,
    avi_step,
    energy_error_series,
    epavi_step,
    fd_jacobian,
    initial_discrete_energy,
    kepler_initial_state,
    lemma1_reparametrization_check,
    make_monitor,
    midpoint_fixed_run,
    midpoint_fixed_step,
    residual_order_estimate,
    telescoping_bound_check,
    timestep_stats,
)
from varint.models import ExtendedState
from dataclasses import replace


def _report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_energy_bands_e01(epavi_e01, avi1_e01, avi2_e01):
    ep = energy_error_series(epavi_e01).max()
    a1 = energy_error_series(avi1_e01).max()
    a2 = energy_error_series(avi2_e01).max()
    ok = ep <= 1e-13 and 1e-8 <= a1 <= 1e-6 and 1e-8 <= a2 <= 1e-6
    _report(1, ok, f"e=0.1 epavi {ep:.2e} <= 1e-13; avi1 {a1:.2e}, avi2 {a2:.2e} in [1e-8, 1e-6]")


def test_criterion_02_energy_bands_e07(epavi_e07, avi1_e07, avi2_e07):
    ep = energy_error_series(epavi_e07).max()
    a1 = energy_error_series(avi1_e07).max()
    a2 = energy_error_series(avi2_e07).max()
    ok = ep <= 1e-12 and 1e-5 <= a1 <= 1e-3 and 1e-5 <= a2 <= 1e-3
    _report(2, ok, f"e=0.7 epavi {ep:.2e} <= 1e-12; avi1 {a1:.2e}, avi2 {a2:.2e} in [1e-5, 1e-3]")


def test_criterion_03_step_ratios(epavi_e07, avi2_e07, epavi_e01, avi2_e01):
    m07e = timestep_stats(epavi_e07)
    m07a = timestep_stats(avi2_e07)
    m01e = timestep_stats(epavi_e01)
    m01a = timestep_stats(avi2_e01)
    ok = (
        abs(m07e.mean_ratio - 6.22) <= 0.15 * 6.22
        and abs(m07a.mean_ratio - 7.93) <= 0.15 * 7.93
        and abs(m01e.mean_ratio - 1.17) <= 0.10 * 1.17
        and abs(m01a.mean_ratio - 1.23) <= 0.10 * 1.23
        and 10.0 <= m07e.max_ratio <= 18.0
    )
    _report(
        3,
        ok,
        f"mean ratios e=0.7: epavi {m07e.mean_ratio:.3f} (6.22±15%), avi2 {m07a.mean_ratio:.3f} "
        f"(7.93±15%); e=0.1: epavi {m01e.mean_ratio:.3f} (1.17±10%), avi2 {m01a.mean_ratio:.3f} "
        f"(1.23±10%); epavi e=0.7 max ratio {m07e.max_ratio:.2f} in [10, 18]",
    )


def test_criterion_04_variable_precision(vpa_extended_tol17, vpa_double_tol15):
    ext = energy_error_series(vpa_extended_tol17).max()
    dbl = energy_error_series(vpa_double_tol15).max()
    ok = ext <= 1e-16 and dbl <= 5e-15
    _report(4, ok, f"18-digit tol=1e-17 max {float(ext):.2e} <= 1e-16; "
                   f"double tol=1e-15 max {dbl:.2e} <= 5e-15")


def test_criterion_05_telescoping_and_defects(
    epavi_e07, epavi_e01, avi1_e07, avi2_e07, avi1_e01, avi2_e01,
    epavi_e07_h01, vpa_extended_tol17, epavi_e07_tol12,
):
    runs = {
        "epavi_e07": epavi_e07, "epavi_e01": epavi_e01,
        "avi1_e07": avi1_e07, "avi2_e07": avi2_e07,
        "avi1_e01": avi1_e01, "avi2_e01": avi2_e01,
        "epavi_e07_h01": epavi_e07_h01, "vpa_ext": vpa_extended_tol17,
        "epavi_e07_tol12": epavi_e07_tol12,
    }
    holds = {name: telescoping_bound_check(traj).holds for name, traj in runs.items()}
    defect_ok = {}
    for name, traj in runs.items():
        if not traj.meta["integrator"].startswith("epavi"):
            continue  # the defect bound is about the conserved discrete energy
        defect = telescoping_bound_check(traj).max_step_defect
        defect_ok[name] = defect <= 10 * traj.meta["tol"]
    ok = all(holds.values()) and all(defect_ok.values())
    _report(5, ok, f"telescoping holds on {len(runs)} runs; "
                   f"epavi per-step defects within 10*tol on {sorted(defect_ok)}")


def test_criterion_06_h0_insensitivity(epavi_e07, epavi_e07_h01, avi2_e07, avi2_e07_h01):
    r_ep = (timestep_stats(epavi_e07).mean_ratio, timestep_stats(epavi_e07_h01).mean_ratio)
    r_av = (timestep_stats(avi2_e07).mean_ratio, timestep_stats(avi2_e07_h01).mean_ratio)
    dev_ep = abs(r_ep[0] - r_ep[1]) / r_ep[0]
    dev_av = abs(r_av[0] - r_av[1]) / r_av[0]
    ok = dev_ep <= 0.20 and dev_av <= 0.20
    _report(6, ok, f"mean h/h0 across h0 in {{1e-3, 1e-2}}: epavi {r_ep[0]:.3f} vs {r_ep[1]:.3f} "
                   f"({100 * dev_ep:.1f}%), avi2 {r_av[0]:.3f} vs {r_av[1]:.3f} ({100 * dev_av:.1f}%)")


def test_criterion_07_momentum_conservation(epavi_e07_tol12, avi1_e07_tol12, avi2_e07_tol12):
    drifts = {}
    for name, traj in (
        ("epavi", epavi_e07_tol12), ("avi1", avi1_e07_tol12), ("avi2", avi2_e07_tol12)
    ):
        Lz0 = angular_momentum(traj.states[0].q, traj.states[0].p)
        drifts[name] = max(abs(angular_momentum(s.q, s.p) - Lz0) for s in traj.states)
    ok = all(d <= 1e-9 for d in drifts.values())
    _report(7, ok, "angular momentum drift at tol=1e-12: "
            + ", ".join(f"{k} {v:.2e}" for k, v in drifts.items()) + " <= 1e-9")


def test_criterion_08_bea_residual_orders():
    cases = [
        ("oscillator t=a", HarmonicOscillator(), IdentityProfile()),
        ("pendulum t=a+0.1sin", Pendulum(), SineProfile(0.1)),
    ]
    details, ok = [], True
    for label, model, profile in cases:
        lead = residual_order_estimate(model, profile, use_modified=False).slope
        mod = residual_order_estimate(model, profile, use_modified=True).slope
        ok = ok and abs(lead - 3.0) <= 0.3 and abs(mod - 5.0) <= 0.3
        details.append(f"{label}: slopes {lead:.2f}/{mod:.2f} (3±0.3 / 5±0.3)")
    _report(8, ok, "; ".join(details))


def test_criterion_09_modified_frequency_cross_check():
    # the defect is -(23/720) da^4 w^6 + (11/1680) da^6 w^8 - ...: exactly
    # fourth order, approached from below (the next term has opposite sign),
    # so the measured slope sits a resolution step under 4.  Extended
    # precision keeps the measurement in the asymptotic window sharp.
    import mpmath

    ctx_digits = 30
    with mpmath.mp.workdps(ctx_digits):
        k = m = mpmath.mpf(1)
        das = [mpmath.mpf("0.04") / 2 ** i for i in range(4)]
        diffs = [
            abs((k / m) * (1 - da ** 2 * k / (6 * m))
                - (2 / da * mpmath.atan(mpmath.sqrt(k / m) * da / 2)) ** 2)
            for da in das
        ]
        logs_x = [float(mpmath.log(d)) for d in das]
        logs_y = [float(mpmath.log(d)) for d in diffs]
    slope = float(np.polyfit(logs_x, logs_y, 1)[0])
    resolution = 0.01
    ok = slope >= 4.0 - resolution
    _report(9, ok, f"frequency-difference slope {slope:.5f} >= 4 "
                   f"(within fit resolution {resolution}; approach is from below)")


def test_criterion_10_lemma1_reparametrization():
    osc_state = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    devs = {
        "oscillator t=a": lemma1_reparametrization_check(
            HarmonicOscillator(), IdentityProfile(), osc_state, 2 * math.pi
        ),
        "oscillator t=a+0.3sin": lemma1_reparametrization_check(
            HarmonicOscillator(), SineProfile(0.3), osc_state, 2 * math.pi
        ),
        "kepler e=0.1 t=2a": lemma1_reparametrization_check(
            KeplerTwoBody(), LinearProfile(2.0), kepler_initial_state(0.1), math.pi
        ),
    }
    ok = all(d <= 1e-8 for d in devs.values())
    _report(10, ok, ", ".join(f"{k}: {v:.2e}" for k, v in devs.items()) + " <= 1e-8")


def test_criterion_11_unit_monitor_equals_fixed_midpoint():
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    cfg = SolverConfig(tol=1e-13)
    h = 0.1
    T = 100 * h
    avi = avi_run(model, make_monitor("unit", model, s0), s0, T - h / 2, cfg, h0=h)
    fixed = midpoint_fixed_run(model, s0, h, T - h / 2, cfg)
    n = min(len(avi.states), len(fixed.states))
    worst = max(
        max(abs(float(a.q[0] - b.q[0])), abs(float(a.p[0] - b.p[0])))
        for a, b in zip(avi.states[:n], fixed.states[:n])
    )
    ok = n >= 100 and worst == 0
    _report(11, ok, f"unit-monitor AVI vs fixed midpoint over {n - 1} steps: "
                    f"max state difference {worst:.2e} == 0")


def test_criterion_12_one_step_map_determinant():
    model = HarmonicOscillator()
    cfg = SolverConfig(tol=1e-14)
    state = ExtendedState(t=0.0, q=np.array([0.8]), p=np.array([0.4]), E=0.0)
    state = replace(state, E=model.hamiltonian(state.q, state.p))

    # realized step sizes of one EpAVI and one (arclength) AVI step
    boot = replace(state, E=initial_discrete_energy(model, state, 0.1, cfg))
    _, rec_ep = epavi_step(model, boot, 0.1, cfg)
    monitor = make_monitor("g1", model, state)
    _, rec_av = avi_step(model, monitor, state, 0.1, cfg)

    dets = {}
    for label, h in (("epavi", rec_ep.h), ("avi", rec_av.h)):
        def step_map(z, h=h):
            s = ExtendedState(t=0.0, q=np.array(z[:1]), p=np.array(z[1:]), E=0.0)
            out, _ = midpoint_fixed_step(model, s, h, cfg)
            return [*out.q, *out.p]

        J = fd_jacobian(step_map, [0.8, 0.4], 1e-6)
        dets[label] = abs(float(np.linalg.det(J)) - 1.0)
    ok = all(v <= 1e-6 for v in dets.values())
    _report(12, ok, "one-step map |det-1| at realized h: "
            + ", ".join(f"{k} {v:.2e}" for k, v in dets.items()) + " <= 1e-6")
