import hashlib
import inspect
import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from operator import mul, sub
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from conftest import discrete_lagrangian_midpoint, reference_state, typed_bits

import varint.integrators
import varint.solvers
from varint import (
    DOUBLE,
    ConfigurationError,
    HarmonicOscillator,
    IntegrationError,
    KeplerTwoBody,
    MonitorDomainError,
    NonconvergenceError,
    NonMonotoneTimeError,
    Pendulum,
    SolverConfig,
    angular_momentum,
    avi_calibrate_delta_a,
    avi_run,
    avi_step,
    discrete_partials_midpoint,
    energy_error_series,
    epavi_run,
    epavi_step,
    initial_discrete_energy,
    kepler_initial_state,
    make_model,
    make_monitor,
    midpoint_fixed_run,
    midpoint_fixed_step,
    reference_solve,
    telescoping_bound_check,
    with_precision,
)
from varint.integrators import Monitor, StepRecord, _extrapolate, _increment, _largest_term, _march
from varint.models import ExtendedState
from varint.solvers import FLOOR_ULPS, STALL_FACTOR

CFG13 = SolverConfig(tol=1e-13)
CFG15 = SolverConfig(tol=1e-15)


# -- discrete Lagrangian --------------------------------------------------------


def test_discrete_lagrangian_oscillator_value():
    model = HarmonicOscillator()
    Ld = discrete_lagrangian_midpoint(model, 0.0, np.array([0.0]), 0.1, np.array([0.1]))
    assert Ld == pytest.approx(0.049875, abs=1e-15)


def test_discrete_lagrangian_rest_at_zero_potential():
    model = HarmonicOscillator()
    q = np.array([0.0])
    assert discrete_lagrangian_midpoint(model, 0.0, q, 0.3, q) == 0.0


def test_discrete_lagrangian_rejects_nonmonotone_time():
    model = HarmonicOscillator()
    q = np.array([0.0])
    with pytest.raises(NonMonotoneTimeError):
        discrete_lagrangian_midpoint(model, 0.1, q, 0.1, q)


def test_discrete_lagrangian_kepler_matches_direct_midpoint_evaluation():
    model = KeplerTwoBody()
    s = kepler_initial_state(0.7)
    q1 = np.asarray(s.q) + 1e-3 * np.asarray(s.p)
    Ld = discrete_lagrangian_midpoint(model, 0.0, s.q, 1e-3, q1)
    mid = (np.asarray(s.q) + q1) / 2
    v = (q1 - np.asarray(s.q)) / 1e-3
    direct = 1e-3 * (0.5 * float(v @ v) + 1.0 / np.hypot(*mid))
    assert Ld == pytest.approx(direct, rel=1e-14)


def test_discrete_partials_oscillator_value():
    model = HarmonicOscillator()
    parts = discrete_partials_midpoint(model, 0.0, np.array([0.0]), 0.1, np.array([0.1]))
    assert parts.d1 == pytest.approx(0.50125, abs=1e-15)
    # dL_d/dt_{k+1} = -d1
    assert -parts.d1 == pytest.approx(-0.50125, abs=1e-15)


def test_discrete_partials_free_particle_at_rest():
    model = HarmonicOscillator(k=0.0)
    q = np.array([2.0])
    parts = discrete_partials_midpoint(model, 0.0, q, 0.5, q)
    assert parts.d1 == 0.0
    assert parts.d2[0] == 0.0 and parts.d4[0] == 0.0


@pytest.mark.parametrize("model_case", ["kepler", "oscillator", "pendulum"])
def test_discrete_partials_match_finite_differences(model_case):
    model = {"kepler": KeplerTwoBody(), "oscillator": HarmonicOscillator(k=1.4, m=0.9),
             "pendulum": Pendulum()}[model_case]
    rng = np.random.default_rng(7)
    step = 1e-6
    for _ in range(25):
        if model.n == 2:
            q_k = rng.uniform(0.4, 1.2, 2)
            q_k1 = q_k + rng.uniform(-0.05, 0.05, 2)
        else:
            q_k = rng.uniform(-1.0, 1.0, 1)
            q_k1 = q_k + rng.uniform(-0.05, 0.05, 1)
        t_k = rng.uniform(0.0, 1.0)
        t_k1 = t_k + rng.uniform(0.05, 0.2)
        parts = discrete_partials_midpoint(model, t_k, q_k, t_k1, q_k1)

        def Ld(tk, qk, tk1, qk1):
            return discrete_lagrangian_midpoint(model, tk, qk, tk1, qk1)

        fd_d1 = (Ld(t_k + step, q_k, t_k1, q_k1) - Ld(t_k - step, q_k, t_k1, q_k1)) / (2 * step)
        fd_d3 = (Ld(t_k, q_k, t_k1 + step, q_k1) - Ld(t_k, q_k, t_k1 - step, q_k1)) / (2 * step)
        assert parts.d1 == pytest.approx(fd_d1, rel=1e-6, abs=1e-9)
        assert -parts.d1 == pytest.approx(fd_d3, rel=1e-6, abs=1e-9)
        for j in range(model.n):
            dq = np.zeros(model.n)
            dq[j] = step
            fd_d2 = (Ld(t_k, q_k + dq, t_k1, q_k1) - Ld(t_k, q_k - dq, t_k1, q_k1)) / (2 * step)
            fd_d4 = (Ld(t_k, q_k, t_k1, q_k1 + dq) - Ld(t_k, q_k, t_k1, q_k1 - dq)) / (2 * step)
            assert parts.d2[j] == pytest.approx(fd_d2, rel=1e-6, abs=1e-9)
            assert parts.d4[j] == pytest.approx(fd_d4, rel=1e-6, abs=1e-9)


# -- the step kernel on context scalars --------------------------------------------


def _array_kernel(model, q_k, dq, h, g=None):
    """The midpoint kernel as array formulas: mid = q_k + dq/2, h g(mid),
    v = dq/h, Mv (v itself for Kepler's identity M, else np.dot),
    grad V(mid) (h/2), V(mid), h and mid."""
    mid = q_k + dq / 2
    V, grad = model.potential(mid), np.array(model.potential_gradient(mid))
    if g is not None:
        h = h * g(mid, V, grad)
    v = dq / h
    return v, v if model.name == "kepler" else np.dot(np.diag(model.masses), v), grad * (h / 2), V, h, mid


def _array_partials(model, kernel):
    """The double Jacobians' pieces as array formulas from the array
    kernel's mid, v, Mv and h rounded to double: mid, grad V, hess V, v, Mv,
    h, A = M/h + hess V (h/4) and c = grad V/2 - Mv/h."""
    dm = model.double
    v, Mv, _, _, h, mid = kernel
    mid, v, Mv, h = np.asarray(mid, dtype=float), np.asarray(v, dtype=float), np.asarray(Mv, dtype=float), float(h)
    grad, hess = np.array(dm.potential_gradient(mid)), np.array(dm.potential_hessian(mid))
    return mid, grad, hess, v, Mv, h, np.diag(dm.masses) / h + hess * (h / 4), grad / 2 - Mv / h


def _array_monitor(name, model, state0):
    """g(q, V, dV) and its gradient as array formulas; the Hessian's product
    is a row sum, which rounds each product, as a BLAS kernel's fused
    multiply-add does not."""
    if name == "g1":
        H0 = model.hamiltonian(state0.q, state0.p)
        M_inv, M_inv_d = np.diag(model.inverse_masses), np.diag(model.double.inverse_masses)
        return Monitor(name,
                       lambda q, V, dV: 1 / model.ctx.sqrt(2 * (H0 - V) + (dV * np.dot(M_inv, dV)).sum()),
                       lambda q, g, dV, d2V: (dV - (d2V * np.dot(M_inv_d, dV)).sum(axis=1)) * g ** 3)
    if name == "g2":
        return Monitor(name, lambda q, V, dV: (q * q).sum(), lambda q, g, dV, d2V: 2 * q)
    return Monitor(name, lambda q, V, dV: 1, lambda q, g, dV, d2V: 0 * q)


def _random_states(model, rng, count):
    """Seeded states (q, p) and increments (dq, h) in the model's context; every
    fourth draw puts a signed zero into q (not for Kepler) and into dq."""
    ctx = model.ctx
    for k in range(count):
        if model.name == "kepler":
            r, theta = rng.uniform(0.3, 1.7), rng.uniform(0.0, 2 * np.pi)
            q = [r * np.cos(theta), r * np.sin(theta)]
        else:
            q = list(rng.uniform(-1.7, 1.7, model.n))
        p = list(rng.uniform(-1.5, 1.5, model.n))
        dq = list(1e-3 * rng.standard_normal(model.n))
        if k % 4 == 0:
            zero = -0.0 if k % 8 else 0.0
            dq[rng.integers(model.n)] = zero
            if model.name != "kepler":
                q[0] = zero
        state = ExtendedState(t=ctx.real(0), q=ctx.array(q), p=ctx.array(p), E=ctx.real(rng.uniform(-2, 1)))
        yield state, ctx.array(dq) / 3, ctx.real(rng.uniform(1e-4, 1e-2)) / 3


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("name", ["kepler", "oscillator", "pendulum"])
def test_step_kernel_is_bitwise_the_array_formulas(name, digits):
    # the kernel, both residuals, both Jacobians and the monitors compute on
    # lists of context scalars; each must reproduce, bit for bit and with
    # each component's type, the array formula it replaced, zero signs
    # included, both in the run's arithmetic; the Jacobians from the
    # kernel's mid, v, Mv and h rounded to double
    ctx = with_precision(digits)
    model = make_model(name, {"k": 1.3, "m": 0.8}, ctx)
    rng = np.random.default_rng(17)
    with ctx.arithmetic():
        for state, dq, h in _random_states(model, rng, 40):
            got = varint.integrators._increment(model, state.q.tolist(), dq.tolist(), h)
            assert typed_bits(ctx, got) == typed_bits(ctx, _array_kernel(model, state.q, dq, h))

            # EpAVI: residual in the context, Jacobian in double
            z = [*dq.tolist(), h]
            residual, jacobian = varint.integrators._epavi_system(model, state)
            F, kernel = residual(z)
            array_kernel = _array_kernel(model, state.q, dq, h)
            v, Mv, half_grad, V, _, _ = array_kernel
            want = np.append(Mv + half_grad - state.p, (v * Mv).sum() / 2 + V - state.E)
            assert isinstance(F, list) and typed_bits(ctx, F) == typed_bits(ctx, want)
            _, grad, _, v, Mv, hd, A, c = _array_partials(model, array_kernel)
            J = np.vstack([np.column_stack([A, c]), np.append(Mv / hd + grad / 2, -(v * Mv).sum() / hd)])
            got = jacobian(z, kernel)
            assert isinstance(got, list) and typed_bits(DOUBLE, got) == typed_bits(DOUBLE, J)

            # the momentum equation under each monitor
            for monitor_name in ("g1", "g2", "unit"):
                monitor, reference = (f(monitor_name, model, state) for f in (make_monitor, _array_monitor))
                residual, jacobian = varint.integrators._momentum_system(model, monitor, state, h)
                mid = state.q + dq / 2
                if not reference.g(mid, model.potential(mid), np.array(model.potential_gradient(mid))) > 0:
                    with pytest.raises(MonitorDomainError):  # g2 at mid = 0
                        residual(dq.tolist())
                    continue
                array_kernel = _array_kernel(model, state.q, dq, h, reference.g)
                _, Mv, half_grad, _, _, _ = array_kernel
                F, kernel = residual(dq.tolist())
                assert isinstance(F, list)
                assert typed_bits(ctx, F) == typed_bits(ctx, Mv + half_grad - state.p)
                dad = float(h)
                mid, grad, hess, _, _, h_g, A, c = _array_partials(model, array_kernel)
                want_grad = reference.grad(mid, h_g / dad, grad, hess)
                got_grad = monitor.grad(mid.tolist(), h_g / dad, grad.tolist(), hess.tolist())
                assert typed_bits(DOUBLE, got_grad) == typed_bits(DOUBLE, want_grad)
                got = jacobian(dq.tolist(), kernel)
                want = A + np.outer(c, want_grad * (dad / 2))
                assert isinstance(got, list) and typed_bits(DOUBLE, got) == typed_bits(DOUBLE, want)


def _double_partials_before(dm, q_kd, dq, h):
    """The Jacobians' double pieces as they were formed before the kernel
    carried its midpoint: (mid, grad V, hess V, v, Mv, A, c), recomputed
    from q_k and dq rounded to double at h."""
    dq = list(map(float, dq))
    mid = [a + b / 2 for a, b in zip(q_kd, dq)]
    grad, hess = dm.potential_gradient_and_hessian(mid)
    v = [d / h for d in dq]
    Mv = dm.mass_times(v)
    quarter_h = h / 4
    A = [[x * quarter_h for x in row] for row in hess]
    for i, m in enumerate(dm.masses):
        A[i][i] = m / h + A[i][i]
    return mid, grad, hess, v, Mv, A, [g / 2 - y / h for g, y in zip(grad, Mv)]


def _epavi_jacobian_before(model, state, z):
    h = float(z[-1])
    _, grad, _, v, Mv, J, c = _double_partials_before(model.double, list(map(float, state.q)), z[:-1], h)
    for row, c_i in zip(J, c):
        row.append(c_i)
    J.append([y / h + g / 2 for y, g in zip(Mv, grad)] + [-sum(map(mul, v, Mv)) / h])
    return J


def _momentum_jacobian_before(model, monitor, state, delta_a, dq, kernel):
    h, dad = float(kernel[4]), float(delta_a)
    mid, grad, hess, _, _, A, c = _double_partials_before(model.double, list(map(float, state.q)), dq, h)
    if monitor.identifier == "unit":
        return A
    w = [x * (dad / 2) for x in monitor.grad(mid, h / dad, grad, hess)]
    return [[a + c_i * w_j for a, w_j in zip(row, w)] for row, c_i in zip(A, c)]


#: The largest difference, relative to the largest entry, between an
#: 18-digit Jacobian formed from its kernel rounded to double and one
#: recomputed from q_k and dq rounded to double.  The two differ only in
#: how mid, v, Mv and h reach double: each is within an ulp or two either
#: way, and the entries are a few operations on them.
JACOBIAN_ROUNDING_BOUND = 8 * DOUBLE.eps


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("name", ["kepler", "oscillator", "pendulum"])
def test_jacobians_from_the_kernel_are_the_recomputed_ones(name, digits):
    # in double the kernel's mid, v, Mv and h are the bits that recomputing
    # them from q_k and dq gave, so every Jacobian entry keeps its bits; in
    # 18 digits they are the context's values rounded once, which moves an
    # entry by a few roundings of the largest
    ctx = with_precision(digits)
    model = make_model(name, {"k": 1.3, "m": 0.8}, ctx)
    rng = np.random.default_rng(39)
    worst = 0.0
    with ctx.arithmetic():
        for state, dq, h in _random_states(model, rng, 60):
            dq = dq.tolist()
            z = [*dq, h]
            residual, jacobian = varint.integrators._epavi_system(model, state)
            pairs = [(jacobian(z, residual(z)[1]), _epavi_jacobian_before(model, state, z))]
            for monitor_name in ("g1", "g2", "unit"):
                monitor = make_monitor(monitor_name, model, state)
                residual, jacobian = varint.integrators._momentum_system(model, monitor, state, h)
                try:
                    kernel = residual(dq)[1]
                except MonitorDomainError:  # g2 at mid = 0
                    continue
                pairs.append((jacobian(dq, kernel), _momentum_jacobian_before(model, monitor, state, h, dq, kernel)))
            for got, want in pairs:
                if ctx.is_native:
                    assert typed_bits(DOUBLE, got) == typed_bits(DOUBLE, want)
                else:
                    got, want = np.array(got), np.array(want)
                    worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert worst <= JACOBIAN_ROUNDING_BOUND


# -- the warm-start predictor -----------------------------------------------------


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_extrapolate_is_exact_below_degree_m(m, digits):
    # m increments determine every polynomial of degree < m in the step index
    ctx = with_precision(digits)
    rng = np.random.default_rng(m)
    for degree in range(m):
        coeffs = rng.integers(-9, 10, size=(degree + 1, 3))
        seq = [ctx.array([int(c) for c in np.polyval(coeffs, k)]) for k in range(m + 1)]
        assert seq[0].dtype == (float if ctx.is_native else object)
        assert list(_extrapolate(seq[:m])) == list(seq[m])


@pytest.mark.parametrize("digits", [16, 18])
def test_extrapolate_is_bitwise_the_left_to_right_sum(digits):
    # the weighted rows are added oldest first, as the Python sum over the
    # rows does and as the stacked axis-0 reduction of the array formula did,
    # zero signs included, in the run's arithmetic; the run driver hands it
    # lists of context scalars
    weights = ((1,), (-1, 2), (1, -3, 3), (-1, 4, -6, 4), (1, -5, 10, -10, 5))
    ctx = with_precision(digits)
    rng = np.random.default_rng(13)
    with ctx.arithmetic():
        for k in range(40):
            for m in range(1, 6):
                history = [ctx.array(list(rng.standard_normal(3) * 10.0 ** rng.integers(-4, 2))) / 3
                           for _ in range(m)]
                if k % 4 == 0:
                    for z in history:
                        z[0] = ctx.real(-0.0 if k % 8 else 0.0)
                reference = sum(z * w for z, w in zip(history, weights[m - 1]))
                stacked = (np.array(history) * np.array(weights[m - 1])[:, None]).sum(axis=0)
                got = _extrapolate([z.tolist() for z in history])
                assert isinstance(got, list)
                assert typed_bits(ctx, got) == typed_bits(ctx, reference)
                # numpy's float reduction starts from +0.0, as the sums do; its
                # object reduction from the first row, whose Decimal -0 it keeps
                assert typed_bits(ctx, got) == typed_bits(ctx, stacked) if ctx.is_native else got == list(stacked)


def _random_23_digit_decimal(rng):
    digits = "".join(map(str, rng.integers(0, 10, 22)))
    return Decimal(f"{rng.choice(['', '-'])}{rng.integers(1, 10)}.{digits}E{rng.integers(-8, 3)}")


@pytest.mark.parametrize("digits", [16, 18])
def test_extrapolate_is_bitwise_the_weighted_sum_it_replaced(digits):
    # the closed forms subtract a negative weight's term and add the oldest
    # increment without multiplying it by 1; the formula they replaced summed
    # each component times its weight from 0, oldest first: same repr, zero
    # signs and a Decimal's exponent included, in the run's arithmetic
    weights = ((1,), (-1, 2), (1, -3, 3), (-1, 4, -6, 4), (1, -5, 10, -10, 5))
    ctx = with_precision(digits)
    rng = np.random.default_rng(35)
    zeros = [ctx.real(0.0), ctx.real(-0.0)]
    assert [repr(z) for z in zeros] == (["0.0", "-0.0"] if ctx.is_native else ["Decimal('0')", "Decimal('-0')"])

    def draw():
        if rng.random() < 0.3:
            return zeros[rng.integers(2)]
        if ctx.is_native:
            return float(rng.standard_normal() * 10.0 ** rng.integers(-8, 3))
        return _random_23_digit_decimal(rng)

    with ctx.arithmetic():
        for _ in range(300):
            for m in range(1, 6):
                history = [[draw() for _ in range(3)] for _ in range(m)]
                expected = [sum(map(mul, column, weights[m - 1])) for column in zip(*history)]
                assert list(map(repr, _extrapolate(history))) == list(map(repr, expected)), history


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_extrapolate_uses_the_row_of_its_history_length(m):
    # on k^m the degree-(m-1) row misses the next term by the m-th
    # difference, m!; a longer row would be exact, a shorter one miss by more
    seq = [np.array([float(k ** m)]) for k in range(m + 1)]
    assert seq[m][0] - _extrapolate(seq[:m])[0] == math.factorial(m)


# -- EpAVI ------------------------------------------------------------------------


def _bootstrapped_kepler(e, h0, cfg):
    model = KeplerTwoBody()
    s = kepler_initial_state(e)
    return model, replace(s, E=initial_discrete_energy(model, s, h0, cfg))


def test_epavi_single_step_energy_defect():
    model, state = _bootstrapped_kepler(0.7, 1e-3, CFG15)
    new_state, record = epavi_step(model, state, 1e-3, CFG15)
    assert new_state.t > state.t
    assert abs(new_state.E - state.E) <= 5e-15


def test_epavi_step_energy_update_is_consistent():
    # re-evaluating -D3 = D1 at the accepted step is the oracle for E_{k+1}
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.2]), E=0.0)
    state = replace(s0, E=initial_discrete_energy(model, s0, 0.05, CFG13))
    new_state, record = epavi_step(model, state, 0.05, CFG13)
    parts = discrete_partials_midpoint(model, state.t, state.q, new_state.t, new_state.q)
    assert new_state.E == pytest.approx(parts.d1, rel=1e-12)
    assert abs(parts.d1 - state.E) <= 10 * CFG13.tol


def test_epavi_rejects_bad_h_guess():
    model, state = _bootstrapped_kepler(0.1, 1e-3, CFG13)
    with pytest.raises(ConfigurationError):
        epavi_step(model, state, -1e-3, CFG13)


def test_epavi_run_empty_when_T_equals_t0():
    model = KeplerTwoBody()
    s = kepler_initial_state(0.1)
    traj = epavi_run(model, s, 1e-3, 0.0, CFG13)
    assert len(traj.states) == 1 and not traj.steps


def test_avi_run_over_an_empty_span_calibrates_nothing(monkeypatch):
    # over h0 = 1e80 the calibration overflows the Kepler Jacobian (see
    # test_failed_avi_calibration_aborts_the_run_at_its_start): a run that
    # takes no step must not fail sizing one, as EpAVI takes no energy solve
    def calibrate(*args):
        raise AssertionError("an empty span was calibrated")

    monkeypatch.setattr(varint.integrators, "avi_calibrate_delta_a", calibrate)
    model, s0 = KeplerTwoBody(), kepler_initial_state(0.95)
    traj = avi_run(model, make_monitor("g2", model, s0), s0, 0.0, CFG13, h0=1e80)
    assert len(traj.states) == 1 and not traj.steps
    assert traj.meta["delta_a"] is None


def test_epavi_run_short_invariants():
    model = KeplerTwoBody()
    s = kepler_initial_state(0.7)
    traj = epavi_run(model, s, 1e-3, 0.05, CFG15)
    assert np.all(np.diff(traj.times()) > 0)
    E = traj.energies()
    for a, b in zip(E, E[1:]):
        assert abs(b - a) <= 10 * CFG15.tol
    # momentum map is inherited by the midpoint discretization
    Lz0 = angular_momentum(traj.states[0].q, traj.states[0].p)
    for s_k in traj.states:
        assert abs(angular_momentum(s_k.q, s_k.p) - Lz0) <= 1e3 * CFG15.tol


def test_epavi_guess_insensitivity():
    # the accepted step solves the same implicit system regardless of guess
    model, state = _bootstrapped_kepler(0.7, 1e-3, CFG15)
    s_a, _ = epavi_step(model, state, 1e-3, CFG15)
    s_b, _ = epavi_step(model, state, 1.2e-3, CFG15)
    assert s_a.t == pytest.approx(s_b.t, abs=1e-14)
    assert np.allclose(np.asarray(s_a.q, float), np.asarray(s_b.q, float), atol=1e-14)


def test_epavi_warm_start_never_falls_back(epavi_e07):
    # increments extrapolated through the last five start every solve near its
    # root: no step of the e = 0.7 period falls back, at 1.4 iterations per
    # step (3.5 from the linear extrapolation; 6.9 from the explicit-Euler
    # guess, with 30 failed first attempts)
    assert not any(rec.retried for rec in epavi_e07.steps)
    assert sum(rec.iterations for rec in epavi_e07.steps) <= 2.0 * len(epavi_e07.steps)
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    traj = epavi_run(HarmonicOscillator(), s0, 0.1, 2 * math.pi, CFG13)
    assert len(traj.steps) > 10 and not any(rec.retried for rec in traj.steps)


def test_epavi_e07_sweep_does_not_abort():
    # from the explicit-Euler guess, draws 2, 3 and 10 abort at t = 0.42-0.49
    # with residuals of about 7e-7 after 50 iterations
    for e in np.random.default_rng(0).uniform(0.69, 0.71, 24)[:12]:
        traj = epavi_run(KeplerTwoBody(), kepler_initial_state(e), 1e-3, 0.6, CFG15)
        assert traj.states[-1].t >= 0.6


def test_extended_epavi_keeps_18_digit_energy(vpa_extended_tol17):
    # a double Newton step refines the 18-digit residual: the energy error
    # stays at the 18-digit floor, far below criterion 4's 1e-16
    assert energy_error_series(vpa_extended_tol17).max() <= 1e-19
    assert telescoping_bound_check(vpa_extended_tol17).max_step_defect <= 1e-19


# -- monitors ------------------------------------------------------------------------


def test_monitor_arclength_kepler_value():
    # radicand is exactly 10459/81 at the e=0.7 perihelion, where H0 = -1/2
    model = KeplerTwoBody()
    q = np.array([0.3, 0.0])
    g = make_monitor("g1", model, kepler_initial_state(0.7)).g(q, *model.potential_and_gradient(q))
    assert g == pytest.approx(9.0 / math.sqrt(10459.0), rel=1e-12)
    assert g == pytest.approx(0.0880, abs=5e-5)


def test_monitor_arclength_free_particle_unit_speed():
    model = HarmonicOscillator(k=0.0)
    s0 = ExtendedState(t=0.0, q=np.array([0.0]), p=np.array([1.0]), E=0.5)  # H0 = 1/2
    q = np.array([0.3])
    g = make_monitor("g1", model, s0).g(q, *model.potential_and_gradient(q))
    assert g == pytest.approx(1.0, rel=1e-14)


def test_monitor_arclength_domain_error():
    # at the pendulum equilibrium V = H0 and grad V = 0: zero radicand
    model = Pendulum()
    s0 = ExtendedState(t=0.0, q=np.array([0.0]), p=np.array([0.0]), E=-1.0)  # H0 = -1
    q = np.array([0.0])
    with pytest.raises(MonitorDomainError):
        make_monitor("g1", model, s0).g(q, *model.potential_and_gradient(q))


def test_monitor_kepler_values():
    g2 = make_monitor("g2", KeplerTwoBody(), kepler_initial_state(0.1)).g
    assert g2(np.array([1.0, 0.0]), None, None) == 1.0
    assert g2(np.array([0.3, 0.0]), None, None) == pytest.approx(0.09)
    assert g2(np.array([0.0, 0.0]), None, None) == 0.0


@pytest.mark.parametrize("name", ["arclength", "kepler"])
def test_monitor_names_are_only_g1_g2_unit(name):
    with pytest.raises(ConfigurationError, match="unknown monitor"):
        make_monitor(name, KeplerTwoBody(), kepler_initial_state(0.1))


@pytest.mark.parametrize("name", ["g1", "g2", "unit"])
def test_monitor_grad_matches_central_differences(name):
    model = KeplerTwoBody()
    rng = np.random.default_rng(11)
    d = 1e-6
    for _ in range(20):
        r, theta = rng.uniform(0.3, 1.7), rng.uniform(0.0, 2 * np.pi)
        q = np.array([r * np.cos(theta), r * np.sin(theta)])
        s0 = ExtendedState(t=0.0, q=q, p=rng.uniform(-1.5, 1.5, 2), E=0.0)
        monitor = make_monitor(name, model, s0)

        def g(x):
            return monitor.g(x, *model.potential_and_gradient(x))

        fd = np.array([(g(q + d * e) - g(q - d * e)) / (2 * d) for e in np.eye(2)])
        grad = monitor.grad(q, g(q), model.potential_gradient(q), model.potential_hessian(q))
        assert np.max(np.abs(grad - fd)) <= 1e-7 * (1 + np.max(np.abs(fd)))


# -- AVI --------------------------------------------------------------------------


def test_avi_unit_monitor_reduces_to_fixed_midpoint():
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    h = 0.1
    avi_state, rec = avi_step(model, make_monitor("unit", model, s0), s0, h, CFG13)
    mid_state, _ = midpoint_fixed_step(model, s0, h, CFG13)
    assert rec.h == pytest.approx(h, abs=1e-16)
    assert avi_state.q[0] == pytest.approx(mid_state.q[0], abs=1e-13)
    assert avi_state.p[0] == pytest.approx(mid_state.p[0], abs=1e-13)


def test_avi_calibration_unit_monitor():
    # da = h0 / 1, and its trial step realizes h0 exactly: the unit-monitor
    # AVI run is the fixed-step run at h = h0 (criterion 11)
    for digits in (16, 18):
        ctx = with_precision(digits)
        model = HarmonicOscillator(ctx=ctx)
        s0 = ExtendedState(t=ctx.real(0), q=ctx.array([1.0]), p=ctx.array([0.0]), E=ctx.real(0.5))
        h0 = ctx.real("1e-3")
        da = avi_calibrate_delta_a(model, make_monitor("unit", model, s0), s0, h0, SolverConfig.for_context(ctx))
        assert typed_bits(ctx, da) == typed_bits(ctx, h0)


def test_avi_calibration_kepler_monitors():
    model = KeplerTwoBody()
    s0 = kepler_initial_state(0.7)
    da_g2 = avi_calibrate_delta_a(model, make_monitor("g2", model, s0), s0, 1e-3, CFG13)
    assert da_g2 == pytest.approx(1e-3 / 0.09, rel=0.02)
    da_g1 = avi_calibrate_delta_a(model, make_monitor("g1", model, s0), s0, 1e-3, CFG13)
    assert da_g1 == pytest.approx(1e-3 / 0.08800299, rel=0.02)


def test_avi_calibration_realizes_h0():
    model = KeplerTwoBody()
    s0 = kepler_initial_state(0.7)
    monitor = make_monitor("g2", model, s0)
    da = avi_calibrate_delta_a(model, monitor, s0, 1e-3, CFG13)
    _, rec = avi_step(model, monitor, s0, da, CFG13)
    assert abs(rec.h - 1e-3) <= 0.01 * 1e-3


def test_avi_calibration_refines_a_first_step_that_misses_h0():
    # at h0 = 0.1 the step from da = h0 / g(q_0) misses h0 by 3.7%; the
    # refinement brings the calibrated step within 0.4%
    model, s0 = KeplerTwoBody(), kepler_initial_state(0.7)
    monitor = make_monitor("g2", model, s0)
    g0 = monitor.g(s0.q, *model.potential_and_gradient(s0.q))
    _, first = avi_step(model, monitor, s0, 0.1 / g0, CFG13)
    assert abs(first.h - 0.1) >= 0.03 * 0.1
    _, calibrated = avi_step(model, monitor, s0, avi_calibrate_delta_a(model, monitor, s0, 0.1, CFG13), CFG13)
    assert abs(calibrated.h - 0.1) <= 0.004 * 0.1


def test_failed_avi_calibration_aborts_the_run_at_its_start():
    # over h0 = 1e80 the calibration's first Newton iterate, dq = h0 p0, puts
    # the midpoint where the Kepler Jacobian's r ** 5 overflows: the run's
    # error, with its one-state trajectory
    model, s0 = KeplerTwoBody(), kepler_initial_state(0.95)
    with pytest.raises(IntegrationError) as info:
        avi_run(model, make_monitor("g2", model, s0), s0, 2 * math.pi, CFG13, h0=1e80)
    assert str(info.value).startswith("avi_g2 run aborted at t = 0 after 0 steps: Jacobian overflows")
    assert isinstance(info.value.__cause__, NonconvergenceError)
    assert len(info.value.trajectory) == 1 and not info.value.trajectory.steps


# (monitor, e, h0, the fifth trial's first step) of calibrations whose
# five trials all miss h0 by more than 1%
@pytest.mark.parametrize("monitor, e, h0, last", [("g2", 0.7, 0.3, "2.30"), ("g2", 0.7, 0.2, "1.40"),
                                                  ("g1", 0.7, 0.3, "1.43"), ("g1", 0.9, 0.1, "4.63")])
def test_avi_calibration_that_misses_h0_fails_the_run(monitor, e, h0, last):
    # the da rescaled after the fifth miss was never solved with, and a run
    # stepping with it began at 2-13% of h0: the run fails at its start
    model, s0 = KeplerTwoBody(), kepler_initial_state(e)
    with pytest.raises(IntegrationError) as info:
        avi_run(model, make_monitor(monitor, model, s0), s0, 2 * math.pi, CFG13, h0=h0)
    assert str(info.value).startswith(
        f"avi_{monitor} run aborted at t = 0 after 0 steps: delta_a calibration missed h0 = {h0} "
        f"by more than 1% after 5 solves (last first step {last}")
    assert isinstance(info.value.__cause__, NonconvergenceError)
    traj = info.value.trajectory
    assert len(traj) == 1 and not traj.steps and traj.meta["delta_a"] is None


def test_setup_failures_carry_the_meta_of_a_step_failure():
    # EpAVI's energy initialization over h0 = 1 and AVI's delta_a calibration
    # at e = 0.95 fail before the first step; their one-state trajectories
    # carry the meta keys of a run that a step failure ends: EpAVI's fold at
    # e = 0.9 after 37 steps, and an AVI run at e = 0.7 whose monitor
    # 1.5 - q'q falls towards 0 as |q| nears sqrt(1.5), after 1,197 steps
    def aborted(run, *args, **kwargs):
        with pytest.raises(IntegrationError) as info:
            run(model, *args, **kwargs)
        return info.value.trajectory

    model = KeplerTwoBody()
    init = aborted(epavi_run, kepler_initial_state(0.1), 1.0, 2 * math.pi)
    fold = aborted(epavi_run, kepler_initial_state(0.9), 1e-3, 2 * math.pi, CFG15)
    assert len(init) == 1 and len(fold) == 38
    assert init.meta.keys() == fold.meta.keys() >= {"integrator", "model", "params", "h0", "T_final", "tol"}
    assert init.meta["h0"] == 1.0 and init.meta["integrator"] == "epavi"

    s0 = kepler_initial_state(0.95)
    calibration = aborted(avi_run, make_monitor("g2", model, s0), s0, 2 * math.pi, CFG13, h0=0.05)
    s0 = kepler_initial_state(0.7)
    shifted = Monitor("shifted", lambda q, V, dV: 1.5 - sum(x * x for x in q),
                      lambda q, g, dV, d2V: [-2 * x for x in q])
    step = aborted(avi_run, shifted, s0, 2 * math.pi, CFG13, h0=1e-2)
    assert len(calibration) == 1 and not calibration.steps and len(step.steps) == 1197
    assert calibration.meta.keys() == step.meta.keys() >= {"monitor", "h0", "delta_a"}
    assert calibration.meta["delta_a"] is None
    assert step.meta["delta_a"] == float(avi_calibrate_delta_a(model, shifted, s0, 1e-2, CFG13))


def test_avi_monitor_domain_error_propagates():
    # arclength radicand is negative when H0 < V(q)
    model = Pendulum()
    s0 = ExtendedState(t=0.0, q=np.array([0.1]), p=np.array([0.0]), E=0.0)
    monitor = make_monitor("g1", model, s0)
    bad = ExtendedState(t=0.0, q=np.array([3.0]), p=np.array([0.0]), E=0.0)
    with pytest.raises(MonitorDomainError):
        avi_step(model, monitor, bad, 0.1, CFG13)


@pytest.mark.parametrize("call,where", [
    (lambda model, monitor, s0: avi_step(model, monitor, s0, 0.1, CFG13), "step start"),
    (lambda model, monitor, s0: avi_calibrate_delta_a(model, monitor, s0, 0.1, CFG13), "initial state"),
])
def test_a_cold_avi_start_at_the_zero_of_g2_is_refused(call, where):
    # g2 = q'q is 0 at q = 0: the explicit-Euler start da g(q_k) M^{-1} p_k
    # and the calibration's da = h0 / g(q_0) need g(q_0) > 0
    model = HarmonicOscillator()
    s0 = model.initial_state({"q0": 0.0, "p0": 1.0})
    with pytest.raises(MonitorDomainError, match=f"^monitor value 0.0 at the {where} is not positive$"):
        call(model, make_monitor("g2", model, s0), s0)


@pytest.mark.parametrize("digits", [16, 18])
def test_warm_started_avi_step_rejects_a_negative_monitor(digits):
    # given dq0, the step makes no monitor call at q_k: the residual at dq0
    # meets g(q_av) <= 0, and newton_solve does not catch that first
    # evaluation's MonitorDomainError
    ctx = with_precision(digits)
    model, s0 = KeplerTwoBody(ctx), kepler_initial_state(0.7, ctx)  # |q_0| = 0.3
    monitor = Monitor("shifted", lambda q, V, dV: sum(x * x for x in q) - 1,
                      lambda q, g, dV, d2V: [2 * x for x in q])
    h = ctx.real("1e-2")
    with pytest.raises(MonitorDomainError, match=r"^monitor value \S+ is not positive$"):
        avi_step(model, monitor, s0, h, SolverConfig.for_context(ctx), np.dot(np.diag(model.inverse_masses), s0.p) * h)


def test_avi_run_records_delta_a():
    model = KeplerTwoBody()
    s0 = kepler_initial_state(0.1)
    monitor = make_monitor("g2", model, s0)
    traj = avi_run(model, monitor, s0, 0.05, CFG13, h0=1e-3)
    assert np.all(np.diff(traj.times()) > 0)
    assert traj.meta["delta_a"] == float(avi_calibrate_delta_a(model, monitor, s0, 1e-3, CFG13))
    # realized step over fictitious step is the monitor value: bounded t'(a)
    for rec in traj.steps:
        assert 1e-3 <= rec.h / traj.meta["delta_a"] <= 1e3


@pytest.mark.parametrize("fixture, n_steps", [("avi1_e07", 946), ("avi2_e07", 793)])
def test_avi_warm_start_iterations(request, fixture, n_steps):
    # extrapolated increments: 1.8 iterations per step at e = 0.7
    # (2.8 from the explicit-Euler guess), with the same steps
    traj = request.getfixturevalue(fixture)
    assert len(traj.steps) == n_steps
    assert sum(rec.iterations for rec in traj.steps) <= 2.0 * n_steps


def _random_state(model, rng, ctx):
    if model.n == 2:
        r, theta = rng.uniform(0.3, 1.7), rng.uniform(0.0, 2 * np.pi)
        q = [r * np.cos(theta), r * np.sin(theta)]
    else:
        q = list(rng.uniform(-1.5, 1.5, 1))
    p = list(rng.uniform(-1.5, 1.5, model.n))
    return ExtendedState(t=ctx.real(rng.uniform(0.0, 10.0)), q=ctx.array(q), p=ctx.array(p),
                         E=ctx.real(0))


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("problem", ["kepler", "oscillator", "pendulum"])
def test_unit_monitor_avi_step_is_the_fixed_step_bit_for_bit(problem, digits):
    # AVI and the fixed step solve one momentum equation; with g = 1 its
    # monitor term is an exact zero and da * 1 is da
    ctx = with_precision(digits)
    model = {"kepler": lambda: KeplerTwoBody(ctx), "oscillator": lambda: HarmonicOscillator(1.5, 2.0, ctx),
             "pendulum": lambda: Pendulum(0.5, ctx)}[problem]()
    cfg = SolverConfig.for_context(ctx)
    rng = np.random.default_rng(3)
    for _ in range(20):
        state = _random_state(model, rng, ctx)
        h = ctx.real(rng.uniform(1e-3, 5e-2))
        avi_state, _ = avi_step(model, make_monitor("unit", model, state), state, h, cfg)
        fixed_state, _ = midpoint_fixed_step(model, state, h, cfg)
        for name in ("t", "q", "p", "E"):
            assert _exact(getattr(avi_state, name)) == _exact(getattr(fixed_state, name)), name


@pytest.mark.parametrize("fixture", ["avi1_e07", "avi2_e07", "avi1_e01", "avi2_e01"])
def test_avi_steps_satisfy_the_coupled_rows(request, fixture):
    # the momentum solve in dq leaves every (q, p, t) row of the implicit
    # midpoint equations in the module docstring at the rounding level
    traj = request.getfixturevalue(fixture)
    model = KeplerTwoBody()
    monitor = make_monitor(traj.meta["monitor"], model, traj.states[0])
    worst, da = 0.0, traj.meta["delta_a"]
    for s0, s1 in zip(traj.states, traj.states[1:]):
        q0, q1, p0, p1 = map(np.asarray, (s0.q, s1.q, s0.p, s1.p))
        q_av, p_av = (q0 + q1) / 2, (p0 + p1) / 2
        V, dV = model.potential_and_gradient(q_av.tolist())
        g = monitor.g(q_av.tolist(), V, dV)
        rows = [(q1 - q0) / da - np.dot(np.diag(model.inverse_masses), p_av) * g,
                (p1 - p0) / da + np.array(dV) * g,
                [(s1.t - s0.t) / da - g]]
        worst = max(worst, np.max(np.abs(np.concatenate(rows))) * da)
    assert worst <= 1e-14


@pytest.mark.parametrize("monitor, n_steps", [("g1", 103), ("g2", 89)])
def test_extended_avi_period(monitor, n_steps):
    ctx = with_precision(18)
    model, s0 = KeplerTwoBody(ctx), kepler_initial_state(0.7, ctx)
    cfg = SolverConfig.for_context(ctx, tol=1e-17)
    traj = avi_run(model, make_monitor(monitor, model, s0), s0, 2 * math.pi, cfg, h0=ctx.real("1e-2"))
    assert len(traj.steps) == n_steps
    assert all(rec.residual_norm <= cfg.tol for rec in traj.steps)


@pytest.mark.parametrize("integrator", ["epavi", "avi_g1", "avi_g2", "avi_unit", "midpoint_fixed"])
def test_integrators_never_reach_fd_jacobian(monkeypatch, integrator):
    def forbidden(*args, **kwargs):
        raise AssertionError("fd_jacobian reached")

    monkeypatch.setattr(varint.solvers, "fd_jacobian", forbidden)
    model = KeplerTwoBody()
    s0 = kepler_initial_state(0.7)
    if integrator == "epavi":
        traj = epavi_run(model, s0, 1e-3, 0.02, CFG13)
    elif integrator == "midpoint_fixed":
        traj = midpoint_fixed_run(model, s0, 1e-3, 0.02, CFG13)
    else:
        monitor = make_monitor(integrator[4:], model, s0)
        traj = avi_run(model, monitor, s0, 0.02, CFG13, h0=1e-3)
    assert traj.states[-1].t >= 0.02 and all(rec.iterations >= 1 for rec in traj.steps)


@pytest.mark.parametrize("integrator", ["epavi", "avi_g2", "midpoint_fixed"])
def test_runs_keep_the_traced_call_graph(monkeypatch, integrator):
    # the benchmark's tracer rebinds these names in the module and binds
    # newton_solve's F and jacobian by name: a run makes one step call per
    # step through the module, each with a newton_solve call of its own
    # through it, and an AVI run's calibration makes step calls of its own
    calls, stack = [], [None]  # (name, index of the enclosing wrapped call)

    def counting(name):
        original = getattr(varint.integrators, name)

        def wrapper(*args, **kwargs):
            if name == "newton_solve":
                bound = inspect.signature(original).bind(*args, **kwargs).arguments
                assert callable(bound["F"]) and callable(bound["jacobian"])
            calls.append((name, stack[-1]))
            stack.append(len(calls) - 1)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(varint.integrators, name, wrapper)

    for name in ("newton_solve", "epavi_step", "avi_step", "avi_calibrate_delta_a"):
        counting(name)
    model, s0 = KeplerTwoBody(), kepler_initial_state(0.7)
    if integrator == "epavi":
        traj = epavi_run(model, s0, 1e-2, 0.5, CFG13)
    elif integrator == "avi_g2":
        traj = avi_run(model, make_monitor("g2", model, s0), s0, 0.5, CFG13, h0=1e-2)
    else:
        traj = midpoint_fixed_run(model, s0, 1e-2, 0.5, CFG13)
    step_name = "epavi_step" if integrator == "epavi" else "avi_step"
    steps = [i for i, (name, parent) in enumerate(calls) if parent is None and name != "newton_solve"]
    calibration = [i for i, (_, parent) in enumerate(calls)
                   if parent is not None and calls[parent][0] == "avi_calibrate_delta_a"]
    if integrator == "avi_g2":
        assert calls[steps[0]][0] == "avi_calibrate_delta_a" and 1 <= len(calibration) <= 5
        assert all(calls[i][0] == "avi_step" for i in calibration)
        steps = steps[1:]
    else:
        assert not calibration
    assert len(steps) == len(traj.steps) > 10 and all(calls[i][0] == step_name for i in steps)
    for i in steps + calibration:
        assert any(name == "newton_solve" and parent == i for name, parent in calls)
    # outside the steps only EpAVI's energy initialization solves
    assert sum(parent is None for name, parent in calls if name == "newton_solve") == (integrator == "epavi")


# -- fixed midpoint -----------------------------------------------------------------


def test_midpoint_fixed_run_constant_steps():
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    traj = midpoint_fixed_run(model, s0, 0.1, 1.0, CFG13)
    hs = traj.step_sizes()
    assert np.allclose(hs, 0.1, atol=1e-15)


def test_midpoint_fixed_records_the_solve():
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    traj = midpoint_fixed_run(model, s0, 0.1, 1.0, CFG13)
    assert len(traj.steps) >= 10
    for rec in traj.steps:
        assert rec.iterations >= 1
        assert rec.residual_norm <= CFG13.tol
        assert rec.condition_estimate > 0


@pytest.mark.parametrize("digits, h", [(16, 1e-3), (18, "1e-2")])
def test_fixed_run_is_the_unit_monitor_avi_run_bit_for_bit(digits, h):
    # one code path: the same cold first step and the same warm starts, over
    # a span long enough for the five-increment predictor to be in full use
    ctx = with_precision(digits)
    model, s0 = KeplerTwoBody(ctx), kepler_initial_state(0.7, ctx)
    cfg, h = SolverConfig.for_context(ctx), ctx.real(h)
    fixed = midpoint_fixed_run(model, s0, h, 0.3, cfg)
    avi = avi_run(model, make_monitor("unit", model, s0), s0, 0.3, cfg, h0=h)
    assert len(fixed.steps) >= 30
    assert len(avi.states) == len(fixed.states)
    for a, b in zip(avi.states, fixed.states):
        assert [_exact(a.t), _exact(a.q), _exact(a.p), _exact(a.E)] == \
            [_exact(b.t), _exact(b.q), _exact(b.p), _exact(b.E)]
    for a, b in zip(avi.steps, fixed.steps):
        assert [_exact(getattr(a, f.name)) for f in fields(a)] == \
            [_exact(getattr(b, f.name)) for f in fields(b)]


# -- the step update reuses the solve ---------------------------------------------


def test_step_updates_reuse_the_residual_kernel(monkeypatch):
    # the update after each solve reads the midpoint kernel and AVI's monitor
    # value from the residual's value at the solution instead of computing
    # them again
    counts = dict.fromkeys(["kernel", "g", "residual", "jacobian", "potential", "hamiltonian",
                             "potential_and_gradient"], 0)
    increment, solve = varint.integrators._increment, varint.integrators.newton_solve

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_solve(F, x0, cfg, ctx, *, jacobian, scale):
        return solve(counted("residual", F), x0, cfg, ctx, jacobian=counted("jacobian", jacobian), scale=scale)

    monkeypatch.setattr(varint.integrators, "_increment", counted("kernel", increment))
    monkeypatch.setattr(varint.integrators, "newton_solve", counting_solve)
    model, s0 = KeplerTwoBody(), kepler_initial_state(0.7)
    for run in (lambda: epavi_run(model, s0, 1e-3, 0.05, CFG15),
                lambda: midpoint_fixed_run(model, s0, 1e-3, 0.05, CFG13)):
        counts.update(kernel=0, residual=0)
        assert len(run().steps) >= 40
        assert counts["kernel"] == counts["residual"] > 0

    # the fixed run evaluates V and grad V in its residuals, plus g(q_0) once
    # at the cold first step's start, as AVI does; the later steps are
    # warm-started
    monkeypatch.setattr(KeplerTwoBody, "potential_and_gradient",
                        counted("potential_and_gradient", KeplerTwoBody.potential_and_gradient))
    counts.update(residual=0, potential_and_gradient=0)
    assert len(midpoint_fixed_run(model, s0, 1e-3, 0.05, CFG13).steps) >= 40
    assert counts["potential_and_gradient"] == counts["residual"] + 1 > 1

    # AVI: one kernel and one monitor value per residual, plus g(q_k) at the
    # start of each step that is not warm-started, the calibration's trial
    # step and the run's first step (at h0 = 1e-3 the first trial realizes
    # h0 within 1%), and g(q_0) for the calibration's first da = h0 / g(q_0);
    # the Jacobian reads h from the residual's kernel
    monitor = make_monitor("g2", model, s0)
    monitor = replace(monitor, g=counted("g", monitor.g))
    counts.update(kernel=0, g=0, residual=0, jacobian=0)
    avi_run(model, monitor, s0, 0.05, CFG13, h0=1e-3)
    assert counts["jacobian"] > 0
    assert counts["kernel"] == counts["residual"]
    assert counts["g"] == counts["residual"] + 3

    # the arclength monitor takes V(mid) from the kernel and V(q_k) from the
    # step start's gradient call: V alone is evaluated only for H(q, p)
    monkeypatch.setattr(KeplerTwoBody, "potential", counted("potential", KeplerTwoBody.potential))
    monkeypatch.setattr(KeplerTwoBody, "hamiltonian", counted("hamiltonian", KeplerTwoBody.hamiltonian))
    traj = avi_run(model, make_monitor("g1", model, s0), s0, 0.05, CFG13, h0=1e-3)
    assert len(traj.steps) >= 40
    assert counts["potential"] == counts["hamiltonian"] > len(traj.steps)


def _exact(x):
    """Every bit of a context scalar, or of each component of an array, a list or a tuple."""
    if isinstance(x, (np.ndarray, list, tuple)):
        return [_exact(c) for c in x]
    if isinstance(x, Decimal):
        return str(x)
    if x is None or isinstance(x, (bool, np.bool_, int, np.integer)):
        return x
    return float(x).hex()


def trajectory_digest(traj) -> str:
    """SHA-256 of every state and StepRecord of ``traj``, bit for bit."""
    lines = [repr([_exact(s.t), _exact(s.q), _exact(s.p), _exact(s.E)]) for s in traj.states]
    lines += [repr([_exact(getattr(r, f.name)) for f in fields(r)]) for r in traj.steps]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: Digests of seed-0 one-period Kepler runs at e = 0.7, recorded before the
#: step updates reused the residual's kernel; the 18-digit run has 109 steps.
#: The two AVI runs were recorded again once AVI solved its momentum equation
#: in dq alone (test_unit_monitor_avi_step_is_the_fixed_step_bit_for_bit and
#: test_avi_steps_satisfy_the_coupled_rows back the new bits).  The fixed
#: step's was recorded again once it became the unit-monitor AVI step: its
#: records' delta_a reads h instead of None, and with delta_a masked the
#: digest is the one recorded before.  It was recorded once more when the
#: fixed run became the unit-monitor AVI run, warm-started by the run
#: driver's predictor: the same 6,284 steps, with states within 1.4e-12 in
#: q and p of the explicit-start run's.  All five were recorded again when
#: the Newton step moved from SciPy's LAPACK wrappers to numpy's gufuncs:
#: every state and every StepRecord field but condition_estimate is equal in
#: value to the dgetrf/dgetrs runs'; condition_estimate, now the exact
#: ||A|| ||A^-1|| instead of dgecon's lower bound, moved by at most 6.1e-16
#: relative on the EpAVI, fixed and 18-digit runs and by at most +1.06% on
#: the two AVI runs, where the estimate had read low.
#:
#: The entries from "epavi_e01" on were recorded before the midpoint kernel,
#: the residuals and Jacobians and the warm start moved from NumPy arrays to
#: Python scalars: the one-period e = 0.1 runs of the fig_e01 suite (5,365,
#: 5,373 and 5,116 steps), n = 1 runs with a non-unit mass (the oscillator
#: from rest takes 1,000 steps and retries step 2, the pendulum EpAVI run
#: retries one of its 209 steps), and 18-digit AVI g2 and fixed-step runs,
#: whose momentum systems solve on object arrays (25 and 50 steps).
#:
#: All thirteen were recorded again when StepRecord lost its delta_a field,
#: a constant of the run that its meta holds: each is the digest of the run
#: before that change with the field left out, so no state bit and no other
#: field moved.
#:
#: The three 18-digit entries were recorded again when extended precision
#: moved from mpmath's 73-bit binary floats to 23-digit decimals: the same
#: step counts (25, 50 and 109), each state within 6.2e-21 of the binary
#: run's in t, q, p and E for "avi2_d18_e07" and "midpoint_fixed_d18_e07";
#: the one-period EpAVI run's t, q and p within 6.2e-18 (the time step
#: carries the rounding along the orbit) and its E within 6.7e-21, its
#: max |E - E0| 1.9e-21 against 5.0e-21.
#:
#: Twelve were recorded again when the Newton step's linear algebra moved
#: from numpy's LAPACK gufuncs to elimination and the adjugate on Python
#: floats, and the g1 monitor's gradient from np.dot to a Python sum; before,
#: the EpAVI states took other bits under OpenBLAS's Haswell kernels than
#: under its SkylakeX ones.  The AVI, fixed-step and pendulum EpAVI runs keep
#: every state bit, and their condition_estimate moved by at most 6.7e-16
#: relative (8.4e-12 at one pendulum step); the Kepler, oscillator and
#: 18-digit EpAVI runs keep their step counts and take new states (Newton
#: iterations 6,999 -> 7,038 at e = 0.1, 1,372 -> 1,385 at e = 0.7, 1,297 ->
#: 1,305 for the oscillator and 392 -> 393 in 18 digits).  "pendulum_fixed",
#: whose 1 x 1 systems divide once, kept its digest.  One set of digests
#: holds under the Prescott, Haswell and SkylakeX kernels.
#:
#: Two 18-digit entries were recorded again when the Jacobians came to be
#: formed from the residual's kernel, its mid, v, Mv and h rounded to double,
#: instead of from q_k and dq rounded to double (see
#: test_jacobians_from_the_kernel_are_the_recomputed_ones); every double
#: entry kept its digest.  "avi2_d18_e07" keeps every state bit and its 25
#: steps and 77 Newton iterations; one condition_estimate moved by 1.9e-16
#: relative.  "vpa_extended_tol17" keeps its 109 steps and takes new states,
#: t, q and p within 1.9e-18 and E within 1.0e-21 of the recomputed-Jacobian
#: run's: Newton iterations 393 -> 386, max |E - E0| 9.0e-22 -> 1.3e-21.
#: "midpoint_fixed_d18_e07" kept its digest.
TRAJECTORY_DIGESTS = {
    "epavi_e07": "0859ccec33636f168fa443d24fd924e0cbe09ffaef4ef9ab8cdb727c9cf56618",
    "avi1_e07": "cd5c9b613b93b3ced95d345e1c964c8eb72b09c7558006b982627d419f6e5b2d",
    "avi2_e07": "54bc6ea75e5664faf662f96657fc16db4b031acec20b1632599409e675fc3142",
    "midpoint_fixed_e07": "04917151f6e88530e163f09ebe49b9710a9b4278c3f359c41a34b56555686057",
    "vpa_extended_tol17": "3c26553db43df15e8d55017f22ecfe51fea17644be19b40e88e93ee4f9ab8e07",
    "epavi_e01": "8bfa419940763c2cba531925dedb217e6ce74273a35bae536cb659fee80d75d4",
    "avi1_e01": "2de7d23044f2787ade57f64bc886dd5d0c700b3d2fcbb87a9c3f266dd03ab5d7",
    "avi2_e01": "9a0e26dc8a4926af8bf2a9a618f13bf76efad08e3f5e315684cc42a78ca6dc96",
    "oscillator_epavi_from_rest": "f1f387688da18c305f6711a02d84749eeb1c1bb2daabb6489a2f61e7099b2490",
    "pendulum_fixed": "6a6c07a88ae1b8826e31fceaa9c16b879e223f83b323be5a1e21b16946f13114",
    "pendulum_epavi": "2dd440c1844e4214db749c675e8366fe3856d25612c413d753ecd46f66edae3f",
    "avi2_d18_e07": "670846ff00174e2ab80ab9efb3c7bb577acf997752431e91def8c47b7a88747f",
    "midpoint_fixed_d18_e07": "3392fccef34aa2f0f6dc2154304ff723f42912e8e9d2b8eb21de2ac759b35a55",
}


_OSCILLATOR, _PENDULUM = {"k": 1.3, "m": 0.8}, {"m": 0.8}


def _kepler18_run(run, e=0.7):
    ctx = with_precision(18)
    return run(KeplerTwoBody(ctx), kepler_initial_state(e, ctx), ctx.real(1e-2), SolverConfig(tol=1e-17))


def _from_rest(run, model, *args):
    return run(model, model.initial_state(), *args)


#: The runs behind the TRAJECTORY_DIGESTS entries that no session fixture makes.
_DIGEST_RUNS = {
    "midpoint_fixed_e07": lambda: midpoint_fixed_run(KeplerTwoBody(), kepler_initial_state(0.7), 1e-3,
                                                     2 * math.pi, SolverConfig()),
    "oscillator_epavi_from_rest": lambda: _from_rest(
        epavi_run, HarmonicOscillator(**_OSCILLATOR), 1e-3, 1.0, SolverConfig(tol=1e-14)),
    "pendulum_fixed": lambda: _from_rest(midpoint_fixed_run, Pendulum(**_PENDULUM), 1e-2, 2.0, SolverConfig()),
    "pendulum_epavi": lambda: _from_rest(
        epavi_run, Pendulum(**_PENDULUM), 1e-2, 2.0, SolverConfig(tol=1e-14)),
    "avi2_d18_e07": lambda: _kepler18_run(
        lambda model, s0, h0, cfg: avi_run(model, make_monitor("g2", model, s0), s0, 0.5, cfg, h0=h0)),
    "midpoint_fixed_d18_e07": lambda: _kepler18_run(
        lambda model, s0, h0, cfg: midpoint_fixed_run(model, s0, h0, 0.5, cfg)),
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
def test_trajectories_keep_every_bit(request, name):
    # a change meant to leave the arithmetic alone must not move one bit of
    # a state or a StepRecord field of these runs
    traj = _DIGEST_RUNS[name]() if name in _DIGEST_RUNS else request.getfixturevalue(name)
    assert trajectory_digest(traj) == TRAJECTORY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(n for n in TRAJECTORY_DIGESTS if "d18" not in n and "vpa" not in n))
def test_double_digest_runs_keep_the_stall_rule_of_their_tolerance(request, name):
    # the residual floor FLOOR_ULPS eps s, with s the largest term of the
    # residual rows at any step's solution, lies below STALL_FACTOR tol in
    # every double digest run: there the floor accepts no stall that the
    # tolerance alone refused, so no double bit moves
    traj = _DIGEST_RUNS[name]() if name in _DIGEST_RUNS else request.getfixturevalue(name)
    model = make_model(traj.meta["model"], traj.meta["params"])
    states = list(traj.states)
    s = max(_largest_term(a, True, _increment(model, a.q, list(map(sub, b.q, a.q)), record.h))
            for a, b, record in zip(states, states[1:], traj.steps))
    assert traj.meta["digits"] == 16 and 0.5 < s < 4.0
    assert FLOOR_ULPS * DOUBLE.eps * s < STALL_FACTOR * traj.meta["tol"]


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("integrator", ["epavi", "avi_g1"])
def test_trajectory_views_return_what_the_steps_returned(integrator, digits):
    # the stored rows and step columns give back every state and StepRecord
    # that the step functions returned, each bit and each type: context
    # scalars, tuple q and p, an int iteration count and bool flags
    ctx = with_precision(digits)
    model, s0 = KeplerTwoBody(ctx), kepler_initial_state(0.7, ctx)
    cfg, h = SolverConfig.for_context(ctx), ctx.real("1e-2")
    returned, starts = [], []
    if integrator == "epavi":
        with ctx.arithmetic():  # as a run's setup computes it
            s0 = replace(s0, E=initial_discrete_energy(model, s0, h, cfg))

        def step(state, h_prev, z0):
            starts.append(state)
            returned.append(epavi_step(model, state, h_prev, cfg, z0))
            return returned[-1]
    else:
        monitor = make_monitor("g1", model, s0)
        with ctx.arithmetic():
            s0 = replace(s0, E=model.hamiltonian(s0.q, s0.p))

        def step(state, _, z0):
            starts.append(state)
            returned.append(avi_step(model, monitor, state, h, cfg, None if z0 is None else z0[:-1]))
            return returned[-1]

    traj = _march(model, integrator, lambda state0, _: (state0, step, h), s0, 0.3, cfg)
    states = [starts[0]] + [state for state, _ in returned]
    records = [record for _, record in returned]
    assert len(traj) == len(traj.states) == len(states) >= 20 and len(traj.steps) == len(records)
    assert traj.states and traj.steps and list(traj.states[-3:]) == states[-3:]

    def typed(x):
        if isinstance(x, ExtendedState):
            assert type(x.q) is tuple and type(x.p) is tuple
            return typed_bits(ctx, [x.t, x.q, x.p, x.E])
        fields_ = [getattr(x, f.name) for f in fields(x)]
        assert [type(v) for v in fields_[2:]] == [int, float, bool, bool]
        return typed_bits(ctx, fields_[:2]) + [_exact(v) for v in fields_[2:]]

    for got, want in [(traj.states[0], states[0]), (traj.states[-1], states[-1]),
                      (traj.steps[0], records[0]), (traj.steps[-1], records[-1])]:
        assert typed(got) == typed(want)
    assert [typed(s) for s in traj.states[1:6]] == [typed(s) for s in states[1:6]]
    assert [typed(r) for r in traj.steps[-4:-1]] == [typed(r) for r in records[-4:-1]]
    assert [typed(s) for s in traj.states] == [typed(s) for s in states]
    assert any(r.iterations > 1 for r in records)
    with pytest.raises(IndexError):
        traj.steps[len(records)]


def test_double_trajectory_retains_under_128_bytes_per_step():
    # the rows (t, q, p, E) and the step columns of a double Kepler run: 48
    # and 34 bytes a step plus the buffers' spare room, where an
    # ExtendedState with two arrays and a StepRecord object took 634
    import gc
    import tracemalloc

    model, s0 = KeplerTwoBody(), kepler_initial_state(0.7)
    epavi_run(model, s0, 1e-3, 0.1, CFG15)  # warm every cache first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = epavi_run(model, s0, 1e-3, 2 * math.pi, CFG15)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.steps) >= 1000
    assert retained / len(traj) <= 128


@pytest.mark.parametrize("e", [0.60, 0.62, 0.65, 0.68, 0.70, 0.72, 0.75, 0.80])
def test_a_tolerance_below_the_floor_is_met_at_the_floor(e):
    # 18 digits work at 23: one rounding of the O(1) terms of the momentum
    # and energy rows is 1e-22, so at tol = 1e-23 some solves stall, each
    # within FLOOR_ULPS eps of the rows' largest term, which the rule
    # accepts (by STALL_FACTOR tol = 1e-22 alone, 6 of these 8 runs stopped
    # at a stalled residual of 1.0e-22 or more).  At e = 0.80 the run meets
    # the fold of the energy row (ROADMAP item 1) at t = 0.323, 1.3e-3 above
    # any floor: it aborts there at tol = 1e-23 as at 1e-17.
    ctx = with_precision(18)

    def run(tol):
        return epavi_run(KeplerTwoBody(ctx), kepler_initial_state(e, ctx), ctx.real(1e-2), 0.5, SolverConfig(tol=tol))

    if e < 0.8:
        traj = run(1e-23)
        assert traj.states[-1].t >= 0.5 and any(r.stalled for r in traj.steps)
        assert max(r.residual_norm for r in traj.steps) <= FLOOR_ULPS * ctx.eps * 10
        return
    aborts = []
    for tol in (1e-23, 1e-17):
        with pytest.raises(IntegrationError, match="no convergence: residual 1.292e-03") as info:
            run(tol)
        aborts.append((len(info.value.trajectory.steps), float(info.value.trajectory.states[-1].t)))
    assert aborts[0] == aborts[1] and aborts[0][0] == 13


@pytest.mark.parametrize("digits, tol", [(16, 1e-16), (18, 1e-23)])
def test_stalled_is_a_bool(digits, tol):
    # a tolerance below the residual floor: some steps are accepted stalled
    ctx = with_precision(digits)
    traj = epavi_run(KeplerTwoBody(ctx), kepler_initial_state(0.7, ctx), ctx.real(1e-2), 0.5,
                     SolverConfig(tol=tol))
    assert any(r.stalled for r in traj.steps)
    assert all(type(r.stalled) is bool for r in traj.steps)


@pytest.mark.parametrize("name", ["kepler", "oscillator", "pendulum"])
def test_double_runs_record_python_scalars(name):
    # the Newton iterate and residuals are lists of context scalars, so a
    # double run records a float residual norm and a bool stall flag, not
    # numpy's float64 and bool_ (whose repr differs); the 1-DOF models' V
    # comes from the array methods, indexed from an array
    model = make_model(name)
    state0 = model.initial_state({"q0": 0.5, "p0": 0.5})
    runs = [epavi_run(model, state0, 1e-2, 0.2, SolverConfig(tol=1e-16)),
            avi_run(model, make_monitor("g1", model, state0), state0, 0.2, SolverConfig(tol=1e-16), h0=1e-2),
            midpoint_fixed_run(model, state0, 1e-2, 0.2, SolverConfig(tol=1e-16))]
    for traj in runs:
        assert len(traj.steps) >= 10
        assert all(type(r.residual_norm) is float and type(r.stalled) is bool for r in traj.steps)


def test_extended_fixed_oscillator_conserves_h_with_a_non_dyadic_mass():
    # M^{-1} = 1/m in the context's arithmetic: rounded to double first, the
    # inverse of m = 0.8 left H drifting by 3.6e-17 at 18 digits
    ctx = with_precision(18)
    params = {"k": 1.3, "m": 0.8}
    model = make_model("oscillator", params, ctx)
    traj = midpoint_fixed_run(model, model.initial_state(), 0.01, 2.0,
                              SolverConfig.for_context(ctx))
    assert len(traj.steps) >= 200
    assert energy_error_series(traj).max() <= 1e-19


# -- run driver -------------------------------------------------------------------


def test_run_aborts_on_step_underflow():
    # a step below the resolution of t would take ~1e15 steps to reach T_final
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    with pytest.raises(IntegrationError) as info:
        midpoint_fixed_run(HarmonicOscillator(), s0, 1e-15, 1.0)
    assert isinstance(info.value.__cause__, NonMonotoneTimeError)
    assert str(info.value).startswith("midpoint_fixed run aborted at t = 0 after 0 steps: ")
    assert len(info.value.trajectory.states) == 1


def test_march_falls_back_to_the_last_increment_below_a_zero_h_prediction():
    # the degree-4 extrapolation of h = 0.1, 0.1, 0.1, 0.1, 0.001 predicts
    # h = -0.395, so the sixth step starts from the fifth increment instead
    hs, starts = [0.1, 0.1, 0.1, 0.1, 0.001, 0.1], []

    def step(state, _, z0):
        starts.append(z0)
        h = hs[len(starts) - 1]
        return replace(state, t=state.t + h, q=tuple(x + h for x in state.q)), StepRecord(h, 0.0, 0)

    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    traj = _march(HarmonicOscillator(), "scripted", lambda state0, _: (state0, step, 0.1), s0, 0.45, CFG13)
    assert len(traj.steps) == 6 and starts[0] is None
    states = traj.states
    history = [np.append(np.subtract(b.q, a.q), r.h) for a, b, r in zip(states[:5], states[1:], traj.steps)]
    assert _extrapolate(history)[-1] == pytest.approx(-0.395)
    assert np.array_equal(starts[5], history[-1])


_SPAN_PROBE = """
import numpy as np
from varint import (ConfigurationError, HarmonicOscillator, avi_run, epavi_run, make_monitor,
                    midpoint_fixed_run, reference_solve)
from varint.models import ExtendedState

model = HarmonicOscillator()
s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
runs = {
    "epavi": lambda T: epavi_run(model, s0, 0.1, T),
    "avi": lambda T: avi_run(model, make_monitor("unit", model, s0), s0, T, h0=0.1),
    "midpoint_fixed": lambda T: midpoint_fixed_run(model, s0, 0.1, T),
    "reference": lambda T: reference_solve(model, s0, T),
}
for name, run in runs.items():
    for T in ("nan", "inf"):
        try:
            run(float(T))
            outcome = "returned"
        except ConfigurationError as exc:
            outcome = str(exc)
        print(name, T, outcome, flush=True)
"""


@pytest.fixture(scope="module")
def span_probe():
    # a run to an infinite T_final, and the reference solve to a nan or
    # infinite one, never return unchecked: a fresh interpreter under a
    # timeout turns a regression into a failure instead of a hung session
    src = str(Path(varint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        out = subprocess.run([sys.executable, "-c", _SPAN_PROBE], env=env, capture_output=True,
                             text=True, timeout=60).stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        out = out.decode() if isinstance(out, bytes) else out
    return out.splitlines()


@pytest.mark.parametrize("T_final", ["nan", "inf"])
@pytest.mark.parametrize("entry", ["epavi", "avi", "midpoint_fixed", "reference"])
def test_non_finite_t_final_is_a_configuration_error(span_probe, entry, T_final):
    message = f"T_final must be finite and not precede the initial time, got {T_final}"
    assert f"{entry} {T_final} {message}" in span_probe


@pytest.mark.parametrize("integrator", ["epavi", "avi", "midpoint_fixed"])
def test_runs_check_span_before_any_solve(integrator):
    # T_final precedes t0; at the pendulum top the g1 monitor is undefined,
    # so an AVI calibration run before the check would raise MonitorDomainError
    model = Pendulum()
    s0 = ExtendedState(t=1.0, q=np.array([3.0]), p=np.array([0.0]), E=1.0)
    with pytest.raises(ConfigurationError):
        if integrator == "epavi":
            epavi_run(model, s0, 0.1, 0.5, CFG13)
        elif integrator == "avi":
            monitor = make_monitor("g1", model, replace(s0, q=np.array([0.1])))
            avi_run(model, monitor, s0, 0.5, CFG13, h0=0.1)
        else:
            midpoint_fixed_run(model, s0, 0.1, 0.5, CFG13)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
@pytest.mark.parametrize("integrator, name", [
    ("epavi", "h0"), ("avi", "h0"), ("midpoint_fixed", "h"),
])
def test_runs_reject_non_positive_steps(integrator, name, h):
    # a configuration error naming the argument, before any solve
    model, s0 = KeplerTwoBody(), kepler_initial_state(0.7)
    with pytest.raises(ConfigurationError, match=f"^{name} must be positive"):
        if integrator == "epavi":
            epavi_run(model, s0, h, 1.0, CFG13)
        elif integrator == "avi":
            avi_run(model, make_monitor("g2", model, s0), s0, 1.0, CFG13, **{name: h})
        else:
            midpoint_fixed_run(model, s0, h, 1.0, CFG13)
    if integrator == "midpoint_fixed":
        with pytest.raises(ConfigurationError, match="^h must be positive"):
            midpoint_fixed_step(model, s0, h, CFG13)


def _argument_entries():
    """Each entry point with one numeric argument set to ``x``, by name."""
    model, s0 = KeplerTwoBody(), kepler_initial_state(0.7)
    g2 = make_monitor("g2", model, s0)
    return {
        "epavi_run:h0": lambda x: epavi_run(model, s0, x, 1.0, CFG13),
        "avi_run:h0": lambda x: avi_run(model, g2, s0, 1.0, CFG13, h0=x),
        "midpoint_fixed_run:h": lambda x: midpoint_fixed_run(model, s0, x, 1.0, CFG13),
        "epavi_step:h_guess": lambda x: epavi_step(model, s0, x, CFG13),
        "avi_step:delta_a": lambda x: avi_step(model, g2, s0, x, CFG13),
        "midpoint_fixed_step:h": lambda x: midpoint_fixed_step(model, s0, x, CFG13),
        "avi_calibrate_delta_a:h0": lambda x: avi_calibrate_delta_a(model, g2, s0, x, CFG13),
        "initial_discrete_energy:h0": lambda x: initial_discrete_energy(model, s0, x, CFG13),
        "epavi_run:T_final": lambda x: epavi_run(model, s0, 1e-3, x, CFG13),
        "avi_run:T_final": lambda x: avi_run(model, g2, s0, x, CFG13, h0=1e-3),
        "midpoint_fixed_run:T_final": lambda x: midpoint_fixed_run(model, s0, 1e-3, x, CFG13),
        "reference_solve:T_final": lambda x: reference_solve(model, s0, x),
        "SolverConfig:tol": lambda x: SolverConfig(x),
    }


# a run to an infinite T_final is checked in a fresh interpreter under a
# timeout (test_non_finite_t_final_is_a_configuration_error)
@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in _argument_entries() for value in (None, "1e-3", math.inf)
    if not (entry.endswith("run:T_final") and value == math.inf)
])
def test_a_non_number_or_infinite_argument_is_a_configuration_error(entry, value):
    # a comparison's TypeError stays a VarintError (exit 2 through the CLI),
    # and an infinite step is refused before any solve
    name = entry.split(":")[1]
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        _argument_entries()[entry](value)


# -- reference solver ----------------------------------------------------------------


def test_reference_kepler_closed_orbit(reference_e01):
    s0 = kepler_initial_state(0.1)
    q, p = reference_e01.eval(2 * math.pi)
    assert np.max(np.abs(q - np.asarray(s0.q))) <= 1e-9
    assert np.max(np.abs(p - np.asarray(s0.p))) <= 1e-9


def test_reference_oscillator_cosine():
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    ref = reference_solve(model, s0, 2 * math.pi)
    q, p = ref.eval(2 * math.pi)
    assert q[0] == pytest.approx(1.0, abs=1e-9)
    for t in np.linspace(0, 2 * math.pi, 17):
        q, _ = ref.eval(float(t))
        assert q[0] == pytest.approx(math.cos(t), abs=1e-9)


def test_reference_trivial_span():
    model = KeplerTwoBody()
    s0 = kepler_initial_state(0.3)
    ref = reference_solve(model, s0, 0.0)
    q, p = ref.eval(0.0)
    assert np.all(q == np.asarray(s0.q))


def test_reference_rejects_a_non_finite_start():
    # checked before the solve: RK45 would never return on a nan right-hand side
    s0 = ExtendedState(t=0.0, q=np.array([math.nan]), p=np.array([0.0]), E=0.5)
    with pytest.raises(ConfigurationError, match="non-finite"):
        reference_solve(HarmonicOscillator(), s0, 0.1)


@pytest.mark.parametrize("bad", [{"q": (None, 0.0)}, {"t": "0"}], ids=["q_None", "t_string"])
@pytest.mark.parametrize("entry", ["epavi", "avi", "midpoint_fixed", "reference"])
def test_a_start_component_that_is_not_a_number_is_a_configuration_error(entry, bad):
    # the start's check took abs() of each component, which raised TypeError
    # ("bad operand type for abs()") for None and a string
    model, good = KeplerTwoBody(), kepler_initial_state(0.1)
    s0 = replace(good, **bad)
    run = {"epavi": lambda: epavi_run(model, s0, 1e-2, 0.1),
           "avi": lambda: avi_run(model, make_monitor("g2", model, good), s0, 0.1, h0=1e-2),
           "midpoint_fixed": lambda: midpoint_fixed_run(model, s0, 1e-2, 0.1),
           "reference": lambda: reference_solve(model, s0, 0.1)}[entry]
    with pytest.raises(ConfigurationError, match="^state has non-finite components"):
        run()


def test_reference_rejects_outside_queries(reference_e01):
    with pytest.raises(ConfigurationError):
        reference_e01.eval(100.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
@pytest.mark.parametrize("problem", ["kepler", "oscillator"])
def test_reference_rejects_non_finite_queries(problem, t):
    # nan lies in no span: the oscillator's RK45 interpolant returned nan for
    # it, and the Kepler flow's anomaly solve raised StiffnessError
    model = make_model(problem)
    ref = reference_solve(model, model.initial_state(), 1.0)
    with pytest.raises(ConfigurationError, match="outside the reference span"):
        ref.eval(t)


@pytest.mark.parametrize("problem", ["kepler", "oscillator"])
def test_reference_state_has_tuple_q_and_p(problem):
    model = make_model(problem)
    ref = reference_solve(model, model.initial_state(), 1.0)
    state = reference_state(ref, model, 0.5)
    q, p = ref.eval(0.5)
    assert type(state.q) is tuple and type(state.p) is tuple
    assert typed_bits(DOUBLE, [state.q, state.p]) == typed_bits(DOUBLE, [q.tolist(), p.tolist()])


def _kepler_start(e, kind, t0=0.0):
    """A start at t0 on an orbit of eccentricity e and semi-major axis 1:
    perihelion, or the point of eccentric anomaly 2 (where q'p != 0) with
    the orbit turned about the origin, or that turned start with p reversed
    (a retrograde orbit)."""
    if kind == "perihelion":
        return replace(kepler_initial_state(e), t=t0)
    E, b = 2.0, math.sqrt(1 - e * e)
    d = 1 - e * math.cos(E)
    c, s = math.cos(1.234), math.sin(1.234)
    turn = np.array([[c, -s], [s, c]])
    q = turn @ [math.cos(E) - e, b * math.sin(E)]
    p = turn @ [-math.sin(E) / d, b * math.cos(E) / d]
    return ExtendedState(t=t0, q=q, p=-p if kind == "retrograde" else p, E=-0.5)


_KINDS = ["perihelion", "turned", "retrograde"]


@pytest.mark.parametrize("e, bound", [(0.0, 1.5e-11), (0.1, 2e-11), (0.7, 8e-11), (0.9, 4e-10), (0.99, 1.5e-8)])
def test_kepler_reference_agrees_with_runge_kutta(e, bound):
    # over one period the closed form and RK45 at rtol 1e-12 differ by RK45's
    # own error: max |dq| over the three starts measured 7.7e-12, 9.5e-12,
    # 3.9e-11, 2.0e-10 and 7.4e-9 at these e
    model, T = KeplerTwoBody(), 2 * math.pi
    times = np.linspace(0.0, T, 401)
    for kind in _KINDS:
        s0 = _kepler_start(e, kind)
        q, _ = reference_solve(model, s0, T).eval(times)
        rk = varint.integrators._runge_kutta(model, 0.0, T, np.concatenate([s0.q, s0.p]))(times)
        assert np.abs(q - rk[:2]).max() <= bound, kind


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("e", [0.0, 0.1, 0.7, 0.99])
def test_kepler_reference_starts_at_its_start_bit_for_bit(e, kind):
    s0 = _kepler_start(e, kind, t0=3.0)
    ref = reference_solve(KeplerTwoBody(), s0, 4.0)
    q, p = ref.eval(3.0)
    Q, P = ref.eval(np.array([3.0, 3.5]))
    for got, want in ((q, s0.q), (p, s0.p), (Q[:, 0], s0.q), (P[:, 0], s0.p)):
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("e", [0.0, 0.1, 0.5, 0.7, 0.9])
def test_kepler_reference_keeps_the_invariants_over_16_periods(e, kind):
    # measured: |H - H0| <= 1.6e-14, |L - L0| <= 2.4e-15, and the return to
    # the start after 16 of its own periods (a from its H) within 1.8e-14
    model, s0 = KeplerTwoBody(), _kepler_start(e, kind)
    H0 = model.hamiltonian(s0.q, s0.p)
    period = 2 * math.pi * (-2 * H0) ** -1.5
    ref = reference_solve(model, s0, 16 * period)
    q, p = ref.eval(np.linspace(0.0, 16 * period, 16 * 64 + 1))
    H = (p[0] * p[0] + p[1] * p[1]) / 2 - 1 / np.hypot(q[0], q[1])
    assert np.abs(H - H0).max() <= 1e-13
    assert np.abs(angular_momentum(q, p) - angular_momentum(s0.q, s0.p)).max() <= 1e-13
    q, p = ref.eval(16 * period)
    assert np.abs(q - s0.q).max() <= 1e-12
    assert np.abs(p - s0.p).max() <= 1e-12


@pytest.mark.parametrize("p2", [1.0, 1.5])
def test_unbound_kepler_reference_uses_runge_kutta(p2):
    # H = 0 (parabolic) and H > 0 (hyperbolic) have no ellipse to follow
    from scipy.integrate import OdeSolution

    s0 = ExtendedState(t=0.0, q=np.array([2.0, 0.0]), p=np.array([0.0, p2]), E=0.0)
    assert isinstance(reference_solve(KeplerTwoBody(), s0, 1.0)._sol, OdeSolution)
    bound = reference_solve(KeplerTwoBody(), kepler_initial_state(0.1), 1.0)
    assert not isinstance(bound._sol, OdeSolution)


def test_epavi_step_ratio_bounded(epavi_e07):
    # recorded metadata stays within the bounded-reparametrization box
    h0 = epavi_e07.meta["h0"]
    for rec in epavi_e07.steps:
        assert 1e-3 <= rec.h / h0 <= 1e3


@pytest.mark.parametrize("fixture, bound", [("epavi_e07", 1e-2), ("epavi_e01", 1e-3)])
def test_epavi_steps_follow_the_step_size_law(request, fixture, bound):
    # E_d - H = c2 h^2 + O(h^3) along the midpoint map, so the energy row
    # fixes h_k^2 = (E - H_k)/c2_k; c2 = 2c(h) - c(2h) with
    # c(h) = (E_d(h) - H_k)/h^2 over one fixed-momentum step
    traj = request.getfixturevalue(fixture)
    model, E = KeplerTwoBody(), traj.states[0].E
    worst = 0.0
    for k in np.linspace(0, len(traj.steps) - 1, 40).astype(int):
        state = traj.states[k]
        H = model.hamiltonian(state.q, state.p)
        c = [(initial_discrete_energy(model, state, h, CFG15) - H) / h ** 2 for h in (1e-4, 2e-4)]
        predicted = math.sqrt((E - H) / (2 * c[0] - c[1]))
        worst = max(worst, abs(predicted / traj.steps[k].h - 1))
    assert worst <= bound


@pytest.mark.parametrize("integrator", ["epavi", "avi_g2"])
def test_plain_decimal_inputs_run_at_the_context_precision(integrator):
    # a start state and step given as Decimals of more digits than the
    # context's 23 are brought into the model's context, so they give the
    # bits of their rounding to it, and not those of the 23-digit start
    ctx = with_precision(18)
    model = KeplerTwoBody(ctx)
    s0 = kepler_initial_state(0.7, ctx)
    with localcontext(prec=40):
        tail = Decimal("6.7e-23")
        plain = ExtendedState(t=s0.t, E=s0.E, q=np.array([x + tail for x in s0.q], dtype=object),
                              p=np.array([x - tail for x in s0.p], dtype=object))
        plain_step = Decimal("1e-2") + tail / 100
    rounded = ExtendedState(t=s0.t, E=s0.E, q=tuple(map(ctx.real, plain.q)), p=tuple(map(ctx.real, plain.p)))

    def run(state, step):
        if integrator == "epavi":
            return epavi_run(model, state, step, 1.0)
        return avi_run(model, make_monitor("g2", model, state), state, 1.0, h0=step)

    assert rounded.q != s0.q and rounded.p != s0.p
    assert trajectory_digest(run(plain, plain_step)) == trajectory_digest(run(rounded, ctx.real(plain_step)))


def test_extended_trajectory_survives_pickle(vpa_extended_tol17):
    def types(traj):
        scalars = [x for s in traj.states for x in (s.t, *s.q, *s.p, s.E)]
        scalars += [x for r in traj.steps for x in (r.h, r.residual_norm)]
        return [type(x) for x in scalars]

    copy = pickle.loads(pickle.dumps(vpa_extended_tol17))
    assert trajectory_digest(copy) == trajectory_digest(vpa_extended_tol17)
    assert types(copy) == types(vpa_extended_tol17)
