import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import varint.integrators
import varint.solvers
from varint import (
    DOUBLE,
    ConfigurationError,
    HarmonicOscillator,
    IllPosednessError,
    IntegrationError,
    KeplerTwoBody,
    MonitorDomainError,
    NonconvergenceError,
    NonMonotoneTimeError,
    SingularityError,
    SolverConfig,
    avi_step,
    epavi_run,
    epavi_step,
    fd_jacobian,
    initial_discrete_energy,
    kepler_initial_state,
    make_monitor,
    newton_solve,
    with_precision,
)
from varint.integrators import _double_partials, _epavi_system, _momentum_system
from varint.models import ExtendedState
from varint.precision import PrecisionContext


def _diagonal(x, dF):
    """Jacobian of an elementwise residual that returns its derivative ``dF``
    as the by-product."""
    return np.diag(dF)


def _no_floor(aux):
    """A residual scale of 0: only STALL_FACTOR * tol accepts a stall."""
    return 0


def _elementwise(f, df):
    """The residual x -> [f(x_i)] on a list, returning [df(x_i)] as the by-product."""
    return lambda x: ([f(c) for c in x], [df(c) for c in x])


def _value(residual):
    """The value alone of a residual that returns (value, by-product)."""
    return lambda x: residual(x)[0]


def test_scalar_quadratic():
    cfg = SolverConfig(tol=1e-12)
    report = newton_solve(_elementwise(lambda c: c * c - 4.0, lambda c: 2 * c), [3.0], cfg,
                          jacobian=_diagonal, scale=_no_floor)
    assert isinstance(report.solution, list)
    assert report.solution[0] == pytest.approx(2.0, abs=1e-12)
    assert report.residual_norm <= cfg.tol
    assert not report.stalled


@pytest.mark.parametrize("error", [SingularityError, MonitorDomainError, NonMonotoneTimeError,
                                   OverflowError])
def test_domain_error_at_a_trial_point_halves_the_step(error):
    # from x = 3 the full Newton step of 1 - 1/x lands on x = -3 and the
    # first halving on x = 0, both outside the domain x > 0; a residual
    # that overflows a float marks its trial infeasible the same way
    def F(x):
        if not x[0] > 0:
            raise error("outside the domain")
        return [1 - 1 / x[0]], [1 / (x[0] * x[0])]

    report = newton_solve(F, [3.0], SolverConfig(tol=1e-12), jacobian=_diagonal, scale=_no_floor)
    assert report.solution[0] == pytest.approx(1.0, abs=1e-12)


def test_jacobian_overflow_fails_the_solve():
    # a Jacobian too large for a float (a Kepler Hessian's r ** 5 at a
    # run-away iterate) ends the solve as a NonconvergenceError: from 1.5
    # the first Newton step of x^2 - 4 lands on 2.08, where it overflows
    def jacobian(x, dF):
        if x[0] > 2:
            raise OverflowError(34, "Numerical result out of range")
        return np.diag(dF)

    with pytest.raises(NonconvergenceError, match="^Jacobian overflows after 1 iterations$"):
        newton_solve(_elementwise(lambda c: c * c - 4.0, lambda c: 2 * c), [1.5], SolverConfig(tol=1e-12),
                     jacobian=jacobian, scale=_no_floor)


@pytest.mark.parametrize("y0", [1e-15, 0.0])
def test_failed_solve_at_an_ill_conditioned_iterate_does_not_converge(y0):
    # F(x, y) = (x, y^2 + 1) has no root; from y = 1e-15, where J = diag(1, 2y)
    # has condition 5e14 >= COND_LIMIT, every damped trial raises |F|, and at
    # y = 0 J is exactly singular, so the solve stalls at |F| = 1: a failed
    # solve, not an ill-posed one; a direct call warns of nothing, the
    # singular Jacobian's all-nan step and infinite condition number included
    with warnings.catch_warnings(), \
            pytest.raises(NonconvergenceError, match="^no convergence: residual 1.000e[+]00 after 0 ") as info:
        warnings.simplefilter("error")
        newton_solve(lambda x: ([x[0], x[1] ** 2 + 1], x), [0.0, y0],
                     SolverConfig(tol=1e-12), jacobian=lambda x, _: np.diag([1, 2 * x[1]]), scale=_no_floor)
    assert info.value.report.condition_estimate >= varint.solvers.COND_LIMIT
    assert info.value.report.stalled


def test_identity_root_converges_immediately():
    report = newton_solve(lambda x: (x, [1.0]), [0.0], SolverConfig(tol=1e-12), jacobian=_diagonal, scale=_no_floor)
    assert report.solution[0] == 0.0
    assert report.iterations <= 1


def test_free_particle_rest_state_is_ill_posed():
    # both residual rows vanish identically in h, so the time-step column
    # of the Jacobian is zero
    model = HarmonicOscillator(k=0.0)
    state = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.0)
    # a direct step, outside a run, warns of nothing either
    with warnings.catch_warnings(), pytest.raises(IllPosednessError):
        warnings.simplefilter("error")
        epavi_step(model, state, 0.1, SolverConfig(tol=1e-12))


def test_a_run_through_a_singular_jacobian_warns_of_nothing():
    # the singular Jacobian of the free particle at rest gets an all-nan step
    # and an infinite condition number, judged and not warned of
    model = HarmonicOscillator(k=0.0)
    state = ExtendedState(t=0.0, q=(1.0,), p=(0.0,), E=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as info:
            epavi_run(model, state, 0.1, 1.0, SolverConfig(tol=1e-12))
    assert isinstance(info.value.__cause__, IllPosednessError)


def test_free_particle_2x2_system_singular_directly():
    model = HarmonicOscillator(k=0.0)
    state = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.0)
    residual, jacobian = _epavi_system(model, state)
    z = [0.0, 0.5]  # dq = 0, any h
    r, kernel = residual(z)
    assert r == [0.0, 0.0]
    J = jacobian(z, kernel)
    assert np.linalg.matrix_rank(J) < 2


def test_fd_jacobian_linear_map_exact():
    J = fd_jacobian(lambda x: list(x), [0.3, -1.7], 1e-5)
    assert np.allclose(J, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fd_jacobian_refuses_a_non_finite_column(bad):
    # column 0 is finite, column 1 differences a residual that is not
    with pytest.raises(NonconvergenceError, match="^non-finite residual while differencing column 1$"):
        fd_jacobian(lambda x: [x[0], bad if x[1] > 0.5 else x[1]], [0.3, 0.5], 1e-5)


def test_fd_jacobian_polynomial():
    J = fd_jacobian(lambda x: [c * c for c in x], [3.0], 1e-6)
    assert J[0][0] == pytest.approx(6.0, abs=1e-7)


def test_fd_jacobian_matches_analytic_epavi_partials():
    # analytic midpoint partials are the oracle for the difference Jacobian
    model = KeplerTwoBody()
    state0 = kepler_initial_state(0.7)
    cfg = SolverConfig(tol=1e-13)
    E0 = initial_discrete_energy(model, state0, 1e-3, cfg)
    state = ExtendedState(t=state0.t, q=state0.q, p=state0.p, E=E0)
    residual, jacobian = _epavi_system(model, state)
    z = [*(1e-3 * np.asarray(state.p)).tolist(), 1e-3]
    # the residual varies on the scale of h itself, so the difference step
    # must sit well below it for a 1e-6 comparison
    J_fd = np.array(fd_jacobian(_value(residual), z, 1e-7))
    J_an = np.array(jacobian(z, residual(z)[1]))
    assert np.max(np.abs(J_fd - J_an)) <= 1e-6 * np.max(np.abs(J_an))


def _random_kepler_state(rng, ctx):
    r, theta = rng.uniform(0.3, 1.7), rng.uniform(0.0, 2 * np.pi)
    q = ctx.array([r * np.cos(theta), r * np.sin(theta)])
    p = ctx.array(list(rng.uniform(-1.5, 1.5, 2)))
    return ExtendedState(t=ctx.real(0), q=q, p=p, E=ctx.real(0))


@pytest.mark.parametrize("digits,fd_step,rel", [(16, 1e-6, 1e-9), (18, 1e-7, 1e-12)])
@pytest.mark.parametrize("monitor", ["g1", "g2", "unit"])
def test_fd_jacobian_matches_analytic_avi_partials(monitor, digits, fd_step, rel):
    # the rank-one monitor term is ~1e-3 of the M/h diagonal, so a wrong or
    # missing grad g fails this bound by orders of magnitude; with the unit
    # monitor, EpAVI's momentum rows at h = delta_a are [A | c] of this
    # system, bit for bit
    ctx = with_precision(digits)
    model = KeplerTwoBody(ctx)
    rng = np.random.default_rng(7)
    with ctx.arithmetic():
        for _ in range(20):
            state = _random_kepler_state(rng, ctx)
            mon = make_monitor(monitor, model, state)
            delta_a = ctx.real(1e-3) / mon.g(state.q, *model.potential_and_gradient(state.q))
            residual, jacobian = _momentum_system(model, mon, state, delta_a)
            z = ctx.array(list(1e-3 * rng.standard_normal(2))).tolist()
            J_an = np.array(jacobian(z, residual(z)[1]))
            J_fd = np.array(fd_jacobian(_value(residual), z, ctx.real(fd_step)), dtype=float)
            assert np.max(np.abs(J_fd - J_an)) <= rel * np.max(np.abs(J_an))
            if monitor == "unit":
                _, grad, _, _, Mv, h, A = _double_partials(model.double, residual(z)[1])
                c = [g / 2 - y / h for g, y in zip(grad, Mv)]
                residual_e, jacobian_e = _epavi_system(model, state)
                z_e = [*z, delta_a]
                J_e = jacobian_e(z_e, residual_e(z_e)[1])
                assert np.array_equal(J_an, A)
                assert np.array_equal(J_e[:2], np.column_stack([A, c]))


@pytest.mark.parametrize("system", ["epavi", "fixed_momentum", "avi"])
def test_extended_jacobians_are_formed_in_double(monkeypatch, system):
    # the 18-digit Newton step is solved in double, so the Jacobian is
    # formed there too; the 18-digit difference Jacobian is the oracle
    captured = {}
    solve = varint.integrators.newton_solve

    def capturing(F, x0, cfg, ctx, *, jacobian, scale):
        captured.update(residual=F, jacobian=jacobian)
        return solve(F, x0, cfg, ctx, jacobian=jacobian, scale=scale)

    monkeypatch.setattr(varint.integrators, "newton_solve", capturing)
    ctx = with_precision(18)
    model = KeplerTwoBody(ctx)
    cfg = SolverConfig.for_context(ctx)
    h = ctx.real("1e-2")
    rng = np.random.default_rng(11)
    with ctx.arithmetic():
        for _ in range(20):
            state = _random_kepler_state(rng, ctx)
            z = (np.dot(np.diag(model.inverse_masses), state.p) * h).tolist()
            if system == "epavi":
                residual, jacobian = _epavi_system(model, state)
                z = [*z, h]
            elif system == "avi":
                avi_step(model, make_monitor("g1", model, state), state, h, cfg)
                residual, jacobian = captured["residual"], captured["jacobian"]
            else:
                initial_discrete_energy(model, state, h, cfg)
                residual, jacobian = captured["residual"], captured["jacobian"]
            J = np.array(jacobian(z, residual(z)[1]))
            assert J.dtype == np.float64
            J_fd = np.array(fd_jacobian(_value(residual), z, ctx.real(1e-9)), dtype=float)
            assert np.max(np.abs(J_fd - J)) <= 1e-13 * np.max(np.abs(J))


def test_extended_newton_ill_posedness_limit_is_double():
    # the step comes from a double LU, so an 18-digit solve is ill-posed
    # once cond(J) nears 1/eps(double), far below 1/eps(18 digits)
    ctx = with_precision(18)
    cfg = SolverConfig.for_context(ctx)
    for small, ill_posed in (("1e-12", False), ("1e-15", True)):
        A = ctx.array([[1, 0], [0, small]])
        b = A @ ctx.array([1, 1])

        def solve():
            return newton_solve(lambda x: ((A @ x - b).tolist(), None), ctx.array([0, 0]).tolist(), cfg, ctx,
                                jacobian=lambda x, _: A, scale=_no_floor)

        if ill_posed:
            with pytest.raises(IllPosednessError):
                solve()
        else:
            assert solve().residual_norm <= cfg.tol


def test_extended_epavi_step_converges_from_random_states():
    # a double-precision Newton step refines the 18-digit residual to 1e-17
    # wherever the double-precision step converges; where the explicit-Euler
    # guess (q_k + h M^{-1} p_k, h) misses the root, the fixed-momentum
    # fallback converges, in both precisions alike
    records = {}
    for digits in (16, 18):
        ctx = with_precision(digits)
        model = KeplerTwoBody(ctx)
        cfg = SolverConfig.for_context(ctx)
        h0 = ctx.real("1e-2")
        rng = np.random.default_rng(5)
        records[digits] = []
        for _ in range(20):
            state = _random_kepler_state(rng, ctx)
            try:
                E = initial_discrete_energy(model, state, h0, cfg)
                _, record = epavi_step(model, replace(state, E=E), h0, cfg)
            except NonconvergenceError:
                record = None
            records[digits].append(record)
    assert sum(r is not None for r in records[18]) >= 10
    for rec16, rec18 in zip(records[16], records[18]):
        assert (rec16 is None) == (rec18 is None)
        if rec18 is not None:
            assert rec18.residual_norm <= 1e-17
            assert not rec18.stalled


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("seed", [5, 11])
def test_epavi_step_from_random_states_lands_on_h0(seed, digits):
    # E is consistent with a step of h0, so h = h0 is the root; Newton from
    # the explicit-Euler guess misses it at seed 5 states 0, 17 and 19 and
    # seed 11 states 3, 7 and 13, and the fallback finds it; without one,
    # seed 5 states 0 and 17 and seed 11 state 13 fail even from h0/2
    ctx = with_precision(digits)
    model = KeplerTwoBody(ctx)
    cfg = SolverConfig.for_context(ctx)
    h0 = ctx.real("1e-2")
    rng = np.random.default_rng(seed)
    retried = set()
    for k in range(20):
        state = _random_kepler_state(rng, ctx)
        E = initial_discrete_energy(model, state, h0, cfg)
        _, record = epavi_step(model, replace(state, E=E), h0, cfg)
        assert abs(record.h - h0) <= 1e-9
        assert record.residual_norm <= cfg.tol
        if record.retried:
            retried.add(k)
    assert retried >= {5: {0, 17}, 11: {13}}[seed]


def test_epavi_step_marks_the_cold_fallback(monkeypatch):
    # state 0 of seed 5: Newton from the explicit-Euler guess fails, the
    # fixed-momentum solve at h_guess and the restarted coupled solve
    # converge, and the record counts the iterations of both
    solved = []
    solve = varint.integrators.newton_solve

    def recording(*args, **kwargs):
        report = solve(*args, **kwargs)
        solved.append(report.iterations)
        return report

    monkeypatch.setattr(varint.integrators, "newton_solve", recording)
    model, cfg = KeplerTwoBody(), SolverConfig(tol=1e-12)
    state = _random_kepler_state(np.random.default_rng(5), DOUBLE)
    state = replace(state, E=initial_discrete_energy(model, state, 1e-2, cfg))
    solved.clear()
    _, record = epavi_step(model, state, 1e-2, cfg)
    assert record.retried and record.residual_norm <= cfg.tol
    assert record.h == pytest.approx(1e-2, abs=1e-9)
    assert len(solved) == 2 and record.iterations == sum(solved)


def test_polish_forms_no_jacobian(monkeypatch):
    # from near the root every Newton step is taken in full; once r <= tol
    # a polish step re-solves with the Jacobian in hand: no Jacobian, one F call
    tol = 1e-12

    def residual(x):
        return [x[0] ** 2 + x[1] - 3.0, x[0] + x[1] ** 2 - 5.0]

    norms, jacobians_at = [], []

    def F(x):
        norms.append(np.abs(residual(x)).max())
        return residual(x), None

    def jacobian(x, _):
        jacobians_at.append(np.abs(residual(x)).max())
        return [[2 * x[0], 1.0], [1.0, 2 * x[1]]]

    monkeypatch.setattr(varint.solvers, "POLISH", 4)
    report = newton_solve(F, [1.3, 1.8], SolverConfig(tol=tol), jacobian=jacobian, scale=_no_floor)
    assert report.residual_norm <= tol and not report.stalled
    above = sum(r > tol for r in norms)  # the iterations that started with r > tol
    assert all(a > b for a, b in zip(norms[:above], norms[1:above + 1]))  # no damping
    assert above >= 3 and len(jacobians_at) == above
    assert all(r > tol for r in jacobians_at)
    polish_steps = report.iterations - above + 1  # the accepted ones and the one that ends it
    assert len(norms) - 1 - above <= polish_steps


def test_failed_polish_step_ends_the_solve(monkeypatch):
    # |x^2 + c| bottoms out at c < tol; polish steps with the last Jacobian
    # lower it until one overshoots, and that single trial ends the solve
    c, tol = 1e-13, 1e-12
    norms = []

    def F(x):
        out = [x[0] * x[0] + c]
        norms.append(abs(out[0]))
        return out, [2 * x[0]]

    monkeypatch.setattr(varint.solvers, "POLISH", 20)
    report = newton_solve(F, [0.5], SolverConfig(tol=tol), jacobian=_diagonal, scale=_no_floor)
    assert not report.stalled
    assert report.residual_norm == min(norms) <= tol
    first = next(k for k, r in enumerate(norms) if r <= tol)
    assert all(a > b for a, b in zip(norms[first:-2], norms[first + 1:-1]))
    assert norms[-1] >= norms[-2] == report.residual_norm


@pytest.mark.parametrize("x0, norms", [
    (0.0, [3.0e-1, 5.0e-2, 9.1e-4, 3.3e-5]),
    (math.log(1.3) + 1e-4, [1.3e-4, 6.5e-9, 6.5e-13]),
])
def test_polish_count_includes_the_iterate_that_meets_the_tolerance(x0, norms):
    # POLISH = 2 accepted iterates within tol end the solve: the Newton step
    # that first meets tol = 1e-3 is one of them, so one polish step follows
    # it; from a starting guess within tol, two
    seen = []

    def F(x):
        out = [math.expm1(x[0]) - 0.3]
        seen.append(abs(out[0]))
        return out, [math.exp(x[0])]

    report = newton_solve(F, [x0], SolverConfig(tol=1e-3), jacobian=_diagonal, scale=_no_floor)
    assert seen == pytest.approx(norms, rel=0.05)
    assert report.iterations == len(norms) - 1 and not report.stalled


def test_epavi_forms_about_one_jacobian_per_step(monkeypatch):
    # the epavi_e07 run: polishing reuses the Jacobian, so a step forms only
    # the Jacobians of its iterations above tol (1,056 in 1,010 steps; 2,075
    # when each polish iteration formed its own)
    formed = []
    solve = varint.integrators.newton_solve

    def counting(F, x0, cfg, ctx, *, jacobian, scale):
        def counted(x, aux):
            formed.append(1)
            return jacobian(x, aux)

        return solve(F, x0, cfg, ctx, jacobian=counted, scale=scale)

    monkeypatch.setattr(varint.integrators, "newton_solve", counting)
    traj = epavi_run(KeplerTwoBody(), kepler_initial_state(0.7), 1e-3, 2 * np.pi, SolverConfig(tol=1e-15))
    assert len(traj.steps) == 1010
    assert len(formed) <= 1.1 * len(traj.steps)


def test_epavi_forms_one_condition_number_per_newton_solve(monkeypatch):
    # the epavi_e07 run: each Newton solve computes the condition number of
    # its last Jacobian once, at the end, and no Newton step computes one
    # (1,011 solves; 1,056 inverses when each Jacobian was inverted)
    solves, conds = [], []
    solve, cond_inf = varint.integrators.newton_solve, PrecisionContext.cond_inf

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counting_cond(self, A):
        conds.append(1)
        return cond_inf(self, A)

    monkeypatch.setattr(varint.integrators, "newton_solve", counting_solve)
    monkeypatch.setattr(PrecisionContext, "cond_inf", counting_cond)
    epavi_run(KeplerTwoBody(), kepler_initial_state(0.7), 1e-3, 2 * np.pi, SolverConfig(tol=1e-15))
    assert len(solves) == len(conds) == 1011


@pytest.mark.parametrize(
    "F,root,guess",
    [
        (_elementwise(lambda c: c * c - 4.0, lambda c: 2 * c), 2.0, 2.2),
        (_elementwise(lambda c: c ** 3 - 8.0, lambda c: 3 * c * c), 2.0, 1.85),
        (_elementwise(lambda c: math.exp(c) - 2.0, math.exp), np.log(2.0), np.log(2.0) * 1.08),
    ],
)
def test_quadratic_convergence_iteration_budget(F, root, guess):
    report = newton_solve(F, [guess], SolverConfig(tol=1e-12), jacobian=_diagonal, scale=_no_floor)
    assert report.iterations <= 8
    assert report.solution[0] == pytest.approx(root, abs=1e-10)


@pytest.mark.parametrize("case", ["rejected_polish", "stall", "nonconvergence"])
def test_report_aux_is_the_residuals_at_the_solution(case, monkeypatch):
    # F returns the index of each point it evaluates; the report carries the
    # index of its solution, not of a later point that was evaluated and
    # not accepted: the polish trial that ends the solve, the damping trials
    # of a stall, or those of a solve that fails
    c, tol, x0, max_iter = {"rejected_polish": (1e-13, 1e-12, 0.5, 50), "stall": (3e-16, 1e-16, 0.5, 50),
                            "nonconvergence": (1.0, 1e-12, 0.7, 25)}[case]
    points = []

    def F(x):
        points.append(x)
        return [x[0] * x[0] + c], len(points) - 1

    monkeypatch.setattr(varint.solvers, "MAX_ITER", max_iter)
    monkeypatch.setattr(varint.solvers, "POLISH", 20)
    solve = lambda: newton_solve(F, [x0], SolverConfig(tol=tol), jacobian=lambda x, _: [[2 * x[0]]], scale=_no_floor)
    if case == "nonconvergence":
        with pytest.raises(NonconvergenceError) as info:
            solve()
        report = info.value.report
    else:
        report = solve()
        assert report.residual_norm <= tol if case == "rejected_polish" else report.stalled
    assert points[report.aux] == report.solution
    assert report.aux < len(points) - 1


def test_solver_is_pure():
    cfg = SolverConfig(tol=1e-12)
    F = _elementwise(lambda c: c * c - 2.0, lambda c: 2 * c)
    a = newton_solve(F, [1.5], cfg, jacobian=_diagonal, scale=_no_floor)
    b = newton_solve(F, [1.5], cfg, jacobian=_diagonal, scale=_no_floor)
    assert a.solution[0] == b.solution[0]
    assert a.residual_norm == b.residual_norm
    assert a.iterations == b.iterations


def test_nonconvergence_carries_best_iterate(monkeypatch):
    # x^2 + 1 has no real root; the iteration stalls near the local minimum
    monkeypatch.setattr(varint.solvers, "MAX_ITER", 25)
    with pytest.raises(NonconvergenceError) as info:
        newton_solve(_elementwise(lambda c: c * c + 1.0, lambda c: 2 * c), [0.7], SolverConfig(tol=1e-12),
                     jacobian=_diagonal, scale=_no_floor)
    assert info.value.report is not None
    assert info.value.report.residual_norm >= 1.0


def test_stall_acceptance_within_factor():
    # x^2 + c has no root; |F| bottoms out near c, just above tol, and the
    # solver accepts the floor instead of spinning until max_iter
    c = 3e-16
    report = newton_solve(_elementwise(lambda x: x * x + c, lambda x: 2 * x), [0.5], SolverConfig(tol=1e-16),
                          jacobian=_diagonal, scale=_no_floor)
    assert report.stalled and report.residual_norm > 1e-16
    assert report.residual_norm <= 10 * 1e-16


@pytest.mark.parametrize("digits", [16, 18])
def test_nan_damping_trial_is_skipped(digits):
    # F is NaN beyond x = 3; the full Newton step from 0.1 lands at 5.05,
    # so the first damping trial is NaN and the solver halves past it
    ctx = with_precision(digits)
    nan = ctx.real("nan")
    trials = []

    def F(x):
        trials.append(x[0])
        return [nan if x[0] > 3 else x[0] * x[0] - 1], [2 * x[0]]

    x0 = ctx.array([0.1]).tolist()
    report = newton_solve(F, x0, SolverConfig.for_context(ctx), ctx, jacobian=_diagonal, scale=_no_floor)
    assert any(t > 3 for t in trials)
    assert report.residual_norm <= SolverConfig.for_context(ctx).tol
    assert abs(float(report.solution[0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("digits", [16, 18])
def test_nan_initial_residual_raises(digits):
    ctx = with_precision(digits)
    nan = ctx.real("nan")
    with pytest.raises(NonconvergenceError, match="initial guess"):
        newton_solve(lambda x: ([nan], None), ctx.array([0.5]).tolist(),
                     SolverConfig.for_context(ctx), ctx, jacobian=_diagonal, scale=_no_floor)


def test_config_validation():
    # a bad tol is the package's configuration error; an infinite one would
    # accept every solve at its start
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match=f"^tol must be positive and finite, got {tol}$"):
            SolverConfig(tol=tol)


def test_context_default_tolerances():
    assert SolverConfig.for_context(with_precision(16)).tol == 1e-12
    assert SolverConfig.for_context(with_precision(18)).tol == 1e-17
    assert SolverConfig.for_context(with_precision(16), tol=1e-10).tol == 1e-10
