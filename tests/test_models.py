import math
from decimal import Decimal

import numpy as np
import pytest
from conftest import lagrangian, typed_bits

from varint import (
    DOUBLE,
    ConfigurationError,
    HarmonicOscillator,
    KeplerTwoBody,
    Pendulum,
    SingularityError,
    UnsupportedOrderError,
    SolverConfig,
    angular_momentum,
    energy_error_series,
    epavi_run,
    kepler_hamiltonian,
    kepler_initial_state,
    make_model,
    with_precision,
)
from varint.bea import SineProfile
from varint.models import MODELS, ExtendedState, LagrangianModel

ALL_MODELS = [KeplerTwoBody(), HarmonicOscillator(k=1.3, m=0.8), Pendulum(m=1.1)]


def test_kepler_hamiltonian_circular_values():
    assert kepler_hamiltonian([1.0, 0.0], [0.0, 1.0]) == pytest.approx(-0.5)


@pytest.mark.parametrize("e", [0.05, 0.1, 0.3, 0.7, 0.9])
def test_perihelion_energy_is_minus_half(e):
    # (1+e-2)/(2(1-e)) = -1/2 for every eccentricity
    q = [1 - e, 0.0]
    p = [0.0, math.sqrt((1 + e) / (1 - e))]
    assert kepler_hamiltonian(q, p) == pytest.approx(-0.5, abs=1e-14)


def test_kepler_collision_guard():
    with pytest.raises(SingularityError):
        kepler_hamiltonian([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(SingularityError):
        KeplerTwoBody().potential_gradient(np.array([1e-9, 0.0]))


@pytest.mark.parametrize(
    "e,q1,p2",
    [(0.1, 0.9, math.sqrt(1.1 / 0.9)), (0.7, 0.3, math.sqrt(1.7 / 0.3))],
)
def test_kepler_initial_state_values(e, q1, p2):
    s = kepler_initial_state(e)
    assert s.t == 0.0
    assert s.q[0] == pytest.approx(q1) and s.q[1] == 0.0
    assert s.p[0] == 0.0 and s.p[1] == pytest.approx(p2)
    assert s.E == pytest.approx(-0.5)


def test_kepler_initial_state_circular():
    s = kepler_initial_state(0.0)
    assert np.hypot(*s.q) == pytest.approx(1.0)
    assert np.hypot(*s.p) == pytest.approx(1.0)
    assert s.E == pytest.approx(-0.5)


@pytest.mark.parametrize("e", [-0.1, 1.0, 1.5])
def test_kepler_initial_state_rejects_bad_eccentricity(e):
    with pytest.raises(ConfigurationError):
        kepler_initial_state(e)


def test_initial_energy_exact_over_eccentricities():
    eps = np.finfo(float).eps
    for e in np.linspace(0.0, 0.9, 20):
        s = kepler_initial_state(float(e))
        # -0.5 up to a few ulp of the kinetic term, which grows with e
        kinetic = float(np.dot(s.p, s.p)) / 2
        assert abs(kepler_hamiltonian(s.q, s.p) + 0.5) < 8 * eps * max(1.0, kinetic)


def test_potential_methods_oscillator():
    model = HarmonicOscillator(k=1.0, m=1.0)
    q = np.array([2.0])
    assert model.potential(q) == pytest.approx(2.0)
    assert model.potential_gradient(q)[0] == pytest.approx(2.0)
    assert model.potential_hessian(q)[0][0] == pytest.approx(1.0)
    assert model.potential_third(q) == 0.0


def test_potential_methods_pendulum_equilibrium():
    model = Pendulum()
    q = np.array([0.0])
    assert model.potential(q) == pytest.approx(-1.0)
    assert model.potential_gradient(q)[0] == 0.0
    assert model.potential_hessian(q)[0][0] == pytest.approx(1.0)
    assert model.potential_third(q) == 0.0


def test_potential_methods_kepler_values():
    model = KeplerTwoBody()
    q = np.array([0.3, 0.0])
    assert model.potential(q) == pytest.approx(-10.0 / 3.0)
    grad = model.potential_gradient(q)
    assert grad[0] == pytest.approx(100.0 / 9.0)
    assert grad[1] == 0.0


def test_third_derivative_needs_1dof():
    with pytest.raises(UnsupportedOrderError):
        KeplerTwoBody().potential_third(np.array([1.0, 0.0]))


def _sample_points(model, rng, count):
    if model.n == 2:
        # keep samples well away from the gravitational singularity
        r = rng.uniform(0.2, 2.0, count)
        th = rng.uniform(0, 2 * np.pi, count)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return rng.uniform(-2.0, 2.0, (count, 1))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(42)
    step = 1e-6
    for q in _sample_points(model, rng, 100):
        grad = model.potential_gradient(q)
        for j in range(model.n):
            dq = np.zeros(model.n)
            dq[j] = step
            fd = (model.potential(q + dq) - model.potential(q - dq)) / (2 * step)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_hessian_matches_finite_differences(model):
    rng = np.random.default_rng(43)
    step = 1e-6
    for q in _sample_points(model, rng, 100):
        hess = model.potential_hessian(q)
        for j in range(model.n):
            dq = np.zeros(model.n)
            dq[j] = step
            fd = (np.array(model.potential_gradient(q + dq)) - np.array(model.potential_gradient(q - dq))) / (2 * step)
            for i in range(model.n):
                assert abs(hess[i][j] - fd[i]) <= 1e-6 * max(1.0, abs(fd[i]))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_legendre_identity(model):
    # H(q, M qdot) + L(q, qdot) = qdot' M qdot
    rng = np.random.default_rng(44)
    for q in _sample_points(model, rng, 20):
        v = rng.standard_normal(model.n)
        Mv = np.diag(model.masses) @ v
        lhs = model.hamiltonian(q, Mv) + lagrangian(model, q, v)
        assert lhs == pytest.approx(float(v @ Mv), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_mass_matrix_spd(model):
    np.linalg.cholesky(np.diag(np.asarray(model.masses, dtype=float)))


def test_angular_momentum_rotation_invariant():
    rng = np.random.default_rng(45)
    for _ in range(50):
        q = rng.standard_normal(2)
        p = rng.standard_normal(2)
        th = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert angular_momentum(R @ q, R @ p) == pytest.approx(angular_momentum(q, p), abs=1e-12)


def test_make_model_registry():
    assert make_model("oscillator", {"k": 2.0}).k == 2.0
    assert make_model("pendulum").name == "pendulum"
    with pytest.raises(ConfigurationError):
        make_model("three_body")


def test_make_model_passes_each_constructor_only_its_own_params():
    # each default is the constructor's, read from its signature: a table of
    # builders restated them; Kepler's constructor takes no keyword but ctx,
    # so one that got any would raise a TypeError
    params = {"e": 0.3, "k": 2.0, "m": 0.5, "q0": 0.2, "p0": 0.1}
    ctx = with_precision(18)
    oscillator = make_model("oscillator", params, ctx)
    assert oscillator.params == {"k": 2.0, "m": 0.5} and oscillator.ctx is ctx
    assert make_model("pendulum", params).params == {"m": 0.5}
    kepler = make_model("kepler", params, ctx)
    assert type(kepler) is KeplerTwoBody and kepler.params == {} and kepler.ctx is ctx
    assert make_model("oscillator", {}).params == {"k": 1.0, "m": 1.0}
    assert make_model("pendulum", {}).params == {"m": 1.0}
    assert sorted(MODELS) == ["kepler", "oscillator", "pendulum"]
    with pytest.raises(ConfigurationError, match=r"^unknown problem 'three_body'; known: \['kepler', 'oscillator', 'pendulum'\]$"):
        make_model("three_body", params)


@pytest.mark.parametrize("name,key,value,message", [
    ("oscillator", "m", math.nan, "mass m"),
    ("oscillator", "m", math.inf, "mass m"),
    ("oscillator", "m", 0.0, "mass m"),
    ("oscillator", "k", math.nan, "stiffness k"),
    ("oscillator", "k", -math.inf, "stiffness k"),
    ("pendulum", "m", math.nan, "mass m"),
    ("pendulum", "m", math.inf, "mass m"),
])
def test_model_parameters_must_be_finite(name, key, value, message):
    with pytest.raises(ConfigurationError, match=message):
        make_model(name, {key: value})


@pytest.mark.parametrize("value", [None, "0.1"])
@pytest.mark.parametrize("build,message", [
    (kepler_initial_state, "eccentricity must lie in [0, 1)"),
    (lambda v: HarmonicOscillator(k=v), "oscillator stiffness k must be finite"),
    (lambda v: HarmonicOscillator(m=v), "oscillator mass m must lie in (0, inf)"),
    (lambda v: Pendulum(m=v), "pendulum mass m must lie in (0, inf)"),
    (SineProfile, "sine profile needs |c| < 1"),
    (lambda v: HarmonicOscillator().initial_state({"q0": v}), "state has non-finite components"),
], ids=["kepler_initial_state", "oscillator_k", "oscillator_m", "pendulum_m", "SineProfile", "q0"])
def test_a_parameter_that_is_not_a_number_is_a_configuration_error(build, message, value):
    # None or a string does not compare with a number: check_finite turns
    # that TypeError into the parameter's ConfigurationError
    with pytest.raises(ConfigurationError) as err:
        build(value)
    assert str(err.value).startswith(message)


def test_double_twin():
    model = KeplerTwoBody()
    assert model.double is model
    osc = HarmonicOscillator(k=1.3, m=0.8, ctx=with_precision(18))
    twin = osc.double
    assert twin is osc.double  # built once
    assert twin.ctx.is_native and twin.name == "oscillator" and twin.params == osc.params
    assert all(type(m) is float for m in twin.masses + twin.inverse_masses) and twin.k == 1.3


class _Quartic(LagrangianModel):
    """V = q^4 / 4: a model that no registry names."""

    name = "quartic"

    def __init__(self, m=1.0, ctx=DOUBLE):
        super().__init__((m,), ctx)
        self.params = {"m": m}

    def potential(self, q):
        return q[0] ** 4 / 4

    def potential_gradient(self, q):
        return [q[0] ** 3]

    def potential_hessian(self, q):
        return [[3 * q[0] ** 2]]


def test_an_unregistered_model_runs_at_18_digits():
    # the double twin is the model's own class rebuilt from its params: it was
    # rebuilt by name, and the run aborted at t = 0 with "unknown problem 'quartic'"
    ctx = with_precision(18)
    model = _Quartic(m=0.8, ctx=ctx)
    state0 = model.initial_state({"p0": 0.5})
    traj = epavi_run(model, state0, ctx.real("0.01"), 0.5, SolverConfig.for_context(ctx))
    assert traj.states[-1].t >= 0.5 and len(traj.steps) >= 40
    assert energy_error_series(traj).max() <= 1e-19
    twin = model.double
    assert type(twin) is _Quartic and twin.params == {"m": 0.8} and twin.ctx.is_native


@pytest.mark.parametrize("digits", [18, 30])
def test_extended_inverse_masses_are_exact_to_the_context(digits):
    # 1/m is formed in the context's arithmetic: an inverse rounded to double
    # left m (1/m) - 1 = 5.6e-17 for m = 0.8 at every precision
    ctx = with_precision(digits)
    for m in (0.8, 1.3, 3):
        for model in (HarmonicOscillator(m=m, ctx=ctx), Pendulum(m=m, ctx=ctx)):
            (mass,), (inverse,) = model.masses, model.inverse_masses
            assert type(inverse) is Decimal and inverse == ctx.decimal_context.divide(1, mass)
            with ctx.arithmetic():
                assert abs(mass * inverse - 1) <= ctx.eps


def test_state_validation():
    s = kepler_initial_state(0.1)
    s.validate(2)
    with pytest.raises(ConfigurationError):
        s.validate(1)


@pytest.mark.parametrize("q,p", [((1.0, 0.0), (0.5,)), ((1.0,), (0.5, 0.0))])
def test_state_validation_refuses_q_and_p_of_unequal_length(q, p):
    with pytest.raises(ConfigurationError, match="^q and p must have equal dimension$"):
        ExtendedState(t=0.0, q=q, p=p, E=0.0).validate()


def test_extended_precision_model_evaluation():
    ctx = with_precision(20)
    model = KeplerTwoBody(ctx)
    s = kepler_initial_state(0.7, ctx)
    H = model.hamiltonian(s.q, s.p)
    assert abs(H + ctx.real("0.5")) < ctx.real("1e-19")


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("name", ["kepler", "oscillator", "pendulum"])
def test_potential_and_gradient_is_bitwise_the_pair(name, digits):
    # the derivative contract: on a list of context scalars each derivative
    # returns a scalar of the context's own type (never numpy's float64), a
    # list of them, or a list of rows (never an ndarray), and each pair
    # method is its two single methods bit for bit, in the run's arithmetic
    ctx = with_precision(digits)
    model = make_model(name, {"k": 1.3, "m": 0.8}, ctx)
    scalar = float if ctx.is_native else Decimal
    rng = np.random.default_rng(3)

    def bits(x, depth):  # depth 0 a scalar, 1 a list, 2 a list of rows
        assert type(x) is (list if depth else scalar), type(x)
        return [bits(c, depth - 1) for c in x] if depth else typed_bits(ctx, x)

    with ctx.arithmetic():
        for _ in range(20):
            q = [ctx.real(x) for x in rng.uniform(-1.7, 1.7, model.n)]
            V = bits(model.potential(q), 0)
            dV = bits(model.potential_gradient(q), 1)
            d2V = bits(model.potential_hessian(q), 2)
            assert len(dV) == len(d2V) == model.n and all(len(row) == model.n for row in d2V)
            V_pair, dV_pair = model.potential_and_gradient(q)
            assert [bits(V_pair, 0), bits(dV_pair, 1)] == [V, dV]
            dV_pair, d2V_pair = model.potential_gradient_and_hessian(q)
            assert [bits(dV_pair, 1), bits(d2V_pair, 2)] == [dV, d2V]
            if model.n == 1:
                bits(model.potential_third(q), 0)
    # the benchmark's tracer rebinds these on the class itself
    assert {"potential", "potential_gradient", "potential_hessian"} <= KeplerTwoBody.__dict__.keys()


@pytest.mark.parametrize("digits", [16, 18])
def test_kepler_kernels_are_bitwise_the_reference_formulas(digits):
    # the Kepler kernels write out the 2-vector sums and the outer product
    # element by element; each must equal the (q * q).sum() / np.outer form
    # bit for bit in both precisions
    ctx = with_precision(digits)
    model = KeplerTwoBody(ctx)
    rng = np.random.default_rng(11)

    def same(a, b):
        return typed_bits(ctx, a) == typed_bits(ctx, b)

    with ctx.arithmetic():
        for _ in range(200):
            q = ctx.array(list(rng.standard_normal(2) * 10 ** rng.uniform(-3, 3, 2)))
            r = ctx.sqrt((q * q).sum())
            grad = q / r ** 3
            hess = ctx.array(np.eye(2)) / r ** 3 - 3 * np.outer(q, q) / r ** 5
            assert same(model.potential_gradient(q), grad)
            V, dV = model.potential_and_gradient(q.tolist())
            assert same(V, -1 / r) and same(dV, grad)
            assert same(model.potential_hessian(q), hess)
            assert same(model.potential_gradient_and_hessian(q.tolist()), [grad, hess])


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("name", ["kepler", "oscillator", "pendulum"])
def test_mass_product_is_the_matrix_product(name, digits):
    # Kepler's M v and M^{-1} p skip np.dot with the identity; that moves
    # nothing but the sign of a zero component: 1 * (-0.0) + 0 * v_j reads
    # +0.0, and in decimal also the exponent: 0 * v_j of a smaller exponent
    # gives 1 * v_i + 0 * v_j a trailing zero that v_i does not carry, the
    # same value.  The step kernel hands both products lists of context scalars.
    ctx = with_precision(digits)
    model = make_model(name, {"k": 1.3, "m": 0.8}, ctx)
    rng = np.random.default_rng(5)
    with ctx.arithmetic():
        for k in range(200):
            v = ctx.array(list(rng.standard_normal(model.n) * 10.0 ** rng.integers(-6, 7, model.n))) / 3
            if k % 4 == 0:
                v[rng.integers(model.n)] = ctx.real(-0.0 if k % 8 else 0.0)
            for product, diagonal in [(model.mass_times, model.masses),
                                      (model.inverse_mass_times, model.inverse_masses)]:
                got, want = product(v.tolist()), np.dot(np.diag(diagonal), v)
                assert isinstance(got, list)
                typed_bits(ctx, got)
                for a, b in zip(got, want):
                    assert a == b
                    if name != "kepler" or ctx.is_native and b != 0:
                        assert typed_bits(ctx, a) == typed_bits(ctx, b)
