import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from conftest import LinearProfile, discrete_lagrangian_midpoint, typed_bits

import varint
from varint import (
    ConfigurationError,
    HarmonicOscillator,
    IdentityProfile,
    Jet1D,
    NonMonotoneTimeError,
    Pendulum,
    SineProfile,
    discrete_residual,
    lemma1_reparametrization_check,
    make_model,
    meshed_lagrangian_order2,
    modified_lagrangian_mod3,
    modified_rhs_order2,
    residual_order_estimate,
    with_precision,
)
from varint.bea import DELTA_A_SWEEP
from varint.models import ExtendedState


# -- discrete residual ---------------------------------------------------------


def test_residual_zero_at_equilibrium():
    model = Pendulum()
    q = np.array([0.0])  # V_q = 0 there
    pair = discrete_residual(model, (0.0, q), (0.1, q), (0.2, q))
    assert pair.psi_el[0] == 0.0
    assert pair.psi_e == 0.0


def test_residual_requires_monotone_times():
    model = Pendulum()
    q = np.array([0.0])
    with pytest.raises(NonMonotoneTimeError):
        discrete_residual(model, (0.0, q), (0.0, q), (0.1, q))


def test_residual_third_order_on_exact_oscillator_solution():
    # triples sampled from q(a) = cos(a) leave an O(da^3) residual
    model = HarmonicOscillator()
    norms = []
    das = [0.1, 0.05, 0.025, 0.0125]
    for da in das:
        worst = 0.0
        for a in np.linspace(0.5, 5.5, 10):
            pts = [(x, np.array([math.cos(x)])) for x in (a - da, a, a + da)]
            pair = discrete_residual(model, *pts)
            worst = max(worst, abs(pair.psi_el[0]))
        norms.append(worst)
    slope = np.polyfit(np.log(das), np.log(norms), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.3)


def test_residual_matches_action_differences():
    # finite differences of the two-step discrete action are the oracle
    Ld = discrete_lagrangian_midpoint
    model = Pendulum()
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(10):
        t0 = rng.uniform(0.0, 1.0)
        ts = (t0, t0 + rng.uniform(0.05, 0.15), t0 + rng.uniform(0.25, 0.35))
        qs = [np.array([v]) for v in rng.uniform(-1.0, 1.0, 3)]
        pair = discrete_residual(model, (ts[0], qs[0]), (ts[1], qs[1]), (ts[2], qs[2]))

        def action(t_mid, q_mid):
            return Ld(model, ts[0], qs[0], t_mid, q_mid) + Ld(model, t_mid, q_mid, ts[2], qs[2])

        dq = np.array([step])
        fd_el = (action(ts[1], qs[1] + dq) - action(ts[1], qs[1] - dq)) / (2 * step)
        fd_e = (action(ts[1] + step, qs[1]) - action(ts[1] - step, qs[1])) / (2 * step)
        assert pair.psi_el[0] == pytest.approx(fd_el, rel=1e-6, abs=1e-9)
        assert pair.psi_e == pytest.approx(fd_e, rel=1e-6, abs=1e-9)


def test_energy_residual_bounded_by_velocity_times_el_residual():
    # on leading-order solutions psi_e tracks (q'/t') psi_el
    model = HarmonicOscillator()
    da = 0.05
    el_max, e_max, vel_max = 0.0, 0.0, 0.0
    for a in np.linspace(2 * da, 2 * math.pi - 2 * da, 10):
        pts = [(x, np.array([math.cos(x)])) for x in (a - da, a, a + da)]
        pair = discrete_residual(model, *pts)
        el_max = max(el_max, abs(pair.psi_el[0]))
        e_max = max(e_max, abs(pair.psi_e))
        vel_max = max(vel_max, abs(math.sin(a)))
    assert e_max <= max(1.0, vel_max) * el_max * (1 + 1e-6)


# -- pointwise modified equation and Lagrangians ------------------------------------


def test_modified_rhs_free_particle():
    model = HarmonicOscillator(k=0.0)
    jet = Jet1D(q=0.7, qp=0.3, tp=1.0, tpp=0.0, delta_a=0.1)
    assert modified_rhs_order2(model, jet) == 0.0


def test_modified_rhs_oscillator_closed_form():
    # t(a) = a: q'' = -(k/m) q (1 - da^2 k / 6m)
    k, m = 1.7, 0.9
    model = HarmonicOscillator(k=k, m=m)
    for q, da in [(0.5, 0.1), (-1.2, 0.3), (0.8, 0.0)]:
        jet = Jet1D(q=q, qp=0.4, tp=1.0, tpp=0.0, delta_a=da)
        expected = -(k / m) * q * (1 - da ** 2 * k / (6 * m))
        assert modified_rhs_order2(model, jet) == pytest.approx(expected, rel=1e-13)


def test_modified_rhs_truncation_identity():
    model = Pendulum()
    jet0 = Jet1D(q=0.4, qp=0.2, tp=1.3, tpp=0.1, delta_a=0.0)
    leading = jet0.qp * jet0.tpp / jet0.tp - jet0.tp ** 2 * math.sin(jet0.q)
    assert modified_rhs_order2(model, jet0) == pytest.approx(leading, rel=1e-14)


def test_modified_rhs_needs_one_degree_of_freedom():
    jet = Jet1D(q=0.7, qp=0.3, tp=1.0, tpp=0.0, delta_a=0.1)
    with pytest.raises(ConfigurationError, match="^this operation is defined for 1-DOF separable models$"):
        modified_rhs_order2(varint.KeplerTwoBody(), jet)


def test_modified_rhs_rejects_bad_jet():
    with pytest.raises(NonMonotoneTimeError):
        Jet1D(q=0.0, qp=0.0, tp=-1.0, tpp=0.0)


def test_jet_rejects_a_nan_time_derivative():
    # nan <= 0 is false: the check passed a nan t'
    with pytest.raises(NonMonotoneTimeError):
        Jet1D(q=0.0, qp=0.0, tp=math.nan, tpp=0.0)


@pytest.mark.parametrize("tp", [None, "x", math.inf, Decimal("-Infinity")])
def test_jet_refuses_a_time_derivative_that_is_not_a_finite_number(tp):
    # a comparison's TypeError before; a Decimal nan t' is not positive, as a
    # float nan is, where Python's default context raised InvalidOperation
    with pytest.raises(ConfigurationError, match="^jet needs a finite t', got "):
        Jet1D(q=0.0, qp=0.0, tp=tp, tpp=0.0)
    with pytest.raises(NonMonotoneTimeError):
        Jet1D(q=0.0, qp=0.0, tp=Decimal("NaN"), tpp=0.0)


@pytest.mark.parametrize("delta_a", [None, "0.1", -0.1, math.nan, math.inf, Decimal("NaN"), Decimal("-Infinity")])
def test_jet_rejects_a_bad_step(delta_a):
    # a missing, text, negative, nan or infinite delta_a is a configuration
    # error, a float's or a Decimal's alike, not a comparison's TypeError;
    # a non-positive t' still fails the time's monotonicity first
    with pytest.raises(ConfigurationError, match="^delta_a must be non-negative and finite, got "):
        Jet1D(q=0.0, qp=0.0, tp=1.0, tpp=0.0, delta_a=delta_a)
    with pytest.raises(NonMonotoneTimeError):
        Jet1D(q=0.0, qp=0.0, tp=0.0, tpp=0.0, delta_a=delta_a)
    assert Jet1D(q=0.0, qp=0.0, tp=1.0, tpp=0.0, delta_a=0).delta_a == 0


def test_modified_frequency_cross_check():
    # (k/m)(1 - da^2 k/6m) matches (2/da atan(w da/2))^2 to O(da^4)
    k = m = 1.0
    das = [0.4, 0.2, 0.1, 0.05]
    diffs = []
    for da in das:
        freq_mod = (k / m) * (1 - da ** 2 * k / (6 * m))
        freq_map = (2 / da * math.atan(math.sqrt(k / m) * da / 2)) ** 2
        diffs.append(abs(freq_mod - freq_map))
    slope = np.polyfit(np.log(das), np.log(diffs), 1)[0]
    assert slope >= 4.0 - 0.1


def test_mod3_reduces_to_lagrangian():
    model = Pendulum()
    q, qp = 0.3, 0.7
    value = modified_lagrangian_mod3(model, q, qp, 1.0, 0.0)
    assert value == pytest.approx(0.5 * qp ** 2 + math.cos(q), rel=1e-14)


def test_mod3_oscillator_example():
    model = HarmonicOscillator()
    value = modified_lagrangian_mod3(model, 1.0, 0.0, 1.0, 0.1)
    assert value == pytest.approx(-0.5 + 0.01 / 24, rel=1e-13)


@pytest.mark.parametrize("tp,error", [
    (math.inf, ConfigurationError),
    (None, ConfigurationError),
    ("x", ConfigurationError),
    (Decimal("NaN"), NonMonotoneTimeError),
    (math.nan, NonMonotoneTimeError),
    (-1.0, NonMonotoneTimeError),
])
def test_mod3_checks_the_time_derivative_as_a_jet_does(tp, error):
    # t' was tested bare: an infinite t' came back nan, None and "x" raised a
    # comparison's TypeError and a Decimal nan decimal.InvalidOperation; a
    # float nan, for which nan <= 0 is false, needs the nan test too
    with pytest.raises(error):
        modified_lagrangian_mod3(HarmonicOscillator(), 1.0, 0.0, tp, 0.1)
    with pytest.raises(error):
        Jet1D(q=1.0, qp=0.0, tp=tp, tpp=0.0, delta_a=0.1)


def test_mod3_leading_term_homogeneity():
    model = Pendulum()
    q, qp, tp = 0.4, 0.6, 1.1
    lead = lambda qp_, tp_: modified_lagrangian_mod3(model, q, qp_, tp_, 0.0)
    assert lead(2 * qp, 2 * tp) == pytest.approx(2 * lead(qp, tp), rel=1e-13)


def test_meshed_requires_curvature():
    model = Pendulum()
    with pytest.raises(ConfigurationError):
        meshed_lagrangian_order2(model, Jet1D(q=0.1, qp=0.2, tp=1.0, tpp=0.0, delta_a=0.1))


def test_meshed_reduces_to_leading_at_zero_step():
    model = Pendulum()
    jet = Jet1D(q=0.3, qp=0.5, tp=1.2, tpp=0.2, delta_a=0.0, qpp=0.4)
    expected = 1.2 * (0.5 * (0.5 / 1.2) ** 2 + math.cos(0.3))
    assert meshed_lagrangian_order2(model, jet) == pytest.approx(expected, rel=1e-13)


def test_meshed_equilibrium_value():
    model = Pendulum()
    jet = Jet1D(q=0.0, qp=0.0, tp=1.4, tpp=0.0, delta_a=0.3, qpp=0.0)
    assert meshed_lagrangian_order2(model, jet) == pytest.approx(1.4, rel=1e-13)  # -t' V(0)


@pytest.mark.parametrize("model_name", ["oscillator", "pendulum"])
def test_meshed_coefficient_matches_mod3_after_substitution(model_name):
    # substituting the leading-order q'' makes the da^2 coefficients of the
    # meshed and truncated Lagrangians identical in (q, q', t', t'')
    ctx = with_precision(30)
    model = HarmonicOscillator(k=1.3, m=0.7, ctx=ctx) if model_name == "oscillator" else Pendulum(ctx=ctx)
    rng = np.random.default_rng(11)
    m = model.masses[0]
    with ctx.arithmetic():
        for _ in range(10):
            q = ctx.real(repr(rng.uniform(-1.0, 1.0)))
            qp = ctx.real(repr(rng.uniform(-1.0, 1.0)))
            tp = ctx.real(repr(rng.uniform(0.5, 2.0)))
            tpp = ctx.real(repr(rng.uniform(-0.5, 0.5)))
            Vq = model.potential_gradient(ctx.array([q]))[0]
            qpp0 = qp * tpp / tp - tp ** 2 * Vq / m

            def coeff(fn):
                return fn(1) - fn(0)

            c_mesh = coeff(
                lambda da: meshed_lagrangian_order2(
                    model, Jet1D(q=q, qp=qp, tp=tp, tpp=tpp, delta_a=da, qpp=qpp0)
                )
            )
            c_mod = coeff(lambda da: modified_lagrangian_mod3(model, q, qp, tp, da))
            assert abs(c_mesh - c_mod) <= ctx.real("1e-12") * max(abs(c_mod), ctx.real("1e-3"))


def _bea_digest(name, digits):
    """SHA-256 of every bit of the modified right-hand side, both modified
    Lagrangians and the discrete residual at 12 seeded points, each value
    of the context's scalar type, computed in the context's arithmetic."""
    ctx = with_precision(digits)
    model = make_model(name, {"k": 1.3, "m": 0.8} if name == "oscillator" else {"m": 0.8}, ctx)
    rng = np.random.default_rng(29)

    def draw(lo, hi):
        return ctx.real(rng.uniform(lo, hi)) / 3

    values = []
    with ctx.arithmetic():
        for _ in range(12):
            q, qp, qpp, tpp = (draw(-4.5, 4.5) for _ in range(4))
            tp, da = draw(1.5, 6.0), draw(0.1, 1.0)
            values.append(modified_rhs_order2(model, Jet1D(q=q, qp=qp, tp=tp, tpp=tpp, delta_a=da)))
            values.append(modified_lagrangian_mod3(model, q, qp, tp, da))
            values.append(meshed_lagrangian_order2(model, Jet1D(q=q, qp=qp, tp=tp, tpp=tpp, delta_a=da, qpp=qpp)))
            t0 = draw(-3.0, 3.0)
            points = [(t0 - draw(0.1, 1.0), [draw(-4.5, 4.5)]), (t0, [q]), (t0 + draw(0.1, 1.0), [draw(-4.5, 4.5)])]
            pair = discrete_residual(model, *points)
            values += [list(pair.psi_el), pair.psi_e]

    return hashlib.sha256(repr(typed_bits(ctx, values)).encode()).hexdigest()


#: Digests of :func:`_bea_digest`, the double ones recorded while the
#: models' derivatives were arrays and the step kernel read them through a
#: bridge to lists, the 18-digit ones on 23-digit decimals, whose 60 values
#: each lie within 2.3e-21 relative of the 73-bit binary values before them.
BEA_DIGESTS = {
    ("oscillator", 16): "29ebfc64f63f2f0fdee8897e3f1624300e03622bf1cb312fb77a2e4c8ca2c739",
    ("oscillator", 18): "81179623fc7cf1e93fbe9b2b545c26a76e1126960513cfdd15e69052311f5cf8",
    ("pendulum", 16): "9fca8d1496e1b7948791ab01493b462ba26b07816eb9220a2a60861889cf4ac7",
    ("pendulum", 18): "bb6803771d930edb7c213970bda3b5a9057057a9e43c18c07a9564937256a2cf",
}


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("name", ["oscillator", "pendulum"])
def test_bea_formulas_keep_every_bit(name, digits):
    # pure arithmetic on the models' derivatives, no SciPy: a change meant to
    # leave the arithmetic alone must not move one bit of these values
    assert _bea_digest(name, digits) == BEA_DIGESTS[name, digits]


def test_mod3_euler_lagrange_reproduces_modified_rhs():
    # numerical variational derivative of the truncated Lagrangian, solved
    # for q'', approaches the modified equation at fourth order
    model = Pendulum()
    q, qp, tp, tpp = 0.8, 0.5, 1.1, 0.2
    das = [0.4, 0.3, 0.2, 0.15, 0.1]
    diffs = []
    fd = 1e-4
    for da in das:
        L = lambda q_, qp_, tp_: modified_lagrangian_mod3(model, q_, qp_, tp_, da)
        L_q = (L(q + fd, qp, tp) - L(q - fd, qp, tp)) / (2 * fd)
        L_qp_qp = (L(q, qp + fd, tp) - 2 * L(q, qp, tp) + L(q, qp - fd, tp)) / fd ** 2
        L_qp_q = (
            L(q + fd, qp + fd, tp) - L(q + fd, qp - fd, tp)
            - L(q - fd, qp + fd, tp) + L(q - fd, qp - fd, tp)
        ) / (4 * fd ** 2)
        L_qp_tp = (
            L(q, qp + fd, tp + fd) - L(q, qp + fd, tp - fd)
            - L(q, qp - fd, tp + fd) + L(q, qp - fd, tp - fd)
        ) / (4 * fd ** 2)
        qpp_el = (L_q - L_qp_q * qp - L_qp_tp * tpp) / L_qp_qp
        qpp_mod = modified_rhs_order2(model, Jet1D(q=q, qp=qp, tp=tp, tpp=tpp, delta_a=da))
        diffs.append(abs(qpp_el - qpp_mod))
    slope = np.polyfit(np.log(das), np.log(diffs), 1)[0]
    assert slope >= 4.0 - 0.3


# -- order estimation and reparametrization ------------------------------------------


def test_residual_order_estimate_oscillator_quick():
    est = residual_order_estimate(HarmonicOscillator(), IdentityProfile(), False)
    assert est.slope == pytest.approx(3.0, abs=0.3)
    assert [da for da, _, _ in est.samples] == list(DELTA_A_SWEEP)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        SineProfile(1.2)
    with pytest.raises(ConfigurationError):
        LinearProfile(-2.0)
    SineProfile(0.9).check_monotone(0.0, 10.0)


def test_profile_monotonicity_rejects_a_nan_end():
    # t'(nan) is nan, and nan <= 0 is false: the check returned None
    with pytest.raises(NonMonotoneTimeError):
        SineProfile(0.5).check_monotone(0, math.nan)


@pytest.mark.parametrize("end", [None, "1", math.inf])
def test_profile_monotonicity_refuses_an_end_that_is_not_a_finite_number(end):
    # np.linspace raised a TypeError on None
    with pytest.raises(ConfigurationError, match="^profile span ends must be finite, got "):
        SineProfile(0.5).check_monotone(0, end)
    with pytest.raises(ConfigurationError):
        SineProfile(0.5).check_monotone(end, 1.0)


def test_lemma1_identity_profile_is_machine_level():
    model = HarmonicOscillator()
    s0 = ExtendedState(t=0.0, q=np.array([1.0]), p=np.array([0.0]), E=0.5)
    dev = lemma1_reparametrization_check(model, IdentityProfile(), s0, 2 * math.pi)
    assert dev <= 1e-10


_LEMMA1_SPAN_PROBE = """
import math
from varint import ConfigurationError, HarmonicOscillator, IdentityProfile, lemma1_reparametrization_check
from varint.models import ExtendedState
s0 = ExtendedState(t=0.0, q=(1.0,), p=(0.0,), E=0.5)
for T in (math.nan, math.inf, None):
    try:
        lemma1_reparametrization_check(HarmonicOscillator(), IdentityProfile(), s0, T)
    except ConfigurationError as exc:
        print(exc)
"""


def test_lemma1_rejects_a_non_finite_span():
    # solve_ivp never returned on a nan or infinite span, and None raised
    # TypeError: a fresh interpreter under a timeout turns a hang into a failure
    src = str(Path(varint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LEMMA1_SPAN_PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"T must be positive and finite, got {T}" for T in ("nan", "inf", "None")]
