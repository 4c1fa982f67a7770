import math
import os
import subprocess
import sys
import warnings
from contextlib import nullcontext
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import varint
from varint import ConfigurationError, kepler_hamiltonian, with_precision
from varint.errors import check_finite
from varint.precision import _SOLVES, DOUBLE, PrecisionContext, _solve_n, inf_norm


def test_native_context_below_17_digits():
    assert with_precision(16).is_native
    assert with_precision(10).is_native
    assert not with_precision(18).is_native


def test_minimum_digits_rejected():
    with pytest.raises(ConfigurationError):
        with_precision(9)


@pytest.mark.parametrize("build", [PrecisionContext, with_precision])
@pytest.mark.parametrize("digits", [None, "18", 17.5, 12.5, True])
def test_context_digits_must_be_an_integer(build, digits):
    # the constructor checks them: None and "18" raised a comparison's
    # TypeError, 17.5 failed at the first Decimal operation and 12.5 ran in double
    with pytest.raises(ConfigurationError, match="^precision digits must be an integer, got "):
        build(digits)


def test_extended_context_carries_requested_digits():
    ctx = with_precision(18)
    assert ctx.eps < 10.0 ** (-18)


@pytest.mark.parametrize("digits", [16, 18, 25])
def test_serialization_round_trip_identity(digits):
    ctx = with_precision(digits)
    with ctx.arithmetic():
        x = ctx.real(1) / ctx.real(3)
    assert ctx.real(ctx.format(x)) == x
    y = ctx.real("-6.28331706314657e4")
    assert ctx.real(ctx.format(y)) == y


def test_round_trip_preserves_context_digits():
    ctx = with_precision(18)
    s = ctx.format(ctx.real("0.1"))
    assert len(s.split("e")[0].replace("-", "").replace(".", "")) >= 18


def test_arithmetic_determinism():
    ctx = with_precision(20)

    def expr():
        a = ctx.sqrt(ctx.real(2)) + ctx.real(1) / ctx.real(7)
        return (a * a - ctx.real("0.25")) / ctx.sqrt(a)

    assert expr() == expr()


def test_kepler_hamiltonian_across_precisions():
    # fixed inputs must agree to >= 15 significant digits between contexts
    q, p = [0.4, -0.3], [0.2, 1.1]
    h16 = kepler_hamiltonian(q, p, with_precision(16))
    h30 = kepler_hamiltonian(q, p, with_precision(30))
    assert abs(float(h30) - h16) <= 1e-15 * abs(h16)


def test_real_takes_numpy_scalars():
    # Decimal converts no numpy scalar: real takes its Python value
    ctx = with_precision(18)
    for x, want in ((np.int64(3), "3"), (np.float32(0.5), "0.5"), (np.float64(0.1), "0.10000000000000000555112")):
        assert ctx.real(x) == Decimal(want) and type(ctx.real(x)) is Decimal
    assert ctx.array(np.array([np.int64(2), 0.25], dtype=object)).tolist() == [2, Decimal("0.25")]


def test_closed_arithmetic_types():
    ctx = with_precision(18)
    a = ctx.real("1.5")
    for value in (a + a, a - a, a * a, a / a, ctx.sqrt(a), a ** 3):
        assert type(value) is type(a)


def test_solve_small_system_both_paths():
    # the matrix in double, the right side in the context's precision, the
    # solution of the context's scalar type
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    for ctx, scalar in ((DOUBLE, float), (with_precision(20), Decimal)):
        b = ctx.array([1.0, 2.0])
        x = ctx.solve(A, b)
        assert isinstance(x, list) and all(type(c) is scalar for c in x)
        assert float(inf_norm(A @ np.array(x, dtype=float) - np.array(b, dtype=float))) < 1e-14


def test_cond_inf_identity():
    assert DOUBLE.cond_inf(np.eye(3)) == pytest.approx(1.0)


# both contexts solve in double; the 18-digit cases hand in rows of Decimal,
# which the solve and the condition number round to double


@pytest.mark.parametrize("digits", [16, 18])
def test_solve_singular_is_all_nan(digits):
    # a zero pivot gives an all-nan x, and no warning
    ctx = with_precision(digits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = ctx.solve(ctx.array([[1.0, 2.0], [2.0, 4.0]]).tolist(), ctx.array([1.0, 0.0]))
    assert isinstance(x, list) and np.isnan(np.array(x, dtype=float)).all()


@pytest.mark.parametrize("digits", [16, 18])
def test_cond_inf_singular_is_inf(digits):
    ctx = with_precision(digits)
    for A in ([[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ctx.cond_inf(ctx.array(A).tolist()) == math.inf


@pytest.mark.parametrize("digits", [16, 18])
@pytest.mark.parametrize("n", [3, 4])
def test_cond_inf_brackets_exact(n, digits):
    # ||A|| ||A^-1|| from the inverse: numpy's value up to the rounding of
    # the two row sums and their product
    ctx = with_precision(digits)
    rng = np.random.default_rng(n)
    for _ in range(50):
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        exact = np.linalg.cond(A, np.inf)
        est = ctx.cond_inf(np.asarray(ctx.array(A), dtype=float))
        assert abs(est - exact) <= 4 * np.spacing(exact)


def test_cond_inf_past_the_largest_double_is_inf():
    # the inverse's second row sums to 2e308: finite entries, no finite norm
    A = 1.5e-308 * np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.isfinite(np.linalg.inv(A)).all() and DOUBLE.cond_inf(A) == math.inf


def _near_singular_systems(count, seed):
    """Seeded n x n systems, n from 1 to 4 in turn, entries spanning 1e-6 to
    1e6 in magnitude with random signs; in every other system of n >= 2 the
    last row is a combination of the others perturbed by 1e-9 relative,
    which puts the condition number up to about 1e13."""
    rng = np.random.default_rng(seed)

    def scaled(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6, 6, shape)

    for k in range(count):
        n = 1 + k % 4
        A, b = scaled(n, n), scaled(n)
        if k % 8 >= 4 and n > 1:
            A[-1] = rng.standard_normal(n - 1) @ A[:-1] * (1 + 1e-9 * rng.standard_normal(n))
        yield A, b


def test_cond_inf_is_numpys_within_its_error_bound():
    # 2,000 seeded 1 x 1 to 4 x 4 matrices, half of those from 2 x 2 on
    # near-singular: the adjugate's condition number (the inverse's above
    # 3 x 3) and numpy's LU inverse each carry a relative error of a few
    # n eps kappa, and they differ by at most 4 n eps kappa relative
    # (0.29 eps kappa measured, kappa up to 4.5e13); the bound says nothing
    # past eps kappa = 1e-2, which leaves 1,607 of them
    eps = DOUBLE.eps
    checked = 0
    for A, _ in _near_singular_systems(2000, seed=35):
        kappa = np.linalg.cond(A, np.inf)
        est = DOUBLE.cond_inf(A.tolist())
        if eps * kappa < 1e-2:
            assert abs(est - kappa) <= 4 * len(A) * eps * kappa * kappa, A
            checked += 1
    assert checked >= 1600


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_and_cond_inf_of_a_singular_or_non_finite_matrix(n):
    # a zero pivot, a nan or infinite entry, or a row sum past the largest
    # double: an all-nan x and an infinite condition number, with no
    # exception (a float's division by zero raises) and no warning
    eye = np.eye(n)
    singular = eye.copy()
    singular[-1] = 0.0
    cases = [singular, np.zeros((n, n))]
    for bad in (math.nan, math.inf, -math.inf):
        for i, j in ((0, 0), (n - 1, n - 1), (n - 1, 0), (0, n - 1)):
            A = eye.copy()
            A[i, j] = bad
            cases.append(A)
    if n > 1:  # elimination overflows to an infinite pivot, and row 0 sums past the largest double
        cases.append(1e308 * (np.triu(np.ones((n, n))) - np.tril(np.ones((n, n)), -1)))
    for A in cases:
        for ctx in (DOUBLE, with_precision(18)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = ctx.solve(A.tolist(), [1.0] * n)
                assert len(x) == n and all(math.isnan(c) for c in x), A
                assert ctx.cond_inf(A.tolist()) == math.inf, A
    if n > 1:  # a regular matrix whose first row sums past the largest double
        A = eye * 1e308
        A[0, :] = 1e308
        assert all(math.isfinite(c) for c in DOUBLE.solve(A.tolist(), [1.0] * n))
        assert DOUBLE.cond_inf(A.tolist()) == math.inf


def test_cond_inf_of_a_tiny_or_huge_matrix_is_its_scaled_ones():
    # a matrix outside [2^-300, 2^300] in norm is scaled by a power of two
    # before its cofactors are formed: its condition number is that of the
    # scaled matrix, where the unscaled determinant would under- or overflow
    # (an oscillator run at m = k = 1e-200 has EpAVI Jacobians of norm near
    # 1e-197; unscaled, it failed as ill-posed at its first step)
    rng = np.random.default_rng(7)
    for n in (2, 3):
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        for scale in (2.0 ** -970, 2.0 ** 330, 2.0 ** 660):
            assert DOUBLE.cond_inf((A * scale).tolist()) == DOUBLE.cond_inf(A.tolist()), (n, scale)


def _inf_norm_before(v):
    """inf_norm as it was: every |component| compared with inf, in turn."""
    a = [abs(c) for c in v]
    try:
        return max(a) if all(c < math.inf for c in a) else math.inf
    except ArithmeticError:
        return math.inf


def test_inf_norm_is_the_rule_it_replaced():
    # floats, Decimals and mixed lists, with a nan, an infinity, a signed
    # zero or a Decimal past the double range in any position, under a
    # context that traps invalid operations and under one that does not:
    # the same value and type
    rng = np.random.default_rng(36)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, Decimal("NaN"), Decimal("-NaN"), Decimal("Infinity"),
                Decimal("-0"), Decimal("-1e400")]
    untrapped = localcontext()
    for arithmetic in (nullcontext(), with_precision(18).arithmetic(), untrapped):
        with arithmetic as active:
            if arithmetic is untrapped:
                active.traps[InvalidOperation] = False
            for k in range(1500):
                v = [float(x) for x in rng.standard_normal(1 + k % 4) * 10.0 ** rng.integers(-20, 20)]
                v = [Decimal(x) if rng.random() < 0.4 else x for x in v]
                for j in range(len(v)):
                    if rng.random() < 0.3:
                        v[j] = specials[rng.integers(len(specials))]
                got, expected = inf_norm(v), _inf_norm_before(v)
                assert type(got) is type(expected) and repr(got) == repr(expected), v
            # a finite sum proves the components finite; a sum that overflows
            # or cannot be formed (a float and a Decimal) proves nothing
            big = Decimal("9e999999")  # its sum overflows Python's default context
            cases = [([1e308, 1e308], 1e308), ([-1e308, -1e308, 1.0], 1e308), ([big, big], big),
                     ([math.inf, -math.inf], math.inf), ([math.nan, 1.0, 2.0], math.inf),
                     ([1.0, 2.0, math.nan], math.inf), ([Decimal("NaN"), Decimal(1)], math.inf),
                     ([Decimal(1), Decimal("NaN")], math.inf), ([Decimal("1.5"), -2.5], 2.5),
                     ([2.5, Decimal("-3.5")], Decimal("3.5")), ([Decimal(1), math.nan], math.inf),
                     ([math.nan, Decimal(1)], math.inf), ([Decimal("NaN"), 1.0], math.inf),
                     ([1.0, Decimal("-Infinity")], math.inf)]
            for v, want in cases:
                got, expected = inf_norm(v), _inf_norm_before(v)
                assert type(got) is type(expected) and repr(got) == repr(expected), v
                assert type(got) is type(want) and got == want, v


def _backward_error(A, b, x) -> Fraction:
    """The normwise backward error ||b - A x|| / (||A|| ||x|| + ||b||) in the
    infinity norm, of double A, b and x, exactly."""
    A = [[Fraction(a) for a in row] for row in A]
    b, x = [Fraction(c) for c in b], [Fraction(c) for c in x]
    r = max(abs(b_i - sum(a * c for a, c in zip(row, x))) for row, b_i in zip(A, b))
    return r / (max(sum(map(abs, row)) for row in A) * max(map(abs, x)) + max(map(abs, b)))


@pytest.mark.parametrize("digits", [16, 18])
def test_solve_is_backward_stable(digits):
    # Gaussian elimination with partial pivoting on 2,000 seeded 1 x 1 to
    # 4 x 4 systems, half of those from 2 x 2 on near-singular: the computed
    # x solves a system within 2 eps of the given one in norm (0.59 eps
    # measured; Higham 2002, thm. 9.4 bounds it by a small multiple of n eps
    # times the growth factor).  An 18-digit right side is rounded to double
    # first, and each double component comes back as its exact Decimal
    ctx = with_precision(digits)
    scalar = float if ctx.is_native else Decimal
    solved = 0
    for A, b in _near_singular_systems(2000, seed=digits):
        with ctx.arithmetic():
            bc = (ctx.array(b) / 3).tolist()
        x = ctx.solve(A.tolist(), bc)
        assert all(type(c) is scalar for c in x), (A, b)
        if not math.isnan(x[0]):
            assert _backward_error(A.tolist(), list(map(float, bc)), list(map(float, x))) <= 2 * DOUBLE.eps, (A, b)
            solved += 1
    assert solved >= 1990


def test_unrolled_solves_give_the_bits_of_the_loop():
    # _solve1 to _solve3 unroll the elimination of _solve_n, pivot choice,
    # multipliers and substitution order included: every bit of x, or the
    # all-nan x, agrees, on the seeded systems and on singular and
    # non-finite ones
    systems = [(A, b) for A, b in _near_singular_systems(1500, seed=38) if len(A) <= 3]
    for n in (1, 2, 3):
        for bad in (0.0, math.nan, math.inf):
            A = np.arange(1.0, n * n + 1).reshape(n, n)
            A[n // 2, n - 1] = bad
            systems.append((A, np.ones(n)))
    for A, b in systems:
        got, want = _SOLVES[len(A)](A.tolist(), b.tolist()), _solve_n(A.tolist(), b.tolist())
        assert [c.hex() for c in got] == [c.hex() for c in want], A


def test_decimal_rows_are_rounded_to_double():
    # an 18-digit Jacobian and right side of Decimals: the solve and the
    # condition number round each entry to double, as np.asarray(..., dtype=float)
    # rounded it, and work on the doubles from there
    ctx = with_precision(18)
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 4):
        with ctx.arithmetic():
            A = [[ctx.real(str(v)) / 7 for v in row] for row in (rng.standard_normal((n, n)) + n * np.eye(n)).tolist()]
            b = [ctx.real(str(v)) / 3 for v in rng.standard_normal(n).tolist()]
        Ad, bd = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        assert Ad.tolist() != [[float(str(a)[:17]) for a in row] for row in A]  # the rounding is not a truncation
        assert ctx.solve(A, b) == list(map(Decimal, DOUBLE.solve(Ad.tolist(), bd.tolist())))
        assert ctx.cond_inf(A) == DOUBLE.cond_inf(Ad.tolist()) == DOUBLE.cond_inf(Ad)


def test_inf_norm_is_the_finiteness_rule_for_both_scalar_types():
    # inf_norm(v) < inf is the library's one test that every component is finite
    assert inf_norm([1.0, -2.0]) < math.inf
    assert not inf_norm([1.0, math.nan]) < math.inf
    assert not inf_norm([0.0, np.inf]) < math.inf
    assert inf_norm(np.array([1.0, -2.0])) < math.inf and not inf_norm(np.array([np.nan])) < math.inf
    ctx = with_precision(18)
    assert inf_norm(ctx.array([1, 2]).tolist()) < math.inf
    assert not inf_norm([ctx.real(1), Decimal("inf")]) < math.inf
    assert inf_norm([ctx.real(3)]) < math.inf and not inf_norm([float("nan")]) < math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inf_norm_reads_inf_for_non_finite_vectors(bad):
    # a Decimal nan reads as a float nan does: under a context that traps
    # invalid operations (Python's default and a run's), whose comparison
    # raises, and under one that does not, whose comparison is false
    assert inf_norm([1.0, bad, -2.0]) == math.inf
    ctx = with_precision(18)
    v = ctx.array([1, 0, -2]).tolist()
    v[1] = Decimal(bad)
    assert inf_norm(v) == math.inf
    with ctx.arithmetic():
        assert inf_norm(v) == math.inf
    with localcontext() as quiet:
        quiet.traps[InvalidOperation] = False
        assert inf_norm(v) == math.inf


@pytest.mark.parametrize("digits", [16, 18])
def test_inf_norm_of_finite_vectors_is_max_abs(digits):
    ctx = with_precision(digits)
    v = ctx.array([0.5, -3.25, 2]).tolist()
    m = inf_norm(v)
    assert type(m) is (float if digits == 16 else type(v[0])) and m == np.abs(v).max() == 3.25


def test_inf_norm_keeps_a_decimal_beyond_the_double_range():
    # 1e400 is a finite Decimal that no double holds: a float-based
    # finiteness test (math.isfinite) would read it as inf
    ctx = with_precision(18)
    big = ctx.real("1e400")
    m = inf_norm([ctx.real(1), -big])
    assert type(m) is type(big) and m == big and not math.isfinite(m)


def test_arithmetic_rounds_in_the_context_and_restores_the_callers():
    # an extended context's arithmetic rounds half-even at the working
    # digits, with no exponent limit in reach; the caller's decimal context
    # comes back on exit, also from an exception, and the double context
    # leaves it alone
    ctx = with_precision(18)
    with localcontext(prec=8) as caller:
        with ctx.arithmetic():
            third = Decimal(1) / 3
            assert len(third.as_tuple().digits) == ctx.working_dps == 23
            assert (Decimal(10) ** 400).is_finite() and Decimal(10) ** -400 > 0
        with pytest.raises(ZeroDivisionError), ctx.arithmetic():
            Decimal(1) / 0
        with DOUBLE.arithmetic():
            assert Decimal(1) / 3 == Decimal("0.33333333")
        assert Decimal(1) / 3 == Decimal("0.33333333")
        assert ctx.activate == ctx.arithmetic  # the name the benchmark workloads call
        assert caller.prec == 8


@pytest.mark.parametrize("bad", ["NaN", "-NaN", "Infinity", "-Infinity"])
def test_a_decimal_nan_or_inf_reads_as_a_float_one_does(bad):
    # check_finite refuses it and inf_norm reads inf, as for float(bad):
    # under Python's default context, whose comparison with a nan raises
    # InvalidOperation, under a run's, and under one that traps nothing
    untrapped = localcontext()
    for arithmetic in (nullcontext(), with_precision(18).arithmetic(), untrapped):
        with arithmetic as active:
            if arithmetic is untrapped:
                active.traps[InvalidOperation] = False
            for value in (Decimal(bad), float(bad)):
                with pytest.raises(ConfigurationError, match=f"^x must be positive and finite, got {value}$"):
                    check_finite(value, "x must be positive and finite, got {}")
                with pytest.raises(ConfigurationError):
                    check_finite(value, "x must be at least -1 and finite, got {}", -1, inclusive=True)
                assert inf_norm([Decimal(1), value]) == math.inf


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name", ["cos", "sin"])
def test_extended_cos_and_sin_of_a_nan_or_inf_are_nan(name, bad):
    # a nan or infinite argument skips the reduction and the series
    assert getattr(with_precision(18), name)(Decimal(bad)).is_nan()


def test_import_varint_loads_no_mpmath():
    # extended precision is the standard library's decimal: importing the
    # package and its CLI, and an 18-digit run whose pendulum needs cos and
    # sin, load no mpmath module
    probe = (
        "import sys, varint, varint.cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "ctx = varint.with_precision(18)\n"
        "model = varint.Pendulum(ctx=ctx)\n"
        "state = model.initial_state()\n"
        "traj = varint.midpoint_fixed_run(model, state, ctx.real('0.1'), 1.0)\n"
        "assert len(traj.steps) == 10\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'mpmath'], 'mpmath loaded'\n"
    )
    src = str(Path(varint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
