import math
import os
import subprocess
import sys
from contextlib import nullcontext
from decimal import Decimal, InvalidOperation, localcontext
from pathlib import Path

import numpy as np
import pytest
from conftest import SINGULAR_INVERSE, SINGULAR_SOLVE
from scipy.linalg import lu_factor, lu_solve

import varint
from varint import ConfigurationError, kepler_hamiltonian, with_precision
from varint.errors import check_finite
from varint.precision import DOUBLE, PrecisionContext, inf_norm


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


# both contexts solve in double; the 18-digit cases take object arrays of
# Decimal to double, as newton_solve does with a Jacobian


@pytest.mark.parametrize("digits", [16, 18])
def test_solve_singular_is_all_nan(digits):
    ctx = with_precision(digits)
    A = np.asarray(ctx.array([[1.0, 2.0], [2.0, 4.0]]), dtype=float)
    with pytest.warns(RuntimeWarning, match=SINGULAR_SOLVE):
        x = ctx.solve(A, ctx.array([1.0, 0.0]))
    assert isinstance(x, list) and np.isnan(np.array(x, dtype=float)).all()


@pytest.mark.parametrize("digits", [16, 18])
def test_cond_inf_singular_is_inf(digits):
    ctx = with_precision(digits)
    for A in ([[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))):
        with pytest.warns(RuntimeWarning, match=SINGULAR_INVERSE):
            assert ctx.cond_inf(np.asarray(ctx.array(A), dtype=float)) == math.inf


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


def _norm_inf_before(m):
    """The row-sum norm of the condition number before it was inlined."""
    return max(map(math.fsum, np.abs(m).tolist()))


def test_cond_inf_is_bitwise_the_product_of_the_norms_it_replaced():
    # 2,000 seeded 2 x 2 and 3 x 3 matrices, entries from 1e-6 to 1e6 in
    # magnitude, against ||A|| ||A^-1|| of the norm it inlined; a singular
    # matrix and a row sum past the largest double read inf, as they did
    rng = np.random.default_rng(35)
    for k in range(2000):
        n = 2 + k % 2
        A = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
        expected = _norm_inf_before(A) * _norm_inf_before(np.linalg.inv(A))
        assert DOUBLE.cond_inf(A).hex() == expected.hex(), A
    with np.errstate(all="ignore"):
        for A in ([[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3)), 1.5e-308 * np.array([[2.0, 1.0], [1.0, 1.0]])):
            assert DOUBLE.cond_inf(np.array(A)) == math.inf


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


def _random_systems(count, seed):
    """Seeded n x n systems, n in {1, 2, 3}, entries spanning 1e-6 to 1e6 in
    magnitude with random signs."""
    rng = np.random.default_rng(seed)

    def scaled(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6, 6, shape)

    for _ in range(count):
        n = int(rng.integers(1, 4))
        yield scaled(n, n), scaled(n)


@pytest.mark.parametrize("digits", [16, 18])
def test_solve_has_the_bits_of_lapack_lu(digits):
    # the gufunc solve gives dgetrf + dgetrs's bits; an 18-digit right side
    # is rounded to double first, and each double component of the solution
    # comes back as its exact Decimal
    ctx = with_precision(digits)
    scalar = float if ctx.is_native else Decimal
    for A, b in _random_systems(1000, seed=digits):
        with ctx.arithmetic():
            bc = ctx.array(b) / 3
        x = ctx.solve(A, bc)
        ref = lu_solve(lu_factor(A), np.asarray(bc, dtype=float))
        assert all(type(c) is scalar for c in x), (A, b)
        assert x == [scalar(c) for c in ref.tolist()] and np.array(x, dtype=float).tobytes() == ref.tobytes(), (A, b)


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
