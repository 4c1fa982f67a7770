import math

import mpmath
import numpy as np
import pytest
from conftest import SINGULAR_INVERSE, SINGULAR_SOLVE
from scipy.linalg import lu_factor, lu_solve

from varint import ConfigurationError, kepler_hamiltonian, with_precision
from varint.precision import DOUBLE, inf_norm


def test_native_context_below_17_digits():
    assert with_precision(16).is_native
    assert with_precision(10).is_native
    assert not with_precision(18).is_native


def test_minimum_digits_rejected():
    with pytest.raises(ConfigurationError):
        with_precision(9)


def test_extended_context_carries_requested_digits():
    ctx = with_precision(18)
    assert ctx.eps < 10.0 ** (-18)


@pytest.mark.parametrize("digits", [16, 18, 25])
def test_serialization_round_trip_identity(digits):
    ctx = with_precision(digits)
    x = ctx.real(1) / ctx.real(3)
    assert ctx.parse(ctx.format(x)) == x
    y = ctx.real("-6.28331706314657e4")
    assert ctx.parse(ctx.format(y)) == y


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


def test_closed_arithmetic_types():
    ctx = with_precision(18)
    a = ctx.real("1.5")
    for value in (a + a, a - a, a * a, a / a, ctx.sqrt(a), a ** 3):
        assert type(value) is type(a)


def test_solve_small_system_both_paths():
    # the matrix in double, the right side in the context's precision
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    for ctx in (DOUBLE, with_precision(20)):
        b = ctx.array([1.0, 2.0])
        x = ctx.solve(A, b)
        assert isinstance(x, list)
        assert float(inf_norm(A @ x - b)) < 1e-14


def test_cond_inf_identity():
    assert DOUBLE.cond_inf(np.eye(3)) == pytest.approx(1.0)


# both contexts solve in double; the 18-digit cases take object arrays of mpf
# to double, as newton_solve does with a Jacobian


@pytest.mark.parametrize("digits", [16, 18])
def test_solve_singular_is_all_nan(digits):
    ctx = with_precision(digits)
    A = np.asarray(ctx.array([[1.0, 2.0], [2.0, 4.0]]), dtype=float)
    with pytest.warns(RuntimeWarning, match=SINGULAR_SOLVE):
        x = ctx.solve(A, ctx.array([1.0, 0.0]))
    assert isinstance(x, list) and np.isnan(x).all()


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
    # is rounded to double first
    ctx = with_precision(digits)
    for A, b in _random_systems(1000, seed=digits):
        bc = ctx.array(b) / 3
        x = ctx.solve(A, bc)
        ref = lu_solve(lu_factor(A), np.asarray(bc, dtype=float))
        assert all(type(c) is float for c in x) and np.array(x).tobytes() == ref.tobytes(), (A, b)


def test_inf_norm_is_the_finiteness_rule_for_both_scalar_types():
    # inf_norm(v) < inf is the library's one test that every component is finite
    assert inf_norm([1.0, -2.0]) < math.inf
    assert not inf_norm([1.0, math.nan]) < math.inf
    assert not inf_norm([0.0, np.inf]) < math.inf
    assert inf_norm(np.array([1.0, -2.0])) < math.inf and not inf_norm(np.array([np.nan])) < math.inf
    ctx = with_precision(18)
    assert inf_norm(ctx.array([1, 2]).tolist()) < math.inf
    assert not inf_norm([ctx.real(1), mpmath.mpf("inf")]) < math.inf
    assert inf_norm([ctx.real(3)]) < math.inf and not inf_norm([float("nan")]) < math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inf_norm_reads_inf_for_non_finite_vectors(bad):
    assert inf_norm([1.0, bad, -2.0]) == math.inf
    ctx = with_precision(18)
    v = ctx.array([1, 0, -2]).tolist()
    v[1] = mpmath.mpf(bad)
    assert inf_norm(v) == math.inf


@pytest.mark.parametrize("digits", [16, 18])
def test_inf_norm_of_finite_vectors_is_max_abs(digits):
    ctx = with_precision(digits)
    v = ctx.array([0.5, -3.25, 2]).tolist()
    m = inf_norm(v)
    assert type(m) is (float if digits == 16 else type(v[0])) and m == np.abs(v).max() == 3.25


def test_inf_norm_keeps_an_mpf_beyond_the_double_range():
    # 1e400 is a finite mpf that no double holds: a float-based finiteness
    # test (math.isfinite) would read it as inf
    ctx = with_precision(18)
    big = ctx.real("1e400")
    m = inf_norm([ctx.real(1), -big])
    assert type(m) is type(big) and m == big and not math.isfinite(m)


def test_activate_leaves_mpmath_alone_in_double():
    with mpmath.workdps(33):
        with DOUBLE.activate():
            assert mpmath.mp.dps == 33
        assert mpmath.mp.dps == 33
