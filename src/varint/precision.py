"""Configurable-precision real arithmetic.

Every run computes either in native double precision or in software
extended precision, the standard library's ``decimal`` (libmpdec, which
implements Cowlishaw's General Decimal Arithmetic Specification), selected
once per run through a :class:`PrecisionContext`.  Values are plain
``float`` in the native path and ``decimal.Decimal`` in the extended path.
A ``Decimal`` operation rounds in the thread's current decimal context, so
a run enters the context's :meth:`PrecisionContext.arithmetic` once, around
its setup and steps (``integrators._march``), and ``cli.run_experiment``
around a whole experiment: there, every operation rounds half-even at the
working precision whatever context the caller holds, which is restored
afterwards.  A direct call outside a run (a step, a Newton solve, a model's
energy) rounds in the caller's context instead; Python's default one
carries 28 digits, so such a call gets more digits than a run, and other
bits.  The diagnostics of a trajectory enter its context's arithmetic
themselves.  :meth:`PrecisionContext.real` and ``array`` round through the
context itself, inside a run or not, as do ``sqrt``, ``cos`` and ``sin``,
and bring values of another precision in.  Context constants and these
elementary functions (``math``'s in double) are chosen once per context.
The double linear algebra, ``solve`` and ``cond_inf``, is Gaussian
elimination and the adjugate on Python floats, one rounding per operation
in a fixed order: its bits depend on no BLAS or LAPACK kernel, and a
singular matrix is judged by its outcome, not warned of.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from functools import cached_property, lru_cache, partial
from operator import ne
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError

#: Significant decimal digits carried by IEEE double precision.
DOUBLE_DIGITS = 16

#: Minimum digits any experiment in scope can run with.
MIN_DIGITS = 10

#: Guard digits added to the working precision of extended contexts so that
#: rounding in long step sequences stays below the requested digit count.
#: Decimal spacing wobbles by a factor of 10 over a decade: at 18 digits, 3
#: guard digits left the one-period Kepler energy error 16-40x above the 73
#: binary digits used before, 5 leave it below them.
GUARD_DIGITS = 5

#: Extra digits of the cos and sin series, past the working precision and
#: the integer digits of the argument, before the result is rounded.
_SERIES_GUARD_DIGITS = 5

Real = Union[float, Decimal]


def _decimal_context(prec: int) -> Context:
    """Round half-even at ``prec`` digits, with libmpdec's largest exponent
    range, so a value beyond the double range stays finite."""
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


@lru_cache(maxsize=16)
def _pi(prec: int) -> Decimal:
    """pi to ``prec`` digits, by the recipe of the ``decimal`` documentation."""
    with localcontext(_decimal_context(prec + 2)):
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return _decimal_context(prec).plus(s)


def _taylor(r: Decimal, odd: int) -> Decimal:
    """cos r, or sin r if ``odd``, by its Taylor series in the current context,
    summed until a term no longer changes the sum (the ``decimal``
    documentation's recipe)."""
    term = r if odd else Decimal(1)
    r2, i, s, lasts = r * r, odd, term, 0
    while s != lasts:
        lasts = s
        i += 2
        term = -term * r2 / ((i - 1) * i)
        s += term
    return s


# -- small dense systems in double ------------------------------------------------
#
# Gaussian elimination with partial pivoting (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., 2002, ch. 9) on Python floats: each entry
# is rounded to double by ``float`` first, each operation rounds once, and
# the multipliers are divided by the pivot, not scaled by its reciprocal.
# :func:`_solve1` to :func:`_solve3` unroll :func:`_gauss` for one right side
# and give its bits.  A zero or non-finite pivot, or a non-finite first
# component of x (which every other component enters), makes x all nan.

_NAN, _INF = math.nan, math.inf

#: Norms within which a 3 x 3 matrix's cofactors and determinant stay in the
#: normal double range; :func:`_cond2` and :func:`_cond3` first scale a matrix
#: outside them by a power of two, which is exact.
_LOW, _HIGH = 2.0 ** -300, 2.0 ** 300


def _gauss(rows) -> Optional[list]:
    """X = A^{-1} B from the augmented float rows [A | B] of an n x n A,
    eliminated in place; None at a zero or non-finite pivot or a non-finite
    entry in X's first row."""
    n = len(rows)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))  # the first largest
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        if not 0 < abs(top[k]) < _INF:
            return None
        for row in rows[k + 1:]:
            m = row[k] / top[k]
            for j in range(k + 1, len(row)):
                row[j] -= m * top[j]
    for k in reversed(range(n)):
        row = rows[k]
        for j in range(n, len(row)):
            s = row[j]
            for i in range(k + 1, n):
                s -= row[i] * rows[i][j]
            row[j] = s / row[k]
    X = [row[n:] for row in rows]
    return X if all(abs(v) < _INF for v in X[0]) else None


def _solve_n(A, b) -> list:
    X = _gauss([[*map(float, row), float(y)] for row, y in zip(A, b)])
    return [_NAN] * len(b) if X is None else [x for x, in X]


def _solve1(A, b) -> list:
    a, y = float(A[0][0]), float(b[0])
    if not 0 < abs(a) < _INF:
        return [_NAN]
    x = y / a
    return [x] if abs(x) < _INF else [_NAN]


def _solve2(A, b) -> list:
    (a00, a01), (a10, a11) = A
    y0, y1 = b
    a00, a01, a10, a11, y0, y1 = float(a00), float(a01), float(a10), float(a11), float(y0), float(y1)
    if abs(a10) > abs(a00):
        a00, a01, y0, a10, a11, y1 = a10, a11, y1, a00, a01, y0
    if not 0 < abs(a00) < _INF:
        return [_NAN, _NAN]
    m = a10 / a00
    a11 -= m * a01
    y1 -= m * y0
    if not 0 < abs(a11) < _INF:
        return [_NAN, _NAN]
    x1 = y1 / a11
    x0 = (y0 - a01 * x1) / a00
    return [x0, x1] if abs(x0) < _INF else [_NAN, _NAN]


def _solve3(A, b) -> list:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
    y0, y1, y2 = b
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = (
        float(a00), float(a01), float(a02), float(a10), float(a11), float(a12), float(a20), float(a21), float(a22))
    y0, y1, y2 = float(y0), float(y1), float(y2)
    p0, p1, p2 = abs(a00), abs(a10), abs(a20)
    if p1 > p0:
        if p2 > p1:
            a00, a01, a02, y0, a20, a21, a22, y2 = a20, a21, a22, y2, a00, a01, a02, y0
        else:
            a00, a01, a02, y0, a10, a11, a12, y1 = a10, a11, a12, y1, a00, a01, a02, y0
    elif p2 > p0:
        a00, a01, a02, y0, a20, a21, a22, y2 = a20, a21, a22, y2, a00, a01, a02, y0
    if not 0 < abs(a00) < _INF:
        return [_NAN, _NAN, _NAN]
    m1, m2 = a10 / a00, a20 / a00
    a11 -= m1 * a01
    a12 -= m1 * a02
    y1 -= m1 * y0
    a21 -= m2 * a01
    a22 -= m2 * a02
    y2 -= m2 * y0
    if abs(a21) > abs(a11):
        a11, a12, y1, a21, a22, y2 = a21, a22, y2, a11, a12, y1
    if not 0 < abs(a11) < _INF:
        return [_NAN, _NAN, _NAN]
    m2 = a21 / a11
    a22 -= m2 * a12
    y2 -= m2 * y1
    if not 0 < abs(a22) < _INF:
        return [_NAN, _NAN, _NAN]
    x2 = y2 / a22
    x1 = (y1 - a12 * x2) / a11
    x0 = (y0 - a01 * x1 - a02 * x2) / a00
    return [x0, x1, x2] if abs(x0) < _INF else [_NAN, _NAN, _NAN]


def _inverse_norm(adj_norm, det, e) -> float:
    """||A^{-1}|| = ||adj B|| / |det B| 2^-e of A = 2^e B; inf for a zero or
    nan determinant or a norm past the largest double."""
    if not 0 < abs(det) < _INF:
        return _INF
    inv = adj_norm / abs(det)
    if e:
        try:
            return math.ldexp(inv, -e)
        except OverflowError:
            return _INF
    return inv


def _cond_n(A) -> float:
    n = len(A)
    rows = [[*map(float, row), *(float(i == j) for j in range(n))] for i, row in enumerate(A)]
    norm = max(sum(map(abs, row[:n])) for row in rows)
    X = _gauss(rows)
    return _INF if X is None or not norm < _INF else norm * max(sum(map(abs, row)) for row in X)


def _cond1(A) -> float:
    a = abs(float(A[0][0]))
    return a * (1 / a) if 0 < a < _INF else _INF


def _cond2(A) -> float:
    (a00, a01), (a10, a11) = A
    a00, a01, a10, a11 = float(a00), float(a01), float(a10), float(a11)
    norm, e = max(abs(a00) + abs(a01), abs(a10) + abs(a11)), 0
    if not _LOW <= norm <= _HIGH:
        if not 0 < norm < _INF:
            return _INF
        e = math.frexp(norm)[1]
        a00, a01, a10, a11 = (math.ldexp(a, -e) for a in (a00, a01, a10, a11))
    # adj A = [[a11, -a01], [-a10, a00]]
    adj_norm = max(abs(a11) + abs(a01), abs(a10) + abs(a00))
    return norm * _inverse_norm(adj_norm, a00 * a11 - a01 * a10, e)


def _cond3(A) -> float:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = (
        float(a00), float(a01), float(a02), float(a10), float(a11), float(a12), float(a20), float(a21), float(a22))
    norm, e = max(abs(a00) + abs(a01) + abs(a02), abs(a10) + abs(a11) + abs(a12),
                  abs(a20) + abs(a21) + abs(a22)), 0
    if not _LOW <= norm <= _HIGH:
        if not 0 < norm < _INF:
            return _INF
        e = math.frexp(norm)[1]
        a00, a01, a02, a10, a11, a12, a20, a21, a22 = (
            math.ldexp(a, -e) for a in (a00, a01, a02, a10, a11, a12, a20, a21, a22))
    # the cofactors c_ij; row i of adj A is column i of them
    c00, c01, c02 = a11 * a22 - a12 * a21, a12 * a20 - a10 * a22, a10 * a21 - a11 * a20
    c10, c11, c12 = a02 * a21 - a01 * a22, a00 * a22 - a02 * a20, a01 * a20 - a00 * a21
    c20, c21, c22 = a01 * a12 - a02 * a11, a02 * a10 - a00 * a12, a00 * a11 - a01 * a10
    adj_norm = max(abs(c00) + abs(c10) + abs(c20), abs(c01) + abs(c11) + abs(c21),
                   abs(c02) + abs(c12) + abs(c22))
    return norm * _inverse_norm(adj_norm, a00 * c00 + a01 * c01 + a02 * c02, e)


_SOLVES = {1: _solve1, 2: _solve2, 3: _solve3}
_CONDS = {1: _cond1, 2: _cond2, 3: _cond3}


@dataclass(frozen=True)
class PrecisionContext:
    """Arithmetic context guaranteeing at least ``digits`` significant decimal digits.

    ``digits <= 16`` selects native IEEE double precision; anything above
    runs on ``decimal.Decimal`` at :attr:`working_dps` digits.  Scalars
    produced under a context are immutable values and safe to share across
    tasks.
    """

    digits: int

    def __post_init__(self):
        if not isinstance(self.digits, int) or isinstance(self.digits, bool):
            raise ConfigurationError(f"precision digits must be an integer, got {self.digits!r}")
        if self.digits < MIN_DIGITS:
            raise ConfigurationError(
                f"precision of {self.digits} digits is below the minimum of {MIN_DIGITS}"
            )

    # -- context properties -------------------------------------------------

    @cached_property
    def is_native(self) -> bool:
        return self.digits <= DOUBLE_DIGITS

    @property
    def working_dps(self) -> int:
        return self.digits + GUARD_DIGITS

    @cached_property
    def decimal_context(self) -> Context:
        """The ``decimal.Context`` of the extended path; ``None`` in the native path."""
        return None if self.is_native else _decimal_context(self.working_dps)

    @cached_property
    def eps(self) -> float:
        """Machine epsilon of the working representation: 10^(1 - working
        digits) in the extended path, the largest relative spacing."""
        if self.is_native:
            return float(np.finfo(float).eps)
        return 10.0 ** (1 - self.working_dps)

    def arithmetic(self):
        """A context manager under which ``Decimal`` arithmetic rounds in
        :attr:`decimal_context` (``decimal.localcontext``), restoring the
        caller's context on exit; a no-op in the native path."""
        return nullcontext(self) if self.is_native else localcontext(self.decimal_context)

    #: The name the benchmark workloads call :meth:`arithmetic` by.
    activate = arithmetic

    def __reduce__(self):
        # by digits alone, not with the cached properties
        return PrecisionContext, (self.digits,)

    # -- scalar and array construction --------------------------------------

    def real(self, x) -> Real:
        """Convert ``x`` (number or decimal string) to a context scalar; a
        numpy scalar by its Python value, which ``Decimal`` takes."""
        if self.is_native:
            return float(x)
        return self.decimal_context.create_decimal(x.item() if isinstance(x, np.generic) else x)

    def array(self, values) -> np.ndarray:
        """1-D or 2-D array of context scalars."""
        if self.is_native:
            return np.asarray(values, dtype=float)
        arr = np.asarray(values, dtype=object)
        flat = [self.real(v) for v in arr.ravel()]
        return np.array(flat, dtype=object).reshape(arr.shape)

    # -- elementary functions: ``math``'s, or rounded by the decimal context --

    @cached_property
    def sqrt(self) -> Callable[[Real], Real]:
        return math.sqrt if self.is_native else self.decimal_context.sqrt

    @cached_property
    def cos(self) -> Callable[[Real], Real]:
        return math.cos if self.is_native else partial(self._circular, 0)

    @cached_property
    def sin(self) -> Callable[[Real], Real]:
        return math.sin if self.is_native else partial(self._circular, 1)

    def _circular(self, shift: int, x) -> Decimal:
        """cos x (``shift`` 0) or sin x = cos(x - pi/2) (``shift`` 1), rounded
        to the working precision: x = k pi/2 + r with |r| <= pi/4, reduced
        and summed (:func:`_taylor`) at enough extra digits for k pi/2 too.
        k pi/2 carries an error near 10^(x.adjusted() + 1 - prec), so an r
        that cancels more than the guard digits (x near a multiple of pi/2)
        is reduced again with the digits it cancelled added.
        A nan or infinite x gives nan."""
        x = Decimal(x)
        if not x.is_finite():
            return Decimal("NaN")
        digits = self.working_dps + _SERIES_GUARD_DIGITS
        prec = digits + max(0, x.adjusted() + 1)
        while True:
            with localcontext(_decimal_context(prec)):
                half_pi = _pi(prec) / 2
                k = (x / half_pi).to_integral_value()
                r = x - k * half_pi
                cancelled = x.adjusted() - r.adjusted() if r else prec  # r = 0 holds no digit
                if not k or cancelled + self.working_dps + 3 <= prec:
                    quadrant = (int(k) - shift) % 4  # cos(k pi/2 + r) by k mod 4: cos r, -sin r, -cos r, sin r
                    s = _taylor(r, quadrant % 2)
                    return self.decimal_context.plus(-s if quadrant in (1, 2) else s)
            prec = digits + cancelled

    # -- linear algebra (systems here are tiny: n or n+1 unknowns) -----------

    def solve(self, A, b) -> list:
        """Solve ``A x = b`` in double, for the rows ``A`` of an n x n matrix,
        as a list x: of floats, or in an extended context of the ``Decimal``
        of each double component, exactly.  Every entry of ``A`` and of the
        right side ``b`` is rounded to double first (a ``Decimal`` or a numpy
        scalar included), then eliminated with partial pivoting in Python
        floats (:func:`_gauss`, unrolled up to 3 x 3), so the bits depend on
        no library kernel.  x is all nan at a zero or non-finite pivot, or
        when it is not finite.  ``b`` comes in context precision, so a double
        step refines an extended iterate to the context's accuracy (iterative
        refinement; Moler, JACM 14, 1967).
        """
        x = _SOLVES.get(len(b), _solve_n)(A, b)
        return x if self.is_native else list(map(Decimal, x))

    def cond_inf(self, A) -> float:
        """Infinity-norm condition number ||A|| ||A^{-1}|| of the rows ``A``
        in double, the precision :meth:`solve` works in, each entry rounded to
        double first: up to 3 x 3 from the adjugate, A^{-1} = adj A / det A
        (of A scaled by a power of two when its norm lies outside
        [2^-300, 2^300]), above that from :func:`_gauss`'s inverse.  The
        norms are the largest absolute row sums, summed in index order; the
        result is ``inf`` for a singular matrix (a zero determinant or pivot),
        a nan or infinite entry, or a row sum beyond the largest double.
        """
        return _CONDS.get(len(A), _cond_n)(A)

    # -- textual serialization (decimal scientific notation) -----------------

    def format(self, x: Real) -> str:
        """Scientific notation of the context scalar :meth:`real` makes of
        ``x``, with every digit the context carries: 17 significant digits in
        double, :attr:`working_dps` in the extended path, so that
        ``real(format(x)) == x`` exactly."""
        if self.is_native:
            return f"{float(x):.16e}"
        x, n = self.real(x), self.working_dps - 1
        if not x:  # a zero prints its exponent plus n: give it the exponent -n
            x = x.scaleb(-n - x.as_tuple().exponent)
        return f"{x:.{n}e}"


def with_precision(digits: int) -> PrecisionContext:
    """Create the arithmetic context for a run.

    ``digits=16`` gives standard double-precision behaviour; ``digits>=18``
    matches the extended-precision study settings.
    """
    return PrecisionContext(digits)


#: Default context: native IEEE double precision.
DOUBLE = PrecisionContext(DOUBLE_DIGITS)


def inf_norm(v) -> Real:
    """Max-abs of a sequence of context scalars, ``inf`` if any component is
    nan or infinite, for a float and a ``Decimal`` alike: without a nan the
    max-abs is below inf unless a component is infinite (a ``Decimal``
    beyond the double range is finite), but ``max`` may pass a nan over.  A
    finite sum of the components proves each of them finite; only when the
    sum is not finite (it may overflow) or cannot be formed (a float and a
    ``Decimal`` do not add) is each component tested, a nan being the one
    value unequal to itself.  A ``Decimal`` nan ordered under a context that
    traps invalid operations (Python's default) raises ``InvalidOperation``
    instead, and reads inf too."""
    try:
        m = max(map(abs, v))
        if not m < math.inf:
            return math.inf
    except ArithmeticError:
        return math.inf
    try:
        if abs(sum(v)) < math.inf:
            return m
    except (TypeError, ArithmeticError):
        pass
    return math.inf if any(map(ne, v, v)) else m
