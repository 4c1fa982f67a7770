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
The double linear algebra, ``solve`` and ``cond_inf``, calls numpy's LAPACK
gufuncs bare, so it follows the caller's numpy error state; the
integrators' runs set one that ignores a singular matrix.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from functools import cached_property, lru_cache, partial
from operator import ne
from typing import Callable, Union

import numpy as np
from numpy.linalg import _umath_linalg

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

    def solve(self, A: np.ndarray, b) -> list:
        """Solve ``A x = b`` for a float64 ``A`` in double (the LAPACK ``dgesv``
        gufunc behind ``numpy.linalg.solve``, the bits of ``dgetrf`` and
        ``dgetrs``), x as a list, all nan for a singular ``A`` (a zero pivot,
        LAPACK ``info > 0``): of floats, or in an extended context of the
        ``Decimal`` of each double component, exactly.  The residual ``b``
        comes in context precision, so a double step refines an extended
        iterate to the context's accuracy (iterative refinement; Moler,
        JACM 14, 1967).

        The gufunc is called bare, under the caller's numpy error state: a
        run sets ``np.errstate(all="ignore")`` once around all its solves,
        while a direct call on a singular ``A`` under numpy's default state
        warns "invalid value encountered in solve1" (a ``RuntimeWarning``).
        """
        x = _umath_linalg.solve1(A, np.asarray(b, dtype=float)).tolist()
        return x if self.is_native else list(map(Decimal, x))

    def cond_inf(self, A: np.ndarray) -> float:
        """Infinity-norm condition number ||A|| ||A^{-1}|| of a float64 ``A`` in
        double, the precision :meth:`solve` works in, from its inverse (the
        gufunc behind ``numpy.linalg.inv``, under the caller's error state as
        :meth:`solve`'s, warning "... in inv"): exact up to rounding, each
        norm the largest absolute row sum with every row summed exactly
        (``math.fsum``), and ``inf`` for a singular matrix or a row sum
        beyond the largest double.
        """
        inv = _umath_linalg.inv(A)
        if math.isnan(inv[0, 0]):
            return math.inf
        try:
            return max(map(math.fsum, abs(A).tolist())) * max(map(math.fsum, abs(inv).tolist()))
        except OverflowError:  # math.fsum past the largest double
            return math.inf

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
    nan or infinite, for a float and a ``Decimal`` alike: a nan is the one
    value unequal to itself, wherever ``max`` leaves it, and without one the
    max-abs is below inf unless a component is infinite (a ``Decimal``
    beyond the double range is finite).  A ``Decimal`` nan ordered under a
    context that traps invalid operations (Python's default) raises
    ``InvalidOperation`` instead, and reads inf too."""
    try:
        m = max(map(abs, v))
        return m if m < math.inf and not any(map(ne, v, v)) else math.inf
    except ArithmeticError:
        return math.inf
