"""Configurable-precision real arithmetic.

Every run computes either in native double precision or in software
extended precision (mpmath binary floating point, round-to-nearest-even),
selected once per run through a :class:`PrecisionContext`.  Values are
plain ``float`` in the native path; in the extended path they belong to the
one ``mpmath.MPContext`` of the working precision, so arithmetic on them,
also with floats and ints, rounds at that precision whatever the global
``mpmath.mp`` says.  The kernels stay generic over both paths without
global state; :meth:`PrecisionContext.real` and ``array`` bring values of
another precision in.  Context constants, and the elementary functions
``sqrt``, ``cos`` and ``sin`` (``math``'s or the mpmath context's), are
chosen once per context.  The double linear algebra, ``solve`` and
``cond_inf``, calls numpy's LAPACK gufuncs bare, so it follows the caller's
numpy error state; the integrators' runs set one that ignores a singular matrix.
"""

from __future__ import annotations

import copyreg
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import mpmath
import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConfigurationError

#: Significant decimal digits carried by IEEE double precision.
DOUBLE_DIGITS = 16

#: Minimum digits any experiment in scope can run with.
MIN_DIGITS = 10

#: Guard digits added to the working precision of extended contexts so that
#: rounding in long step sequences stays below the requested digit count.
GUARD_DIGITS = 3

Real = Union[float, mpmath.mpf]


@lru_cache(maxsize=None)
def _mp_context(dps: int) -> mpmath.MPContext:
    """The one mpmath context of ``dps`` digits, so equal digits share a value
    type; that type is not importable by name, hence its pickle reducer."""
    mpctx = mpmath.MPContext()
    mpctx.dps = dps
    copyreg.pickle(mpctx.mpf, lambda x: (_unpickle_mpf, (dps, x._mpf_)))
    return mpctx


def _unpickle_mpf(dps: int, value: tuple):
    return _mp_context(dps).make_mpf(value)


def _norm_inf(m: np.ndarray) -> float:
    """Largest absolute row sum, each row summed exactly (``math.fsum``)."""
    return max(map(math.fsum, np.abs(m).tolist()))


@dataclass(frozen=True)
class PrecisionContext:
    """Arithmetic context guaranteeing at least ``digits`` significant decimal digits.

    ``digits <= 16`` selects native IEEE double precision; anything above
    runs on mpmath's arbitrary-precision binary floats.  Scalars produced
    under a context are immutable values and safe to share across tasks.
    """

    digits: int

    def __post_init__(self):
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
    def mpctx(self) -> mpmath.MPContext:
        """The mpmath context of the extended path; ``None`` in the native path."""
        return None if self.is_native else _mp_context(self.working_dps)

    @cached_property
    def eps(self) -> float:
        """Machine epsilon of the working representation."""
        if self.is_native:
            return float(np.finfo(float).eps)
        return math.ldexp(1.0, 1 - self.mpctx.prec)

    @property
    def serialization_digits(self) -> int:
        """Significant digits written by :meth:`format`.

        Covers the context's digit guarantee and is large enough that
        ``parse(format(x)) == x`` exactly.
        """
        if self.is_native:
            return 17
        return int(math.ceil(self.mpctx.prec * math.log10(2))) + 2

    def activate(self):
        """A no-op context manager yielding this context, kept for callers
        written when runs set the global mpmath precision."""
        return nullcontext(self)

    def __reduce__(self):
        # by digits alone: the cached mpmath context does not pickle
        return PrecisionContext, (self.digits,)

    # -- scalar and array construction --------------------------------------

    def real(self, x) -> Real:
        """Convert ``x`` (number or decimal string) to a context scalar."""
        return float(x) if self.is_native else self.mpctx.mpf(x)

    def array(self, values) -> np.ndarray:
        """1-D or 2-D array of context scalars."""
        if self.is_native:
            return np.asarray(values, dtype=float)
        arr = np.asarray(values, dtype=object)
        flat = [self.real(v) for v in arr.ravel()]
        return np.array(flat, dtype=object).reshape(arr.shape)

    # -- elementary functions: ``math``'s or the mpmath context's, chosen once --

    @cached_property
    def sqrt(self) -> Callable[[Real], Real]:
        return math.sqrt if self.is_native else self.mpctx.sqrt

    @cached_property
    def cos(self) -> Callable[[Real], Real]:
        return math.cos if self.is_native else self.mpctx.cos

    @cached_property
    def sin(self) -> Callable[[Real], Real]:
        return math.sin if self.is_native else self.mpctx.sin

    # -- linear algebra (systems here are tiny: n or n+1 unknowns) -----------

    def solve(self, A: np.ndarray, b) -> list:
        """Solve ``A x = b`` for a float64 ``A`` in double (the LAPACK ``dgesv``
        gufunc behind ``numpy.linalg.solve``, the bits of ``dgetrf`` and
        ``dgetrs``), x as a list of floats, all nan for a singular ``A`` (a zero
        pivot, LAPACK ``info > 0``).  The residual ``b`` comes in context
        precision, so a double step refines an extended iterate to the
        context's accuracy (iterative refinement; Moler, JACM 14, 1967).

        The gufunc is called bare, under the caller's numpy error state: a
        run sets ``np.errstate(all="ignore")`` once around all its solves,
        while a direct call on a singular ``A`` under numpy's default state
        warns "invalid value encountered in solve1" (a ``RuntimeWarning``).
        """
        return _umath_linalg.solve1(A, np.asarray(b, dtype=float)).tolist()

    def cond_inf(self, A: np.ndarray) -> float:
        """Infinity-norm condition number ||A|| ||A^{-1}|| of a float64 ``A`` in
        double, the precision :meth:`solve` works in, from its inverse (the
        gufunc behind ``numpy.linalg.inv``, under the caller's error state as
        :meth:`solve`'s, warning "... in inv"): exact up to rounding, and
        ``inf`` for a singular matrix or a row sum beyond the largest double.
        """
        inv = _umath_linalg.inv(A)
        if math.isnan(inv[0, 0]):
            return math.inf
        try:
            return _norm_inf(A) * _norm_inf(inv)
        except OverflowError:  # math.fsum past the largest double
            return math.inf

    # -- textual serialization (decimal scientific notation) -----------------

    def format(self, x: Real) -> str:
        """Scientific-notation string carrying :attr:`serialization_digits` digits."""
        if self.is_native:
            return f"{float(x):.16e}"
        return self.mpctx.nstr(self.mpctx.mpf(x), self.serialization_digits, min_fixed=1, max_fixed=0)

    def parse(self, s: str) -> Real:
        return self.real(s)


def with_precision(digits: int) -> PrecisionContext:
    """Create the arithmetic context for a run.

    ``digits=16`` gives standard double-precision behaviour; ``digits>=18``
    matches the extended-precision study settings.
    """
    if not isinstance(digits, int) or isinstance(digits, bool):
        raise ConfigurationError(f"precision digits must be an integer, got {digits!r}")
    return PrecisionContext(digits)


#: Default context: native IEEE double precision.
DOUBLE = PrecisionContext(DOUBLE_DIGITS)


def inf_norm(v) -> Real:
    """Max-abs of a sequence of context scalars, ``inf`` if any component is
    nan or infinite: ``c < inf`` is false for both, for a float and an mpf
    alike, and true for an mpf beyond the double range."""
    a = [abs(c) for c in v]
    return max(a) if all(c < math.inf for c in a) else math.inf
