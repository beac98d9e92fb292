"""Positive extended-real exponents with exact rational comparisons.

Exponents live in (0, inf].  Rational inputs are kept as ``Fraction`` so
the regime classifier can test equalities like p == q or r == 1 exactly;
irrational floats fall back to float arithmetic.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from functools import total_ordering

from .errors import SpecInvalid

__all__ = ["Exponent", "dual_exponent", "arrow", "INF_EXP"]


def _coerce(value) -> Fraction | float:
    """value as a Fraction, or as a float when it is inf or an irrational
    float; SpecInvalid for anything but a real number (a NumPy one
    included) or a string, and for a boolean."""
    if isinstance(value, Exponent):
        return value.value
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise SpecInvalid(f"cannot read {value!r} as an exponent")
    if value == math.inf or value in ("inf", "oo"):
        return math.inf
    try:
        # NumPy integers as ints, so that no fixed-width integer enters a
        # Fraction, and other reals, such as NumPy floats, as floats
        if isinstance(value, numbers.Integral):
            value = int(value)
        elif not isinstance(value, (numbers.Rational, float, str)):
            value = float(value)
        if isinstance(value, float) and not (
                value.is_integer()
                or Fraction(value).limit_denominator(10**6) == Fraction(value)):
            return value
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise SpecInvalid(f"cannot read {value!r} as an exponent: {e}") from None


# a finite exponent lies within the positive floats, so that float() reads it
_FLOAT_LO, _FLOAT_HI = Fraction(math.ulp(0.0)), Fraction(sys.float_info.max)


@total_ordering
class Exponent:
    """A value in (0, inf], exact when constructed from rationals."""

    __slots__ = ("value",)

    def __init__(self, value):
        v = _coerce(value)
        if v != math.inf and v <= 0:
            raise SpecInvalid(f"exponent must be positive, got {v}")
        if v != math.inf and not _FLOAT_LO <= v <= _FLOAT_HI:
            raise SpecInvalid("a finite exponent must lie within the positive floats")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return self.value == math.inf

    def __float__(self) -> float:
        return float(self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, Exponent):
            return self.value == other.value
        return self.value == other

    def __lt__(self, other) -> bool:
        ov = other.value if isinstance(other, Exponent) else other
        return self.value < ov

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Exponent({self.value})"

    def reciprocal(self) -> Fraction | float:
        """1/value, with 1/inf = 0 (exact for rationals)."""
        if self.is_inf:
            return Fraction(0)
        return 1 / self.value if isinstance(self.value, Fraction) else 1.0 / self.value


INF_EXP = Exponent(math.inf)


def dual_exponent(p: Exponent) -> Exponent:
    """Generalized conjugate: p/(1-p) below 1, inf at 1, p/(p-1) above, 1 at inf."""
    v = Exponent(p).value
    if v == math.inf:
        return Exponent(1)
    if v == 1:
        return INF_EXP
    if v < 1:
        return Exponent(v / (1 - v))
    return Exponent(v / (v - 1))


def arrow(p: Exponent, q: Exponent) -> Exponent:
    """Exponent defined via 1/(p->q) = 1/q - 1/p for q < p, inf otherwise."""
    p, q = Exponent(p), Exponent(q)
    if q >= p:
        return INF_EXP
    inv = q.reciprocal() - p.reciprocal()
    return Exponent(1 / inv)
