"""JSON encoding helpers shared by the serializable types.

Integers ride as native JSON numbers while they fit in 53 bits (the IEEE
double mantissa) and as decimal strings beyond that, so arbitrary-precision
values survive any JSON parser.  Rationals are always "p" or "p/q" strings.
"""

from __future__ import annotations

from fractions import Fraction

INT_LIMIT = 1 << 53


def encode_int(v: int):
    return v if -INT_LIMIT < v < INT_LIMIT else str(v)


def encode_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
