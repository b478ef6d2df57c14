"""JSON encoding helpers shared by the serializable types.

Integers ride as native JSON numbers while they fit in 53 bits (the IEEE
double mantissa) and as decimal strings beyond that, so arbitrary-precision
values survive any JSON parser.  Rationals are always "p" or "p/q" strings.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError

INT_LIMIT = 1 << 53


def encode_int(v: int):
    return v if -INT_LIMIT < v < INT_LIMIT else str(v)


def decode_int(v) -> int:
    if isinstance(v, bool):
        raise PreconditionError("int", f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            raise PreconditionError("int", f"not a decimal integer: {v!r}") from None
    raise PreconditionError("int", f"expected an integer or decimal string, got {v!r}")


def encode_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def decode_fraction(v) -> Fraction:
    if isinstance(v, bool):
        raise PreconditionError("rational", f"expected a rational, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise PreconditionError("rational", f"not a rational: {v!r}") from None
    raise PreconditionError("rational", f"expected a rational string, got {v!r}")


def decode_list(v, decode, field: str) -> tuple:
    """`decode` applied to each entry of a JSON array; `field` names the
    object whose array it is."""
    if not isinstance(v, list):
        raise PreconditionError(field, f"expected a list, got {v!r}")
    return tuple(map(decode, v))
