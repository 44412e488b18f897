"""Rational plumbing: parsing, formatting, and integer-part helpers.

All exact arithmetic in the package runs on `fractions.Fraction`, which
already maintains the lowest-terms, positive-denominator invariants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import SchemaError

RationalLike = Union[Fraction, int, str]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise SchemaError(f"cannot interpret {x!r} as an exact rational")


def parse_rational(s: str) -> Fraction:
    """Parse a lowest-terms 'p/q' (or plain integer / decimal) string."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {s!r}") from exc


def format_rational(q: Fraction) -> str:
    """Lowest-terms string, 'p/q' or 'p' when integral."""
    return str(Fraction(q))


def floor_rational(q: Fraction) -> int:
    return q.numerator // q.denominator


def ceil_rational(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def frac_part(q: Fraction) -> Fraction:
    """Fractional part in [0, 1)."""
    return q - floor_rational(q)
