"""Rational plumbing: parsing, formatting, and integer-part helpers.

All exact arithmetic in the package runs on `fractions.Fraction`, which
already maintains the lowest-terms, positive-denominator invariants.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Union

from .errors import ResourceLimitError, SchemaError

RationalLike = Union[Fraction, int, str]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, and Fractions to an exact Fraction.

    Booleans are refused: a JSON `true` is not the number 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise SchemaError(f"cannot interpret {x!r} as an exact rational")


_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*\Z", re.IGNORECASE)


def _digit_limit() -> int:
    """Python's int-to-str digit limit; 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_rational(s: str) -> Fraction:
    """Parse a lowest-terms 'p/q' (or plain integer / decimal) string.

    A decimal exponent beyond the int-to-str digit limit is refused
    before the integer is built: such a value could not be printed, and
    building it takes time that grows with the exponent."""
    text = s.strip()
    try:
        exponent = _EXPONENT.search(text)
        limit = _digit_limit()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise ResourceLimitError(
                f"rational literal {s!r} has an exponent beyond the {limit}-digit limit"
            )
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {s!r}") from exc


def format_rational(q: Fraction) -> str:
    """Lowest-terms string, 'p/q' or 'p' when integral."""
    q = Fraction(q)
    try:
        return str(q)
    except ValueError as exc:  # a numerator or denominator past the digit limit
        raise ResourceLimitError(
            f"rational too large to print within the {_digit_limit()}-digit limit"
        ) from exc


def on_one_denominator(*values: Fraction) -> tuple[int, list[int]]:
    """The lcm of the values' denominators and each value's numerator over it."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def floor_rational(q: Fraction) -> int:
    return q.numerator // q.denominator


def ceil_rational(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def frac_part(q: Fraction) -> Fraction:
    """Fractional part in [0, 1)."""
    return q - floor_rational(q)
