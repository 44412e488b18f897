"""Outward-rounded rational enclosures of irrational quantities.

Square roots come from `math.isqrt` at a dyadic scale; logarithms
from the atanh series 2*sum z^(2j+1)/(2j+1) with the explicit geometric
remainder bound |R| <= 2|z|^(2J+1) / ((2J+1)(1-z^2)).  Every enclosure
endpoint is rounded outward to a dyadic rational so downstream
arithmetic stays fast.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParameterError, ResourceLimitError
from .intervals import Interval
from .rationals import RationalLike, as_rational


# Cap on an enclosure's bit count: the cost of integer square roots and
# of the atanh series grows faster than linearly in it, and a probe at
# two million bits ran for more than a minute.  On a 2-CPU VM
# sqrt_enclosure(2, 2**16) took 0.03 s and ln_enclosure(3, 2**16) 1.6 s
# (ln 2 included).
MAX_BITS = 2**16


def _check_bits(bits: int) -> None:
    if bits < 0:
        raise InvalidParameterError(f"bit count must be >= 0, got {bits}")
    if bits > MAX_BITS:
        raise ResourceLimitError(f"bit count {bits} exceeds the cap MAX_BITS = {MAX_BITS}")


def sqrt_enclosure(q: RationalLike, bits: int = 64) -> Interval:
    """Enclosure of the square root of rational q >= 0, of width 2**-bits."""
    q = as_rational(q)
    if q < 0:
        raise InvalidParameterError("roots of negative rationals are not real")
    _check_bits(bits)
    scale = 1 << bits
    r = math.isqrt((q.numerator << 2 * bits) // q.denominator)
    lo = Fraction(r, scale)
    if lo * lo == q:
        return Interval(lo, lo)
    return Interval(lo, Fraction(r + 1, scale))


def _atanh_series(a: int, b: int, err_bits: int) -> tuple[int, int, int]:
    """(s, r, d) with 2*atanh(a/b) in [(s - r)/d, (s + r)/d], for integers
    with 0 < |a/b| < 1/2.

    The series 2*sum z^(2i+1)/(2i+1) is cut after the first J >= 1 terms
    whose remainder bound R = 2|z|^(2J+1) / ((2J+1)(1-z^2)) is at most
    2**-err_bits.  The partial sum and R go on one integer denominator
    d = o*(2J+1)*(b^2-a^2)*b^(2J+1), o the lcm of the odd numbers below
    2J, with s the partial sum and r = R times d: the sum is one Horner
    pass on integers, and no fraction with a large denominator is ever
    reduced.
    """
    a2, b2 = a * a, b * b
    gap = b2 - a2
    j, ap, bp = 1, abs(a) * a2, b * b2  # J and |a|^(2J+1), b^(2J+1)
    while b2 * ap << (err_bits + 1) > gap * (2 * j + 1) * bp:  # R > 2**-err_bits
        j, ap, bp = j + 1, ap * a2, bp * b2
    odd = math.lcm(*range(1, 2 * j, 2))
    total, power = 0, a  # total = o * b^(2J-1) * sum_{i<J} z^(2i+1)/(2i+1)
    for i in range(j):
        total = total * b2 + odd // (2 * i + 1) * power
        power *= a2
    return 2 * total * (2 * j + 1) * gap * b2, 2 * b2 * ap * odd, odd * (2 * j + 1) * gap * bp


def _outward(lo: int, hi: int, den: int, bits: int) -> Interval:
    """[lo/den, hi/den] rounded outward to dyadic endpoints with
    denominator 2**bits; den > 0 need not be the lowest."""
    scale = 1 << bits
    return Interval(Fraction((lo << bits) // den, scale), Fraction(-((-hi << bits) // den), scale))


def _binary_split(q: Fraction) -> tuple[int, int, int]:
    """(num, den, e) with q = (num/den) * 2**e and num/den in [3/4, 3/2),
    for rational q > 0.

    e = bitlen(num) - bitlen(den) puts q / 2**e in (1/2, 2), and each m
    in [3/4, 3/2) pairs with exactly one e, so at most one step up or
    down corrects it."""
    p, d = q.numerator, q.denominator
    e = p.bit_length() - d.bit_length()
    num, den = p << max(-e, 0), d << max(e, 0)  # q / 2**e = num/den
    if 2 * num >= 3 * den:
        e += 1
        den *= 2
    elif 4 * num < 3 * den:
        e -= 1
        num *= 2
    return num, den, e


@lru_cache(maxsize=None)
def ln2_enclosure(bits: int = 64) -> Interval:
    s, r, d = _atanh_series(1, 3, bits + 4)
    return _outward(s - r, s + r, d, bits + 2)


@lru_cache(maxsize=4096)
def ln_enclosure(q: RationalLike, bits: int = 64) -> Interval:
    """Enclosure of ln(q) for rational q > 0; exact [0, 0] at q = 1.

    q = m * 2**e with m in [3/4, 3/2); ln(m) = 2*atanh((m-1)/(m+1)) to
    within 2**-(bits+4), plus e times an enclosure of ln 2, all on one
    integer denominator, is rounded outward to denominator 2**(bits+2).
    """
    _check_bits(bits)
    q = as_rational(q)
    if q <= 0:
        raise InvalidParameterError("logarithm requires a positive argument")
    num, den, e = _binary_split(q)
    s, r, d = (0, 0, 1) if num == den else _atanh_series(num - den, num + den, bits + 4)
    l2 = ln2_enclosure(bits + 4)
    two_lo, two_hi = (l2.lo, l2.hi) if e > 0 else (l2.hi, l2.lo)  # e * ln 2, outward
    u = max(two_lo.denominator, two_hi.denominator)  # both are powers of two
    lo = (s - r) * u + e * two_lo.numerator * (u // two_lo.denominator) * d
    hi = (s + r) * u + e * two_hi.numerator * (u // two_hi.denominator) * d
    return _outward(lo, hi, d * u, bits + 2)


def ln_interval(iv: Interval, bits: int = 64) -> Interval:
    """Enclosure of {ln x : x in iv} for a positive rational interval."""
    if iv.lo <= 0:
        raise InvalidParameterError("logarithm requires a positive interval")
    return Interval(ln_enclosure(iv.lo, bits).lo, ln_enclosure(iv.hi, bits).hi)
