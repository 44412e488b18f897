"""Outward-rounded rational enclosures of irrational quantities.

Roots come from integer root extraction at a dyadic scale; logarithms
from the atanh series 2*sum z^(2j+1)/(2j+1) with the explicit geometric
remainder bound |R| <= 2|z|^(2J+1) / ((2J+1)(1-z^2)).  Every enclosure
endpoint is rounded outward to a dyadic rational so downstream
arithmetic stays fast.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParameterError
from .intervals import Interval
from .rationals import RationalLike, as_rational


def _check_bits(bits: int) -> None:
    if bits < 0:
        raise InvalidParameterError(f"bit count must be >= 0, got {bits}")


def round_outward(iv: Interval, bits: int) -> Interval:
    """Enclose iv in dyadic endpoints with denominator 2**bits."""
    _check_bits(bits)
    scale = 1 << bits
    lo = Fraction(math.floor(iv.lo * scale), scale)
    hi = Fraction(math.ceil(iv.hi * scale), scale)
    return Interval(lo, hi)


def _iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root."""
    if n < 0:
        raise InvalidParameterError("integer root of a negative number")
    if n == 0:
        return 0
    # Newton's step on integers decreases strictly from any start at or
    # above the root until it reaches the floor root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def root_enclosure(q: RationalLike, k: int, bits: int = 64) -> Interval:
    """Enclosure of q**(1/k) of width 2**-bits for rational q >= 0."""
    q = as_rational(q)
    if q < 0:
        raise InvalidParameterError("roots of negative rationals are not real")
    if k < 1:
        raise InvalidParameterError("root order must be >= 1")
    _check_bits(bits)
    scale = 1 << bits
    t = (q.numerator * scale**k) // q.denominator
    r = _iroot(t, k)
    lo = Fraction(r, scale)
    if lo**k == q:
        return Interval(lo, lo)
    return Interval(lo, Fraction(r + 1, scale))


def sqrt_enclosure(q: RationalLike, bits: int = 64) -> Interval:
    return root_enclosure(q, 2, bits)


def _atanh_series(z: Fraction, err_target: Fraction) -> Interval:
    """Enclosure of 2*atanh(z) for |z| < 1/2."""
    acc = Fraction(0)
    power = z
    j = 0
    z2 = z * z
    tail_factor = 2 / (1 - z2)
    while True:
        term = 2 * power / (2 * j + 1)
        acc += term
        power *= z2
        j += 1
        bound = tail_factor * abs(power) / (2 * j + 1)
        if bound <= err_target:
            return Interval(acc - bound, acc + bound)


@lru_cache(maxsize=None)
def ln2_enclosure(bits: int = 64) -> Interval:
    target = Fraction(1, 1 << (bits + 4))
    return round_outward(_atanh_series(Fraction(1, 3), target), bits + 2)


@lru_cache(maxsize=4096)
def ln_enclosure(q: RationalLike, bits: int = 64) -> Interval:
    """Enclosure of ln(q) for rational q > 0; exact [0, 0] at q = 1."""
    _check_bits(bits)
    q = as_rational(q)
    if q <= 0:
        raise InvalidParameterError("logarithm requires a positive argument")
    if q == 1:
        return Interval(Fraction(0), Fraction(0))
    # reduce to m in [3/4, 3/2) with q = m * 2**e
    e = 0
    m = q
    while m >= Fraction(3, 2):
        m /= 2
        e += 1
    while m < Fraction(3, 4):
        m *= 2
        e -= 1
    target = Fraction(1, 1 << (bits + 4))
    z = (m - 1) / (m + 1)
    core = (
        Interval(Fraction(0), Fraction(0)) if m == 1 else _atanh_series(z, target)
    )
    if e == 0:
        return round_outward(core, bits + 2)
    l2 = ln2_enclosure(bits + 4)
    if e > 0:
        lo = core.lo + e * l2.lo
        hi = core.hi + e * l2.hi
    else:
        lo = core.lo + e * l2.hi
        hi = core.hi + e * l2.lo
    return round_outward(Interval(lo, hi), bits + 2)


def ln_interval(iv: Interval, bits: int = 64) -> Interval:
    """Enclosure of {ln x : x in iv} for a positive rational interval."""
    if iv.lo <= 0:
        raise InvalidParameterError("logarithm requires a positive interval")
    return Interval(ln_enclosure(iv.lo, bits).lo, ln_enclosure(iv.hi, bits).hi)
