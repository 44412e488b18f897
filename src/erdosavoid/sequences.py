"""Exact monotone sequence generators.

A SequenceSpec produces terms a_1, a_2, ... as exact rationals, and
the consecutive differences a_n - a_{n+1} of down sequences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InvalidParameterError, NeedsLongerWindowError
from .intervals import Frozen
from .rationals import RationalLike, as_rational

DOWN = "down"
UP = "up"


class SequenceSpec(Frozen):
    """Strictly monotone rational sequence, 1-indexed.

    `length` bounds the usable window for explicit lists.
    """

    __slots__ = _fields = (
        "kind", "direction", "_term", "length", "params",
    )

    def __init__(
        self,
        kind: str,
        direction: str,
        _term: Callable[[int], Fraction],
        length: Optional[int] = None,
        params: tuple = (),
    ):
        values = (kind, direction, _term, length, params)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise InvalidParameterError("sequence indices start at 1")
        if self.length is not None and n > self.length:
            raise NeedsLongerWindowError(
                f"term {n} requested but the sequence window has {self.length} terms"
            )
        return self._term(n)

    def diff(self, n: int) -> Fraction:
        """a_n - a_{n+1} for down sequences (positive by monotonicity)."""
        return self.term(n) - self.term(n + 1)

    def first_index_with_ratio_at_most(
        self, bound: Fraction, start: int = 1, window: int = 1_000_000
    ) -> int:
        """Least n >= start with (a_n - a_{n+1})/a_n <= bound.

        Uses a closed form for the reciprocal and geometric-down kinds and
        a linear scan capped at `window` otherwise.
        """
        bound = as_rational(bound)
        if bound <= 0:
            raise InvalidParameterError("ratio bound must be positive")
        if self.kind == "reciprocal":
            # difference ratio is 1/(n+1), decreasing
            from .rationals import ceil_rational

            n = ceil_rational(1 / bound - 1)
            return max(start, max(n, 1))
        if self.kind == "geometric_down":
            ratio = 1 - self.params[0]  # the same for every n, so no window helps
            if ratio <= bound:
                return start
            raise NeedsLongerWindowError(
                f"the difference ratio of r^n is 1 - r = {ratio} for every n, above {bound}"
            )
        limit = window if self.length is None else min(window, self.length - 1)
        for n in range(start, limit + 1):
            a = self.term(n)
            if self.diff(n) / a <= bound:
                return n
        raise NeedsLongerWindowError(
            f"no index with difference ratio <= {bound} found in [{start}, {limit}]"
        )


def _check_strictly_monotone(values: Sequence[Fraction], direction: str) -> None:
    for a, b in zip(values, values[1:]):
        if direction == DOWN and not a > b:
            raise InvalidParameterError("explicit list is not strictly decreasing")
        if direction == UP and not a < b:
            raise InvalidParameterError("explicit list is not strictly increasing")


def reciprocal() -> SequenceSpec:
    """a_n = 1/n; differences 1/(n(n+1)) decrease from the start."""
    return SequenceSpec("reciprocal", DOWN, lambda n: Fraction(1, n))


def geometric_down(r: RationalLike) -> SequenceSpec:
    """a_n = r^n for 0 < r < 1; differences r^n(1-r) decrease."""
    r = as_rational(r)
    if not 0 < r < 1:
        raise InvalidParameterError("geometric-down ratio must lie in (0, 1)")
    return SequenceSpec("geometric_down", DOWN, lambda n: r**n, params=(r,))


def reciprocal_power(alpha: RationalLike) -> SequenceSpec:
    """a_n = n^-k for an integer k >= 1.

    A non-integer exponent has irrational terms, which no exact
    certifier can use, so it is refused.
    """
    alpha = as_rational(alpha)
    if alpha <= 0 or alpha.denominator != 1:
        raise InvalidParameterError("power must be a positive integer")
    k = alpha.numerator
    return SequenceSpec(
        "reciprocal_power", DOWN, lambda n: Fraction(1, n**k), params=(alpha,)
    )


def linear() -> SequenceSpec:
    """a_n = n."""
    return SequenceSpec("linear", UP, lambda n: Fraction(n))


def geometric_up(b: RationalLike) -> SequenceSpec:
    """a_n = b^n for rational b > 1."""
    b = as_rational(b)
    if b <= 1:
        raise InvalidParameterError("geometric-up base must exceed 1")
    return SequenceSpec("geometric_up", UP, lambda n: b**n, params=(b,))


def explicit(values: Sequence[RationalLike], direction: str = DOWN) -> SequenceSpec:
    vals = [as_rational(v) for v in values]
    if len(vals) < 2:
        raise InvalidParameterError("explicit sequences need at least two terms")
    _check_strictly_monotone(vals, direction)
    return SequenceSpec(
        "explicit", direction, lambda n: vals[n - 1], length=len(vals)
    )


def custom(term: Callable[[int], RationalLike], direction: str) -> SequenceSpec:
    return SequenceSpec("custom", direction, lambda n: as_rational(term(n)))


def from_name(name: str, **kwargs) -> SequenceSpec:
    """CLI-facing constructor: reciprocal | geometric-down | linear | geometric-up."""
    if name == "reciprocal":
        return reciprocal()
    if name == "geometric-down":
        return geometric_down(kwargs.get("ratio", Fraction(1, 2)))
    if name == "linear":
        return linear()
    if name == "geometric-up":
        return geometric_up(kwargs.get("base", 2))
    raise InvalidParameterError(f"unknown sequence name {name!r}")
