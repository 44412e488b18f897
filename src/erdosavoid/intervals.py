"""Exact algebra of finite unions of closed rational intervals.

Closed-interval semantics throughout: set difference returns the
closure of the pointwise difference (boundary points that are limits of
the difference are kept), and touching intervals merge during
normalization so each point set has one canonical representation.
No floating point is used on any code path in this module.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegenerateMapError,
    InvalidParameterError,
    MalformedIntervalError,
    SchemaError,
)
from .rationals import RationalLike, as_rational, format_rational


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints; points allowed."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo = as_rational(self.lo)
        hi = as_rational(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise MalformedIntervalError(f"interval endpoints out of order: {lo} > {hi}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: RationalLike) -> bool:
        x = as_rational(x)
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains_interval(self, other: "Interval") -> bool:
        return self.lo < other.lo and other.hi < self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def translate(self, t: RationalLike) -> "Interval":
        t = as_rational(t)
        return Interval(self.lo + t, self.hi + t)

    def scale(self, lam: RationalLike) -> "Interval":
        lam = as_rational(lam)
        if lam >= 0:
            return Interval(self.lo * lam, self.hi * lam)
        return Interval(self.hi * lam, self.lo * lam)

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def ivl(lo: RationalLike, hi: RationalLike) -> Interval:
    return Interval(as_rational(lo), as_rational(hi))


@dataclass(frozen=True)
class Gap:
    """Connected open component of the complement of an IntervalSet.

    Unbounded rays are encoded with ``None`` on the open side.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def strictly_contains(self, iv: Interval) -> bool:
        if self.lo is not None and not (self.lo < iv.lo):
            return False
        if self.hi is not None and not (iv.hi < self.hi):
            return False
        return True

    def to_json(self) -> list:
        return [
            None if self.lo is None else format_rational(self.lo),
            None if self.hi is None else format_rational(self.hi),
        ]


class IntervalSet:
    """Canonical finite union of closed intervals.

    Invariant: members are strictly sorted by lo and consecutive members
    are separated by a gap of positive length.
    """

    __slots__ = ("intervals", "_los")

    def __init__(self, intervals: Iterable[Interval] = (), *, _canonical: bool = False):
        items = tuple(intervals)
        if not _canonical:
            items = _normalize_intervals(items)
        object.__setattr__(self, "intervals", items)
        object.__setattr__(self, "_los", [iv.lo for iv in items])

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("IntervalSet is immutable")

    @classmethod
    def of(cls, *pairs: Sequence[RationalLike]) -> "IntervalSet":
        return cls(Interval(as_rational(a), as_rational(b)) for a, b in pairs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self) -> str:
        return "IntervalSet([" + ", ".join(str(iv) for iv in self.intervals) + "])"

    def measure(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), Fraction(0))

    def contains(self, x: RationalLike) -> bool:
        x = as_rational(x)
        i = bisect_right(self._los, x) - 1
        return i >= 0 and x <= self.intervals[i].hi

    __contains__ = contains

    def gaps(self) -> list[Interval]:
        """Bounded open complement components, as endpoint pairs."""
        out = []
        for a, b in zip(self.intervals, self.intervals[1:]):
            out.append(Interval(a.hi, b.lo))
        return out

    def find_gap_containing(self, iv: Interval) -> Optional[Gap]:
        """Complement component strictly containing iv, if any."""
        items = self.intervals
        if not items:
            return Gap(None, None)
        # the only candidate is the gap right of the last member starting
        # at or before iv.lo
        i = bisect_right(self._los, iv.lo) - 1
        gap = Gap(
            items[i].hi if i >= 0 else None,
            items[i + 1].lo if i + 1 < len(items) else None,
        )
        return gap if gap.strictly_contains(iv) else None

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(tuple(self.intervals) + tuple(other.intervals))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if lo <= hi:
                out.append(Interval(lo, hi))
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Closure of the pointwise difference self minus other.

        Interior points of `other` are cut out; endpoints that remain
        limits of the difference are kept, so removing [a, b] from a
        longer interval behaves like removing the open (a, b).
        Degenerate members of self survive iff they avoid other.
        """
        out = []
        b = other.intervals
        j = 0
        for iv in self.intervals:
            while j < len(b) and b[j].hi < iv.lo:
                j += 1
            if iv.lo == iv.hi:
                if j >= len(b) or not b[j].contains(iv.lo):
                    out.append(iv)
                continue
            cur = iv.lo
            k = j
            while k < len(b) and b[k].lo <= iv.hi:
                cut = b[k]
                if cut.lo > cur:
                    out.append(Interval(cur, cut.lo))
                if cut.hi > cur:
                    cur = cut.hi
                if cur >= iv.hi:
                    break
                k += 1
            if cur < iv.hi:
                out.append(Interval(cur, iv.hi))
        return IntervalSet(out)

    def affine(self, lam: RationalLike, t: RationalLike) -> "IntervalSet":
        lam = as_rational(lam)
        t = as_rational(t)
        if lam == 0:
            raise DegenerateMapError("affine image requires a nonzero scale")
        mapped = [iv.scale(lam).translate(t) for iv in self.intervals]
        if lam < 0:
            mapped.reverse()
        return IntervalSet(mapped, _canonical=True)

    def to_json(self) -> dict:
        return {
            "intervals": [
                [format_rational(iv.lo), format_rational(iv.hi)] for iv in self.intervals
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IntervalSet":
        if not isinstance(obj, dict) or "intervals" not in obj:
            raise SchemaError("interval-set JSON must be {'intervals': [...]}")
        items = []
        for pair in obj["intervals"]:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SchemaError(f"bad interval entry {pair!r}")
            lo = as_rational(pair[0])
            hi = as_rational(pair[1])
            if lo > hi:
                raise MalformedIntervalError(f"interval endpoints out of order: {pair}")
            items.append(Interval(lo, hi))
        for a, b in zip(items, items[1:]):
            if b.lo <= a.hi:
                raise SchemaError(
                    f"intervals must be sorted and separated: {a} then {b}"
                )
        return cls(items, _canonical=True)


def _normalize_intervals(items: Sequence[Interval]) -> tuple[Interval, ...]:
    if not items:
        return ()
    items = sorted(items, key=lambda iv: (iv.lo, iv.hi))
    out = [items[0]]
    for iv in items[1:]:
        last = out[-1]
        if iv.lo <= last.hi:  # overlapping or touching members merge
            if iv.hi > last.hi:
                out[-1] = Interval(last.lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


@dataclass(frozen=True)
class ParamBox:
    """Rational rectangle of affine parameters; the scale range avoids 0."""

    lam: Interval
    t: Interval

    def __post_init__(self):
        if self.lam.lo <= 0 <= self.lam.hi:
            raise MalformedIntervalError("scale interval of a ParamBox must exclude 0")

    def corners(self) -> Iterator[tuple[Fraction, Fraction]]:
        for a in (self.lam.lo, self.lam.hi):
            for b in (self.t.lo, self.t.hi):
                yield a, b

    def to_json(self) -> dict:
        return {
            "lambda": [format_rational(self.lam.lo), format_rational(self.lam.hi)],
            "t": [format_rational(self.t.lo), format_rational(self.t.hi)],
        }


def box_image(x: RationalLike, box: ParamBox) -> Interval:
    """Exact range {lam*x + t : (lam, t) in box}."""
    x = as_rational(x)
    lo = min(box.lam.lo * x, box.lam.hi * x) + box.t.lo
    hi = max(box.lam.lo * x, box.lam.hi * x) + box.t.hi
    return Interval(lo, hi)


@dataclass(frozen=True)
class Grid:
    """A rectangle cut into x_cells by y_cells closed cells.

    Cells are numbered row-major with the second axis fastest: cell
    `box_id` sits at (i, j) = divmod(box_id, y_cells).
    """

    x_range: Interval
    y_range: Interval
    x_cells: int
    y_cells: int

    def __post_init__(self):
        if self.x_cells < 1 or self.y_cells < 1:
            raise InvalidParameterError(
                f"a grid needs at least one cell per axis, got {self.x_cells}x{self.y_cells}"
            )

    def __len__(self) -> int:
        return self.x_cells * self.y_cells

    def __iter__(self) -> Iterator[tuple[Interval, Interval]]:
        return map(self.cell, range(len(self)))

    def cell(self, box_id: int) -> tuple[Interval, Interval]:
        i, j = divmod(box_id, self.y_cells)
        return (
            _grid_slice(self.x_range, i, self.x_cells),
            _grid_slice(self.y_range, j, self.y_cells),
        )


def _grid_slice(r: Interval, i: int, cells: int) -> Interval:
    return Interval(r.lo + r.length * Fraction(i, cells), r.lo + r.length * Fraction(i + 1, cells))
