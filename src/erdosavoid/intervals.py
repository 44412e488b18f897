"""Exact algebra of finite unions of closed rational intervals.

Closed-interval semantics throughout: set difference returns the
closure of the pointwise difference (boundary points that are limits of
the difference are kept), and touching intervals merge during
normalization so each point set has one canonical representation.

The kernels `IntervalSet.affine`, `IntervalSet.intersection`,
`IntervalSet.find_gap_containing`, `IntervalSet.measure` and
`IntervalSet.contains` (and the sumset coverage probe in `sumsets`) run
on a set's lattice view: every endpoint written as an integer numerator
over one shared denominator, the lcm of the endpoint denominators for a
set built from members.  The view is exact, computed lazily on the
first kernel call and kept; a set produced by a kernel (or handed over
as a view, like the sublacunary avoider and a gap tree's level sets)
carries only its view and builds its `Interval` members when they are
first read.
No floating point is used on any code path in this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegenerateMapError,
    InvalidParameterError,
    MalformedIntervalError,
    SchemaError,
)
from .rationals import RationalLike, as_rational, format_rational


@dataclass(frozen=True, slots=True)
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

    __slots__ = ("_items", "_view")

    def __init__(self, intervals: Iterable[Interval] = (), *, _canonical: bool = False):
        items = tuple(intervals)
        if not _canonical:
            items = _normalize_intervals(items)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_view", None)

    @classmethod
    def _from_lattice(cls, den: int, los: list[int], his: list[int]) -> "IntervalSet":
        """The canonical set with members [los[i]/den, his[i]/den]; the
        members are built when first read."""
        s = object.__new__(cls)
        object.__setattr__(s, "_items", None)
        object.__setattr__(s, "_view", (den, los, his))
        return s

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("IntervalSet is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the set from its lattice view, since
        # __setattr__ refuses the slot state they would restore
        return IntervalSet._from_lattice, self._lattice()

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The members in order; a kernel output builds them on first read."""
        items = self._items
        if items is None:
            den, los, his = self._view
            items = tuple(
                Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in zip(los, his)
            )
            object.__setattr__(self, "_items", items)
        return items

    def _lattice(self) -> tuple[int, list[int], list[int]]:
        """The lattice view (den, lo numerators, hi numerators): member i
        is [los[i]/den, his[i]/den].  A set built from members takes den
        as the lcm of its endpoint denominators, computed on first use
        and kept; a view handed over may use any common multiple."""
        view = self._view
        if view is None:
            items = self._items
            den = lcm(*{iv.lo.denominator for iv in items}, *{iv.hi.denominator for iv in items})
            view = (
                den,
                [iv.lo.numerator * (den // iv.lo.denominator) for iv in items],
                [iv.hi.numerator * (den // iv.hi.denominator) for iv in items],
            )
            object.__setattr__(self, "_view", view)
        return view

    @classmethod
    def of(cls, *pairs: Sequence[RationalLike]) -> "IntervalSet":
        return cls(Interval(as_rational(a), as_rational(b)) for a, b in pairs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        items = self._items
        return len(self._view[1]) if items is None else len(items)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self) -> str:
        return "IntervalSet([" + ", ".join(str(iv) for iv in self.intervals) + "])"

    def measure(self) -> Fraction:
        """Total length, summed on the lattice view."""
        den, los, his = self._lattice()
        return Fraction(sum(his) - sum(los), den)

    def contains(self, x: RationalLike) -> bool:
        """Membership by bisection into the lattice view: only the last
        member starting at or before x can hold it."""
        x = as_rational(x)
        den, los, his = self._lattice()
        # an integer numerator n has n/den <= x iff n <= floor(x*den)
        i = bisect_right(los, x.numerator * den // x.denominator) - 1
        return i >= 0 and x.numerator * den <= his[i] * x.denominator

    __contains__ = contains

    def gaps(self) -> list[Interval]:
        """Bounded open complement components, as endpoint pairs."""
        out = []
        for a, b in zip(self.intervals, self.intervals[1:]):
            out.append(Interval(a.hi, b.lo))
        return out

    def find_gap_containing(self, iv: Interval) -> Optional[Gap]:
        """Complement component strictly containing iv, if any: the gap
        right of the last member starting at or before iv.lo, decided on
        the lattice view by cross-multiplication."""
        den, los, his = self._lattice()
        a, b = iv.lo, iv.hi
        # an integer numerator n has n/den <= a iff n <= floor(a*den)
        i = bisect_right(los, a.numerator * den // a.denominator) - 1
        if i >= 0 and his[i] * a.denominator >= a.numerator * den:
            return None
        if i + 1 < len(los) and los[i + 1] * b.denominator <= b.numerator * den:
            return None
        return Gap(
            Fraction(his[i], den) if i >= 0 else None,
            Fraction(los[i + 1], den) if i + 1 < len(los) else None,
        )

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(tuple(self.intervals) + tuple(other.intervals))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise intersection, merged on the lattice views.

        Each output piece is a[i] & b[j] for one member of each input,
        and the merge emits the pairs in increasing order of i and of j.
        Two successive pieces differ in i or in j, so they lie in two
        distinct members of one input, which a gap of positive length
        separates: the output is canonical because both inputs are, and
        it is not normalized again.  Members that cannot meet the other
        set's hull are skipped by bisection before the merge.
        """
        da, alo, ahi = self._lattice()
        db, blo, bhi = other._lattice()
        den = lcm(da, db)
        los: list[int] = []
        his: list[int] = []
        if not (alo and blo):
            return IntervalSet._from_lattice(den, los, his)
        # a.hi >= b.lo[0] iff a.hi >= ceil(b.lo[0]*da/db), and likewise
        i0, i1 = bisect_left(ahi, -(-blo[0] * da // db)), bisect_right(alo, bhi[-1] * da // db)
        j0, j1 = bisect_left(bhi, -(-alo[0] * db // da)), bisect_right(blo, ahi[-1] * db // da)
        ka, kb = den // da, den // db
        a_lo = [n * ka for n in alo[i0:i1]]
        a_hi = [n * ka for n in ahi[i0:i1]]
        b_lo = [n * kb for n in blo[j0:j1]]
        b_hi = [n * kb for n in bhi[j0:j1]]
        i = j = 0
        while i < len(a_lo) and j < len(b_lo):
            lo = max(a_lo[i], b_lo[j])
            hi = min(a_hi[i], b_hi[j])
            if lo <= hi:
                los.append(lo)
                his.append(hi)
            if a_hi[i] < b_hi[j]:
                i += 1
            else:
                j += 1
        return IntervalSet._from_lattice(den, los, his)

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
        """Image under x -> lam*x + t, computed on the lattice view.

        With lam = p/q and t = r/s the endpoint n/den maps to
        (n*p*s + r*den*q) / (den*q*s), so the image's view needs no gcd;
        a negative scale reverses the members and swaps their ends.
        """
        lam = as_rational(lam)
        t = as_rational(t)
        if lam == 0:
            raise DegenerateMapError("affine image requires a nonzero scale")
        den, los, his = self._lattice()
        p, q = lam.numerator, lam.denominator
        ps, shift = p * t.denominator, t.numerator * den * q
        if p < 0:
            los, his = his[::-1], los[::-1]
        return IntervalSet._from_lattice(
            den * q * t.denominator, [n * ps + shift for n in los], [n * ps + shift for n in his]
        )

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
    `box_id` sits at (i, j) = divmod(box_id, y_cells).  Each axis keeps
    the slices read so far, by index, so a sweep builds every row and
    column once and a huge grid builds none up front.
    """

    x_range: Interval
    y_range: Interval
    x_cells: int
    y_cells: int
    _xs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _ys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            _axis_slice(self._xs, self.x_range, i, self.x_cells),
            _axis_slice(self._ys, self.y_range, j, self.y_cells),
        )


def _axis_slice(memo: dict, r: Interval, i: int, cells: int) -> Interval:
    """Slice i of r cut into `cells` equal slices, kept in `memo`."""
    if i not in memo:
        memo[i] = Interval(r.lo + r.length * Fraction(i, cells), r.lo + r.length * Fraction(i + 1, cells))
    return memo[i]
