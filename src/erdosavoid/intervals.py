"""Exact algebra of finite unions of closed rational intervals.

Closed-interval semantics throughout: touching intervals merge during
normalization so each point set has one canonical representation.

An `IntervalSet` stores only its lattice view: every endpoint written
as an integer numerator over one shared denominator.  A set built from
members takes the lcm of their denominators and is sorted and merged
once on integers; a set built by a kernel (`affine`, `intersection`,
`union`) or handed over as a view, like the sublacunary avoider and a
gap tree's level sets, keeps the denominator it was made on.  Every
kernel, and the sumset coverage probe in `sumsets`, runs on the views;
`Interval` members are built from the view only when read.
No floating point is used on any code path in this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegenerateMapError,
    InvalidParameterError,
    MalformedIntervalError,
    ResourceLimitError,
)
from .rationals import RationalLike, as_rational, format_rational


class Frozen:
    """Base of the package's validated immutable value types.

    A subclass names its constructor parameters, in order, in `_fields`
    and stores each under that name with `object.__setattr__` once its
    `__init__` has validated them.  Equality, hashing and the
    `Name(field=...)` repr run over those fields; copy and pickle call
    the constructor again with them, so a copy is validated like the
    original and any cache kept beside the fields starts empty.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


class Interval(Frozen):
    """Closed interval [lo, hi] with rational endpoints; points allowed."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike):
        lo = as_rational(lo)
        hi = as_rational(hi)
        if lo > hi:
            raise MalformedIntervalError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

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


class Gap(Frozen):
    """Connected open component of the complement of an IntervalSet.

    Unbounded rays are encoded with ``None`` on the open side.
    """

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Optional[Fraction], hi: Optional[Fraction]):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


class IntervalSet:
    """Canonical finite union of closed intervals, stored as its lattice
    view (den, los, his): member i is [los[i]/den, his[i]/den].

    Invariant: the members are strictly sorted and consecutive members
    are separated by a gap of positive length.  Any common multiple of
    the endpoint denominators may serve as den; kernels keep the lcm of
    their inputs' dens unreduced (it can grow along a chain), and equality
    and hashing compare the view reduced by the gcd of den and numerators.
    """

    __slots__ = ("_view",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        items = tuple(intervals)
        den = lcm(*{iv.lo.denominator for iv in items}, *{iv.hi.denominator for iv in items})
        object.__setattr__(self, "_view", (den, *_merge(
            (iv.lo.numerator * (den // iv.lo.denominator),
             iv.hi.numerator * (den // iv.hi.denominator)) for iv in items
        )))

    @classmethod
    def _from_lattice(cls, den: int, los: list[int], his: list[int]) -> "IntervalSet":
        """The set with the canonical members [los[i]/den, his[i]/den], taken as is."""
        s = object.__new__(cls)
        object.__setattr__(s, "_view", (den, los, his))
        return s

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("IntervalSet is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the set from its lattice view, since
        # __setattr__ refuses the slot state they would restore
        return IntervalSet._from_lattice, self._view

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The members in order, built from the view on every read."""
        return tuple(self)

    def _lattice(self) -> tuple[int, list[int], list[int]]:
        """The lattice view (den, lo numerators, hi numerators)."""
        return self._view

    @classmethod
    def of(cls, *pairs: Sequence[RationalLike]) -> "IntervalSet":
        return cls(Interval(as_rational(a), as_rational(b)) for a, b in pairs)

    def __iter__(self) -> Iterator[Interval]:
        den, los, his = self._view
        return _intervals(den, los, his)

    def __len__(self) -> int:
        return len(self._view[1])

    def _reduced(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        den, los, his = self._view
        g = gcd(den, *los, *his)
        return den // g, tuple(n // g for n in los), tuple(n // g for n in his)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self._reduced() == other._reduced()

    def __hash__(self):
        return hash(self._reduced())

    def __repr__(self) -> str:
        return "IntervalSet([" + ", ".join(str(iv) for iv in self) + "])"

    def measure(self) -> Fraction:
        """Total length, summed on the lattice view."""
        den, los, his = self._view
        return Fraction(sum(his) - sum(los), den)

    def contains(self, x: RationalLike) -> bool:
        """Membership by bisection into the lattice view: only the last
        member starting at or before x can hold it."""
        x = as_rational(x)
        den, los, his = self._view
        # an integer numerator n has n/den <= x iff n <= floor(x*den)
        i = bisect_right(los, x.numerator * den // x.denominator) - 1
        return i >= 0 and x.numerator * den <= his[i] * x.denominator

    __contains__ = contains

    def gaps(self) -> list[Interval]:
        """The closures of the bounded open complement components, in order."""
        den, los, his = self._view
        return list(_intervals(den, his, los[1:]))

    def find_gap_containing(self, iv: Interval) -> Optional[Gap]:
        """Complement component strictly containing iv, if any: the gap
        right of the last member starting at or before iv.lo, decided on
        the lattice view by cross-multiplication."""
        den, los, his = self._view
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

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        """Union of self and every other set, merged on the lcm of their
        view denominators."""
        views = [s._view for s in (self, *others)]
        den = lcm(*(d for d, _, _ in views))
        return IntervalSet._from_lattice(den, *_merge(
            (lo * (den // d), hi * (den // d)) for d, los, his in views for lo, hi in zip(los, his)
        ))

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
        da, alo, ahi = self._view
        db, blo, bhi = other._view
        den = lcm(da, db)
        los: list[int] = []
        his: list[int] = []
        if not (alo and blo):
            return IntervalSet._from_lattice(den, los, his)
        # a.hi >= b.lo[0] iff a.hi >= ceil(b.lo[0]*da/db), and likewise
        i0, i1 = bisect_left(ahi, -(-blo[0] * da // db)), bisect_right(alo, bhi[-1] * da // db)
        j0, j1 = bisect_left(bhi, -(-alo[0] * db // da)), bisect_right(blo, ahi[-1] * db // da)
        if i0 >= i1 or j0 >= j1:  # no member meets the other set's hull
            return IntervalSet._from_lattice(den, los, his)
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
        den, los, his = self._view
        p, q = lam.numerator, lam.denominator
        ps, shift = p * t.denominator, t.numerator * den * q
        if p < 0:
            los, his = his[::-1], los[::-1]
        return IntervalSet._from_lattice(
            den * q * t.denominator, [n * ps + shift for n in los], [n * ps + shift for n in his]
        )

    def to_json(self) -> dict:
        return {"intervals": [[format_rational(iv.lo), format_rational(iv.hi)] for iv in self]}


def _intervals(den: int, los: Iterable[int], his: Iterable[int]) -> Iterator[Interval]:
    """The intervals [los[i]/den, his[i]/den] of a canonical view, whose
    invariant already orders every pair, built without revalidation."""
    for lo, hi in zip(los, his):
        iv = object.__new__(Interval)
        object.__setattr__(iv, "lo", Fraction(lo, den))
        object.__setattr__(iv, "hi", Fraction(hi, den))
        yield iv


def _merge(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Canonical (los, his) of closed members (lo, hi) on one denominator,
    given in any order: sorted, overlapping and touching members merged."""
    los: list[int] = []
    his: list[int] = []
    for lo, hi in sorted(pairs):
        if his and lo <= his[-1]:  # overlapping or touching members merge
            his[-1] = max(his[-1], hi)
        else:
            los.append(lo)
            his.append(hi)
    return los, his


class ParamBox(Frozen):
    """Rational rectangle of affine parameters; the scale range avoids 0."""

    __slots__ = _fields = ("lam", "t")

    def __init__(self, lam: Interval, t: Interval):
        if lam.lo <= 0 <= lam.hi:
            raise MalformedIntervalError("scale interval of a ParamBox must exclude 0")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "t", t)


def box_image(x: RationalLike, box: ParamBox) -> Interval:
    """Exact range {lam*x + t : (lam, t) in box}."""
    x = as_rational(x)
    lo = min(box.lam.lo * x, box.lam.hi * x) + box.t.lo
    hi = max(box.lam.lo * x, box.lam.hi * x) + box.t.hi
    return Interval(lo, hi)


# Cap on the cells of one grid: every sweep lists or visits all of them,
# so a larger grid would exhaust memory or time before its first row.
MAX_GRID_CELLS = 10**6


class Grid(Frozen):
    """A rectangle cut into x_cells by y_cells closed cells.

    Cells are numbered row-major with the second axis fastest: cell
    `box_id` sits at (i, j) = divmod(box_id, y_cells).  Each axis keeps
    the slices read so far, by index, so a sweep builds every row and
    column once and a huge grid builds none up front.
    """

    _fields = ("x_range", "y_range", "x_cells", "y_cells")
    __slots__ = (*_fields, "_xs", "_ys")

    def __init__(self, x_range: Interval, y_range: Interval, x_cells: int, y_cells: int):
        if x_cells < 1 or y_cells < 1:
            raise InvalidParameterError(
                f"a grid needs at least one cell per axis, got {x_cells}x{y_cells}"
            )
        if x_cells * y_cells > MAX_GRID_CELLS:
            raise ResourceLimitError(
                f"a {x_cells}x{y_cells} grid exceeds the cap MAX_GRID_CELLS = {MAX_GRID_CELLS} cells"
            )
        for name, value in zip(self._fields, (x_range, y_range, x_cells, y_cells)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_xs", {})
        object.__setattr__(self, "_ys", {})

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
