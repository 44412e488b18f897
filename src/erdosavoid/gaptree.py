"""Binary gap-tree presentation of Cantor-type sets.

A tree node carries a closed hull interval and, when split, the open
gap removed from it together with the left and right child trees.

A tree is stored as integer level arrays: one denominator per tree and,
per depth, the `lo` and `hi` numerators of its nodes from left to right.
A split node's gap is (hi of its left child, lo of its right child).
`symmetric_tree` and `affine_tree` compute the arrays directly and
build no node; a `GapTree` node is built from them when first read and
then cached.  Node-built trees come only from the public constructor
(`GapTree(...)`) and derive their arrays on first use.  `thickness`,
`to_interval_set`, `min_depth`, `==`, the gap-lemma scan and walk in
`intersect` and the frame certifier in `sumsets` read the arrays only.

Thickness here is the classical Newhouse ratio min(|left|, |right|) /
|gap| minimized over recorded nodes.  For a finite tree this minimum is
an upper bound for the thickness of the infinite construction; for the
self-similar generators produced by `from_middle_ratio` it is exact,
and the `Thickness.label` field records which case applies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import NamedTuple, Optional

from .errors import (
    DegenerateMapError,
    InvalidParameterError,
    MalformedIntervalError,
    ResourceLimitError,
)
from .intervals import Interval, IntervalSet
from .rationals import RationalLike, as_rational, format_rational


class Thickness(NamedTuple):
    """Thickness value; ``value is None`` marks the infinite case
    (a tree with no recorded splits, i.e. a plain interval)."""

    value: Optional[Fraction]
    label: str = "upper_bound"  # "exact" for self-similar generators

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        core = "inf" if self.value is None else format_rational(self.value)
        return f"{core} ({self.label})"


def thickness_product_at_least_one(t1: Thickness, t2: Thickness) -> bool:
    if t1.is_infinite:
        return not (t2.value == 0)
    if t2.is_infinite:
        return not (t1.value == 0)
    return t1.value * t2.value >= 1


class GapTree:
    """Node of a binary gap tree.

    Either a leaf (`gap is None`) or a split node whose children tile
    the hull around the open gap: interval = left + gap + right.  A node
    of an array-built tree reads each field from the level arrays when
    it is first accessed.
    """

    def __init__(
        self,
        interval: Interval,
        gap: Optional[Interval] = None,
        left: Optional["GapTree"] = None,
        right: Optional["GapTree"] = None,
        self_similar: bool = False,
    ):
        if (gap is None) != (left is None) or (gap is None) != (right is None):
            raise MalformedIntervalError("a split node needs a gap and both children")
        if gap is not None:
            if gap.length <= 0:
                raise MalformedIntervalError("gaps must have positive length")
            if not (
                left.interval.lo == interval.lo
                and left.interval.hi == gap.lo
                and gap.hi == right.interval.lo
                and right.interval.hi == interval.hi
            ):
                raise MalformedIntervalError(
                    "children and gap must tile the node interval"
                )
        vars(self).update(interval=interval, gap=gap, left=left, right=right)
        self.self_similar = self_similar
        self._at = None

    @cached_property
    def interval(self) -> Interval:
        rows, d, i = self._at
        return Interval(Fraction(rows.los[d][i], rows.den), Fraction(rows.his[d][i], rows.den))

    @cached_property
    def gap(self) -> Optional[Interval]:
        rows, d, i = self._at
        c = rows.child(d, i)
        if c < 0:
            return None
        return Interval(Fraction(rows.his[d + 1][c], rows.den), Fraction(rows.los[d + 1][c + 1], rows.den))

    @cached_property
    def left(self) -> Optional["GapTree"]:
        rows, d, i = self._at
        c = rows.child(d, i)
        return None if c < 0 else rows.node(d + 1, c)

    @cached_property
    def right(self) -> Optional["GapTree"]:
        rows, d, i = self._at
        c = rows.child(d, i)
        return None if c < 0 else rows.node(d + 1, c + 1)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @cached_property
    def levels(self) -> tuple[tuple["GapTree", ...], ...]:
        """The nodes of each depth, built by one breadth-first pass on first use."""
        rows = [(self,)]
        while below := tuple(c for n in rows[-1] if not n.is_leaf for c in (n.left, n.right)):
            rows.append(below)
        return tuple(rows)

    @cached_property
    def _rows(self) -> "_Rows":
        """The level arrays of the tree below this node; the root of an
        array-built tree holds them from the start, other nodes derive
        them from their levels over the lcm of their endpoint denominators."""
        rows = self.levels
        den = lcm(*{x.denominator for row in rows for n in row for x in (n.interval.lo, n.interval.hi)})

        def nums(end: str) -> list[list[int]]:
            return [[(getattr(n.interval, end) * den).numerator for n in row] for row in rows]

        kids = []
        for row in rows[:-1]:
            split = [not n.is_leaf for n in row]
            # a split node's left child follows those of the split nodes before it
            kids.append(None if all(split) else [
                2 * k if s else -1 for s, k in zip(split, accumulate(split, initial=0))
            ])
        return _Rows(den, nums("lo"), nums("hi"), kids, self.self_similar)

    def min_depth(self) -> int:
        """Number of complete split levels below this node."""
        return self._rows.min_depth

    def __eq__(self, other) -> bool:
        # equal shapes and endpoints, compared row by row on the arrays
        if not isinstance(other, GapTree):
            return NotImplemented
        a, b = self._rows, other._rows
        return a.kids == b.kids and all(
            [n * b.den for n in x] == [n * a.den for n in y]
            for x, y in zip(a.los + a.his, b.los + b.his)
        )

    def __hash__(self):
        return hash((self.interval, self.gap))

    def __repr__(self) -> str:
        return f"GapTree({self.interval}, gap={self.gap})"

    def __reduce__(self):
        # copies and pickles carry the fields or the arrays, never the
        # nodes, levels or sets built from them
        if self._at is None:
            return GapTree, (self.interval, self.gap, self.left, self.right, self.self_similar)
        rows, d, i = self._at
        return _node_at, (rows.den, rows.los, rows.his, rows.kids, rows.self_similar, d, i)


class _Rows:
    """Integer level arrays of a tree: node i of depth d is
    [los[d][i]/den, his[d][i]/den].  The children of the split nodes of
    depth d fill depth d + 1 in pairs, left to right.  When every node
    of depth d splits, kids[d] is None and node i's children sit at 2i
    and 2i + 1; otherwise kids[d][i] is the index of its left child, or
    -1 for a leaf.  The deepest level has no kids entry."""

    __slots__ = ("den", "los", "his", "kids", "self_similar", "min_depth", "nodes", "sets")

    def __init__(self, den, los, his, kids, self_similar):
        self.den, self.los, self.his, self.kids = den, los, his, kids
        self.self_similar = self_similar
        # the first depth holding a leaf; every depth up to it is full
        self.min_depth = next((d for d, k in enumerate(kids) if k is not None), len(kids))
        self.nodes: dict[tuple[int, int], GapTree] = {}
        self.sets: dict[int, IntervalSet] = {}

    def child(self, d: int, i: int) -> int:
        """Index at depth d + 1 of node (d, i)'s left child, or -1 for a leaf."""
        if d == len(self.kids):
            return -1
        k = self.kids[d]
        return 2 * i if k is None else k[i]

    def node(self, d: int, i: int) -> GapTree:
        """The node (d, i), built once on first request; fields come later."""
        key = (d, i)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = object.__new__(GapTree)
            node.self_similar = self.self_similar
            node._at = (self, d, i)
            if d == 0:
                node._rows = self
        return node

    def gaps(self) -> list[tuple[int, int, int]]:
        """(length, lo, hi) numerators of every gap, depth by depth."""
        return [
            (b - a, a, b)
            for los, his in zip(self.los[1:], self.his[1:])
            for a, b in zip(his[::2], los[1::2])
        ]


def _node_at(den, los, his, kids, self_similar, d, i) -> GapTree:
    return _Rows(den, los, his, kids, self_similar).node(d, i)


# The most nodes from_middle_ratio builds: depth 16 is the deepest tree.
# `construct middle-cantor`, which writes every node, is the costliest
# command on such a tree; on a 2-CPU VM it took 8.9 s and 401 MB at depth
# 16, and 37 s and 1.6 GB at depth 18 (four times as much per two levels).
MAX_TREE_NODES = 2**17 - 1


def from_middle_ratio(
    n_ratio: int, depth: int, hull: Interval = Interval(Fraction(0), Fraction(1))
) -> GapTree:
    """Symmetric tree removing the middle 1/(2N+1) of every node.

    Children have length N/(2N+1) of the parent, so the thickness of
    the generated set is exactly N at every depth.  Over the denominator
    den(hull) * (2N+1)^depth every node length above the last level is
    divisible by 2N+1, so each level's numerators are exact integer
    fractions of the level above.
    """
    if n_ratio <= 0:
        raise InvalidParameterError(f"middle-ratio parameter must be positive, got {n_ratio}")
    if depth < 1:
        raise InvalidParameterError(f"depth must be >= 1, got {depth}")
    if hull.length <= 0:
        raise InvalidParameterError("hull must be nondegenerate")
    if 2 ** min(depth + 1, 64) - 1 > MAX_TREE_NODES:
        raise ResourceLimitError(
            f"a depth-{depth} tree has 2^{depth + 1} - 1 nodes, over the cap of {MAX_TREE_NODES}"
        )
    q = 2 * n_ratio + 1
    den = lcm(hull.lo.denominator, hull.hi.denominator) * q**depth
    lo, hi = (hull.lo * den).numerator, (hull.hi * den).numerator
    children = [hi - lo]
    for _ in range(depth):
        children.append(children[-1] // q * n_ratio)
    return symmetric_tree(den, lo, hi, children[1:], True)


def symmetric_tree(den: int, lo: int, hi: int, children: list[int], self_similar: bool = False) -> GapTree:
    """The tree on [lo/den, hi/den] whose nodes [a, b] of depth d split
    into [a, a + c] and [b - c, b], c = children[d] below (b - a)/2."""
    los, his = [[lo]], [[hi]]
    for c in children:
        nodes = list(zip(los[-1], his[-1]))
        los.append([x for a, b in nodes for x in (a, b - c)])
        his.append([x for a, b in nodes for x in (a + c, b)])
    return _Rows(den, los, his, [None] * len(children), self_similar).node(0, 0)


def thickness(tree: GapTree) -> Thickness:
    """Exact minimum of min(|left|, |right|)/|gap| over recorded nodes,
    compared on the level arrays by cross-multiplication."""
    best_m, best_g = None, 1
    rows = tree._rows
    for los, his in zip(rows.los[1:], rows.his[1:]):
        for llo, lhi, rlo, rhi in zip(los[::2], his[::2], los[1::2], his[1::2]):
            m, g = min(lhi - llo, rhi - rlo), rlo - lhi
            if best_m is None or m * best_g < best_m * g:
                best_m, best_g = m, g
    if best_m is None:
        return Thickness(None, "exact")
    return Thickness(Fraction(best_m, best_g), "exact" if tree.self_similar else "upper_bound")


def to_interval_set(tree: GapTree, level: int) -> IntervalSet:
    """The 2^level level intervals as the lattice view of that level's
    arrays, built once per level and kept with them."""
    rows = tree._rows
    if level < 0 or level > rows.min_depth:
        raise InvalidParameterError(
            f"level {level} out of range for tree of depth {rows.min_depth}"
        )
    if level not in rows.sets:
        rows.sets[level] = IntervalSet._from_lattice(rows.den, rows.los[level], rows.his[level])
    return rows.sets[level]


def affine_tree(tree: GapTree, lam: RationalLike, t: RationalLike) -> GapTree:
    """Image under x -> lam*x + t, computed on the level arrays.

    With lam = p/q and t = r/s the numerator n over den maps to
    n*p*s + r*den*q over den*q*s, with no gcd.  A negative scale
    reverses each level and swaps `lo` with `hi`, so the children swap.
    """
    lam = as_rational(lam)
    t = as_rational(t)
    if lam == 0:
        raise DegenerateMapError("affine image of a tree requires a nonzero scale")
    rows = tree._rows
    p, q = lam.numerator, lam.denominator
    ps, shift = p * t.denominator, t.numerator * rows.den * q
    los, his, kids, step = rows.los, rows.his, rows.kids, 1
    if p < 0:
        los, his, step = his, los, -1
        kids = [
            k if k is None else [c if c < 0 else len(below) - 2 - c for c in reversed(k)]
            for k, below in zip(kids, rows.los[1:])
        ]
    return _Rows(
        rows.den * q * t.denominator,
        [[n * ps + shift for n in row[::step]] for row in los],
        [[n * ps + shift for n in row[::step]] for row in his],
        kids,
        tree.self_similar,
    ).node(0, 0)


def tree_to_json(tree: GapTree) -> dict:
    obj: dict = {
        "interval": [format_rational(tree.interval.lo), format_rational(tree.interval.hi)],
        "gap": None
        if tree.gap is None
        else [format_rational(tree.gap.lo), format_rational(tree.gap.hi)],
    }
    obj["left"] = None if tree.left is None else tree_to_json(tree.left)
    obj["right"] = None if tree.right is None else tree_to_json(tree.right)
    return obj

