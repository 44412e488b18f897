"""Binary gap-tree presentation of Cantor-type sets.

A tree node carries a closed hull interval and, when split, the open
gap removed from it together with the left and right child trees.  The
gap chosen at each split is the largest one available inside the node,
ties resolved leftmost, which makes the presentation of a given
interval set canonical.

Thickness here is the classical Newhouse ratio min(|left|, |right|) /
|gap| minimized over recorded nodes.  For a finite tree this minimum is
an upper bound for the thickness of the infinite construction; for the
self-similar generators produced by `from_middle_ratio` it is exact,
and the `Thickness.label` field records which case applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .errors import (
    InvalidParameterError,
    MalformedIntervalError,
    NotEnoughStructureError,
    SchemaError,
)
from .intervals import Interval, IntervalSet
from .rationals import RationalLike, as_rational, format_rational


@dataclass(frozen=True)
class Thickness:
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


@dataclass(frozen=True)
class GapTree:
    """Node of a binary gap tree.

    Either a leaf (`gap is None`) or a split node whose children tile
    the hull around the open gap: interval = left + gap + right.
    """

    interval: Interval
    gap: Optional[Interval] = None
    left: Optional["GapTree"] = None
    right: Optional["GapTree"] = None
    self_similar: bool = field(default=False, compare=False)

    def __post_init__(self):
        if (self.gap is None) != (self.left is None) or (self.gap is None) != (
            self.right is None
        ):
            raise MalformedIntervalError("a split node needs a gap and both children")
        if self.gap is not None:
            if self.gap.length <= 0:
                raise MalformedIntervalError("gaps must have positive length")
            if not (
                self.left.interval.lo == self.interval.lo
                and self.left.interval.hi == self.gap.lo
                and self.gap.hi == self.right.interval.lo
                and self.right.interval.hi == self.interval.hi
            ):
                raise MalformedIntervalError(
                    "children and gap must tile the node interval"
                )

    @property
    def is_leaf(self) -> bool:
        return self.gap is None

    @cached_property
    def levels(self) -> "_LevelIndex":
        """The nodes of each depth, built by one breadth-first pass on first use."""
        rows = [(self,)]
        while below := tuple(c for n in rows[-1] if n.gap is not None for c in (n.left, n.right)):
            rows.append(below)
        return _LevelIndex(rows)

    def __getstate__(self):
        # copies and unpickled trees build their own level index
        return {k: v for k, v in self.__dict__.items() if k != "levels"}

    def min_depth(self) -> int:
        """Number of complete split levels below this node."""
        return self.levels.min_depth


class _LevelIndex(tuple):
    """The node tuple of each depth, left to right.  `min_depth` is the first
    depth holding a leaf (the next has fewer than twice its nodes), and
    `sets` keeps each complete level's canonical set once built."""

    def __init__(self, rows):
        sizes = [len(row) for row in rows] + [0]
        self.min_depth = next(d for d, n in enumerate(sizes) if sizes[d + 1] < 2 * n)
        self.sets: dict[int, IntervalSet] = {}


def from_middle_ratio(
    n_ratio: int, depth: int, hull: Interval = Interval(Fraction(0), Fraction(1))
) -> GapTree:
    """Symmetric tree removing the middle 1/(2N+1) of every node.

    Children have length N/(2N+1) of the parent, so the thickness of
    the generated set is exactly N at every depth.
    """
    if n_ratio <= 0:
        raise InvalidParameterError(f"middle-ratio parameter must be positive, got {n_ratio}")
    if depth < 1:
        raise InvalidParameterError(f"depth must be >= 1, got {depth}")
    if hull.length <= 0:
        raise InvalidParameterError("hull must be nondegenerate")
    child = Fraction(n_ratio, 2 * n_ratio + 1)

    def build(iv: Interval, d: int) -> GapTree:
        if d == 0:
            return GapTree(iv, self_similar=True)
        left_hi = iv.lo + child * iv.length
        right_lo = iv.hi - child * iv.length
        gap = Interval(left_hi, right_lo)
        return GapTree(
            iv,
            gap,
            build(Interval(iv.lo, left_hi), d - 1),
            build(Interval(right_lo, iv.hi), d - 1),
            self_similar=True,
        )

    return build(hull, depth)


def decompose(s: IntervalSet, depth: int) -> GapTree:
    """Largest-gap (ties leftmost) bisection of an interval set's hull.

    Requires enough gaps for every branch down to `depth`; otherwise a
    NotEnoughStructureError names the failing node.
    """
    if depth < 0:
        raise InvalidParameterError("depth must be >= 0")
    if not s.intervals:
        raise NotEnoughStructureError("", "empty set has no hull")

    def build(components: tuple[Interval, ...], d: int, label: str) -> GapTree:
        hull = Interval(components[0].lo, components[-1].hi)
        if d == 0:
            return GapTree(hull)
        if len(components) < 2:
            raise NotEnoughStructureError(
                label, f"no gap available to split {hull} at remaining depth {d}"
            )
        best_i = 0
        best_len = components[1].lo - components[0].hi
        for i in range(1, len(components) - 1):
            glen = components[i + 1].lo - components[i].hi
            if glen > best_len:  # strict: ties keep the leftmost gap
                best_len = glen
                best_i = i
        gap = Interval(components[best_i].hi, components[best_i + 1].lo)
        left = build(components[: best_i + 1], d - 1, label + "0")
        right = build(components[best_i + 1 :], d - 1, label + "1")
        return GapTree(hull, gap, left, right)

    return build(s.intervals, depth, "")


def thickness(tree: GapTree) -> Thickness:
    """Exact minimum of min(|left|, |right|)/|gap| over recorded nodes."""
    ratios = [
        min(n.left.interval.length, n.right.interval.length) / n.gap.length
        for row in tree.levels for n in row if n.gap is not None
    ]
    if not ratios:
        return Thickness(None, "exact")
    return Thickness(min(ratios), "exact" if tree.self_similar else "upper_bound")


def to_interval_set(tree: GapTree, level: int) -> IntervalSet:
    """The 2^level level intervals as a normalized set, built once per
    level and kept with the tree's level index."""
    levels = tree.levels
    if level < 0 or level > levels.min_depth:
        raise InvalidParameterError(
            f"level {level} out of range for tree of depth {levels.min_depth}"
        )
    if level not in levels.sets:
        levels.sets[level] = IntervalSet([n.interval for n in levels[level]], _canonical=True)
    return levels.sets[level]


def affine_tree(tree: GapTree, lam: RationalLike, t: RationalLike) -> GapTree:
    """Node-wise affine image; children swap when the scale is negative."""
    lam = as_rational(lam)
    t = as_rational(t)
    if lam == 0:
        from .errors import DegenerateMapError

        raise DegenerateMapError("affine image of a tree requires a nonzero scale")

    def rec(node: GapTree) -> GapTree:
        iv = node.interval.scale(lam).translate(t)
        if node.is_leaf:
            return GapTree(iv, self_similar=node.self_similar)
        gap = node.gap.scale(lam).translate(t)
        left, right = rec(node.left), rec(node.right)
        if lam < 0:
            left, right = right, left
        return GapTree(iv, gap, left, right, self_similar=node.self_similar)

    return rec(tree)


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


# Deepest split chain read from JSON: tree_to_json, affine_tree and ==
# recurse once per level, so deeper trees are refused at the input.
JSON_DEPTH_LIMIT = 256


def tree_from_json(obj: dict, _depth: int = 0) -> GapTree:
    if _depth > JSON_DEPTH_LIMIT:
        raise SchemaError(
            f"gap-tree JSON nests deeper than the limit of {JSON_DEPTH_LIMIT} levels"
        )
    if not isinstance(obj, dict) or "interval" not in obj:
        raise SchemaError("gap-tree JSON must carry an 'interval' field")
    iv = _interval_from_json(obj["interval"])
    if obj.get("gap") is None:
        return GapTree(iv)
    if "left" not in obj or "right" not in obj:
        raise SchemaError("a gap-tree split node needs 'left' and 'right' fields")
    gap = _interval_from_json(obj["gap"])
    left = tree_from_json(obj["left"], _depth + 1)
    return GapTree(iv, gap, left, tree_from_json(obj["right"], _depth + 1))


def _interval_from_json(pair) -> Interval:
    if not isinstance(pair, list) or len(pair) != 2:
        raise SchemaError(f"gap-tree interval must be a [lo, hi] list, got {pair!r}")
    return Interval(as_rational(pair[0]), as_rational(pair[1]))
