"""Constructive intersection of gap trees.

Two routes are kept deliberately separate.  The gap-lemma checker only
verifies the hypotheses under which two thick sets must meet; it never
exhibits a point.  The containment walker produces an explicit chain of
nested node pairs, hence a point estimate with a rigorous error bound.
Both run on the level arrays (`gaptree._Rows`), comparing two trees'
ends by cross-multiplication; `_all_gaps` and `_in_some_gap` are the one
gap scan, and `_hull_reason` the one hull verdict built on it, which the
frame certifier in `sumsets` shares.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    GapConditionError,
    HullContainmentError,
    InvalidParameterError,
    ZeroSlackError,
)
from .gaptree import GapTree, Thickness, symmetric_tree, thickness, thickness_product_at_least_one
from .rationals import RationalLike, as_rational, on_one_denominator

REASON_OK = "ok"
REASON_THIN = "thickness_product_below_one"
REASON_K1_IN_GAP = "K1_inside_gap_of_K2"
REASON_K2_IN_GAP = "K2_inside_gap_of_K1"


class GapLemmaVerdict(NamedTuple):
    applicable: bool
    reason: str
    thickness_1: Thickness
    thickness_2: Thickness
    scanned_depth_1: int = 0
    scanned_depth_2: int = 0


def _all_gaps(tree: GapTree) -> list[tuple[int, int, int]]:
    """Every recorded gap as a (length, lo, hi) triple of numerators over
    the tree's denominator, longest first, as `_in_some_gap` scans them."""
    return sorted(tree._rows.gaps(), reverse=True)


def _in_some_gap(gaps: list[tuple[int, int, int]], s: int, h: int, a0: int, a1: int) -> bool:
    """Whether [a0, a1] lies strictly inside the image of some gap under
    n -> n*s + h (s != 0), the gaps given longest first by `_all_gaps`.
    A negative s swaps a gap's ends.  The scan stops at the first gap no
    longer than the hull, which cannot hold it strictly, nor can any
    shorter gap after it."""
    width, scale = a1 - a0, abs(s)
    for length, lo, hi in gaps:
        if length * scale <= width:
            return False
        if s < 0:
            lo, hi = hi, lo
        if lo * s + h < a0 and a1 < hi * s + h:
            return True
    return False


def _hull_reason(x_rows, x_gaps, sx: int, hx: int, b_rows, b_gaps, sb: int, hb: int) -> str:
    """The gap-lemma reason from the hulls and gaps (by `_all_gaps`) of two
    trees' level arrays, X's numerator a mapped to a*sx + hx and B's b to
    b*sb + hb (sb > 0) on one denominator."""
    a0, a1 = sorted((x_rows.los[0][0] * sx + hx, x_rows.his[0][0] * sx + hx))
    b0, b1 = b_rows.los[0][0] * sb + hb, b_rows.his[0][0] * sb + hb
    # hulls wholly beside each other: X lies in an unbounded gap of B
    if a1 < b0 or b1 < a0 or _in_some_gap(b_gaps, sb, hb, a0, a1):
        return REASON_K1_IN_GAP
    if _in_some_gap(x_gaps, sx, hx, b0, b1):
        return REASON_K2_IN_GAP
    return REASON_OK


def check_gap_lemma(k1: GapTree, k2: GapTree) -> GapLemmaVerdict:
    """Check the hypotheses of the thickness gap lemma.

    Applicable iff the thickness product is at least 1 and neither hull
    sits strictly inside a gap of the other tree, the two unbounded gaps
    included: disjoint hulls are not applicable (`REASON_K1_IN_GAP`).
    The bounded-gap scan covers all materialized gaps, so the
    containment verdict is depth-limited; scanned depths are reported
    alongside.  `_hull_reason` puts both trees' numerators on den1*den2.
    """
    t1, t2 = thickness(k1), thickness(k2)
    d1, d2 = k1.min_depth(), k2.min_depth()
    if not thickness_product_at_least_one(t1, t2):
        return GapLemmaVerdict(False, REASON_THIN, t1, t2, d1, d2)
    r1, r2 = k1._rows, k2._rows
    reason = _hull_reason(r1, _all_gaps(k1), r2.den, 0, r2, _all_gaps(k2), r1.den, 0)
    return GapLemmaVerdict(reason == REASON_OK, reason, t1, t2, d1, d2)


class WalkTrace(NamedTuple):
    """Chain of nested node pairs (inner, outer) down to the walk depth.

    The inner interval stays contained in the outer one at every step;
    the point estimate lies in the final intervals of both trees and
    the error bound is the final outer interval length.
    """

    chain: tuple[tuple[str, str], ...]
    point_estimate: Fraction
    error_bound: Fraction
    step_bounds: tuple[Fraction, ...] = ()


def _level_gap_lengths(tree: GapTree, depth: int, pick) -> list[Fraction]:
    """`pick` (min or max) of each level's gap lengths, levels 0 to depth - 1,
    read from the level arrays; those levels must be full."""
    rows = tree._rows
    return [
        Fraction(pick(b - a for a, b in zip(his[::2], los[1::2])), rows.den)
        for los, his in zip(rows.los[1 : depth + 1], rows.his[1 : depth + 1])
    ]


def _check_walk_preconditions(inner: GapTree, outer: GapTree, depth: int) -> tuple[list, list]:
    """Refuse a walk that cannot run; else return both level gap extremes."""
    if depth < 1:
        raise InvalidParameterError("walk depth must be >= 1")
    if not outer.interval.contains_interval(inner.interval):
        raise HullContainmentError(
            f"hull {inner.interval} of the inner tree is not inside {outer.interval}"
        )
    if inner.min_depth() < depth or outer.min_depth() < depth:
        raise InvalidParameterError(
            f"both trees must be complete to depth {depth} "
            f"(have {inner.min_depth()} and {outer.min_depth()})"
        )
    inner_min = _level_gap_lengths(inner, depth, min)
    outer_max = _level_gap_lengths(outer, depth, max)
    for n in range(depth):
        if not outer_max[n] < inner_min[n]:
            raise GapConditionError(n, outer_max[n], inner_min[n])
    return inner_min, outer_max


def containment_walk(inner: GapTree, outer: GapTree, depth: int) -> WalkTrace:
    """Walk a chain of children with the inner node always contained.

    At a split the inner node [a, b] lies in the outer node [c, d] (the
    hulls do by the preconditions, the children by induction); let the
    inner gap be (p, q) and the outer gap (r, s).  Every outer gap of a
    level is shorter than every inner one, so s - r < q - p.  The left
    pair [a, p] in [c, r] fits iff p <= r, and is taken then.  Otherwise
    r < p, so s < r + (q - p) < q and the right pair [q, b] in [s, d]
    fits.  The pair taken always nests, so no step can fail once the
    preconditions hold.  Both walks take the same side, so one index i
    names both nodes, and the levels down to `depth` are full, so its
    children are 2i and 2i + 1.
    """
    _check_walk_preconditions(inner, outer, depth)
    rin, rout = inner._rows, outer._rows
    din, dout = rin.den, rout.den
    label, i = "", 0
    chain = []
    bounds = []
    for d in range(1, depth + 1):
        ihi, olo, ohi = rin.his[d], rout.los[d], rout.his[d]
        i *= 2
        # the left pair nests iff the inner gap starts no later than the outer one
        if ihi[i] * dout <= ohi[i] * din:
            label += "0"
        else:
            label += "1"
            i += 1
        chain.append((label, label))
        bounds.append(Fraction(ohi[i] - olo[i], dout))
    return WalkTrace(
        tuple(chain),
        Fraction(rin.los[depth][i] + rin.his[depth][i], 2 * din),
        bounds[-1],
        tuple(bounds),
    )


def build_tilde(tree: GapTree, depth: int, margin: RationalLike) -> GapTree:
    """Surrounding tree with strictly larger hull and per-level gaps
    shorter than a quarter of the inner tree's smallest same-level gap.

    The quarter factor leaves slack below the 1/2 bound that
    `perturbation_delta` certifies against.  All nodes of a level have
    one length, so the tree is a `symmetric_tree`.
    """
    margin = as_rational(margin)
    if margin <= 0:
        raise InvalidParameterError("margin must be positive")
    if tree.min_depth() < depth:
        raise InvalidParameterError(
            f"inner tree must be complete to depth {depth}, has {tree.min_depth()}"
        )
    lo, hi = tree.interval.lo - margin, tree.interval.hi + margin
    lengths = [hi - lo]
    for g in _level_gap_lengths(tree, depth, min):
        lengths.append((lengths[-1] - min(g, lengths[-1]) / 4) / 2)
    den, (lo, hi, *children) = on_one_denominator(lo, hi, *lengths[1:])
    return symmetric_tree(den, lo, hi, children)


def perturbation_delta(inner: GapTree, outer: GapTree, depth: int) -> Fraction:
    """Certified radius of affine stability for the containment walk.

    Returns delta > 0 such that for every (lam, t) with lam in
    [1/(1+delta), 1+delta] and t in [-delta, delta], the walk
    preconditions hold for lam*inner + t against outer.  The checks are
    evaluated at box corners; they are monotone in lam and t, so they
    hold throughout the box.
    """
    min_gaps, max_gaps = _check_walk_preconditions(inner, outer, depth)
    a, b = inner.interval.lo, inner.interval.hi
    c, d = outer.interval.lo, outer.interval.hi
    margin_left = a - c
    margin_right = d - b
    if margin_left <= 0 or margin_right <= 0:
        raise ZeroSlackError("outer hull must strictly contain the inner hull")
    for n in range(depth):
        if not max_gaps[n] < min_gaps[n] / 2:
            raise ZeroSlackError(
                f"level {n} gap slack below the factor-1/2 requirement"
            )

    def ok(delta: Fraction) -> bool:
        lam_lo = 1 / (1 + delta)
        lam_hi = 1 + delta
        for lam in (lam_lo, lam_hi):
            for t in (-delta, delta):
                lo = min(lam * a, lam * b) + t
                hi = max(lam * a, lam * b) + t
                if lo < c or hi > d:
                    return False
        return all(lam_lo * min_gaps[n] > max_gaps[n] for n in range(depth))

    scale = 1 + max(abs(a), abs(b))
    delta = min(min(margin_left, margin_right) / scale, Fraction(1, 2))
    for _ in range(64):
        if ok(delta):
            return delta
        delta /= 2
    raise ZeroSlackError("no certifiable radius found after 64 halvings")
