"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library code they
check: membership is brute-forced on rational grids and trees are built
by a direct recursive generator.
"""

from __future__ import annotations

import random
from fractions import Fraction

from erdosavoid.errors import ResourceLimitError
from erdosavoid.gaptree import GapTree
from erdosavoid.intervals import Interval, IntervalSet
from erdosavoid.largescale import LinearEscapeCertificate, _point_escapes_digit
from erdosavoid.rationals import floor_rational


def grid_points(lo, hi, steps=1000):
    """Rational probe grid including both endpoints."""
    lo, hi = Fraction(lo), Fraction(hi)
    step = (hi - lo) / steps
    return [lo + k * step for k in range(steps + 1)]


def brute_member(intervals, x) -> bool:
    """Membership by scanning the raw (non-normalized) interval list."""
    return any(iv.lo <= x <= iv.hi for iv in intervals)


def random_fraction(rng: random.Random, lo, hi, denom: int = 64) -> Fraction:
    lo, hi = Fraction(lo), Fraction(hi)
    return lo + (hi - lo) * Fraction(rng.randrange(denom + 1), denom)


def random_interval_list(rng: random.Random, count: int, span=(0, 10)):
    out = []
    for _ in range(count):
        a = random_fraction(rng, *span)
        b = random_fraction(rng, *span)
        if a > b:
            a, b = b, a
        out.append(Interval(a, b))
    return out


def random_decreasing_gap_tree(
    rng: random.Random,
    depth: int,
    hull: Interval = Interval(Fraction(0), Fraction(1)),
    gap0: Fraction = Fraction(1, 10),
    shrink: Fraction = Fraction(1, 4),
) -> GapTree:
    """Random complete tree whose gap lengths are constant per level and
    strictly decreasing with depth (so largest-gap decomposition
    recovers the tree exactly)."""
    gap_lengths = [gap0 * hull.length * shrink**n for n in range(depth)]

    def build(iv: Interval, level: int) -> GapTree:
        if level == depth:
            return GapTree(iv)
        g = gap_lengths[level]
        assert g < iv.length, "gap schedule too aggressive for this hull"
        room = iv.length - g
        u = Fraction(rng.randrange(16, 49), 64)  # split point in [1/4, 3/4]
        gap_lo = iv.lo + room * u
        gap = Interval(gap_lo, gap_lo + g)
        return GapTree(
            iv,
            gap,
            build(Interval(iv.lo, gap.lo), level + 1),
            build(Interval(gap.hi, iv.hi), level + 1),
        )

    return build(hull, 0)


def random_interval_set(rng: random.Random, components: int, span=(0, 1)) -> IntervalSet:
    """Disjoint random components with positive separations."""
    lo, hi = Fraction(span[0]), Fraction(span[1])
    cuts = sorted(
        {random_fraction(rng, lo, hi, denom=4096) for _ in range(2 * components + 8)}
    )
    pieces = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        if a < b:
            pieces.append(Interval(a, b))
        if len(pieces) == components:
            break
    return IntervalSet(pieces)


def reference_point_escape_index(e, x: Fraction, y: Fraction, n_max: int):
    """First escape step of x + n*y, stepping a Fraction point by point.
    The escape references below share only the single-point predicate
    `_point_escapes_digit` and `removed_parts` with the library."""
    for n in range(1, n_max + 1):
        s = x + n * y
        if abs(floor_rational(s)) > e.guard:
            raise ResourceLimitError(f"trajectory left the cell guard at n = {n}")
        if _point_escapes_digit(e, s):
            return n
    return None


def reference_certify_linear_escape(e, x_box: Interval, y_box: Interval, n_max: int):
    """Escape certificate by Interval images and the cells' removed parts,
    in Fraction arithmetic throughout."""
    if x_box.lo == x_box.hi and y_box.lo == y_box.hi:
        n = reference_point_escape_index(e, x_box.lo, y_box.lo, n_max)
        if n is None:
            return LinearEscapeCertificate(x_box, y_box, "inconclusive")
        return LinearEscapeCertificate(x_box, y_box, "certified", n, "point")
    for n in range(1, n_max + 1):
        img = Interval(x_box.lo + n * y_box.lo, x_box.hi + n * y_box.hi)
        k_lo = floor_rational(img.lo)
        k_hi = floor_rational(img.hi)
        if abs(k_hi) > e.guard:
            raise ResourceLimitError(f"image left the cell guard at n = {n}")
        for k in range(k_lo, k_hi + 1):
            for part in e.removed_parts(k):
                shifted = part.translate(k)
                if shifted.lo < img.lo and img.hi < shifted.hi:
                    return LinearEscapeCertificate(
                        x_box, y_box, "certified", n, "containment", k, part
                    )
        if img.length >= 1:
            for k in range(k_lo, k_hi + 1):
                for part in e.removed_parts(k):
                    shifted = part.translate(k)
                    if img.lo <= shifted.lo and shifted.hi <= img.hi:
                        return LinearEscapeCertificate(
                            x_box, y_box, "certified", n, "width", k, part
                        )
    return LinearEscapeCertificate(x_box, y_box, "inconclusive")


def reference_validate_linear_escape(e, cert, samples=100, seed=0, n_limit=None):
    """Sampling audit building one Fraction point per sample."""
    if cert.status != "certified":
        return True
    if n_limit is None:
        n_limit = max(4096, 8 * (cert.witness_index or 1))
    rng = random.Random(seed)
    wx = cert.x_box.length
    wy = cert.y_box.length
    for _ in range(samples):
        x = cert.x_box.lo + wx * Fraction(rng.randrange(1, 128), 128)
        y = cert.y_box.lo + wy * Fraction(rng.randrange(1, 128), 128)
        if reference_point_escape_index(e, x, y, n_limit) is None:
            return False
    return True
