"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library code they
check: membership is brute-forced on rational grids and trees are built
by a direct recursive generator.  The module also holds the few
constructions only tests use, such as single avoider levels, family
member sets and polynomial products.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from hypothesis import strategies as st

from erdosavoid.errors import (
    ConstructionAuditError,
    GapConditionError,
    HullContainmentError,
    InvalidParameterError,
    NeedsLongerWindowError,
    ResourceLimitError,
)
from erdosavoid.gaptree import (
    GapTree,
    Thickness,
    thickness_product_at_least_one,
    to_interval_set,
)
from erdosavoid.intersect import (
    REASON_K1_IN_GAP,
    REASON_K2_IN_GAP,
    REASON_OK,
    REASON_THIN,
    GapLemmaVerdict,
    WalkTrace,
    _check_walk_preconditions,
    _level_gap_lengths,
)
from erdosavoid.enclosures import ln_interval
from erdosavoid.intervals import Gap, Interval, IntervalSet
from erdosavoid.largescale import (
    COVER_BUDGET,
    LinearEscapeCertificate,
    LogEscapeCertificate,
    certify_linear_escape,
)
from erdosavoid.rationals import as_rational, floor_rational
from erdosavoid.smallscale import AvoiderLevel, AvoiderResult, _level_parameters
from erdosavoid.sumsets import CoverageRecord, CoverageReport, _frame_map


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


def interval_image(iv: Interval, lam, t) -> Interval:
    """Image of a closed interval under x -> lam*x + t."""
    a, b = lam * iv.lo + t, lam * iv.hi + t
    return Interval(min(a, b), max(a, b))


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


def reference_min_depth(tree: GapTree) -> int:
    """Complete split levels below a node, recursing into both children."""
    if tree.gap is None:
        return 0
    return 1 + min(reference_min_depth(tree.left), reference_min_depth(tree.right))


def reference_level_nodes(tree: GapTree, level: int) -> list[GapTree]:
    """Every node at depth `level`, left to right, by a recursive walk;
    branches ending above the level contribute nothing."""
    if level == 0:
        return [tree]
    if tree.gap is None:
        return []
    return reference_level_nodes(tree.left, level - 1) + reference_level_nodes(
        tree.right, level - 1
    )


def reference_thickness(tree: GapTree) -> Thickness:
    """Minimum Newhouse ratio over the split nodes by a recursive visitor."""
    best = None

    def visit(node: GapTree):
        nonlocal best
        if node.gap is None:
            return
        ratio = min(node.left.interval.length, node.right.interval.length) / node.gap.length
        if best is None or ratio < best:
            best = ratio
        visit(node.left)
        visit(node.right)

    visit(tree)
    if best is None:
        return Thickness(None, "exact")
    return Thickness(best, "exact" if tree.self_similar else "upper_bound")


def reference_from_middle_ratio(
    n_ratio: int, depth: int, hull: Interval = Interval(Fraction(0), Fraction(1))
) -> GapTree:
    """Middle-ratio tree built node by node in Fraction arithmetic: each
    child is N/(2N+1) of its parent."""
    child = Fraction(n_ratio, 2 * n_ratio + 1)

    def build(iv: Interval, d: int) -> GapTree:
        if d == 0:
            return GapTree(iv, self_similar=True)
        left_hi = iv.lo + child * iv.length
        right_lo = iv.hi - child * iv.length
        return GapTree(
            iv,
            Interval(left_hi, right_lo),
            build(Interval(iv.lo, left_hi), d - 1),
            build(Interval(right_lo, iv.hi), d - 1),
            self_similar=True,
        )

    return build(hull, depth)


def reference_affine_tree(tree: GapTree, lam: Fraction, t: Fraction) -> GapTree:
    """Node-wise interval images; children swap when lam < 0."""

    def rec(node: GapTree) -> GapTree:
        iv = interval_image(node.interval, lam, t)
        if node.is_leaf:
            return GapTree(iv, self_similar=node.self_similar)
        left, right = rec(node.left), rec(node.right)
        if lam < 0:
            left, right = right, left
        gap = interval_image(node.gap, lam, t)
        return GapTree(iv, gap, left, right, self_similar=node.self_similar)

    return rec(tree)


def _beside(hull1: Interval, hull2: Interval) -> bool:
    """Whether the hulls are disjoint, so each lies in an unbounded gap of the other."""
    return hull1.hi < hull2.lo or hull2.hi < hull1.lo


def reference_corner_verdict(certifier, frame, lam: Fraction, t: Fraction) -> GapLemmaVerdict:
    """The framed gap-lemma verdict on the Fraction nodes: the two
    mapped hulls against each other, then every gap of each tree,
    mapped by `interval_image`, against the other tree's mapped hull."""
    x, base = certifier.x_tree, certifier.family.base
    t1, t2 = reference_thickness(x), reference_thickness(base)
    if not thickness_product_at_least_one(t1, t2):
        return GapLemmaVerdict(False, REASON_THIN, t1, t2)
    ms, mt = _frame_map(*frame)
    hull1 = interval_image(x.interval, lam, t)
    hull2 = interval_image(base.interval, ms, mt)
    if _beside(hull1, hull2) or any(interval_image(g, ms, mt).strictly_contains_interval(hull1)
                                    for g in reference_all_gaps(base)):
        return GapLemmaVerdict(False, REASON_K1_IN_GAP, t1, t2)
    if any(interval_image(g, lam, t).strictly_contains_interval(hull2)
           for g in reference_all_gaps(x)):
        return GapLemmaVerdict(False, REASON_K2_IN_GAP, t1, t2)
    return GapLemmaVerdict(True, REASON_OK, t1, t2)


def reference_find_common_point(certifier, lam: Fraction, t: Fraction, frame, depth: int):
    """Leftmost common point by a synchronized descent through the
    Fraction node pairs, both maps applied to each node's endpoints."""
    depth = min(depth, reference_min_depth(certifier.x_tree), certifier.family.depth)
    ms, mt = _frame_map(*frame)

    def dfs(a: GapTree, b: GapTree, d: int) -> Optional[Fraction]:
        a_lo, a_hi = sorted((lam * a.interval.lo + t, lam * a.interval.hi + t))
        b_lo, b_hi = ms * b.interval.lo + mt, ms * b.interval.hi + mt
        if a_hi < b_lo or b_hi < a_lo:
            return None
        if d == depth:
            return max(a_lo, b_lo)
        for ac in (a.left, a.right) if lam > 0 else (a.right, a.left):
            for bc in (b.left, b.right):
                hit = dfs(ac, bc, d + 1)
                if hit is not None:
                    return hit
        return None

    return dfs(certifier.x_tree, certifier.family.base, 0)


def member_set(family, n: int, l: int, level: Optional[int] = None) -> IntervalSet:
    """The level set of the family member 2^n (K + l)."""
    level = family.depth if level is None else level
    return to_interval_set(family.base, level).affine(*_frame_map(n, l))


def reference_all_gaps(tree: GapTree) -> list[Interval]:
    """Every recorded gap, in preorder."""
    if tree.gap is None:
        return []
    return [tree.gap] + reference_all_gaps(tree.left) + reference_all_gaps(tree.right)


def reference_check_gap_lemma(k1: GapTree, k2: GapTree) -> GapLemmaVerdict:
    """The gap-lemma verdict on the Fraction nodes: the two hulls
    against each other, then every gap of each tree against the other
    tree's hull."""
    t1, t2 = reference_thickness(k1), reference_thickness(k2)
    d1, d2 = reference_min_depth(k1), reference_min_depth(k2)
    if not thickness_product_at_least_one(t1, t2):
        return GapLemmaVerdict(False, REASON_THIN, t1, t2, d1, d2)
    if _beside(k1.interval, k2.interval):
        return GapLemmaVerdict(False, REASON_K1_IN_GAP, t1, t2, d1, d2)
    for gap in reference_all_gaps(k2):
        if gap.strictly_contains_interval(k1.interval):
            return GapLemmaVerdict(False, REASON_K1_IN_GAP, t1, t2, d1, d2)
    for gap in reference_all_gaps(k1):
        if gap.strictly_contains_interval(k2.interval):
            return GapLemmaVerdict(False, REASON_K2_IN_GAP, t1, t2, d1, d2)
    return GapLemmaVerdict(True, REASON_OK, t1, t2, d1, d2)


def reference_containment_walk(inner: GapTree, outer: GapTree, depth: int) -> WalkTrace:
    """The containment walk node by node: two chains of `GapTree` nodes
    compared on their Fraction ends, left pair first."""
    _check_walk_preconditions(inner, outer, depth)
    node_in, node_out = inner, outer
    label_in, label_out = "", ""
    chain = []
    bounds = []
    for _ in range(depth):
        a = node_in.left.interval.hi  # inner gap endpoints
        b = node_in.right.interval.lo
        c = node_out.left.interval.hi  # outer gap endpoints
        d = node_out.right.interval.lo
        if a <= c:
            node_in, node_out = node_in.left, node_out.left
            label_in, label_out = label_in + "0", label_out + "0"
        else:
            if not d <= b:
                raise GapConditionError(
                    len(chain), node_out.gap.length, node_in.gap.length
                )
            node_in, node_out = node_in.right, node_out.right
            label_in, label_out = label_in + "1", label_out + "1"
        if not node_out.interval.contains_interval(node_in.interval):
            raise HullContainmentError(
                f"containment lost at step {len(chain) + 1}"
            )
        chain.append((label_in, label_out))
        bounds.append(node_out.interval.length)
    return WalkTrace(
        tuple(chain),
        node_in.interval.midpoint,
        node_out.interval.length,
        tuple(bounds),
    )


def reference_build_tilde(tree: GapTree, depth: int, margin: Fraction) -> GapTree:
    """`build_tilde` node by node: a quarter of the level's smallest inner
    gap (or of the node, if shorter), centred at each node's midpoint."""
    margin = as_rational(margin)
    if margin <= 0:
        raise InvalidParameterError("margin must be positive")
    if tree.min_depth() < depth:
        raise InvalidParameterError(
            f"inner tree must be complete to depth {depth}, has {tree.min_depth()}"
        )
    min_gaps = _level_gap_lengths(tree, depth, min)
    hull = Interval(tree.interval.lo - margin, tree.interval.hi + margin)

    def build(iv: Interval, level: int) -> GapTree:
        if level == depth:
            return GapTree(iv)
        g = min(min_gaps[level], iv.length) / 4
        mid = iv.midpoint
        gap = Interval(mid - g / 2, mid + g / 2)
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


def reference_removed_parts(e, k: int) -> list[Interval]:
    """The closed removed parts of digit cell k, in Fraction arithmetic:
    the scheduled part and the top one.  The escape references below
    share only the digit schedule with the library."""
    m = e.generator.m
    digits = sorted({e.generator.scheduled_digit(k), m - 1})
    return [Interval(Fraction(j, m), Fraction(j + 1, m)) for j in digits]


def reference_point_escapes(e, s: Fraction) -> bool:
    """s lies in a closed removed part of every cell containing it; an
    integer point lies in two cells."""
    k = floor_rational(s)
    cells = [k - 1, k] if s == k else [k]
    return all(
        any(p.lo <= s - c <= p.hi for p in reference_removed_parts(e, c))
        for c in cells
    )


def reference_span_escapes(e, lo: Fraction, hi: Fraction) -> bool:
    """Every point of [lo, hi] lies in closed removed parts of all its cells.

    Adjacent removed parts merge, so a gap can span up to two part
    lengths; containment is per overlapped cell, which also covers
    integer boundary points via the neighboring cell's clip.
    """
    for k in range(floor_rational(lo), floor_rational(hi) + 1):
        c_lo = max(lo - k, Fraction(0))
        c_hi = min(hi - k, Fraction(1))
        if c_lo > c_hi:
            continue
        merged = reference_normalize(reference_removed_parts(e, k))
        if not any(p.lo <= c_lo and c_hi <= p.hi for p in merged):
            return False
    return True


def reference_geometric_escape_via_log(
    e, y_box: Interval, b_box: Interval, n_max: int,
    log_y=None, log_b=None, bits: int = 64,
):
    """Log escape as `reference_cover_escape_step` on the enclosure
    rectangle [-ln(y).hi, -ln(y).lo] x [ln(b).lo, ln(b).hi]: offset
    -ln(y), step ln(b)."""
    ly = log_y if log_y is not None else ln_interval(y_box, bits)
    lb = log_b if log_b is not None else ln_interval(b_box, bits)
    n = reference_cover_escape_step(e, Interval(-ly.hi, -ly.lo), lb, n_max, COVER_BUDGET)
    if n is None:
        return LogEscapeCertificate(y_box, b_box, "inconclusive")
    route = "point" if ly.length == lb.length == 0 else "gap"
    return LogEscapeCertificate(y_box, b_box, "certified", n, route)


def _reference_atanh_series(z: Fraction, err_target: Fraction) -> Interval:
    """2*atanh(z) for |z| < 1/2 summed term by term in Fraction
    arithmetic, cut once the remainder bound reaches the target."""
    acc = Fraction(0)
    power = z
    j = 0
    tail_factor = 2 / (1 - z * z)
    while True:
        acc += 2 * power / (2 * j + 1)
        power *= z * z
        j += 1
        bound = tail_factor * abs(power) / (2 * j + 1)
        if bound <= err_target:
            return Interval(acc - bound, acc + bound)


def _reference_outward(lo: Fraction, hi: Fraction, bits: int) -> Interval:
    scale = 1 << bits
    return Interval(Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale))


def reference_ln_enclosure(q: Fraction, bits: int) -> Interval:
    """ln(q) for rational q > 0: m = q / 2**e is halved or doubled into
    [3/4, 3/2) one step at a time, ln(m) is the Fraction series and ln 2
    the series at z = 1/3, each rounded outward as the library does."""
    if q == 1:
        return Interval(Fraction(0), Fraction(0))
    e, m = 0, q
    while m >= Fraction(3, 2):
        m /= 2
        e += 1
    while m < Fraction(3, 4):
        m *= 2
        e -= 1
    target = Fraction(1, 1 << (bits + 4))
    core = Interval(Fraction(0), Fraction(0)) if m == 1 else _reference_atanh_series((m - 1) / (m + 1), target)
    if e == 0:
        return _reference_outward(core.lo, core.hi, bits + 2)
    l2 = _reference_atanh_series(Fraction(1, 3), Fraction(1, 1 << (bits + 8)))
    l2 = _reference_outward(l2.lo, l2.hi, bits + 6)
    two_lo, two_hi = (l2.lo, l2.hi) if e > 0 else (l2.hi, l2.lo)
    return _reference_outward(core.lo + e * two_lo, core.hi + e * two_hi, bits + 2)


def reference_point_escape_index(e, x: Fraction, y: Fraction, n_max: int):
    """First escape step of x + n*y, stepping a Fraction point by point."""
    for n in range(1, n_max + 1):
        s = x + n * y
        if abs(floor_rational(s)) > e.guard:
            raise ResourceLimitError(f"trajectory left the cell guard at n = {n}")
        if reference_point_escapes(e, s):
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
            for part in reference_removed_parts(e, k):
                shifted = interval_image(part, 1, k)
                if shifted.lo < img.lo and img.hi < shifted.hi:
                    return LinearEscapeCertificate(
                        x_box, y_box, "certified", n, "containment", k
                    )
        if img.length >= 1:
            for k in range(k_lo, k_hi + 1):
                for part in reference_removed_parts(e, k):
                    shifted = interval_image(part, 1, k)
                    if img.lo <= shifted.lo and shifted.hi <= img.hi:
                        return LinearEscapeCertificate(
                            x_box, y_box, "certified", n, "width", k
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


def reference_clip(piece, f):
    """One Sutherland-Hodgman pass in Fraction arithmetic: the part of
    the convex polygon `piece`, a list of (x, y) vertices, where the
    affine function f(x, y) is at least 0.  Vertices on the line stay."""
    out = []
    p, fp = piece[-1], f(*piece[-1])
    for q in piece:
        fq = f(*q)
        if fp * fq < 0:
            s = fp / (fp - fq)
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
        if fq >= 0:
            out.append(q)
        p, fp = q, fq
    return out


def reference_kept_runs(e, lo: Fraction, hi: Fraction) -> list[Interval]:
    """The maximal runs of closed kept parts of the digit set that meet
    [lo, hi]: each cell's parts other than its removed ones, merged."""
    m = e.generator.m
    parts = []
    for k in range(floor_rational(lo) - 1, floor_rational(hi) + 1):
        removed = reference_removed_parts(e, k)
        parts += [
            Interval(k + Fraction(j, m), k + Fraction(j + 1, m))
            for j in range(m)
            if Interval(Fraction(j, m), Fraction(j + 1, m)) not in removed
        ]
    return [r for r in reference_normalize(parts) if r.lo <= hi and lo <= r.hi]


def reference_cover_escape_step(e, x_box: Interval, y_box: Interval, n_max: int, budget: int):
    """The no-jump rule and the strip cover on Fraction vertices: every
    piece is clipped to every run its image meets by both of the run's
    lines, and a run's cuts are made even where they cut nothing."""
    if y_box.lo <= 0:
        return None
    m = e.generator.m
    piece = [(x_box.lo, y_box.lo), (x_box.hi, y_box.lo), (x_box.hi, y_box.hi), (x_box.lo, y_box.hi)]
    settled = 0
    if y_box.lo <= Fraction(1, m):
        settled = math.ceil(2 / y_box.lo)
        top = x_box.hi + settled * min(y_box.hi, Fraction(1, m))
        if settled > n_max or floor_rational(top) > e.guard:
            return None
        piece = reference_clip(piece, lambda x, y: y - Fraction(1, m))
    pieces = [piece] if piece else []
    n = 0
    while pieces:
        n += 1
        budget -= len(pieces)
        if n > n_max or budget < 0:
            return None
        kept = []
        for piece in pieces:
            image = [x + n * y for x, y in piece]
            lo, hi = min(image), max(image)
            if floor_rational(hi) > e.guard:
                return None
            if reference_span_escapes(e, lo, hi):
                continue
            for run in reference_kept_runs(e, lo, hi):
                part = reference_clip(piece, lambda x, y: x + n * y - run.lo)
                part = reference_clip(part, lambda x, y: run.hi - x - n * y)
                if part:
                    kept.append(part)
        pieces = kept
    return max(settled, n)


def validate_certificate(e, seq, cert, samples: int = 100, seed: int = 0) -> bool:
    """Re-check an escape certificate on random rational parameters in
    its box: the sampled images of its witness term must all miss e."""
    if samples < 1:
        raise InvalidParameterError("validation needs at least one sample")
    if cert.status != "certified":
        return True
    rng = random.Random(seed)
    a = seq.term(cert.witness_index)
    box = cert.box
    for _ in range(samples):
        lam = box.lam.lo + (box.lam.hi - box.lam.lo) * Fraction(rng.randrange(129), 128)
        t = box.t.lo + (box.t.hi - box.t.lo) * Fraction(rng.randrange(129), 128)
        if e.contains(lam * a + t):
            return False
    return True


def reference_escape_index(gen, ax: int, ay: int, den: int, n_max: int, guard: int):
    """The cell-by-cell integer scan that preceded the part-index one:
    each point is split into a cell k and an offset r/den, and the guard
    bounds |k|."""
    s = ax
    for n in range(1, n_max + 1):
        s += ay
        k, r = divmod(s, den)
        if abs(k) > guard:
            raise ResourceLimitError(f"trajectory left the cell guard at n = {n}")
        if reference_offset_escapes(gen, k, r, den):
            return n
    return None


def reference_offset_escapes(gen, k: int, r: int, den: int) -> bool:
    """Whether the point k + r/den, with 0 <= r < den, lies in a closed
    removed part of every cell containing it."""
    digit = gen.scheduled_digit(k)
    if r == 0:
        # offset 1 in cell k-1 is always removed; cell k needs digit 0
        return digit == 0
    m = gen.m
    rm = r * m
    j = rm // den
    if j == digit or j == m - 1:
        return True
    # on the boundary of parts j-1 and j; part j-1 is never the top one
    return rm % den == 0 and j - 1 == digit


def certify_linear_escape_doubling(e, x_box: Interval, y_box: Interval, n_max: int, n_max_cap: int):
    """certify_linear_escape with n_max doubled, up to the cap, until the
    box certifies: the sweep's adaptive depth before it became one scan."""
    cert = certify_linear_escape(e, x_box, y_box, n_max)
    while cert.status != "certified" and n_max < n_max_cap:
        n_max = min(2 * n_max, n_max_cap)
        cert = certify_linear_escape(e, x_box, y_box, n_max)
    return cert


def reference_grid_slice(r: Interval, i: int, cells: int) -> Interval:
    """Slice i of r cut into `cells` equal slices, recomputed per call."""
    return Interval(r.lo + r.length * Fraction(i, cells), r.lo + r.length * Fraction(i + 1, cells))


def reference_normalize(items) -> tuple[Interval, ...]:
    """Canonical members of closed intervals given in any order, in
    Fraction arithmetic: sorted by ends, overlapping and touching
    members merged."""
    items = sorted(items, key=lambda iv: (iv.lo, iv.hi))
    out = items[:1]
    for iv in items[1:]:
        last = out[-1]
        if iv.lo <= last.hi:
            if iv.hi > last.hi:
                out[-1] = Interval(last.lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


def reference_union(*sets) -> tuple[Interval, ...]:
    """All members of every set (an IntervalSet or a member sequence),
    normalized together."""
    return reference_normalize([iv for s in sets for iv in s])


def reference_intersection(a, b) -> tuple[Interval, ...]:
    """Two-pointer merge of the members of two canonical inputs (an
    IntervalSet or a member sequence each) in Fraction arithmetic,
    normalizing its output."""
    out = []
    ai, bj = tuple(a), tuple(b)
    i = j = 0
    while i < len(ai) and j < len(bj):
        lo = max(ai[i].lo, bj[j].lo)
        hi = min(ai[i].hi, bj[j].hi)
        if lo <= hi:
            out.append(Interval(lo, hi))
        if ai[i].hi < bj[j].hi:
            i += 1
        else:
            j += 1
    return reference_normalize(out)


def reference_find_gap_containing(s: IntervalSet, iv: Interval) -> Optional[Gap]:
    """Bisection into the Fraction members: the only candidate is the
    gap right of the last member starting at or before iv.lo."""
    items = s.intervals
    i = bisect_right(items, iv.lo, key=attrgetter("lo")) - 1
    lo = items[i].hi if i >= 0 else None
    hi = items[i + 1].lo if i + 1 < len(items) else None
    if (lo is not None and not lo < iv.lo) or (hi is not None and not iv.hi < hi):
        return None
    return Gap(lo, hi)


def reference_measure(s: IntervalSet) -> Fraction:
    """Sum of the Fraction member lengths."""
    return sum((iv.length for iv in s.intervals), Fraction(0))


def reference_contains(s: IntervalSet, x: Fraction) -> bool:
    """Bisection into the Fraction members by their lo ends."""
    items = s.intervals
    i = bisect_right(items, x, key=attrgetter("lo")) - 1
    return i >= 0 and x <= items[i].hi


def reference_affine(s, lam: Fraction, t: Fraction) -> tuple[Interval, ...]:
    """Member-wise interval images of an IntervalSet or a member
    sequence, normalizing the image."""
    return reference_normalize(interval_image(iv, lam, t) for iv in s)


def reference_sumset_cover_probe(x_tree, family, lam, targets, depth) -> CoverageReport:
    """Coverage probe by Fraction bisection of (r - X)/lam into the
    member union; shares only the level sets with the library."""
    lam = Fraction(lam)
    level = min(depth, family.depth, reference_min_depth(x_tree))
    x_set = to_interval_set(x_tree, level)
    m_items = family.union_set(level).intervals
    m_los = [iv.lo for iv in m_items]
    records = []
    for raw in targets:
        r = Fraction(raw)
        witness = None
        best = None
        for xv in x_set:
            t_lo, t_hi = sorted(((r - xv.hi) / lam, (r - xv.lo) / lam))
            i = bisect_right(m_los, t_hi) - 1
            if i >= 0 and m_items[i].hi >= t_lo:
                witness = r - lam * max(t_lo, m_items[i].lo)
                break
            if i >= 0:
                d = (t_lo - m_items[i].hi) * abs(lam)
                best = d if best is None else min(best, d)
            if i + 1 < len(m_items):
                d = (m_items[i + 1].lo - t_hi) * abs(lam)
                best = d if best is None else min(best, d)
        if witness is not None:
            records.append(CoverageRecord(r, True, witness))
        else:
            records.append(CoverageRecord(r, False, None, best))
    return CoverageReport(lam, tuple(records))


class ReferenceAvoider:
    """The sublacunary avoider as the sorted merge of every level's
    punches; `interval_set()` reads the merged union.  It has the
    reading interface of `AvoiderResult`, so the CLI can be run on it."""

    log_json = AvoiderResult.log_json

    def __init__(self, levels, measure, lower_bound, union, dens):
        self.levels = tuple(levels)
        self.measure = measure
        self.lower_bound = lower_bound
        self._union = union
        self._dens = dens
        n = len(union[0])
        self.components = max(n - 1, 1) if n else 1

    def interval_set(self) -> IntervalSet:
        los, lo_lvl, his, hi_lvl = self._union
        if not los:
            return IntervalSet.of((0, 1))
        pieces = [
            Interval(Fraction(his[i], self._dens[hi_lvl[i]]),
                     Fraction(los[i + 1], self._dens[lo_lvl[i + 1]]))
            for i in range(len(los) - 1)
        ]
        return IntervalSet(pieces)


def reference_sublacunary_avoider(seq, levels: int, window: int = 1_000_000):
    """Every level's punches listed one by one and merged into the
    running union; shares only the level parameters with the library."""
    if levels < 0:
        raise InvalidParameterError("levels must be >= 0")
    records = []
    lattices = []
    prev_index = 0
    total_parts = 0
    for k in range(1, levels + 1):
        try:
            n, a, delta, parts = _level_parameters(seq, k, prev_index + 1, window)
        except NeedsLongerWindowError as exc:
            raise NeedsLongerWindowError(f"level {k}: {exc}", level=k) from exc
        prev_index = n
        total_parts += parts
        if total_parts > 20_000_000:
            raise ResourceLimitError(f"level {k} would need {total_parts} punches")
        removed, budget = parts * delta, Fraction(2, 4**k)
        if removed > budget:
            raise InvalidParameterError(f"level {k} removal exceeds its budget")
        records.append(AvoiderLevel(k, n, a, delta, parts, removed, budget))
        lattices.append((parts, delta / 2))

    # every level's parameters are checked before any punch is listed
    union = ([], [], [], [])  # lo_num, lo_lvl, hi_num, hi_lvl
    dens: list[int] = []
    for parts, half in lattices:
        p_num, q = half.numerator, half.denominator
        den = parts * q
        shift = p_num * parts
        los, his = [], []
        for j in range(parts + 1):
            lo = j * q - shift
            hi = j * q + shift
            los.append(lo if lo > 0 else 0)
            his.append(hi if hi < den else den)
        dens.append(den)
        union = _reference_merge_punches(union, (los, his), dens, len(dens) - 1)

    lower_bound = 1 - sum((Fraction(2, 4**k) for k in range(1, levels + 1)), Fraction(0))
    lo_num, lo_lvl, hi_num, hi_lvl = union
    per_level_hi = [0] * len(dens)
    per_level_lo = [0] * len(dens)
    for i in range(len(lo_num)):
        per_level_hi[hi_lvl[i]] += hi_num[i]
        per_level_lo[lo_lvl[i]] += lo_num[i]
    removed_total = Fraction(0)
    for lvl, den in enumerate(dens):
        removed_total += Fraction(per_level_hi[lvl] - per_level_lo[lvl], den)
    measure = 1 - removed_total
    if measure < lower_bound:
        raise ConstructionAuditError(f"measure {measure} fell below {lower_bound}")
    return ReferenceAvoider(records, measure, lower_bound, union, dens)


def _reference_merge_punches(union, level_punches, dens, lvl):
    """Sorted merge of the running punch union with one level's punches;
    endpoints compare by cross multiplication."""
    lo_num, lo_lvl, hi_num, hi_lvl = union
    los, his = level_punches
    den_new = dens[lvl]
    out_lo, out_lo_l, out_hi, out_hi_l = [], [], [], []
    i = j = 0
    na, nb = len(lo_num), len(los)
    cur = None  # [lo, lo_l, hi, hi_l]
    while i < na or j < nb:
        if i < na and (j >= nb or lo_num[i] * den_new <= los[j] * dens[lo_lvl[i]]):
            nxt = (lo_num[i], lo_lvl[i], hi_num[i], hi_lvl[i])
            i += 1
        else:
            nxt = (los[j], lvl, his[j], lvl)
            j += 1
        if cur is None:
            cur = list(nxt)
            continue
        if nxt[0] * dens[cur[3]] <= cur[2] * dens[nxt[1]]:  # touching: merge
            if nxt[2] * dens[cur[3]] > cur[2] * dens[nxt[3]]:
                cur[2], cur[3] = nxt[2], nxt[3]
        else:
            out_lo.append(cur[0])
            out_lo_l.append(cur[1])
            out_hi.append(cur[2])
            out_hi_l.append(cur[3])
            cur = list(nxt)
    if cur is not None:
        out_lo.append(cur[0])
        out_lo_l.append(cur[1])
        out_hi.append(cur[2])
        out_hi_l.append(cur[3])
    return out_lo, out_lo_l, out_hi, out_hi_l


def reference_punch_count(older, lattice) -> tuple[int, int]:
    """Interval count and net length of the union of the older intervals
    with one level's punches, by walking the clusters the way the merge
    builds them: an older interval [L, H] touches punches jlo..jhi, a
    punch shared with the previous interval bridges the two, and
    untouched punches count alone (clipped to half at 0 and parts)."""
    lo_num, hi_num = older
    parts, q, shift = lattice
    den = parts * q
    count = net = 0
    free = 0
    last_j = -1
    clo = chi = None
    n = len(lo_num)
    for i in range(n + 1):
        if i < n:
            lo, hi = lo_num[i], hi_num[i]
            jlo = (lo - shift + q - 1) // q
            jhi = (hi + shift) // q
        else:
            jlo = parts + 1
        if jlo != last_j:
            if clo is not None:
                count += 1
                net += chi - clo
            if free < jlo:
                count += jlo - free
                net += shift * (2 * (jlo - free) - (free == 0) - (jlo > parts))
            if i == n:
                break
            clo = lo
            if jlo <= jhi:
                p = jlo * q - shift
                if p < lo:
                    clo = p if p > 0 else 0
        chi = hi
        if jlo <= jhi:
            p = jhi * q + shift
            if p > hi:
                chi = p if p < den else den
        free = jhi + 1
        last_j = jhi
    return count, net


def reference_select_frame(lam, t) -> tuple[int, int]:
    """Frame selection on Fraction powers of two: n moves up while 2^n <
    |lam| and down while 2^(n-1) >= |lam|, then l = ceil(t/2^n) - 1."""
    lam, t = as_rational(lam), as_rational(t)
    a = abs(lam)
    n = a.numerator.bit_length() - a.denominator.bit_length()
    while Fraction(2) ** n < a:
        n += 1
    while Fraction(2) ** (n - 1) >= a:
        n -= 1
    return n, math.ceil(t / Fraction(2) ** n) - 1


def reference_smallest_point_at_least(e, t: Fraction) -> Optional[Fraction]:
    """Linear scan of the Fraction members for the first one reaching t."""
    for iv in e:
        if iv.hi >= t:
            return max(iv.lo, t)
    return None


def avoider_level_set(seq, k: int, window: int = 1_000_000) -> IntervalSet:
    """Single level E_k as an interval set (small k only; the number of
    components grows like k^3 4^k)."""
    n, a, delta, parts = _level_parameters(seq, k, k, window)
    half = delta / 2
    pieces = [
        Interval(Fraction(j, parts) + half, Fraction(j + 1, parts) - half)
        for j in range(parts)
    ]
    return IntervalSet(pieces)


def coefficient_mass(coeffs) -> Fraction:
    return sum((abs(c) for c in coeffs), Fraction(0))


def poly_mul(f, g) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def reference_min_mass_dp(f, allowed):
    """Exact min of sum |(f*g)_i| over g with per-position value sets,
    in Fraction arithmetic, copying each state's history."""
    df = len(f) - 1
    layers = allowed + [[Fraction(0)]] * df  # flush the trailing coefficients
    zero_state = (Fraction(0),) * df
    dp = {zero_state: (Fraction(0), ())}
    for values in layers:
        ndp = {}
        for state, (cost, hist) in dp.items():
            for g in values:
                c = f[0] * g
                for j in range(1, df + 1):
                    c += f[j] * state[df - j]
                ncost = cost + abs(c)
                nstate = state[1:] + (g,) if df else state
                prev = ndp.get(nstate)
                if prev is None or ncost < prev[0]:
                    ndp[nstate] = (ncost, hist + (g,))
        dp = ndp
    cost, hist = min(dp.values(), key=lambda t: t[0])
    return cost, hist[: len(allowed)]


def reference_ell_upper_bound(f_coeffs, max_deg, step, bound):
    """`ell_upper_bound`'s search over the same cofactor families, each
    solved by `reference_min_mass_dp`; returns (value, witness)."""
    f = [as_rational(c) for c in f_coeffs]
    while f and f[-1] == 0:
        f.pop()
    step, bound = as_rational(step), as_rational(bound)
    reach = floor_rational(bound / step)
    grid = [j * step for j in range(-reach, reach + 1)]
    one = [Fraction(1)]
    best = reference_min_mass_dp(f, [one] + [grid] * max_deg)
    for m in range(max_deg + 1):
        cand = reference_min_mass_dp(f, [grid] * m + [one])
        if cand[0] < best[0]:
            best = cand
    return best


@st.composite
def audit_sweeps(draw):
    """Digit sweeps for the range audit: m in {3, 4, 5}, an x sub-range of
    [0, 1], a y range that straddles 1/m or starts tiny, and a grid of at
    most 3x3 boxes."""
    m = draw(st.sampled_from([3, 4, 5]))
    xs = sorted(draw(st.fractions(0, 1, max_denominator=12)) for _ in range(2))
    y_lo = draw(st.one_of(
        st.sampled_from([Fraction(1, 1000), Fraction(1, 2048), Fraction(2, 4097), Fraction(1, m)]),
        st.fractions(min_value=Fraction(1, 3 * m), max_value=Fraction(2, m), max_denominator=4 * m),
    ))
    y_hi = y_lo + draw(st.fractions(min_value=0, max_value=10, max_denominator=8))
    grid = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    return m, Interval(*xs), Interval(y_lo, y_hi), grid
