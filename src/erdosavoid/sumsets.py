"""Dyadic families of scaled Cantor translates and coverage probes.

The family members 2^n (K + l) tile all scales and positions: an affine
copy lam*X + t selects the unique frame (n, l) with |lam| in
(2^(n-1), 2^n] and t in (l 2^n, (l+1) 2^n], and the thickness gap
lemma applies to the pair whenever the thickness product clears 1 and
neither hull hides inside a gap of the other, the two unbounded gaps
included: disjoint hulls are not applicable.  Whether the lemma's
conditions hold and whether a common point is exhibited at finite depth
are reported separately: the first is a verified hypothesis, the second
a constructive witness.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import InvalidParameterError
from .gaptree import (
    GapTree,
    affine_tree,
    from_middle_ratio,
    thickness,
    thickness_product_at_least_one,
    to_interval_set,
)
from .intersect import (
    REASON_K1_IN_GAP,
    REASON_K2_IN_GAP,
    REASON_OK,
    REASON_THIN,
    GapLemmaVerdict,
    _all_gaps,
    _in_some_gap,
)
from .intervals import IntervalSet
from .rationals import RationalLike, as_rational


class DyadicFamily:
    """Members 2^n (K + l) of a middle-ratio base K; only K is stored and
    members are its images under x -> 2^n x + 2^n l."""

    def __init__(
        self,
        n_ratio: int,
        depth: int,
        n_range: tuple[int, int],
        l_range: tuple[int, int],
    ):
        if n_range[0] > n_range[1] or l_range[0] > l_range[1]:
            raise InvalidParameterError("ranges must be nonempty")
        self.n_ratio = n_ratio
        self.depth = depth
        self.n_range = n_range
        self.l_range = l_range
        self.base = from_middle_ratio(n_ratio, depth)
        self._union: dict[int, IntervalSet] = {}

    def frames(self) -> list[tuple[int, int]]:
        return [
            (n, l)
            for n in range(self.n_range[0], self.n_range[1] + 1)
            for l in range(self.l_range[0], self.l_range[1] + 1)
        ]

    def in_range(self, frame: tuple[int, int]) -> bool:
        n, l = frame
        return (
            self.n_range[0] <= n <= self.n_range[1]
            and self.l_range[0] <= l <= self.l_range[1]
        )

    def member(self, n: int, l: int) -> GapTree:
        return affine_tree(self.base, *_frame_map(n, l))

    def union_set(self, level: Optional[int] = None) -> IntervalSet:
        """All members at a level as one union of frame images, cached per level."""
        level = self.depth if level is None else level
        if level not in self._union:
            base = to_interval_set(self.base, level)
            self._union[level] = IntervalSet().union(
                *(base.affine(*_frame_map(n, l)) for n, l in self.frames())
            )
        return self._union[level]

    def level_measure(self, level: int) -> Fraction:
        """Total member measure at a level: the measure-zero surrogate,
        monotone decreasing in the level."""
        per_unit = Fraction(2 * self.n_ratio, 2 * self.n_ratio + 1) ** level
        total = Fraction(0)
        width = self.l_range[1] - self.l_range[0] + 1
        for n in range(self.n_range[0], self.n_range[1] + 1):
            total += Fraction(2) ** n * per_unit * width
        return total

    def describe(self) -> dict:
        return {
            "middle_ratio": self.n_ratio,
            "depth": self.depth,
            "n_range": list(self.n_range),
            "l_range": list(self.l_range),
        }


def build_dyadic_family(
    n_ratio: int,
    depth: int,
    n_range: tuple[int, int],
    l_range: tuple[int, int],
) -> DyadicFamily:
    return DyadicFamily(n_ratio, depth, n_range, l_range)


def select_frame(lam: RationalLike, t: RationalLike) -> tuple[int, int]:
    """Unique (n, l) with |lam| in (2^(n-1), 2^n] and t in (l 2^n, (l+1) 2^n].

    On integers: with |lam| = p/q, n = bitlen(p) - bitlen(q) already has
    2^(n-1) < |lam| < 2^(n+1), so one shift compare of p against q*2^n
    decides between n and n + 1.  Then l = ceil(t/2^n) - 1 =
    floor((r*2^-n - 1)/s) for t = r/s, with 2^n moved to whichever side
    keeps each shift nonnegative.
    """
    lam = as_rational(lam)
    t = as_rational(t)
    if lam == 0:
        raise InvalidParameterError("frame selection needs a nonzero scale")
    p, q = abs(lam.numerator), lam.denominator
    n = p.bit_length() - q.bit_length()
    if p << max(-n, 0) > q << max(n, 0):  # |lam| > 2^n
        n += 1
    return n, ((t.numerator << max(-n, 0)) - 1) // (t.denominator << max(n, 0))


def _pow2(n: int) -> Fraction:
    return Fraction(2**n) if n >= 0 else Fraction(1, 2**-n)


def _frame_map(n: int, l: int) -> tuple[Fraction, Fraction]:
    """Scale and shift of the map x -> 2^n x + 2^n l onto frame (n, l)."""
    scale = _pow2(n)
    return scale, scale * l


class FrameTrace(NamedTuple):
    """Outcome of one framed intersection attempt at the parameter (lam, t)."""

    lam: Fraction
    t: Fraction
    frame: tuple[int, int]
    status: str  # "certified" | "applicable_unwitnessed" | "not_applicable"
    verdict: GapLemmaVerdict
    witness: Optional[Fraction] = None


class FrameCertifier:
    """Reusable certifier for parameter sweeps, working on the level
    arrays of X's tree and of the family base alone.

    Every member is an affine image of the family base and every check
    commutes with affine maps, so the base analyses (thickness, the gaps
    of both trees as integer (length, lo, hi) numerator triples sorted
    by decreasing length, the deepest level both trees reach) are
    computed once.  Per point, the map lam*x + t on X and the frame map on
    the base become integer (scale, shift) pairs over one common
    denominator, and the checks and the descent run on numerators.  No
    member tree, member level set or node is built on the certification
    path.
    """

    def __init__(self, x_tree: GapTree, family: DyadicFamily):
        self.x_tree = x_tree
        self.family = family
        self.max_depth = min(x_tree.min_depth(), family.depth)
        self.x_thick = thickness(x_tree)
        self.base_thick = thickness(family.base)
        self._thick_enough = thickness_product_at_least_one(self.x_thick, self.base_thick)
        self._x, self._base = x_tree._rows, family.base._rows
        self.x_gaps_desc = _all_gaps(x_tree)
        self.base_gaps_desc = _all_gaps(family.base)

    def _maps(self, lam: Fraction, t: Fraction, frame: tuple[int, int]):
        """(D, sx, hx, sb, hb): X's numerator a maps to (a*sx + hx)/D under
        x -> lam*x + t, and the base's numerator b to (b*sb + hb)/D under
        the frame map x -> 2^n x + 2^n l."""
        n, l = frame
        e, f = (1 << n, 1) if n >= 0 else (1, 1 << -n)
        p, q, r, s = lam.numerator, lam.denominator, t.numerator, t.denominator
        dx, db = self._x.den, self._base.den
        # lam*a/dx + r/s = (p*s*a + r*q*dx)/(q*s*dx); 2^n (b/db + l) = e*(b + l*db)/(f*db)
        qsd, fdb = q * s * dx, f * db
        return qsd * fdb, p * s * fdb, r * q * dx * fdb, e * qsd, e * l * db * qsd

    def corner_verdict(
        self, frame: tuple[int, int], lam: Fraction, t: Fraction
    ) -> GapLemmaVerdict:
        """Gap-lemma verdict for lam*X + t against the framed member.

        Thickness is affine-invariant and the hull/gap comparisons
        commute with the affine maps, so both trees stay unmaterialized.
        Disjoint hulls are not applicable: each lies in an unbounded gap
        of the other.  `_in_some_gap` scans the bounded gaps on
        numerators over the common denominator of `_maps`.  Agrees with
        check_gap_lemma on materialized trees.
        """
        if not self._thick_enough:
            return GapLemmaVerdict(False, REASON_THIN, self.x_thick, self.base_thick)
        _, sx, hx, sb, hb = self._maps(lam, t, frame)
        x, base = self._x, self._base
        a0, a1 = sorted((x.los[0][0] * sx + hx, x.his[0][0] * sx + hx))
        b0, b1 = base.los[0][0] * sb + hb, base.his[0][0] * sb + hb
        # hulls wholly beside each other: X lies in an unbounded gap of the member
        if a1 < b0 or b1 < a0 or _in_some_gap(self.base_gaps_desc, sb, hb, a0, a1):
            return GapLemmaVerdict(False, REASON_K1_IN_GAP, self.x_thick, self.base_thick)
        if _in_some_gap(self.x_gaps_desc, sx, hx, b0, b1):
            return GapLemmaVerdict(False, REASON_K2_IN_GAP, self.x_thick, self.base_thick)
        return GapLemmaVerdict(True, REASON_OK, self.x_thick, self.base_thick)

    def find_common_point(
        self, lam: Fraction, t: Fraction, frame: tuple[int, int], depth: int
    ) -> Optional[Fraction]:
        """Leftmost common point of the level sets of lam*X + t and the
        framed member at `depth` (clamped to the depth both trees
        reach), or None when the level sets are disjoint.

        Synchronized descent through node index pairs (d, i, j) with both
        maps applied to the numerators on the fly; pairs whose hulls are
        disjoint are pruned.  Every level down to `max_depth` is full, so
        node i's children are 2i and 2i + 1.  The children of a node are
        disjoint and visited left to right (the X children swap when
        lam < 0), so every common point under an earlier pair lies left
        of every common point under a later one, and the first hit is
        the leftmost point of the exact level-set intersection.  At each
        level at most n_a + n_b - 1 of the pairs overlap, n_a and n_b
        being the node counts there.  The witness is built once.
        """
        if depth < 0:
            raise InvalidParameterError("depth must be >= 0")
        depth = min(depth, self.max_depth)
        den, sx, hx, sb, hb = self._maps(lam, t, frame)
        # the lower end of X's image is the mapped lo, or hi when lam < 0
        x_lo, x_hi = (self._x.los, self._x.his) if sx > 0 else (self._x.his, self._x.los)
        order = (0, 1) if sx > 0 else (1, 0)
        b_lo, b_hi = self._base.los, self._base.his

        def dfs(d: int, i: int, j: int) -> Optional[int]:
            a0, a1 = x_lo[d][i] * sx + hx, x_hi[d][i] * sx + hx
            b0, b1 = b_lo[d][j] * sb + hb, b_hi[d][j] * sb + hb
            if a1 < b0 or b1 < a0:
                return None
            if d == depth:
                return max(a0, b0)
            for ic in order:
                for jc in (0, 1):
                    hit = dfs(d + 1, 2 * i + ic, 2 * j + jc)
                    if hit is not None:
                        return hit
            return None

        hit = dfs(0, 0, 0)
        return None if hit is None else Fraction(hit, den)

    def certify(self, lam: Fraction, t: Fraction, depth: int) -> FrameTrace:
        """Frame the affine copy lam*X + t against the family and try to meet it.

        The gap-lemma verdict is taken against the selected member, and a
        constructive common point is sought by exact descent through the
        level sets.  Certified traces carry an exact common point;
        applicable-but-unwitnessed means the hypotheses hold but this
        depth exhibited no common component.
        """
        frame = select_frame(lam, t)
        if not self.family.in_range(frame):
            raise InvalidParameterError(f"frame {frame} outside the family ranges")
        verdict = self.corner_verdict(frame, lam, t)
        if not verdict.applicable:
            return FrameTrace(lam, t, frame, "not_applicable", verdict)
        witness = self.find_common_point(lam, t, frame, depth)
        status = "applicable_unwitnessed" if witness is None else "certified"
        return FrameTrace(lam, t, frame, status, verdict, witness)


# ---------------------------------------------------------------------------
# sumset coverage


class CoverageRecord(NamedTuple):
    target: Fraction
    covered: bool
    witness: Optional[Fraction] = None
    nearest_miss: Optional[Fraction] = None


class CoverageReport(NamedTuple):
    """Per-target hits of X + lam * (family members) at finite depth."""

    lam: Fraction
    records: tuple[CoverageRecord, ...]

    @property
    def certified(self) -> int:
        return sum(r.covered for r in self.records)


def sumset_cover_probe(
    x_tree: GapTree,
    family: DyadicFamily,
    lam: RationalLike,
    targets: Sequence[RationalLike],
    depth: int,
) -> CoverageReport:
    """Check which targets are hit by X + lam*M at a finite level.

    A target r is covered exactly when (r - lam*M) meets the level set
    of X, i.e. when some member interval meets T = (r - X)/lam; the check
    walks the X components with a binary search into the member union,
    so no affine image is materialized per target.  A target whose hull
    of T lies in one gap of the union is decided by one bisection of
    that hull, since every component then has the same nearest gap ends.
    The witness is an exact common point; misses report their
    nearest-miss distance.

    Everything runs on the lattice views of the two level sets.  With
    lam = p/q and r = a/b, the ends of T over den_t = b*den_x*|p| have
    numerators sign(p)*q*(a*den_x - n*b) for the X endpoints n/den_x, so
    every comparison with a member endpoint m/den_m cross-multiplies and
    the distances are compared as numerators over den_t*den_m.
    """
    lam = as_rational(lam)
    if lam == 0:
        raise InvalidParameterError("coverage probes need a nonzero scale")
    level = min(depth, family.depth, x_tree.min_depth())
    den_x, x_los, x_his = to_interval_set(x_tree, level)._lattice()
    den_m, m_los, m_his = family.union_set(level)._lattice()
    p, q = lam.numerator, lam.denominator
    sign = 1 if p > 0 else -1
    # the X endpoints whose images are the lower and the upper end of T
    ends = list(zip(x_his, x_los) if p > 0 else zip(x_los, x_his))
    records = []
    for raw in targets:
        r = as_rational(raw)
        den_t = r.denominator * den_x * abs(p)
        base = sign * q * r.numerator * den_x
        step = sign * q * r.denominator
        witness = None
        best: Optional[int] = None
        # T's hull runs between the images of X's two outermost ends; when
        # it lies in one gap of the union, every component misses and the
        # gap's ends give the nearest miss of them all
        h_lo, h_hi = sorted((base - x_los[0] * step, base - x_his[-1] * step))
        i = bisect_right(m_los, h_hi * den_m // den_t) - 1
        if i < 0 or m_his[i] * den_t < h_lo * den_m:
            sides = [h_lo * den_m - m_his[i] * den_t] if i >= 0 else []
            if i + 1 < len(m_los):
                sides.append(m_los[i + 1] * den_t - h_hi * den_m)
            best = min(sides, default=None)
        else:
            for n_lo, n_hi in ends:
                t_lo = base - n_lo * step
                t_hi = base - n_hi * step
                # last member with m_lo <= t_hi, as m_lo is an integer numerator
                i = bisect_right(m_los, t_hi * den_m // den_t) - 1
                if i >= 0:
                    d = t_lo * den_m - m_his[i] * den_t
                    if d <= 0:
                        mm = max(t_lo * den_m, m_los[i] * den_t)
                        witness = r - lam * Fraction(mm, den_t * den_m)
                        break
                    best = d if best is None else min(best, d)
                if i + 1 < len(m_los):
                    d = m_los[i + 1] * den_t - t_hi * den_m
                    best = d if best is None else min(best, d)
        if witness is not None:
            records.append(CoverageRecord(r, True, witness))
        else:
            miss = None if best is None else Fraction(best, den_t * den_m) * abs(lam)
            records.append(CoverageRecord(r, False, None, miss))
    return CoverageReport(lam, tuple(records))


def escape_to_coverage_params(
    lam_prime: RationalLike, t: RationalLike
) -> tuple[Fraction, Fraction]:
    """Translate escape parameters into the equivalent coverage probe.

    If (lam' X + t) misses M, then the target -t/lam' is not covered by
    X + (-1/lam') M, and conversely; the two probes must always agree.
    """
    lam_prime = as_rational(lam_prime)
    t = as_rational(t)
    if lam_prime == 0:
        raise InvalidParameterError("escape parameters need a nonzero scale")
    return Fraction(-1, 1) / lam_prime, -t / lam_prime
