"""Constructions for decreasing sequences near a density point.

Covers the punched-interval avoider for slowly decreasing sequences,
finite-box escape certification, the piecewise-linear embedder for
quickly decreasing sequences, and the slow-decay statistic.

The avoider is built to a finite level K; escape from it is therefore
witnessed per parameter box (certified) or left inconclusive, never
asserted globally.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .errors import (
    ConstructionAuditError,
    DensityPointViolationError,
    InvalidParameterError,
    NeedsLongerWindowError,
    ResourceLimitError,
)
from .intervals import Frozen, Gap, Grid, Interval, IntervalSet, ParamBox, box_image
from .rationals import RationalLike, as_rational, ceil_rational, format_rational
from .sequences import DOWN, SequenceSpec


class AvoiderLevel(NamedTuple):
    """Construction record for one punch level."""

    k: int
    index: int
    term: Fraction
    delta: Fraction  # punch width k * (a_n - a_{n+1})
    parts: int  # number of kept components of this level alone
    removed: Fraction  # parts * delta, the level's removal budget
    budget: Fraction  # 2 * 4**-k

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "index": self.index,
            "term": format_rational(self.term),
            "delta": format_rational(self.delta),
            "parts": self.parts,
            "removed": format_rational(self.removed),
            "budget": format_rational(self.budget),
        }


class AvoiderResult:
    """Finite-level avoider: exact measure, component count and
    construction log.

    The build lists the punch union of levels 1..K-2 and only counts the
    last two levels.  It keeps that union and the last two levels'
    lattices, and `interval_set()` punches both on first read (high
    levels produce hundreds of thousands of components)."""

    def __init__(self, levels, measure, lower_bound, components, den, older, lattices):
        self.levels: tuple[AvoiderLevel, ...] = tuple(levels)
        self.measure: Fraction = measure
        self.lower_bound: Fraction = lower_bound
        self.components: int = components
        self._den = den  # the one denominator of every level's punches
        self._older = older  # punch union of levels 1..K-2
        self._lattices = lattices  # (parts, q, shift) of levels K-1 and K, if they exist
        self._set: Optional[IntervalSet] = None

    def interval_set(self) -> IntervalSet:
        """The avoider as a lattice-view set over the punch denominator:
        the closed gaps between consecutive intervals of the punch union."""
        if self._set is None:
            if not self._lattices:
                self._set = IntervalSet.of((0, 1))
            else:
                los, his = reduce(_punch_level, self._lattices, self._older)
                self._set = IntervalSet._from_lattice(self._den, his[:-1], los[1:])
        return self._set

    def log_json(self) -> dict:
        return {
            "levels": [lvl.to_json() for lvl in self.levels],
            "measure": format_rational(self.measure),
            "lower_bound": format_rational(self.lower_bound),
            "components": self.components,
        }


def _level_parameters(seq: SequenceSpec, k: int, start: int, window: int):
    bound = Fraction(1, k * k * 4**k)
    n = seq.first_index_with_ratio_at_most(bound, start=start, window=window)
    a = seq.term(n)
    while a > k:  # ceil(k/a) < 2k/a needs k/a >= 1
        n = seq.first_index_with_ratio_at_most(bound, start=n + 1, window=window)
        a = seq.term(n)
    delta = k * (a - seq.term(n + 1))
    parts = ceil_rational(Fraction(k) / a)
    return n, a, delta, parts


def build_sublacunary_avoider(
    seq: SequenceSpec, levels: int, window: int = 1_000_000
) -> AvoiderResult:
    """Intersection of K punched-interval levels inside [0, 1].

    Level k picks an index n_k with difference ratio at most
    1/(k^2 4^k), removes punches of width delta_k = k(a_{n_k} -
    a_{n_k + 1}) around the lattice j/parts_k, and the removal budget
    parts_k * delta_k stays below 2*4^-k, so the intersection keeps
    measure at least 1 - sum_k 2*4^-k > 1/3.

    The avoider is counted on the punch lattice.  Every level shares one
    denominator den, the lcm over k of lcm(parts_k, den(delta_k/2)), so
    level k's punch j is [j*q_k - s_k, j*q_k + s_k] over den and floor
    division tells which punches each interval of the older union
    touches.  The union of levels 1..K-2 is listed as two lists of
    integer numerators (`_punch_level`).  Levels K-1 and K are counted
    in one walk over that union (`_count_last_two`), which gives the
    exact measure and component count without listing the union of
    levels 1..K-1; a single level is counted in closed form.
    `interval_set()` punches the last two levels on first read and hands
    the gaps of the union to `IntervalSet` as a lattice view.
    """
    if seq.direction != DOWN:
        raise InvalidParameterError("the avoider is built for decreasing sequences")
    if levels < 0:
        raise InvalidParameterError("levels must be >= 0")

    level_records = []
    halves = []
    prev_index = 0
    total_parts = 0
    for k in range(1, levels + 1):
        try:
            n, a, delta, parts = _level_parameters(seq, k, prev_index + 1, window)
        except NeedsLongerWindowError as exc:
            raise NeedsLongerWindowError(
                f"level {k}: {exc}", level=k
            ) from exc
        prev_index = n
        total_parts += parts
        if total_parts > 20_000_000:  # punch count grows like k^3 4^k
            raise ResourceLimitError(
                f"level {k} would need {total_parts} punches; lower the level count"
            )
        removed = parts * delta
        budget = Fraction(2, 4**k)
        if removed > budget:
            raise InvalidParameterError(
                f"level {k} removal {removed} exceeds its budget {budget}"
            )
        level_records.append(AvoiderLevel(k, n, a, delta, parts, removed, budget))
        halves.append((parts, delta / 2))

    lower_bound = 1 - sum((Fraction(2, 4**k) for k in range(1, levels + 1)), Fraction(0))
    den = lcm(*(lcm(parts, half.denominator) for parts, half in halves))
    lattices = [
        (parts, den // parts, half.numerator * (den // half.denominator))
        for parts, half in halves
    ]
    older = reduce(_punch_level, lattices[:-2], ([], []))  # lo and hi numerators over den
    last = tuple(lattices[-2:])
    if not last:
        return AvoiderResult(level_records, Fraction(1), lower_bound, 1, den, older, last)
    if len(last) == 1:  # one level alone: parts + 1 punches, two of them clipped to half
        parts, _, shift = last[0]
        count, net = parts + 1, 2 * shift * parts
    else:
        count, net = _count_last_two(older, *last)
    measure = 1 - Fraction(net, den)
    if measure < lower_bound:
        raise ConstructionAuditError(
            f"measure {measure} fell below the removal bound {lower_bound}"
        )
    return AvoiderResult(
        level_records, measure, lower_bound, max(count - 1, 1), den, older, last
    )


def _walk(older, lattice):
    """The union of the older punch union with one level's punches, as
    pieces in order: `(lo, hi, False)` is an interval, and `(a, b,
    True)` the run of punches a..b-1 that no older interval touches.

    Endpoints are integer numerators over den = parts*q, the one
    denominator of every level.  Punch j is [j*q - shift, j*q + shift],
    clipped to [0, den].  An older interval [L, H] touches exactly the
    punches jlo..jhi with jlo = ceil((L - shift)/q) and jhi =
    floor((H + shift)/q), so one pass over the older union places every
    punch.  Two punches of one level never touch (parts*delta < 1), so
    consecutive older intervals share at most one punch, which bridges
    them into one cluster; a cluster comes out as an interval.  Punches
    0 and parts are clipped to half and always come out as intervals, so
    every punch of a run is whole.
    """
    lo_num, hi_num = older
    parts, q, shift = lattice
    den = parts * q
    free = 0  # the first punch not yet placed
    last_j = -1  # the last punch the open cluster touches
    clo = chi = None  # the open cluster
    n = len(lo_num)
    for i in range(n + 1):
        if i < n:
            lo, hi = lo_num[i], hi_num[i]
            jlo = (lo - shift + q - 1) // q
            jhi = (hi + shift) // q
        else:  # past the last punch: close the open cluster, place the rest
            jlo = parts + 1
        if jlo != last_j:
            if clo is not None:
                yield clo, chi, False
            if free < jlo:  # untouched punches free..jlo-1
                if free == 0:
                    yield 0, shift, False
                    free = 1
                end = min(jlo, parts)
                if free < end:
                    yield free, end, True
                if jlo > parts:
                    yield den - shift, den, False
            if i == n:
                break
            clo = lo
            if jlo <= jhi:
                p = jlo * q - shift
                if p < lo:
                    clo = p if p > 0 else 0
        # else: punch jlo = last_j bridges this interval into the open cluster
        chi = hi
        if jlo <= jhi:
            p = jhi * q + shift
            if p > hi:
                chi = p if p < den else den
        free = jhi + 1
        last_j = jhi


def _punch_level(older, lattice):
    """The union of the older punch union with one level's punches: the
    lists of lo and hi numerators of `_walk`'s pieces, runs listed."""
    _, q, shift = lattice
    los, his = [], []
    for x, y, run in _walk(older, lattice):
        if run:
            los.extend(range(x * q - shift, y * q - shift, q))
            his.extend(range(x * q + shift, y * q + shift, q))
        else:
            los.append(x)
            his.append(y)
    return los, his


def _touches(los, his, lattice):
    """Running totals over the intervals [lo, hi] of a union the
    lattice's punches are merged into: entry i of the first list counts
    the punches that intervals 0..i-1 touch, and entry i of the second
    sums how far those punches stick out past lo and hi (taken
    unclipped)."""
    _, q, shift = lattice
    touches, trims = [0], [0]
    c = t = 0
    for lo, hi in zip(los, his):
        jlo = (lo - shift + q - 1) // q
        jhi = (hi + shift) // q
        if jlo <= jhi:
            c += jhi - jlo + 1
            a = jlo * q - shift
            if lo > a:
                t += lo - a
            b = jhi * q + shift
            if b > hi:
                t += b - hi
        touches.append(c)
        trims.append(t)
    return touches, trims


def _count_last_two(older, upper, lattice) -> tuple[int, int]:
    """Interval count and net length (sum of hi minus lo numerators) of
    the union of `older` with the punches of lattice `upper` and then
    with those of `lattice`, in one walk of `(older, upper)`; the middle
    union is never listed.

    Older intervals are separated by gaps of positive length and two
    punches of one level never touch, so every point of [0, den] lies in
    at most one interval of the middle union and one punch of `lattice`,
    and the graph joining each interval to the punches it touches is a
    forest.  Its components are the final union's intervals: count =
    (middle intervals) + parts + 1 minus the number of touches.  The
    punches cover 2*shift*parts after clipping, and an interval meets
    the c punches it touches in c*2*shift less what they stick out past
    it (`_touches`); net is the middle length plus the punch length less
    those overlaps.

    A cluster of the walk is counted by that rule.  A run a..b-1 of
    whole punches of `upper` = (parts1, q1, s1) adds b - a intervals
    and (b - a)*2*s1 of length.  Punch j is [j*q1 - s1, j*q1 + s1];
    shifting it by a multiple of q shifts the punches it touches along
    with it, so its touches and trims depend only on j*q1 mod q, that is
    on j mod P with P = q/gcd(q1, q) = parts1/gcd(parts1, parts) <=
    parts1.  Prefix sums over j = 0..P-1 then give any run's sums in
    O(1): whole periods from the last entry, the rest by difference.
    """
    parts1, q1, s1 = upper
    parts, _, shift = lattice
    period = parts1 // gcd(parts1, parts)
    tt, rr = _touches(
        range(-s1, period * q1 - s1, q1), range(s1, period * q1 + s1, q1), lattice
    )
    t_full, r_full = tt[period], rr[period]
    clos, chis = [], []
    punches = touches = trim = 0
    for x, y, run in _walk(older, upper):
        if run:
            punches += y - x
            full = y // period - x // period
            x, y = x % period, y % period
            touches += full * t_full + tt[y] - tt[x]
            trim += full * r_full + rr[y] - rr[x]
        else:
            clos.append(x)
            chis.append(y)
    cluster_touches, cluster_trims = _touches(clos, chis, lattice)
    touches += cluster_touches[-1]
    trim += cluster_trims[-1]
    count = len(clos) + punches + parts + 1 - touches
    net = sum(chis) - sum(clos) + 2 * s1 * punches + 2 * shift * (parts - touches) + trim
    return count, net


# ---------------------------------------------------------------------------
# escape certification


class EscapeCertificate(NamedTuple):
    """Finite witness that a whole parameter box leaves the set: the
    box image of one sequence term sits strictly inside one complement
    component."""

    box: ParamBox
    status: str  # "certified" | "inconclusive"
    witness_index: Optional[int] = None
    witness_gap: Optional[Gap] = None


def certify_no_affine_copy(
    e: IntervalSet,
    seq: SequenceSpec,
    boxes: Sequence[ParamBox],
    max_n: int,
) -> list[EscapeCertificate]:
    """Scan n <= max_n per box for an image interval inside a gap of e.

    A certificate is sound for every parameter in its box; boxes with
    no witness at this depth are reported inconclusive, which is not a
    disproof.
    """
    if max_n < 1:
        raise InvalidParameterError("the scan depth max_n must be at least 1")
    out = []
    for box in boxes:
        cert = EscapeCertificate(box, "inconclusive")
        for n in range(1, max_n + 1):
            img = box_image(seq.term(n), box)
            gap = e.find_gap_containing(img)
            if gap is not None:
                cert = EscapeCertificate(box, "certified", n, gap)
                break
        out.append(cert)
    return out


def grid_boxes(
    lam_range: Interval, t_range: Interval, lam_cells: int, t_cells: int
) -> list[ParamBox]:
    """Closed cell decomposition of a parameter rectangle."""
    return [ParamBox(lam, t) for lam, t in Grid(lam_range, t_range, lam_cells, t_cells)]


# ---------------------------------------------------------------------------
# bi-Lipschitz embedding


class PiecewiseLinearMap(Frozen):
    """Increasing piecewise-linear map given by two or more breakpoints.

    Strictly increasing breakpoints make every slope positive; `slopes()`
    lists them.  Outside the breakpoint span the map continues with
    slope 1.
    """

    __slots__ = _fields = ("points",)

    def __init__(self, points: tuple[tuple[Fraction, Fraction], ...]):
        if len(points) < 2:
            raise InvalidParameterError("a piecewise-linear map needs at least two breakpoints")
        for (x1, y1), (x2, y2) in zip(points, points[1:]):
            if not (x1 < x2 and y1 < y2):
                raise InvalidParameterError("breakpoints must strictly increase")
        object.__setattr__(self, "points", points)

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1] - (pts[0][0] - x)
        if x >= pts[-1][0]:
            return pts[-1][1] + (x - pts[-1][0])
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x1, y1), (x2, y2) = pts[lo], pts[hi]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    def slopes(self) -> list[Fraction]:
        return [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(self.points, self.points[1:])
        ]


def embed_lacunary(
    seq: SequenceSpec,
    e: IntervalSet,
    eta: RationalLike,
    max_n: int = 40,
) -> PiecewiseLinearMap:
    """Piecewise-linear embedding of a quickly decreasing sequence.

    For each n the image point is the largest point of e inside
    [eta*a_n, a_n]; with ratio bound delta = sup a_{n+1}/a_n and
    eta in (delta, 1) every such segment slope lies in
    [(eta - delta)/(1 - delta), (1 - eta*delta)/(1 - delta)].
    """
    eta = as_rational(eta)
    if seq.direction != DOWN:
        raise InvalidParameterError("embedding applies to decreasing sequences")
    if max_n < 1:
        raise InvalidParameterError("the scan depth max_n must be at least 1")
    _check_slope_window(eta, max(seq.term(n + 1) / seq.term(n) for n in range(1, max_n + 1)))

    probes: list[Optional[Fraction]] = [None]  # 1-indexed
    miss_after = 0
    for n in range(1, max_n + 1):
        a = seq.term(n)
        window = IntervalSet.of((eta * a, a))
        hit = e.intersection(window)
        if not hit:
            probes.append(None)
            miss_after = n
            continue
        probes.append(_sup(hit))
    if probes[max_n] is None:
        raise DensityPointViolationError(
            max_n, f"window [eta*a_n, a_n] misses the set at n = {max_n}"
        )
    n0 = miss_after + 1

    points = []
    for n in range(max_n, n0 - 1, -1):
        points.append((seq.term(n), probes[n]))
    # indices below n0: values from e above a_{n0}, decreasing in n
    if n0 > 1:
        floor_val = points[-1][1]
        ceiling = _sup(e)
        if ceiling <= floor_val:
            raise DensityPointViolationError(
                n0 - 1, "no room in the set above the embedded tail"
            )
        spacing = (ceiling - floor_val) / n0
        prev = floor_val
        head = []
        for n in range(n0 - 1, 0, -1):
            target = max(prev + spacing / 2, seq.term(n0) + (n0 - n) * spacing)
            pick = _smallest_point_at_least(e, target)
            if pick is None or pick <= prev:
                raise DensityPointViolationError(
                    n, f"no point of the set above {prev} for index {n}"
                )
            head.append((seq.term(n), pick))
            prev = pick
        points.extend(head)
    if e.contains(0):
        points.insert(0, (Fraction(0), Fraction(0)))
    return PiecewiseLinearMap(tuple(points))


def _sup(e: IntervalSet) -> Fraction:
    """The largest point of a nonempty set, read on its lattice view."""
    den, _, his = e._lattice()
    return Fraction(his[-1], den)


def _smallest_point_at_least(e: IntervalSet, t: Fraction) -> Optional[Fraction]:
    den, los, his = e._lattice()
    # the first member with hi >= t, i.e. with hi >= ceil(t*den)
    i = bisect_left(his, -(-t.numerator * den // t.denominator))
    return max(Fraction(los[i], den), t) if i < len(his) else None


def slope_envelope(eta: RationalLike, delta: RationalLike) -> tuple[Fraction, Fraction]:
    """The guaranteed slope window [(eta-delta)/(1-delta), (1-eta*delta)/(1-delta)]
    of a window floor eta over a ratio bound delta, 0 < delta < eta < 1."""
    eta, delta = as_rational(eta), as_rational(delta)
    _check_slope_window(eta, delta)
    return (eta - delta) / (1 - delta), (1 - eta * delta) / (1 - delta)


def _check_slope_window(eta: Fraction, delta: Fraction) -> None:
    """Refuse a window floor eta and ratio bound delta unless 0 < delta < eta < 1."""
    if not 0 < delta < eta < 1:
        raise InvalidParameterError(f"need 0 < delta < eta < 1, got delta = {delta}, eta = {eta}")


# ---------------------------------------------------------------------------
# slow-decay statistic


def kolountzakis_delta(
    seq: SequenceSpec, n: int, bits: int = 64
) -> tuple[Fraction, Interval]:
    """Slow-decay statistic over the first n terms.

    Returns the exact minimum normalized difference
    min_i (a_i - a_{i+1}) / a_1 together with a rational enclosure of
    -log(delta)/n for trend plots; slow decay keeps the score near 0.
    """
    if n < 2:
        raise InvalidParameterError("need at least two terms")
    a1 = seq.term(1)
    delta = min((seq.term(i) - seq.term(i + 1)) / a1 for i in range(1, n))
    if delta <= 0:
        raise InvalidParameterError("sequence is not strictly decreasing")
    from .enclosures import ln_enclosure

    ln = ln_enclosure(delta, bits)
    return delta, Interval(-ln.hi / n, -ln.lo / n)

