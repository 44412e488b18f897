"""Constructions for decreasing sequences near a density point.

Covers the greedy subsequence regularizer, the punched-interval avoider
for slowly decreasing sequences, finite-box escape certification, the
piecewise-linear embedder for quickly decreasing sequences, dilate
embedding of finite configurations, the slow-decay statistic, and
escape probes at a fixed base point.

The avoider is built to a finite level K; escape from it is therefore
witnessed per parameter box (certified) or left inconclusive, never
asserted globally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    ConstructionAuditError,
    DensityPointViolationError,
    InvalidParameterError,
    NeedsLongerWindowError,
    ResourceLimitError,
)
from .intervals import Gap, Grid, Interval, IntervalSet, ParamBox, box_image
from .rationals import RationalLike, as_rational, ceil_rational, format_rational
from .sequences import DOWN, SequenceSpec


def regularize_subsequence(
    seq: SequenceSpec, count: int, window: int = 1_000_000
) -> list[int]:
    """Greedy subsequence with two-sided difference control.

    Starting from n_1 = 1, each next index is the least p > n_k with
    a_{n_k} - a_p >= t_{n_k}, where t_n is the tail supremum of
    consecutive differences.  The selected gaps then satisfy
    t_{n_k} <= a_{n_k} - a_{n_{k+1}} <= 2 t_{n_k} exactly.
    """
    if seq.direction != DOWN:
        raise InvalidParameterError("regularization applies to decreasing sequences")
    if count < 1:
        raise InvalidParameterError("need at least one index")
    indices = [1]
    while len(indices) < count:
        nk = indices[-1]
        t = seq.sup_tail_difference(nk)
        a_nk = seq.term(nk)
        limit = window if seq.length is None else min(window, seq.length)
        p = nk + 1
        while p <= limit:
            if a_nk - seq.term(p) >= t:
                break
            p += 1
        else:
            raise NeedsLongerWindowError(
                f"no admissible index above {nk} within window {limit}"
            )
        indices.append(p)
    return indices


@dataclass(frozen=True)
class AvoiderLevel:
    """Construction record for one punch level."""

    k: int
    index: int
    term: Fraction
    next_term: Fraction
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
    """Finite-level avoider: exact measure, construction log, and the
    interval set itself (materialized on demand; high levels produce
    hundreds of thousands of components)."""

    def __init__(self, levels, measure, lower_bound, punch_union, denominators):
        self.levels: tuple[AvoiderLevel, ...] = tuple(levels)
        self.measure: Fraction = measure
        self.lower_bound: Fraction = lower_bound
        self._punches = punch_union  # (lo_num, lo_lvl, hi_num, hi_lvl) lists
        self._dens = denominators
        self._set: Optional[IntervalSet] = None

    @property
    def components(self) -> int:
        n = len(self._punches[0])
        return max(n - 1, 1) if n else 1

    def interval_set(self) -> IntervalSet:
        if self._set is None:
            los, lo_lvl, his, hi_lvl = self._punches
            if not los:
                self._set = IntervalSet.of((0, 1))
            else:
                pieces = []
                for i in range(len(los) - 1):
                    a = Fraction(his[i], self._dens[hi_lvl[i]])
                    b = Fraction(los[i + 1], self._dens[lo_lvl[i + 1]])
                    pieces.append(Interval(a, b))
                self._set = IntervalSet(pieces, _canonical=True)
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

    The punch bookkeeping runs on integers with one denominator per
    level; the exact measure comes out of a single sorted sweep.
    """
    if seq.direction != DOWN:
        raise InvalidParameterError("the avoider is built for decreasing sequences")
    if levels < 0:
        raise InvalidParameterError("levels must be >= 0")

    level_records = []
    union = ([], [], [], [])  # lo_num, lo_lvl, hi_num, hi_lvl
    dens: list[int] = []
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
        level_records.append(
            AvoiderLevel(k, n, a, seq.term(n + 1), delta, parts, removed, budget)
        )
        half = delta / 2
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
        union = _merge_punches(union, (los, his), dens, len(dens) - 1)

    lower_bound = 1 - sum((Fraction(2, 4**k) for k in range(1, levels + 1)), Fraction(0))
    removed_total = Fraction(0)
    lo_num, lo_lvl, hi_num, hi_lvl = union
    per_level_hi = [0] * len(dens)
    per_level_lo = [0] * len(dens)
    for i in range(len(lo_num)):
        per_level_hi[hi_lvl[i]] += hi_num[i]
        per_level_lo[lo_lvl[i]] += lo_num[i]
    for lvl, den in enumerate(dens):
        removed_total += Fraction(per_level_hi[lvl] - per_level_lo[lvl], den)
    measure = 1 - removed_total
    if measure < lower_bound:
        raise ConstructionAuditError(
            f"measure {measure} fell below the removal bound {lower_bound}"
        )
    return AvoiderResult(level_records, measure, lower_bound, union, dens)


def _merge_punches(union, level_punches, dens, lvl):
    """Union of the running punch list with one level's punches.

    Endpoints stay as integer numerators tagged with their level, so
    comparisons are cross multiplications and no Fraction is built.
    """
    lo_num, lo_lvl, hi_num, hi_lvl = union
    los, his = level_punches
    den_new = dens[lvl]
    out_lo, out_lo_l, out_hi, out_hi_l = [], [], [], []
    i = j = 0
    na, nb = len(lo_num), len(los)
    cur = None  # (lo, lo_l, hi, hi_l)
    while i < na or j < nb:
        if i < na and (
            j >= nb or lo_num[i] * den_new <= los[j] * dens[lo_lvl[i]]
        ):
            nxt = (lo_num[i], lo_lvl[i], hi_num[i], hi_lvl[i])
            i += 1
        else:
            nxt = (los[j], lvl, his[j], lvl)
            j += 1
        if cur is None:
            cur = list(nxt)
            continue
        # touching punches merge: nxt.lo <= cur.hi ?
        if nxt[0] * dens[cur[3]] <= cur[2] * dens[nxt[1]]:
            # extend if nxt reaches further right
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


def avoider_level_set(seq: SequenceSpec, k: int, window: int = 1_000_000) -> IntervalSet:
    """Single level E_k as an interval set (small k only; the number of
    components grows like k^3 4^k)."""
    n, a, delta, parts = _level_parameters(seq, k, k, window)
    half = delta / 2
    pieces = []
    for j in range(parts):
        pieces.append(
            Interval(Fraction(j, parts) + half, Fraction(j + 1, parts) - half)
        )
    return IntervalSet(pieces, _canonical=True)


# ---------------------------------------------------------------------------
# escape certification


@dataclass(frozen=True)
class EscapeCertificate:
    """Finite witness that a whole parameter box leaves the set: the
    box image of one sequence term sits strictly inside one complement
    component."""

    box: ParamBox
    status: str  # "certified" | "inconclusive"
    witness_index: Optional[int] = None
    witness_gap: Optional[Gap] = None

    def to_json(self) -> dict:
        return {
            "box": self.box.to_json(),
            "status": self.status,
            "witness_n": self.witness_index,
            "witness_gap": None if self.witness_gap is None else self.witness_gap.to_json(),
        }


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


def validate_certificate(
    e: IntervalSet,
    seq: SequenceSpec,
    cert: EscapeCertificate,
    samples: int = 100,
    seed: int = 0,
) -> bool:
    """Re-check a certificate on random rational parameters in its box."""
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


def grid_boxes(
    lam_range: Interval, t_range: Interval, lam_cells: int, t_cells: int
) -> list[ParamBox]:
    """Closed cell decomposition of a parameter rectangle."""
    return [ParamBox(lam, t) for lam, t in Grid(lam_range, t_range, lam_cells, t_cells)]


# ---------------------------------------------------------------------------
# bi-Lipschitz embedding


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Increasing piecewise-linear map given by its breakpoints.

    Outside the breakpoint span the map continues with slope 1.
    """

    points: tuple[tuple[Fraction, Fraction], ...]
    slope_lo: Fraction
    slope_hi: Fraction

    def __post_init__(self):
        for (x1, y1), (x2, y2) in zip(self.points, self.points[1:]):
            if not (x1 < x2 and y1 < y2):
                raise InvalidParameterError("breakpoints must strictly increase")
        if self.slope_lo <= 0:
            raise InvalidParameterError("lower slope bound must be positive")

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
    sharpen_eta: bool = False,
) -> PiecewiseLinearMap:
    """Piecewise-linear embedding of a quickly decreasing sequence.

    For each n the image point is the largest point of e inside
    [eta*a_n, a_n]; with ratio bound delta = sup a_{n+1}/a_n and
    eta in (delta, 1) every such segment slope lies in
    [(eta - delta)/(1 - delta), (1 - eta*delta)/(1 - delta)].

    `sharpen_eta` pushes the window floor toward 1 per index when e
    permits, biasing the map toward unit slope near 0; no bound beyond
    the base one is claimed for that mode.
    """
    eta = as_rational(eta)
    if seq.direction != DOWN:
        raise InvalidParameterError("embedding applies to decreasing sequences")
    delta = max(seq.term(n + 1) / seq.term(n) for n in range(1, max_n + 1))
    if not delta < eta < 1:
        raise InvalidParameterError(
            f"window floor eta must lie strictly between the ratio bound "
            f"{delta} and 1, got {eta}"
        )

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
        b = hit.intervals[-1].hi
        if sharpen_eta:
            eta_n = eta + (1 - eta) * Fraction(n, n + 1)
            tighter = e.intersection(IntervalSet.of((eta_n * a, a)))
            if tighter:
                b = tighter.intervals[-1].hi
        probes.append(b)
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
        ceiling = e.intervals[-1].hi
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

    slopes = [
        (y2 - y1) / (x2 - x1)
        for (x1, y1), (x2, y2) in zip(points, points[1:])
    ]
    return PiecewiseLinearMap(tuple(points), min(slopes), max(slopes))


def _smallest_point_at_least(e: IntervalSet, t: Fraction) -> Optional[Fraction]:
    for iv in e.intervals:
        if iv.hi >= t:
            return max(iv.lo, t)
    return None


def slope_envelope(eta: RationalLike, delta: RationalLike) -> tuple[Fraction, Fraction]:
    """The guaranteed slope window [(eta-delta)/(1-delta), (1-eta*delta)/(1-delta)]."""
    eta, delta = as_rational(eta), as_rational(delta)
    return (eta - delta) / (1 - delta), (1 - eta * delta) / (1 - delta)


# ---------------------------------------------------------------------------
# finite configurations and probes


def steinhaus_embed(
    a_points: Sequence[RationalLike],
    e: IntervalSet,
    t_max: RationalLike,
    grid: int,
    refine: int = 6,
) -> Optional[Fraction]:
    """Search a dilate factor placing a finite configuration inside e.

    The configuration is normalized by its maximum so it sits in
    (0, 1]; candidate factors walk the grid on (0, t_max] from above,
    halving the step up to `refine` times.  A returned factor is
    membership-checked exactly for every point; None means the search
    failed at this resolution, not that no factor exists.
    """
    pts = sorted(as_rational(a) for a in a_points)
    if not pts or pts[0] <= 0:
        raise InvalidParameterError("configuration points must be positive")
    t_max = as_rational(t_max)
    if t_max <= 0 or grid < 1:
        raise InvalidParameterError("need a positive search bound and grid")
    top = pts[-1]
    norm = [p / top for p in pts]
    g = grid
    for _ in range(refine + 1):
        for i in range(g, 0, -1):
            delta = t_max * Fraction(i, g)
            if all(e.contains(delta * p) for p in norm):
                return delta
        g *= 2
    return None


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


@dataclass(frozen=True)
class PointProbeRecord:
    t_box: Interval
    status: str
    witness_index: Optional[int] = None
    witness_gap: Optional[Gap] = None


@dataclass(frozen=True)
class PointProbeReport:
    records: tuple[PointProbeRecord, ...]
    certified_count: int
    certified_length: Fraction
    total_length: Fraction

    @property
    def coverage(self) -> Fraction:
        if self.total_length == 0:
            total = len(self.records)
            return Fraction(self.certified_count, total) if total else Fraction(0)
        return self.certified_length / self.total_length


def erdos_point_probe(
    k_set: IntervalSet,
    seq: SequenceSpec,
    x: RationalLike,
    t_boxes: Sequence[Interval],
    max_n: int,
) -> PointProbeReport:
    """Escape evidence for dilates of a sequence placed at a fixed point.

    Each t-box is certified when some x + t_box * a_n lands strictly
    inside a complement component of the ambient set.  This probe is
    exploratory: an inconclusive box says nothing at larger depth.
    """
    x = as_rational(x)
    if not k_set.contains(x):
        raise InvalidParameterError("base point must belong to the set")
    if any(box.lo <= 0 <= box.hi for box in t_boxes):
        raise InvalidParameterError("t-box must not straddle 0")
    boxes = [ParamBox(box, Interval(x, x)) for box in t_boxes]
    records = tuple(
        PointProbeRecord(c.box.lam, c.status, c.witness_index, c.witness_gap)
        for c in certify_no_affine_copy(k_set, seq, boxes, max_n)
    )
    certified = [r.t_box.length for r in records if r.status == "certified"]
    total = sum((box.length for box in t_boxes), Fraction(0))
    return PointProbeReport(records, len(certified), sum(certified, Fraction(0)), total)
