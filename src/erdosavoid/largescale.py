"""Windowed avoiders for unbounded sequences and number-theoretic probes.

A PLargeSet materializes one unit cell at a time: cell k is the set
shifted by -k and clipped to [0, 1].  Cells are produced lazily from a
generator tag, so escape witnesses may reach far beyond the initial
window.

Two membership razors coexist by design.  Materialized cells remove the
*open* removed parts, keeping boundary points, which errs toward a
larger set and keeps cell measures exact.  Escape verdicts instead use
the construction's set-difference semantics: a trajectory point escapes
when, in every cell containing it, its offset lies inside a *closed*
removed part.  Certificates therefore witness escape from the
constructed set, while the conservative closure is what p-largeness is
audited on; the closure is never smaller.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .enclosures import ln_interval
from .errors import (
    ConstructionAuditError,
    InfeasibleParametersError,
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
)
from .intervals import Grid, Interval, IntervalSet
from .rationals import (
    RationalLike,
    as_rational,
    ceil_rational,
    floor_rational,
    format_rational,
    frac_part,
)
from .sequences import UP, SequenceSpec

RationalOrEnclosure = Union[Fraction, int, str, Interval]


# ---------------------------------------------------------------------------
# digit schedule


@dataclass(frozen=True)
class DigitSchedule:
    """Block schedule over digits {0, ..., m-2}: block r repeats every
    digit r times, so runs of every digit grow without bound."""

    m: int

    def __post_init__(self):
        if self.m < 3:
            raise InvalidParameterError("need at least three parts per cell")

    def digit(self, i: int) -> int:
        if i < 0:
            raise InvalidParameterError("schedule indices start at 0")
        c = self.m - 1
        r = (1 + math.isqrt(1 + 8 * (i // c))) // 2
        r = max(r, 1)
        while r * (r - 1) * c > 2 * i:
            r -= 1
        while r * (r + 1) * c <= 2 * i:
            r += 1
        offset = i - c * r * (r - 1) // 2
        return offset // r

    def prefix(self, count: int) -> list[int]:
        return [self.digit(i) for i in range(count)]


# ---------------------------------------------------------------------------
# cell generators


class FractionalGenerator:
    """Every cell is [0, p]: the set of points with fractional part
    below the threshold (closure taken)."""

    kind = "fractional"

    def __init__(self, p: Fraction):
        if not 0 <= p < 1:
            raise InvalidParameterError("threshold must lie in [0, 1)")
        self.p = p

    def cell(self, k: int) -> IntervalSet:
        return IntervalSet.of((0, self.p))

    def describe(self) -> dict:
        return {"kind": self.kind, "p": format_rational(self.p)}


class DigitGenerator:
    """Cell k keeps all parts except the scheduled one and the top one.

    With `tracks` > 1 the cells are interleaved: cell k is driven by
    track k mod tracks, and the i-th cell of a track takes the i-th
    schedule digit.  Negative cells mirror the schedule.
    """

    kind = "digit"

    def __init__(self, m: int, tracks: int = 1):
        if tracks < 1:
            raise InvalidParameterError("need at least one track")
        self.m = m
        self.tracks = tracks
        self.schedule = DigitSchedule(m)
        self._digits: dict[int, int] = {}

    def scheduled_digit(self, k: int) -> int:
        """The scheduled part removed from cell k, memoized per cell:
        escape scans revisit the same few cells many times."""
        digit = self._digits.get(k)
        if digit is None:
            i = k // self.tracks
            digit = self._digits[k] = self.schedule.digit(i if i >= 0 else -i - 1)
        return digit

    def removed_digits(self, k: int) -> tuple[int, int]:
        return self.scheduled_digit(k), self.m - 1

    def removed_parts(self, k: int) -> list[Interval]:
        m = self.m
        return [
            Interval(Fraction(j, m), Fraction(j + 1, m))
            for j in sorted(set(self.removed_digits(k)))
        ]

    def cell(self, k: int) -> IntervalSet:
        m = self.m
        removed = set(self.removed_digits(k))
        pieces = []
        for j in range(m):
            if j not in removed:
                pieces.append(Interval(Fraction(j, m), Fraction(j + 1, m)))
        # boundary points of removed parts survive open removal
        for j in range(m + 1):
            pieces.append(Interval(Fraction(j, m), Fraction(j, m)))
        return IntervalSet(pieces)

    def describe(self) -> dict:
        return {"kind": self.kind, "m": self.m, "tracks": self.tracks}


class QuotientGenerator:
    """Cells of the intersection of a fractional-part set with its own
    dilate by y: cell k is [0, q] meets the dilated copies landing in
    [k, k+1].  Enclosure dilations are approximated from the inside so
    every audited measure is a lower bound valid for the whole range."""

    kind = "quotient"

    def __init__(self, y: RationalOrEnclosure, q: Fraction):
        if isinstance(y, Interval):
            self.y_lo, self.y_hi = y.lo, y.hi
        else:
            y = as_rational(y)
            self.y_lo = self.y_hi = y
        if self.y_lo <= 1:
            raise InvalidParameterError("dilation factor must exceed 1")
        if not 0 < q <= 1:
            raise InvalidParameterError("cell threshold must lie in (0, 1]")
        self.q = q

    def cell(self, k: int) -> IntervalSet:
        if k < 0:
            raise InvalidParameterError("quotient cells materialize on k >= 0")
        d_part = IntervalSet.of((0, self.q))
        pieces = []
        j_min = max(0, ceil_rational(Fraction(k) / self.y_hi - self.q))
        j_max = floor_rational(Fraction(k + 1) / self.y_lo)
        for j in range(j_min, j_max + 1):
            lo = self.y_hi * j  # inner approximation over the enclosure
            hi = self.y_lo * (j + self.q)
            if lo > hi:
                continue
            lo, hi = max(lo - k, Fraction(0)), min(hi - k, Fraction(1))
            if lo <= hi:
                pieces.append(Interval(lo, hi))
        return d_part.intersection(IntervalSet(pieces))

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "y": [format_rational(self.y_lo), format_rational(self.y_hi)],
            "q": format_rational(self.q),
        }


class ExplicitCellsGenerator:
    kind = "explicit"

    def __init__(self, cells: Sequence[IntervalSet]):
        self._cells = list(cells)

    def cell(self, k: int) -> IntervalSet:
        if not 0 <= k < len(self._cells):
            raise ResourceLimitError(f"no materialized cell {k}")
        return self._cells[k]

    def describe(self) -> dict:
        return {"kind": self.kind, "count": len(self._cells)}


class PLargeSet:
    """Union of unit cells, each claimed to carry measure at least p.

    The window is a materialization hint only; cells extend lazily in
    both directions up to a guard budget.
    """

    def __init__(self, p: Fraction, window: int, generator, guard: int = 1_000_000):
        if window < 1:
            raise InvalidParameterError("window must be >= 1")
        self.p = as_rational(p)
        self.window = window
        self.generator = generator
        self.guard = guard
        self._cells: dict[int, IntervalSet] = {}

    def cell(self, k: int) -> IntervalSet:
        if abs(k) > self.guard:
            raise ResourceLimitError(
                f"cell {k} beyond the extension guard {self.guard}"
            )
        if k not in self._cells:
            self._cells[k] = self.generator.cell(k)
        return self._cells[k]

    def window_cells(self) -> list[IntervalSet]:
        return [self.cell(k) for k in range(self.window)]

    def contains(self, x: RationalLike) -> bool:
        x = as_rational(x)
        k = floor_rational(x)
        if self.cell(k).contains(x - k):
            return True
        if x == k and self.cell(k - 1).contains(Fraction(1)):
            return True
        return False

    def removed_parts(self, k: int) -> list[Interval]:
        if not hasattr(self.generator, "removed_parts"):
            raise InvalidParameterError(
                f"{self.generator.kind} cells carry no removed-part structure"
            )
        return self.generator.removed_parts(k)

    def to_json(self) -> dict:
        return {
            "p": format_rational(self.p),
            "window": self.window,
            "cells": [self.cell(k).to_json() for k in range(self.window)],
            "generator": self.generator.describe(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PLargeSet":
        cells = [IntervalSet.from_json(c) for c in obj["cells"]]
        gen = ExplicitCellsGenerator(cells)
        return cls(as_rational(obj["p"]), int(obj["window"]), gen)


def fractional_set(p: RationalLike, window: int) -> PLargeSet:
    """The basic avoider: points with fractional part at most p."""
    p = as_rational(p)
    return PLargeSet(p, window, FractionalGenerator(p))


def digit_avoider(m: int, window: int) -> PLargeSet:
    """Scheduled two-part removal: every cell drops the top part and
    the block-scheduled part, keeping measure (m-2)/m exactly."""
    if m < 3:
        raise InvalidParameterError("need m >= 3 parts")
    return PLargeSet(Fraction(m - 2, m), window, DigitGenerator(m))


def is_p_large(e: PLargeSet, p: RationalLike) -> bool:
    """Exact check that every window cell carries measure >= p."""
    p = as_rational(p)
    return all(cell.measure() >= p for cell in e.window_cells())


# ---------------------------------------------------------------------------
# escape certification for x + n*y trajectories


@dataclass(frozen=True)
class LinearEscapeCertificate:
    x_box: Interval
    y_box: Interval
    status: str  # "certified" | "inconclusive"
    witness_index: Optional[int] = None
    route: Optional[str] = None  # "point" | "containment" | "width"
    witness_cell: Optional[int] = None
    witness_part: Optional[Interval] = None

    def to_json(self) -> dict:
        return {
            "box": {
                "x": [format_rational(self.x_box.lo), format_rational(self.x_box.hi)],
                "y": [format_rational(self.y_box.lo), format_rational(self.y_box.hi)],
            },
            "status": self.status,
            "witness_n": self.witness_index,
            "route": self.route,
            "witness_cell": self.witness_cell,
        }


def point_escape_index(
    e: PLargeSet, x: RationalLike, y: RationalLike, n_max: int
) -> Optional[int]:
    """Least n <= n_max with x + n*y escaping the digit construction.

    A point escapes when its offset lies in a closed removed part of
    every cell containing it; integer points are checked against both
    neighboring cells.  Runs on plain integers.
    """
    gen = _digit_generator(e, "point escape")
    x, y = as_rational(x), as_rational(y)
    den = x.denominator * y.denominator // math.gcd(x.denominator, y.denominator)
    ax = x.numerator * (den // x.denominator)
    ay = y.numerator * (den // y.denominator)
    return _escape_index(gen, ax, ay, den, n_max, e.guard)


def _digit_generator(e: PLargeSet, what: str) -> DigitGenerator:
    gen = e.generator
    if not isinstance(gen, DigitGenerator):
        raise InvalidParameterError(f"{what} needs a digit-style set")
    return gen


def _escape_index(
    gen: DigitGenerator, ax: int, ay: int, den: int, n_max: int, guard: int
) -> Optional[int]:
    """Least n <= n_max with (ax + n*ay)/den escaping: the one scan of
    x + n*y.  `den` > 0 need not be the lowest common denominator, since
    the escape test reads only the value of each point."""
    s = ax
    for n in range(1, n_max + 1):
        s += ay
        k, r = divmod(s, den)
        if abs(k) > guard:
            raise ResourceLimitError(f"trajectory left the cell guard at n = {n}")
        if _offset_escapes(gen, k, r, den):
            return n
    return None


def _offset_escapes(gen: DigitGenerator, k: int, r: int, den: int) -> bool:
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


def _point_escapes_digit(e: PLargeSet, s: Fraction) -> bool:
    k, r = divmod(s.numerator, s.denominator)
    return _offset_escapes(e.generator, k, r, s.denominator)


def certify_linear_escape(
    e: PLargeSet,
    x_box: Interval,
    y_box: Interval,
    n_max: int,
) -> LinearEscapeCertificate:
    """Escape certificate for every trajectory x + n*y over a box.

    Routes, in order of strength:
      point        exact scan for a degenerate box;
      containment  some box image sits inside one open removed part,
                   so every trajectory in the box escapes at that step;
      width        the box image is at least one unit long and contains
                   a whole removed part: only some trajectory in the box
                   is shown to meet it at step n.  Sampling such boxes
                   (`validate_linear_escape`) is an audit, not evidence;
                   ROADMAP.md item 2 replaces this route.

    The image of step n and the parts of every cell are compared as
    integers over the common denominator L*m, where L is the lcm of the
    box's four denominators: part t = k*m + j is [t*L, (t+1)*L].  Parts
    are tried left to right, which is cell by cell and, within a cell,
    the scheduled part before the top one.
    """
    gen = _digit_generator(e, "escape certification")
    if x_box.lo < 0 or x_box.hi > 1:
        raise InvalidParameterError("offset box must sit inside [0, 1]")
    if y_box.lo <= 0:
        raise InvalidParameterError("step box must be strictly positive")
    if x_box.lo == x_box.hi and y_box.lo == y_box.hi:
        n = point_escape_index(e, x_box.lo, y_box.lo, n_max)
        if n is None:
            return LinearEscapeCertificate(x_box, y_box, "inconclusive")
        return LinearEscapeCertificate(x_box, y_box, "certified", n, "point")
    ends = (x_box.lo, x_box.hi, y_box.lo, y_box.hi)
    L = math.lcm(*(v.denominator for v in ends))
    xl, xh, yl, yh = (v.numerator * (L // v.denominator) for v in ends)
    m = gen.m
    unit = L * m

    def removed(t: int) -> bool:
        k, j = divmod(t, m)
        return j == m - 1 or j == gen.scheduled_digit(k)

    def certificate(n: int, route: str, t: int) -> LinearEscapeCertificate:
        k, j = divmod(t, m)
        part = Interval(Fraction(j, m), Fraction(j + 1, m))
        return LinearEscapeCertificate(x_box, y_box, "certified", n, route, k, part)

    for n in range(1, n_max + 1):
        lo = (xl + n * yl) * m  # the image of step n, in units of 1/(L*m)
        hi = (xh + n * yh) * m
        if abs(hi // unit) > e.guard:
            raise ResourceLimitError(f"image left the cell guard at n = {n}")
        # the only part that can hold the image in its interior
        t, rest = divmod(lo, L)
        if rest and hi < (t + 1) * L and removed(t):
            return certificate(n, "containment", t)
        if hi - lo >= unit:
            t = -(-lo // L)  # leftmost part starting inside the image
            while (t + 1) * L <= hi:
                if removed(t):
                    return certificate(n, "width", t)
                t += 1
    return LinearEscapeCertificate(x_box, y_box, "inconclusive")


def validate_linear_escape(
    e: PLargeSet,
    cert: LinearEscapeCertificate,
    samples: int = 100,
    seed: int = 0,
    n_limit: Optional[int] = None,
) -> bool:
    """Sampling audit: every sampled trajectory in the box must escape.

    Samples are interior rationals; each must reach a removed part
    within the limit (default: generous multiple of the witness step).
    Sample (a, b) is x = x_lo + wx*a/128, y = y_lo + wy*b/128, carried
    as integer numerators over dx = 128*den(x_lo)*den(wx) and dy.
    """
    if samples < 1:
        raise InvalidParameterError("validation needs at least one sample")
    if cert.status != "certified":
        return True
    gen = _digit_generator(e, "escape validation")
    if n_limit is None:
        n_limit = max(4096, 8 * (cert.witness_index or 1))
    rng = random.Random(seed)
    x0, sx, dx = _sample_axis(cert.x_box)
    y0, sy, dy = _sample_axis(cert.y_box)
    den = dx * dy
    for _ in range(samples):
        a = rng.randrange(1, 128)
        b = rng.randrange(1, 128)
        ax = (x0 + a * sx) * dy
        ay = (y0 + b * sy) * dx
        if _escape_index(gen, ax, ay, den, n_limit, e.guard) is None:
            return False
    return True


def _sample_axis(box: Interval) -> tuple[int, int, int]:
    """(lo, step, den) with box.lo = lo/den and box.length/128 = step/den."""
    lo, w = box.lo, box.length
    den = 128 * lo.denominator * w.denominator
    return lo.numerator * 128 * w.denominator, w.numerator * lo.denominator, den


def sweep_linear_escape(
    e: PLargeSet,
    x_range: Interval,
    y_range: Interval,
    x_cells: int,
    y_cells: int,
    n_max_start: int = 16,
    n_max_cap: int = 4096,
) -> list[LinearEscapeCertificate]:
    """Grid sweep with per-box adaptive depth (doubling up to the cap)."""
    if y_range.lo <= 0:
        raise InvalidParameterError("step range must be strictly positive")
    return [
        certify_linear_escape_to_cap(e, box_x, box_y, n_max_start, n_max_cap)
        for box_x, box_y in Grid(x_range, y_range, x_cells, y_cells)
    ]


def certify_linear_escape_to_cap(
    e: PLargeSet, x_box: Interval, y_box: Interval, n_max: int, n_max_cap: int
) -> LinearEscapeCertificate:
    """certify_linear_escape with n_max doubled, up to the cap, until the
    box certifies."""
    if n_max < 1:
        raise InvalidParameterError("the scan depth n_max must be at least 1")
    cert = certify_linear_escape(e, x_box, y_box, n_max)
    while cert.status != "certified" and n_max < n_max_cap:
        n_max = min(2 * n_max, n_max_cap)
        cert = certify_linear_escape(e, x_box, y_box, n_max)
    return cert


# ---------------------------------------------------------------------------
# quotient and countable-dilation avoiders


def quotient_avoider(
    y: RationalOrEnclosure, p: RationalLike, window: int, max_refine: int = 12
) -> PLargeSet:
    """Intersection of a fractional-part set with its y-dilate.

    The cell threshold starts at the bound value (1-p)/(1+y) and is
    halved until the exact per-cell audit passes on the window; the
    formula alone is never trusted.
    """
    p = as_rational(p)
    if not 0 <= p < 1:
        raise InvalidParameterError("p must lie in [0, 1)")
    y_hi = y.hi if isinstance(y, Interval) else as_rational(y)
    pprime = (1 - p) / (1 + y_hi)
    for _ in range(max_refine):
        gen = QuotientGenerator(y, 1 - pprime)
        candidate = PLargeSet(p, window, gen)
        if all(candidate.cell(k).measure() >= p for k in range(window)):
            return candidate
        pprime /= 2
    raise InfeasibleParametersError(
        f"no cell threshold reached the target largeness {p} on this window"
    )


def countable_dilation_avoider(
    seq: SequenceSpec,
    dilations: Sequence[RationalLike],
    p: RationalLike,
    window: int,
    probe_offsets: Sequence[RationalLike] = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    n_max: int = 4096,
) -> PLargeSet:
    """Track-interleaved digit avoider for finitely many dilations.

    Cell k runs the digit schedule of track k mod len(dilations).  The
    construction is audited on the spot: for every dilation and probe
    offset an escape index must exist within n_max, otherwise the
    construction is rejected loudly.  The interleaving itself is a
    design of this artifact, not a claim about any published proof.
    """
    p = as_rational(p)
    if seq.direction != UP:
        raise InvalidParameterError("dilation avoiders take increasing sequences")
    ys = [as_rational(y) for y in dilations]
    if not ys or any(y <= 0 for y in ys):
        raise InvalidParameterError("dilations must be positive")
    m = max(3, ceil_rational(Fraction(2) / (1 - p)))
    gen = DigitGenerator(m, tracks=len(ys))
    result = PLargeSet(Fraction(m - 2, m), window, gen)
    if result.p < p:
        raise InfeasibleParametersError("part count cannot reach the target largeness")
    for y in ys:
        for x in probe_offsets:
            x = as_rational(x)
            n = _seq_escape_index(result, x, y, seq, n_max)
            if n is None:
                raise ConstructionAuditError(
                    f"no escape for dilation {y} at offset {x} within {n_max} terms"
                )
    return result


def _seq_escape_index(
    e: PLargeSet, x: Fraction, y: Fraction, seq: SequenceSpec, n_max: int
) -> Optional[int]:
    for n in range(1, n_max + 1):
        if _point_escapes_digit(e, x + y * seq.term(n)):
            return n
    return None


# ---------------------------------------------------------------------------
# density and clustering probes


@dataclass(frozen=True)
class Mod1Profile:
    """Fractional parts of y*a_n for n <= count, with the largest
    circular gap.  For enclosure inputs the gap is an upper bound
    (midpoint gap widened by twice the largest enclosure width) and the
    profile is flagged enclosure-conditional."""

    count: int
    fracs: tuple[Fraction, ...]
    max_gap: Fraction
    conditional: bool = False
    slack: Fraction = Fraction(0)

    def to_json(self) -> dict:
        return {
            "N": self.count,
            "max_gap": format_rational(self.max_gap),
            "conditional": self.conditional,
        }


def _enclosure_fractions(
    y: Interval, factors: Iterable[Union[int, Fraction]], hint: str = ""
) -> tuple[list[Fraction], Fraction]:
    """Midpoints of the fractional parts of y*a over the factors a (n = 1,
    2, ...) and the widest width; PrecisionError if one straddles an integer."""
    mids = []
    max_width = Fraction(0)
    for n, a in enumerate(factors, 1):
        lo, hi = y.lo * a, y.hi * a
        f = floor_rational(lo)
        if f != floor_rational(hi):
            raise PrecisionError(
                f"enclosure too wide to resolve the fractional part at n = {n}{hint}"
            )
        mids.append((lo - f + hi - f) / 2)
        max_width = max(max_width, hi - lo)
    return mids, max_width


def _circular_max_gap(fracs: list[Fraction]) -> Fraction:
    pts = sorted(set(fracs))
    if len(pts) == 1:
        return Fraction(1)
    best = pts[0] + 1 - pts[-1]
    for a, b in zip(pts, pts[1:]):
        best = max(best, b - a)
    return best


def density_mod1(
    seq: SequenceSpec, y: RationalOrEnclosure, count: int
) -> Mod1Profile:
    """Circular gap profile of the dilated sequence modulo 1."""
    if count < 2:
        raise InvalidParameterError("need at least two samples")
    if seq.direction != UP:
        raise InvalidParameterError("density probes take increasing sequences")
    if isinstance(y, Interval) and y.lo != y.hi:
        mids, max_width = _enclosure_fractions(
            y, (seq.term(n) for n in range(1, count + 1))
        )
        gap = _circular_max_gap(mids) + 2 * max_width
        return Mod1Profile(count, tuple(sorted(mids)), min(gap, Fraction(1)), True, max_width)
    yq = y.lo if isinstance(y, Interval) else as_rational(y)
    fracs = [frac_part(yq * seq.term(n)) for n in range(1, count + 1)]
    return Mod1Profile(count, tuple(sorted(fracs)), _circular_max_gap(fracs))


@dataclass(frozen=True)
class ClusterCheck:
    """Minimal circular covering interval of the doubled dilates.

    `covering_length` is exact for rational inputs, a certified lower
    bound for enclosures.  `hypothesis_excluded` echoes the optional
    admissibility predicate supplied by the caller (None = unexamined).
    """

    count: int
    covering_length: Fraction
    conditional: bool = False
    hypothesis_excluded: Optional[bool] = None


def dubickas_gap_check(
    y: RationalOrEnclosure,
    count: int,
    admissible: Optional[Callable[[RationalOrEnclosure], bool]] = None,
) -> ClusterCheck:
    """Clustering of y*2^n modulo 1.

    Reports the length of the shortest circular interval containing
    all the fractional parts; admissible dilates are expected to need
    length at least 1/2, and rational test points below that threshold
    sit outside the hypothesis.
    """
    if count < 2:
        raise InvalidParameterError("need at least two samples")
    excluded = None if admissible is None else not admissible(y)
    if isinstance(y, Interval) and y.lo != y.hi:
        if y.lo <= 0 <= y.hi:
            raise InvalidParameterError("dilate enclosure must exclude 0")
        mids, max_width = _enclosure_fractions(
            y,
            (2**n for n in range(1, count + 1)),
            f"; supply roughly {count + 60} bits",
        )
        gap_ub = _circular_max_gap(mids) + 2 * max_width
        covering_lb = max(1 - gap_ub, Fraction(0))
        return ClusterCheck(count, covering_lb, True, excluded)
    yq = y.lo if isinstance(y, Interval) else as_rational(y)
    if yq == 0:
        raise InvalidParameterError("dilate must be nonzero")
    fracs = [frac_part(yq * 2**n) for n in range(1, count + 1)]
    return ClusterCheck(count, 1 - _circular_max_gap(fracs), False, excluded)


# ---------------------------------------------------------------------------
# coefficient-mass search


@dataclass(frozen=True)
class CoefficientMassBound:
    """Upper bound on the infimum of L(f*g) over admissible cofactors.

    `value` is the exact minimum over the enumerated grid family; the
    true infimum can only be smaller.
    """

    value: Fraction
    witness: tuple[Fraction, ...]
    max_deg: int
    label: str = "upper_bound"

    def to_json(self) -> dict:
        return {
            "value": format_rational(self.value),
            "witness": [format_rational(c) for c in self.witness],
            "max_deg": self.max_deg,
            "label": self.label,
        }


def coefficient_mass(coeffs: Sequence[Fraction]) -> Fraction:
    return sum((abs(c) for c in coeffs), Fraction(0))


def poly_mul(f: Sequence[Fraction], g: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def ell_upper_bound(
    f_coeffs: Sequence[RationalLike],
    max_deg: int,
    step: RationalLike,
    bound: RationalLike,
) -> CoefficientMassBound:
    """Grid search for cofactors minimizing the coefficient mass of f*g.

    Admissible cofactors have constant or leading coefficient 1; the
    remaining coefficients walk the grid {j*step : |j*step| <= bound}.
    A layered dynamic program makes the search exact over that family,
    so the result is a certified upper bound on the infimum, monotone
    under grid refinement and degree growth.
    """
    f = [as_rational(c) for c in f_coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        raise InvalidParameterError("zero polynomial has no cofactor problem")
    step = as_rational(step)
    bound = as_rational(bound)
    if step <= 0 or bound <= 0 or max_deg < 0:
        raise InvalidParameterError("need positive step, bound, and degree")
    reach = floor_rational(bound / step)
    grid = [j * step for j in range(-reach, reach + 1)]
    one = [Fraction(1)]

    best: Optional[tuple[Fraction, tuple[Fraction, ...]]] = None

    def consider(value: Fraction, witness: tuple[Fraction, ...]):
        nonlocal best
        if best is None or value < best[0]:
            best = (value, witness)

    # constant coefficient pinned to 1, degree max_deg (zero tail covers less)
    consider(*_min_mass_dp(f, [one] + [grid] * max_deg))
    # leading coefficient pinned to 1, every degree up to max_deg
    for m in range(max_deg + 1):
        consider(*_min_mass_dp(f, [grid] * m + [one]))
    value, witness = best
    return CoefficientMassBound(value, witness, max_deg)


def _min_mass_dp(
    f: list[Fraction], allowed: list[list[Fraction]]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact min of sum |(f*g)_i| over g with per-position value sets."""
    df = len(f) - 1
    layers = allowed + [[Fraction(0)]] * df  # flush the trailing coefficients
    zero_state = (Fraction(0),) * df
    dp: dict[tuple, tuple[Fraction, tuple]] = {zero_state: (Fraction(0), ())}
    for values in layers:
        ndp: dict[tuple, tuple[Fraction, tuple]] = {}
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
    witness = hist[: len(allowed)]
    return cost, witness


# ---------------------------------------------------------------------------
# log-domain escape for geometric sequences


@dataclass(frozen=True)
class LogEscapeCertificate:
    y_box: Interval
    b_box: Interval
    status: str
    witness_index: Optional[int] = None
    route: Optional[str] = None  # "gap" | "point"
    refined: bool = False

    def to_json(self) -> dict:
        return {
            "box": {
                "y": [format_rational(self.y_box.lo), format_rational(self.y_box.hi)],
                "b": [format_rational(self.b_box.lo), format_rational(self.b_box.hi)],
            },
            "status": self.status,
            "witness_n": self.witness_index,
            "route": self.route,
            "refined": self.refined,
        }


def geometric_escape_via_log(
    f_set: PLargeSet,
    y_box: Interval,
    b_box: Interval,
    n_max: int,
    log_y: Optional[Interval] = None,
    log_b: Optional[Interval] = None,
    bits: int = 64,
    refine: int = 0,
) -> LogEscapeCertificate:
    """Certify that y*b^-n leaves the exponential image of an avoider.

    The term y*b^-n belongs to exp(-F) exactly when n*ln(b) - ln(y)
    belongs to F, so the check runs in log coordinates on rational
    enclosures with outward rounding: an enclosure landing inside a
    complement gap of F certifies escape for every parameter in the
    box.  Exact (injected) log enclosures of width zero switch to the
    pointwise digit test, which handles the integer-sequence case.

    With refine > 0 an inconclusive box is split into four children
    with tighter enclosures; the box certifies when all children do.
    """
    if y_box.lo <= 0:
        raise InvalidParameterError("dilate box must be strictly positive")
    if b_box.lo <= 1:
        raise InvalidParameterError("base box must exceed 1")
    gen = f_set.generator
    if not isinstance(gen, DigitGenerator):
        raise InvalidParameterError("log escape needs a digit-style avoider")
    ly = log_y if log_y is not None else ln_interval(y_box, bits)
    lb = log_b if log_b is not None else ln_interval(b_box, bits)
    for n in range(1, n_max + 1):
        s_lo = n * lb.lo - ly.hi
        s_hi = n * lb.hi - ly.lo
        if s_lo == s_hi:
            if _point_escapes_digit(f_set, s_lo):
                return LogEscapeCertificate(y_box, b_box, "certified", n, "point")
            continue
        if _interval_avoids(f_set, Interval(s_lo, s_hi)):
            return LogEscapeCertificate(y_box, b_box, "certified", n, "gap")
    if refine > 0 and (y_box.length > 0 or b_box.length > 0):
        ym, bm = y_box.midpoint, b_box.midpoint
        children_y = (
            [Interval(y_box.lo, ym), Interval(ym, y_box.hi)]
            if y_box.length > 0
            else [y_box]
        )
        children_b = (
            [Interval(b_box.lo, bm), Interval(bm, b_box.hi)]
            if b_box.length > 0
            else [b_box]
        )
        indices = []
        for cy in children_y:
            for cb in children_b:
                sub = geometric_escape_via_log(
                    f_set, cy, cb, n_max, log_y, log_b, bits + 16, refine - 1
                )
                if sub.status != "certified":
                    return LogEscapeCertificate(y_box, b_box, "inconclusive")
                indices.append(sub.witness_index)
        return LogEscapeCertificate(
            y_box, b_box, "certified", max(indices), "gap", refined=True
        )
    return LogEscapeCertificate(y_box, b_box, "inconclusive")


def _interval_avoids(e: PLargeSet, s: Interval) -> bool:
    """Every point of s lies in closed removed parts of all its cells.

    Adjacent removed parts merge, so a gap can span up to two part
    lengths; containment is per overlapped cell, which also covers
    integer boundary points via the neighboring cell's clip.
    """
    k_lo = floor_rational(s.lo)
    k_hi = floor_rational(s.hi)
    for k in range(k_lo, k_hi + 1):
        lo = max(s.lo - k, Fraction(0))
        hi = min(s.hi - k, Fraction(1))
        if lo > hi:
            continue
        merged = IntervalSet(e.removed_parts(k))
        if not any(p.lo <= lo and hi <= p.hi for p in merged.intervals):
            return False
    return True


def sweep_log_escape(
    f_set: PLargeSet,
    y_range: Interval,
    b_range: Interval,
    y_cells: int,
    b_cells: int,
    n_max: int = 64,
    bits: int = 64,
    refine: int = 1,
    mode: str = "points",
) -> tuple[list[LogEscapeCertificate], dict]:
    """Grid sweep in (dilate, base) space.

    `points` mode certifies the grid of cell-center parameters, each
    carried as a log-enclosure box; refinement then means tighter
    enclosures.  `cells` mode certifies whole grid cells and refinement
    bisects them; cells containing a parameter whose log trajectory
    pins a part boundary can stay inconclusive at every depth.
    """
    if mode not in ("points", "cells"):
        raise InvalidParameterError(f"unknown sweep mode {mode!r}")
    certs = []
    first_pass = 0
    for y_box, b_box in Grid(y_range, b_range, y_cells, b_cells):
        if mode == "points":
            ym, bm = y_box.midpoint, b_box.midpoint
            y_box, b_box = Interval(ym, ym), Interval(bm, bm)
        cert = geometric_escape_via_log(f_set, y_box, b_box, n_max, bits=bits)
        if cert.status == "certified":
            first_pass += 1
        else:
            split = refine if mode == "cells" else 0
            cert = geometric_escape_via_log(
                f_set, y_box, b_box, n_max, bits=bits + 32, refine=split
            )
            if cert.status == "certified":
                cert = LogEscapeCertificate(
                    y_box, b_box, "certified", cert.witness_index, cert.route, True
                )
        certs.append(cert)
    certified = sum(c.status == "certified" for c in certs)
    stats = {
        "boxes": len(certs),
        "certified": certified,
        "first_pass": first_pass,
        "resolved_by_refinement": certified - first_pass,
    }
    return certs, stats
