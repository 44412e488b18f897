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
removed part.  `_escape_index` decides this along a trajectory,
`_span_escapes` for a closed span and `_cover_escape_step` for a box of
trajectories, all on integer numerators.  Which parts are removed is
`DigitGenerator.removed`; `_escape_index` keeps its own copy for speed.
Certificates therefore witness escape from the constructed set, while
the conservative closure is what p-largeness is audited on; the
closure is never smaller.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from . import enclosures, sequences
from .errors import (
    InfeasibleParametersError,
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
)
from .intervals import Frozen, Grid, Interval, IntervalSet
from .rationals import (
    RationalLike,
    as_rational,
    ceil_rational,
    floor_rational,
    format_rational,
    frac_part,
    on_one_denominator,
)

RationalOrEnclosure = Union[Fraction, int, str, Interval]


# ---------------------------------------------------------------------------
# digit schedule


class DigitSchedule(Frozen):
    """Block schedule over digits {0, ..., m-2}: block r repeats every
    digit r times, so runs of every digit grow without bound."""

    __slots__ = _fields = ("m",)

    def __init__(self, m: int):
        if m < 3:
            raise InvalidParameterError("need at least three parts per cell")
        object.__setattr__(self, "m", m)

    def digit(self, i: int) -> int:
        if i < 0:
            raise InvalidParameterError("schedule indices start at 0")
        # block r starts at c*r*(r-1)/2, so i lies in the last block r with
        # r*(r-1) <= 2*i/c; as r*(r-1) is even, that is r*(r-1) <= 2*(i//c)
        c = self.m - 1
        r = (1 + math.isqrt(1 + 8 * (i // c))) // 2
        return (i - c * r * (r - 1) // 2) // r


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

    Cell k takes schedule digit k; negative cells mirror the schedule.
    """

    kind = "digit"

    def __init__(self, m: int):
        self.m = m
        self.schedule = DigitSchedule(m)
        self._digits: dict[int, int] = {}

    def scheduled_digit(self, k: int) -> int:
        """The scheduled part removed from cell k, memoized per cell:
        escape scans revisit the same few cells many times."""
        digit = self._digits.get(k)
        if digit is None:
            digit = self._digits[k] = self.schedule.digit(k if k >= 0 else -k - 1)
        return digit

    def removed_digits(self, k: int) -> tuple[int, int]:
        return self.scheduled_digit(k), self.m - 1

    def removed(self, t: int) -> bool:
        """Whether part t = k*m + j is removed: j is the top or cell k's scheduled part."""
        k, j = divmod(t, self.m)
        return j == self.m - 1 or j == self.scheduled_digit(k)

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
        # "tracks" stays in the artifact format; it is always 1
        return {"kind": self.kind, "m": self.m, "tracks": 1}


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

    def to_json(self) -> dict:
        return {
            "p": format_rational(self.p),
            "window": self.window,
            "cells": [self.cell(k).to_json() for k in range(self.window)],
            "generator": self.generator.describe(),
        }


def fractional_set(p: RationalLike, window: int) -> PLargeSet:
    """The basic avoider: points with fractional part at most p."""
    p = as_rational(p)
    return PLargeSet(p, window, FractionalGenerator(p))


def digit_avoider(m: int, window: int) -> PLargeSet:
    """Scheduled two-part removal: every cell drops the top part and
    the block-scheduled part, keeping measure (m-2)/m exactly."""
    gen = DigitGenerator(m)  # refuses m < 3 before Fraction(m - 2, m) sees m = 0
    return PLargeSet(Fraction(m - 2, m), window, gen)


def is_p_large(e: PLargeSet, p: RationalLike) -> bool:
    """Exact check that every window cell carries measure >= p."""
    p = as_rational(p)
    return all(e.cell(k).measure() >= p for k in range(e.window))


# ---------------------------------------------------------------------------
# escape certification for x + n*y trajectories


class LinearEscapeCertificate(NamedTuple):
    x_box: Interval
    y_box: Interval
    status: str  # "certified" | "inconclusive"
    witness_index: Optional[int] = None
    route: Optional[str] = None  # "point" | "containment" | "width"
    witness_cell: Optional[int] = None


def point_escape_index(
    e: PLargeSet, x: RationalLike, y: RationalLike, n_max: int
) -> Optional[int]:
    """Least n <= n_max with x + n*y escaping the digit construction.

    A point escapes when its offset lies in a closed removed part of
    every cell containing it; integer points are checked against both
    neighboring cells.  Runs on plain integers.
    """
    gen = _digit_generator(e, "point escape", n_max)
    x, y = as_rational(x), as_rational(y)
    den, (ax, ay) = on_one_denominator(x, y)
    return _escape_index(gen, ax, ay, den, n_max, e.guard)


def _digit_generator(e: PLargeSet, what: str, n_max: int = 1) -> DigitGenerator:
    """The digit generator of e, for a scan to depth n_max >= 1."""
    if n_max < 1:
        raise InvalidParameterError("the scan depth n_max must be at least 1")
    gen = e.generator
    if not isinstance(gen, DigitGenerator):
        raise InvalidParameterError(f"{what} needs a digit-style set")
    return gen


def _escape_index(
    gen: DigitGenerator, ax: int, ay: int, den: int, n_max: int, guard: int
) -> Optional[int]:
    """Least n <= n_max with (ax + n*ay)/den escaping, or None.  This is
    the one scan of x + n*y and the one escape rule.  `den` > 0 need not
    be the lowest common denominator.  Point s/den lies in part
    t = k*m + j of cell k, where t, r = divmod(s*m, den).  It escapes
    when j is the top part or the scheduled one, or when r = 0 and part
    j - 1 is the scheduled one (at an integer j = 0, and cell k-1's top
    part always holds it).  A cell beyond the guard raises.  The first test
    is `DigitGenerator.removed` inlined: the call doubles a long scan's time."""
    m = gen.m
    top = m - 1
    digits = gen._digits
    t_lo, t_hi = -guard * m, (guard + 1) * m  # parts of cells -guard..guard
    s, step = ax * m, ay * m
    for n in range(1, n_max + 1):
        s += step
        t, r = divmod(s, den)
        if not t_lo <= t < t_hi:
            raise ResourceLimitError(f"trajectory left the cell guard at n = {n}")
        k, j = divmod(t, m)
        if j == top:
            return n
        digit = digits[k] if k in digits else gen.scheduled_digit(k)
        if j == digit or (r == 0 and j - 1 == digit):
            return n
    return None


def _span_escapes(gen: DigitGenerator, a: int, b: int, den: int) -> bool:
    """Whether every point of the closed span [a/den, b/den] escapes: the
    upper end passes `_escape_index`'s rule and every part whose interior
    meets the span is removed.  The lower end needs no test of its own,
    since it lies in the first of those parts.  Callers put both ends on
    one denominator `den` > 0, which need not be the lowest; part
    t = k*m + j is [t*den, (t+1)*den] over den*m."""
    if _escape_index(gen, b, 0, den, 1, abs(b // den)) is None:  # b's own cell as guard
        return False
    if a == b:
        return True
    m = gen.m
    t = a * m // den  # the part whose interior holds a, or that starts at a
    while t * den < b * m:
        if not gen.removed(t):
            return False
        t += 1
    return True


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
                   ROADMAP.md item 1 replaces this route.

    The image of step n and the parts of every cell are compared as
    integers over the common denominator L*m, where L is the lcm of the
    box's four denominators: part t = k*m + j is [t*L, (t+1)*L].  Parts
    are tried left to right, which is cell by cell and, within a cell,
    the scheduled part before the top one.
    """
    gen = _digit_generator(e, "escape certification", n_max)
    if x_box.lo < 0 or x_box.hi > 1:
        raise InvalidParameterError("offset box must sit inside [0, 1]")
    if y_box.lo <= 0:
        raise InvalidParameterError("step box must be strictly positive")
    if x_box.lo == x_box.hi and y_box.lo == y_box.hi:
        n = point_escape_index(e, x_box.lo, y_box.lo, n_max)
        if n is None:
            return LinearEscapeCertificate(x_box, y_box, "inconclusive")
        return LinearEscapeCertificate(x_box, y_box, "certified", n, "point")
    L, (xl, xh, yl, yh) = on_one_denominator(x_box.lo, x_box.hi, y_box.lo, y_box.hi)
    m = gen.m
    unit = L * m
    for n in range(1, n_max + 1):
        lo = (xl + n * yl) * m  # the image of step n, in units of 1/(L*m)
        hi = (xh + n * yh) * m
        if abs(hi // unit) > e.guard:
            raise ResourceLimitError(f"image left the cell guard at n = {n}")
        # the only part that can hold the image in its interior
        t, rest = divmod(lo, L)
        if rest and hi < (t + 1) * L and gen.removed(t):
            return LinearEscapeCertificate(x_box, y_box, "certified", n, "containment", t // m)
        if hi - lo >= unit:
            t = -(-lo // L)  # leftmost part starting inside the image
            while (t + 1) * L <= hi:
                if gen.removed(t):
                    return LinearEscapeCertificate(x_box, y_box, "certified", n, "width", t // m)
                t += 1
    return LinearEscapeCertificate(x_box, y_box, "inconclusive")


def validate_linear_escape(
    e: PLargeSet,
    cert: LinearEscapeCertificate,
    samples: int = 100,
    seed: int = 0,
    n_limit: Optional[int] = None,
) -> bool:
    """Audit: every sampled trajectory in the box must escape.

    Samples are interior rationals; each must reach a removed part
    within the limit (default: max(AUDIT_STEPS, 8 * witness step)).
    Sample (a, b) is x = x_lo + wx*a/128, y = y_lo + wy*b/128, with a and
    b drawn by `randrange(1, 128)`, x first; the first sample that fails
    decides, before any later one is scanned.

    Every sample lies in the hull of the sample lattice,
    [x_lo + wx/128, x_lo + 127*wx/128] x [y_lo + wy/128, y_lo + 127*wy/128].
    A hull that `_cover_escape_step` settles within the limit passes
    without sampling: every trajectory of the hull escapes by then, so
    every sample would, and the sampled verdict is True.  The hull and
    the samples go on integer numerators over 128*L, where L is the lcm
    of the denominators of x_lo, wx, y_lo and wy.
    """
    if samples < 1:
        raise InvalidParameterError("validation needs at least one sample")
    if cert.status != "certified":
        return True
    gen = _digit_generator(e, "escape validation")
    if n_limit is None:
        n_limit = max(AUDIT_STEPS, 8 * (cert.witness_index or 1))
    x_box, y_box = cert.x_box, cert.y_box
    L, (x0, sx, y0, sy) = on_one_denominator(x_box.lo, x_box.length, y_box.lo, y_box.length)
    x0, y0, den = 128 * x0, 128 * y0, 128 * L
    hull = (x0 + sx, x0 + 127 * sx, y0 + sy, y0 + 127 * sy)
    if _cover_escape_step(gen, *hull, den, n_limit, e.guard, COVER_BUDGET) is not None:
        return True
    rng = random.Random(seed)
    for _ in range(samples):
        ax = x0 + rng.randrange(1, 128) * sx
        ay = y0 + rng.randrange(1, 128) * sy
        if _escape_index(gen, ax, ay, den, n_limit, e.guard) is None:
            return False
    return True


def audit_range(e: PLargeSet, x_range: Interval, y_range: Interval) -> bool:
    """Whether `_cover_escape_step` settles the whole closed range
    x_range x y_range within AUDIT_STEPS steps and COVER_BUDGET pieces.

    If it does, `validate_linear_escape` passes the certificate of every
    box inside the range, whatever its samples and seed.  Each sample lies
    in its box, and so in the range, and escapes by the settling step,
    which is at most AUDIT_STEPS and so within every box's limit.  The cover
    gives up, rather than settle, once an image leaves the cell guard, so
    no sample scan could have raised either.  False proves nothing: the
    boxes are then audited one by one.
    """
    gen = _digit_generator(e, "escape validation")
    L, ends = on_one_denominator(x_range.lo, x_range.hi, y_range.lo, y_range.hi)
    return _cover_escape_step(gen, *ends, L, AUDIT_STEPS, e.guard, COVER_BUDGET) is not None


# The least step limit of the audit: `validate_linear_escape` scans to
# max(AUDIT_STEPS, 8 * witness), and `audit_range` settles within it.
AUDIT_STEPS = 4096

# Pieces the strip cover may process, summed over its steps, before it
# gives up.  The most one box has needed: 15 on criterion 06's 100x100
# digit grid, 17 on perfbench's 24x24 one, 98 on a `certify log-escape`
# sweep on its defaults.
COVER_BUDGET = 1000


def _cover_escape_step(
    gen: DigitGenerator,
    xl: int, xh: int, yl: int, yh: int, L: int,
    n_max: int, guard: int, budget: int,
) -> Optional[int]:
    """A step n <= n_max by which every trajectory x + n*y of the closed
    box [xl/L, xh/L] x [yl/L, yh/L] has escaped, or None.  Any offsets,
    but only y_lo > 0, where trajectories move right: an image's upper
    end bounds them.  This is the one box-escape kernel: the digit
    sweep's audit calls it on the sweep's whole range and on the hull of
    a box's samples, log escape on its enclosure rectangle.

    No-jump: a step y <= 1/m cannot cross a cell's top part
    [k + (m-1)/m, k + 1), which escapes.  The first whole top part ahead
    of x ends by floor(x) + 2, so the box below y = 1/m escapes by step
    ceil(2/y_lo) for every offset.  The rest is a strip cover (Sutherland
    and Hodgman, "Reentrant polygon clipping", CACM 1974): at step n a
    piece whose image passes `_span_escapes` is dropped, and any other is
    clipped to each maximal run of closed kept parts its image meets.
    Pieces are convex polygons, zero-area ones too, of integer vertices
    (X, Y, W) for (X/W, Y/W), W > 0.  None once an image's upper end
    passes cell `guard`, so that sampling raises as it would have, or
    once the pieces processed, summed over the steps, would pass `budget`.
    Each step first walks every piece's image for the runs it meets, and
    clips only once the walk is done.  The walk stops as soon as the runs
    found, each a piece of the next step, would pass the budget, so a
    cover that cannot settle gives up before its last step's clipping,
    and a wide image costs no more than the budget allows.
    """
    if yl <= 0:
        return None
    m = gen.m
    piece = [(xl, yl, L), (xh, yl, L), (xh, yh, L), (xl, yh, L)]
    settled = 0
    if yl * m <= L:  # no-jump, the part with y <= 1/m
        settled = -(-2 * L // yl)
        if settled > n_max or (xh * m + settled * min(yh * m, L)) // (L * m) > guard:
            return None
        piece = _clip(piece, 0, m, -1)
    pieces = [piece] if piece else []
    n = 0
    while pieces:
        n += 1
        budget -= len(pieces)
        if n > n_max or budget < 0:
            return None
        cuts = []  # (piece, D, a, b, first part, part past the last) per run
        for piece in pieces:
            D = math.lcm(*[W for _, _, W in piece])
            image = [(X + n * Y) * (D // W) for X, Y, W in piece]
            a, b = min(image), max(image)
            if b // D > guard:
                return None
            if _span_escapes(gen, a, b, D):
                continue
            t1 = b * m // D
            run = None  # the first part of the current run of kept parts
            for t in range(-(-a * m // D) - 1, t1 + 2):  # parts meeting [a/D, b/D], then one
                if t <= t1 and not gen.removed(t):
                    run = t if run is None else run
                elif run is not None:
                    cuts.append((piece, D, a, b, run, t))
                    if len(cuts) > budget:  # give up before clipping
                        return None
                    run = None
        pieces = []
        for piece, D, a, b, run, t in cuts:
            part = piece if run * D <= a * m else _clip(piece, m, m * n, -run)
            part = part if t * D >= b * m else _clip(part, -m, -m * n, t)
            pieces.append(part)  # not empty: the run meets the image
    return max(settled, n)


def _clip(piece: list, a: int, b: int, c: int) -> list:
    """One Sutherland-Hodgman pass: the part of the convex polygon `piece`
    where a*X + b*Y + c*W >= 0.  Vertices on the line stay."""
    out = []
    X0, Y0, W0 = piece[-1]
    f0 = a * X0 + b * Y0 + c * W0
    for X1, Y1, W1 in piece:
        f1 = a * X1 + b * Y1 + c * W1
        if f0 < 0 < f1 or f1 < 0 < f0:  # the edge crosses the line
            X, Y, W = f1 * X0 - f0 * X1, f1 * Y0 - f0 * Y1, f1 * W0 - f0 * W1
            g = math.gcd(X, Y, W) if W > 0 else -math.gcd(X, Y, W)
            out.append((X // g, Y // g, W // g))
        if f1 >= 0:
            out.append((X1, Y1, W1))
        X0, Y0, W0, f0 = X1, Y1, W1, f1
    return out


def sweep_linear_escape(
    e: PLargeSet,
    x_range: Interval,
    y_range: Interval,
    x_cells: int,
    y_cells: int,
    n_max: int = 4096,
) -> list[LinearEscapeCertificate]:
    """Grid sweep, each box scanned once to depth n_max."""
    return [
        certify_linear_escape(e, box_x, box_y, n_max)
        for box_x, box_y in Grid(x_range, y_range, x_cells, y_cells)
    ]


# ---------------------------------------------------------------------------
# quotient avoider


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
        if is_p_large(candidate, p):
            return candidate
        pprime /= 2
    raise InfeasibleParametersError(
        f"no cell threshold reached the target largeness {p} on this window"
    )


# ---------------------------------------------------------------------------
# density and clustering probes


class Mod1Profile(NamedTuple):
    """Largest circular gap of the fractional parts of y*a_n for
    n <= count.  For enclosure inputs the gap is an upper bound
    (midpoint gap widened by twice the largest enclosure width) and the
    profile is flagged enclosure-conditional."""

    count: int
    max_gap: Fraction
    conditional: bool = False

    def to_json(self) -> dict:
        return {
            "N": self.count,
            "max_gap": format_rational(self.max_gap),
            "conditional": self.conditional,
        }


def _enclosure_fractions(y: Interval, factors: Sequence[Fraction]) -> tuple[list[Fraction], Fraction]:
    """Midpoints of the fractional parts of y*a over the factors a (n = 1,
    2, ...) and the widest width; PrecisionError if one straddles an
    integer, naming roughly the bits that resolve the last factor a_N:
    bitlen(floor(a_N)) + 59."""
    mids = []
    max_width = Fraction(0)
    for n, a in enumerate(factors, 1):
        lo, hi = y.lo * a, y.hi * a
        f = floor_rational(lo)
        if f != floor_rational(hi):
            bits = floor_rational(factors[-1]).bit_length() + 59
            raise PrecisionError(
                f"enclosure too wide to resolve the fractional part at n = {n}; "
                f"supply roughly {bits} bits"
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
    seq: sequences.SequenceSpec, y: RationalOrEnclosure, count: int
) -> Mod1Profile:
    """Circular gap profile of the dilated sequence modulo 1."""
    if count < 2:
        raise InvalidParameterError("need at least two samples")
    if seq.direction != sequences.UP:
        raise InvalidParameterError("density probes take increasing sequences")
    if isinstance(y, Interval) and y.lo != y.hi:
        mids, max_width = _enclosure_fractions(y, [seq.term(n) for n in range(1, count + 1)])
        gap = _circular_max_gap(mids) + 2 * max_width
        return Mod1Profile(count, min(gap, Fraction(1)), True)
    yq = y.lo if isinstance(y, Interval) else as_rational(y)
    fracs = [frac_part(yq * seq.term(n)) for n in range(1, count + 1)]
    return Mod1Profile(count, _circular_max_gap(fracs))


class ClusterCheck(NamedTuple):
    """Minimal circular covering interval of the doubled dilates.

    `covering_length` is exact for rational inputs, a certified lower
    bound for enclosures.
    """

    count: int
    covering_length: Fraction
    conditional: bool = False


def dubickas_gap_check(y: RationalOrEnclosure, count: int) -> ClusterCheck:
    """Clustering of y*2^n modulo 1.

    Reports the length of the shortest circular interval containing
    all the fractional parts; dilates meeting the hypothesis are
    expected to need length at least 1/2, and rational test points
    below that threshold sit outside it.
    """
    if count < 2:
        raise InvalidParameterError("need at least two samples")
    lo, hi = (y.lo, y.hi) if isinstance(y, Interval) else (as_rational(y),) * 2
    if lo <= 0 <= hi:  # a rational is its own two ends
        raise InvalidParameterError("the dilate, or its enclosure, must exclude 0")
    prof = density_mod1(sequences.geometric_up(2), y, count)
    return ClusterCheck(count, 1 - prof.max_gap, prof.conditional)


# ---------------------------------------------------------------------------
# coefficient-mass search


class CoefficientMassBound(NamedTuple):
    """Upper bound on the infimum of L(f*g) over cofactors g with
    constant or leading coefficient 1.

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


# Cap on the summed work of the cofactor search: each of its layers
# visits up to len(grid)**deg(f) states and tries each grid value from
# each, and the max_deg + 2 families hold (max_deg + 1)(max_deg + 4)/2
# layers in all, so a fine step, a high-degree f or a high max_deg is
# refused before the grid and the families are built.  On a 2-CPU VM a
# search just under the cap (239 values, deg(f) = 1, max_deg 6: 35
# layers) took 0.6 s; criterion 09's widest search (129 values, the same
# degrees) needs 35 * 129^2 = 582435.
MAX_DP_WORK = 2 * 10**6


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
    under grid refinement and degree growth.  A search whose layers
    would together exceed MAX_DP_WORK raises ResourceLimitError.
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
    width = 2 * reach + 1
    layers = work = (max_deg + 1) * (max_deg + 4) // 2
    for _ in f:
        work *= width
        if work > MAX_DP_WORK:
            raise ResourceLimitError(
                f"{layers} search layers of {width}^{len(f)} (state, value) pairs ({width} grid "
                f"values, a degree-{len(f) - 1} f) exceed the cap MAX_DP_WORK = {MAX_DP_WORK}; "
                f"take a coarser step, a smaller bound or a lower max_deg"
            )
    # integer grid: f scaled by the lcm D of its denominators, cofactor
    # values in units of 1/den(step), costs in units of 1/(D*den(step))
    scale, f_int = on_one_denominator(*f)
    unit = step.denominator
    grid = [j * step.numerator for j in range(-reach, reach + 1)]
    one = [unit]
    # constant coefficient pinned to 1, degree max_deg (zero tail covers less)
    families = [[one] + [grid] * max_deg]
    # leading coefficient pinned to 1, every degree up to max_deg
    families += [[grid] * m + [one] for m in range(max_deg + 1)]
    # the first family reaching the least mass wins, as does its witness
    cost, witness = min((_min_mass_dp(f_int, fam) for fam in families), key=lambda t: t[0])
    return CoefficientMassBound(
        Fraction(cost, scale * unit), tuple(Fraction(g, unit) for g in witness), max_deg
    )


def _min_mass_dp(f: list[int], allowed: list[list[int]]) -> tuple[int, list[int]]:
    """Exact min of sum |(f*g)_i| over integer g with per-position value
    sets.

    A state is the last len(f) - 1 values of g.  Each layer keeps the
    cost of every state and a pointer to the state it came from; on
    equal cost the state reached first wins.  The zero layers that
    flush the trailing coefficients leave the zero state alone, and the
    witness is read back from it along the pointers.
    """
    df = len(f) - 1
    f0, f_rev = f[0], f[:0:-1]  # f_rev[i] multiplies state[i]
    dp = {(0,) * df: 0}
    back = []
    for values in allowed + [[0]] * df:
        ndp: dict[tuple, int] = {}
        came: dict[tuple, tuple] = {}
        for state, cost in dp.items():
            base = sum(map(operator.mul, f_rev, state))
            rest = state[1:]
            for g in values:
                c = f0 * g + base
                ncost = cost + abs(c)
                nstate = rest + (g,) if df else state
                prev = ndp.get(nstate)
                if prev is None or ncost < prev:
                    ndp[nstate] = ncost
                    came[nstate] = (state, g)
        back.append(came)
        dp = ndp
    state = (0,) * df
    cost = dp[state]
    hist = []
    for came in reversed(back):
        state, g = came[state]
        hist.append(g)
    hist.reverse()
    return cost, hist[: len(allowed)]


# ---------------------------------------------------------------------------
# log-domain escape for geometric sequences


class LogEscapeCertificate(NamedTuple):
    """Escape of y*b^-n from exp(-F) for every (y, b) in the box: every
    parameter has escaped by step `witness_index`."""

    y_box: Interval
    b_box: Interval
    status: str
    witness_index: Optional[int] = None
    route: Optional[str] = None  # "gap" | "point"


def geometric_escape_via_log(
    f_set: PLargeSet,
    y_box: Interval,
    b_box: Interval,
    n_max: int,
    log_y: Optional[Interval] = None,
    log_b: Optional[Interval] = None,
    bits: int = 64,
) -> LogEscapeCertificate:
    """Certify that y*b^-n leaves the exponential image of an avoider.

    The term y*b^-n belongs to exp(-F) exactly when n*ln(b) - ln(y)
    belongs to F: the trajectory x + n*s with offset x = -ln(y) and step
    s = ln(b).  The exact (x, s) image of the box lies inside the
    enclosure rectangle [-ln(y).hi, -ln(y).lo] x [ln(b).lo, ln(b).hi]
    (rational, outward rounded), so `_cover_escape_step` on that
    rectangle certifies escape for every parameter in the box, by the
    step it returns.  The route is "point" when the rectangle is a
    point, as with exact (injected) logs in the integer-sequence case,
    and "gap" otherwise.

    The four enclosure ends go on one denominator L, the lcm of theirs
    (2^(bits+2) for computed enclosures), once per box.  The cover gives
    up, inconclusive, past n_max steps, past COVER_BUDGET pieces, or once
    an image's upper end lies past the set's cell guard.
    """
    if y_box.lo <= 0:
        raise InvalidParameterError("dilate box must be strictly positive")
    if b_box.lo <= 1:
        raise InvalidParameterError("base box must exceed 1")
    gen = _digit_generator(f_set, "log escape", n_max)
    ly = log_y if log_y is not None else enclosures.ln_interval(y_box, bits)
    lb = log_b if log_b is not None else enclosures.ln_interval(b_box, bits)
    L, (yl, yh, bl, bh) = on_one_denominator(ly.lo, ly.hi, lb.lo, lb.hi)
    n = _cover_escape_step(gen, -yh, -yl, bl, bh, L, n_max, f_set.guard, COVER_BUDGET)
    if n is None:
        return LogEscapeCertificate(y_box, b_box, "inconclusive")
    route = "point" if yl == yh and bl == bh else "gap"
    return LogEscapeCertificate(y_box, b_box, "certified", n, route)


def sweep_log_escape(
    f_set: PLargeSet,
    y_range: Interval,
    b_range: Interval,
    y_cells: int,
    b_cells: int,
    n_max: int = 64,
    bits: int = 64,
) -> tuple[list[LogEscapeCertificate], dict]:
    """Grid sweep in (dilate, base) space: each certificate proves escape
    for every (y, b) of its whole grid cell.  Each slice `Grid` hands out
    gets its log enclosure once (none if its lower end is at or below 0,
    so that `geometric_escape_via_log` refuses the cell).  The stats keep
    `first_pass` (equal to `certified`) and `resolved_by_refinement`
    (always 0), which criterion 10 and perfbench read.
    """
    logs: dict = {}
    certs = []
    for y_box, b_box in Grid(y_range, b_range, y_cells, b_cells):
        for box in (y_box, b_box):
            if box not in logs:
                logs[box] = enclosures.ln_interval(box, bits) if box.lo > 0 else None
        certs.append(geometric_escape_via_log(f_set, y_box, b_box, n_max, logs[y_box], logs[b_box], bits))
    certified = sum(c.status == "certified" for c in certs)
    stats = {"boxes": len(certs), "certified": certified, "first_pass": certified,
             "resolved_by_refinement": 0}
    return certs, stats
