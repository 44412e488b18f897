import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosavoid.enclosures import sqrt_enclosure
from erdosavoid.errors import (
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
)
from erdosavoid.intervals import Grid, Interval, IntervalSet, ivl
from erdosavoid.largescale import (
    AUDIT_STEPS,
    DigitGenerator,
    DigitSchedule,
    LinearEscapeCertificate,
    PLargeSet,
    certify_linear_escape,
    density_mod1,
    digit_avoider,
    dubickas_gap_check,
    ell_upper_bound,
    fractional_set,
    geometric_escape_via_log,
    is_p_large,
    point_escape_index,
    quotient_avoider,
    sweep_linear_escape,
    sweep_log_escape,
    validate_linear_escape,
    _cover_escape_step,
    _escape_index,
    _span_escapes,
    audit_range,
)
from erdosavoid.rationals import on_one_denominator
from erdosavoid.sequences import linear

from helpers import (
    audit_sweeps,
    certify_linear_escape_doubling,
    coefficient_mass,
    interval_image,
    poly_mul,
    reference_certify_linear_escape,
    reference_cover_escape_step,
    reference_ell_upper_bound,
    reference_escape_index,
    reference_geometric_escape_via_log,
    reference_point_escape_index,
    reference_point_escapes,
    reference_removed_parts,
    reference_span_escapes,
    reference_validate_linear_escape,
)

F = Fraction


# --- digit schedule and cells -------------------------------------------------


def test_schedule_prefix_m4():
    s = DigitSchedule(4)
    assert [s.digit(i) for i in range(12)] == [0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 0, 0]


def test_schedule_block_sizes():
    s = DigitSchedule(4)
    # block r carries (m-1)*r entries
    start = 0
    for r in range(1, 6):
        block = [s.digit(i) for i in range(start, start + 3 * r)]
        assert block == [0] * r + [1] * r + [2] * r
        start += 3 * r


def test_digit_cells_measure():
    e = digit_avoider(4, 12)
    for k in range(12):
        assert e.cell(k).measure() == F(1, 2)
    e3 = digit_avoider(3, 6)
    for k in range(6):
        assert e3.cell(k).measure() == F(1, 3)


def test_digit_cell_zero_shape():
    e = digit_avoider(4, 1)
    # scheduled digit 0: keep the middle half plus removed-part endpoints
    assert e.cell(0) == IntervalSet.of((0, 0), (F(1, 4), F(3, 4)), (1, 1))


def test_removed_parts_are_the_top_and_the_scheduled_one():
    # part t = k*m + j is removed exactly when j is one of cell k's removed digits
    for m in (3, 4, 5):
        gen = digit_avoider(m, 1).generator
        for t in range(-6 * m, 6 * m):
            k, j = divmod(t, m)
            assert gen.removed(t) == (j in gen.removed_digits(k)), (m, t)


def test_fractional_set_largeness_is_sharp():
    e = fractional_set(F(1, 2), 10)
    assert is_p_large(e, F(1, 2))
    assert not is_p_large(e, F(1, 2) + F(1, 1000))
    z = fractional_set(0, 3)
    assert z.cell(0).measure() == 0


def test_digit_avoider_largeness():
    assert is_p_large(digit_avoider(4, 200), F(1, 2))


# --- escape certification ----------------------------------------------------


def test_point_escape_integer_sequence():
    e = digit_avoider(4, 10)
    # offsets are 0; the first cell with scheduled digit 0 is cell 3
    assert point_escape_index(e, 0, 1, 64) == 3


def test_point_escape_shifted_offsets():
    e = digit_avoider(4, 10)
    # offset 1/8 sits in the first quarter: same block-gap route
    assert point_escape_index(e, F(1, 8), 1, 64) == 3
    # offset 7/8 sits in the always-removed top part: immediate escape
    assert point_escape_index(e, F(7, 8), 1, 64) == 1


def test_certified_point_box_route():
    e = digit_avoider(4, 10)
    cert = certify_linear_escape(e, ivl(0, 0), ivl(1, 1), 64)
    assert cert.status == "certified"
    assert cert.route == "point"
    assert cert.witness_index == 3


def test_width_rule_fires():
    e = digit_avoider(4, 64)
    cert = certify_linear_escape(e, ivl(0, 0), ivl(1, F(11, 10)), 20)
    assert cert.status == "certified"
    assert cert.witness_index <= 10
    assert validate_linear_escape(e, cert, samples=50, seed=3)


def test_width_rule_soundness_structural():
    # any unit-length image contains a whole removed part of some cell
    e = digit_avoider(4, 64)
    for start in [F(0), F(1, 3), F(7, 8), F(13, 10), F(29, 7)]:
        img = Interval(start, start + 1)
        found = False
        for k in range(int(start) - 1, int(start) + 3):
            for part in reference_removed_parts(e, k):
                shifted = interval_image(part, 1, k)
                if img.lo <= shifted.lo and shifted.hi <= img.hi:
                    found = True
        assert found, start


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(3, 6),
    x=st.fractions(min_value=-4, max_value=4, max_denominator=24),
    y=st.fractions(min_value=0, max_value=4, max_denominator=24).filter(lambda q: q > 0),
)
def test_escape_predicates_agree_on_linear_trajectories(m, x, y):
    # the scan over x + n*y and the single-point test must name the
    # same first escape step
    e = digit_avoider(m, 8)
    n_max = 48
    n = point_escape_index(e, x, y, n_max)
    last = n if n is not None else n_max
    for step in range(1, last + 1):
        assert reference_point_escapes(e, x + step * y) == (step == n)


@st.composite
def digit_spans(draw):
    """(set, lo, hi): ends anywhere, on part boundaries or on integers,
    spans up to three cells wide, some degenerate, and spans hugging a
    removed part so that a fair share of them escape."""
    m = draw(st.sampled_from([3, 4, 5, 7]))
    gen = DigitGenerator(m)
    e = PLargeSet(F(m - 2, m), 4, gen)

    def end(low, high):
        kind = draw(st.sampled_from([1, m, None]))  # integer, part boundary, any
        if kind is not None and math.ceil(low * kind) <= math.floor(high * kind):
            return F(draw(st.integers(math.ceil(low * kind), math.floor(high * kind))), kind)
        return draw(st.fractions(min_value=low, max_value=high, max_denominator=60))

    if draw(st.booleans()):
        lo = end(-6, 7)
        hi = lo if draw(st.integers(0, 3)) == 0 else end(lo, lo + 3)
    else:
        # around a removed part of cell k: its scheduled part or its top one
        k = draw(st.integers(-6, 6))
        j = draw(st.sampled_from([gen.scheduled_digit(k), m - 1]))
        t = F(k * m + j, m)
        lo = end(t - F(1, 2 * m), t + F(1, m))
        hi = end(lo, t + F(3, 2 * m))
    return e, lo, hi


def span_escapes(gen, lo: F, hi: F, scale: int = 1) -> bool:
    """`_span_escapes` on two Fraction ends, put on scale times the lcm
    of their denominators (any common denominator serves)."""
    den = math.lcm(lo.denominator, hi.denominator) * scale
    return _span_escapes(
        gen, lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den
    )


def cover_step(gen, x_box, y_box, n_max: int, guard: int, budget: int):
    """`_cover_escape_step` on a box of Fraction ends, put on the lcm of
    their denominators."""
    L, nums = on_one_denominator(x_box.lo, x_box.hi, y_box.lo, y_box.hi)
    return _cover_escape_step(gen, *nums, L, n_max, guard, budget)


@settings(max_examples=600, deadline=None)
@given(span=digit_spans(), scale=st.integers(1, 6))
def test_span_escapes_matches_fraction_reference(span, scale):
    e, lo, hi = span
    assert span_escapes(e.generator, lo, hi, scale) == reference_span_escapes(e, lo, hi)


def test_span_escapes_over_adjacent_removed_parts():
    # m = 4, one track: cells 2, 3, 4 take digits 2, 0, 0, so cell 2
    # removes parts 2 and 3 together and cells 2-3, 3-4 join at integers
    e = digit_avoider(4, 8)
    gen = e.generator
    assert [gen.scheduled_digit(k) for k in range(1, 5)] == [1, 2, 0, 0]
    cases = [
        (F(5, 2), F(3), True),  # digit m-2 plus the top part, up to the integer
        (F(5, 2), F(23, 8), True),
        (F(19, 8), F(23, 8), False),  # reaches into the kept part 1
        (F(11, 4), F(13, 4), True),  # top of cell 2 plus digit 0 of cell 3
        (F(15, 4), F(17, 4), True),  # top of cell 3 plus digit 0 of cell 4
        (F(3, 4), F(5, 4), False),  # cell 1 removes digit 1, not 0
        (F(11, 4), F(7, 2), False),  # past digit 0 of cell 3
        (F(1), F(1), False),  # integer point of a cell without digit 0
        (F(3), F(3), True),
    ]
    for lo, hi, escapes in cases:
        assert span_escapes(gen, lo, hi) == escapes, (lo, hi)
        assert reference_span_escapes(e, lo, hi) == escapes, (lo, hi)


unit_points = st.fractions(min_value=0, max_value=1, max_denominator=24)
steps = st.fractions(min_value=0, max_value=6, max_denominator=24).filter(lambda q: q > 0)


@st.composite
def escape_boxes(draw):
    """(x_box, y_box) with either side possibly a single point."""
    x_lo, x_hi = sorted([draw(unit_points), draw(unit_points)])
    if draw(st.booleans()):
        x_hi = x_lo
    y_lo, y_hi = sorted([draw(steps), draw(steps)])
    if draw(st.booleans()):
        y_hi = y_lo
    return Interval(x_lo, x_hi), Interval(y_lo, y_hi)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ResourceLimitError as exc:
        return ("ResourceLimitError", str(exc))


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(3, 6),
    boxes=escape_boxes(),
    n_max=st.integers(1, 24),
    guard=st.sampled_from([3, 12, 1_000_000]),
)
def test_certify_matches_fraction_reference(m, boxes, n_max, guard):
    # every field: status, witness n, route, witness cell and part; a
    # guard overrun must name the same step
    e = PLargeSet(F(m - 2, m), 4, DigitGenerator(m), guard=guard)
    x_box, y_box = boxes
    got = _outcome(certify_linear_escape, e, x_box, y_box, n_max)
    want = _outcome(reference_certify_linear_escape, e, x_box, y_box, n_max)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(3, 6),
    boxes=escape_boxes(),
    witness=st.integers(1, 8),
    samples=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    n_limit=st.one_of(st.none(), st.integers(1, 6)),
    guard=st.sampled_from([4, 1_000_000]),
)
def test_validate_matches_fraction_reference(m, boxes, witness, samples, seed, n_limit, guard):
    # a small n_limit forces False verdicts; both sides draw the same samples
    e = PLargeSet(F(m - 2, m), 4, DigitGenerator(m), guard=guard)
    cert = LinearEscapeCertificate(*boxes, "certified", witness, "width")
    args = (e, cert, samples, seed, n_limit)
    got = _outcome(validate_linear_escape, *args)
    assert got == _outcome(reference_validate_linear_escape, *args)


def test_validate_reference_sees_false_verdicts():
    # the property above is not vacuous: n_limit = 1 fails these boxes
    e = digit_avoider(4, 8)
    cert = LinearEscapeCertificate(ivl(0, F(1, 2)), ivl(1, 2), "certified", 1, "width")
    assert not validate_linear_escape(e, cert, samples=20, n_limit=1)
    assert not reference_validate_linear_escape(e, cert, samples=20, n_limit=1)


def test_validate_matches_reference_on_passing_and_failing_boxes():
    # short limits fail some boxes and pass others; both sides agree on each
    e = digit_avoider(4, 8)
    verdicts = set()
    for k, (x_box, y_box) in enumerate(Grid(ivl(0, 1), ivl(F(1, 8), 3), 4, 4)):
        cert = LinearEscapeCertificate(x_box, y_box, "certified", 1, "width")
        for n_limit in (1, 2, 4, None):
            got = validate_linear_escape(e, cert, samples=30, seed=k, n_limit=n_limit)
            want = reference_validate_linear_escape(e, cert, samples=30, seed=k, n_limit=n_limit)
            assert got == want, (k, n_limit)
            verdicts.add((n_limit, got))
    assert {(2, True), (2, False), (4, True), (4, False)} <= verdicts


def _sample_outcomes(e, cert, samples, seed, n_limit):
    """Each sample's escape step by the Fraction reference, None when it
    does not escape by n_limit, "guard" when it leaves the cell guard;
    the samples are those of `reference_validate_linear_escape`."""
    rng = random.Random(seed)
    outcomes = []
    for _ in range(samples):
        x = cert.x_box.lo + cert.x_box.length * F(rng.randrange(1, 128), 128)
        y = cert.y_box.lo + cert.y_box.length * F(rng.randrange(1, 128), 128)
        try:
            outcomes.append(reference_point_escape_index(e, x, y, n_limit))
        except ResourceLimitError:
            outcomes.append("guard")
    return outcomes


def test_validate_stops_at_the_first_failing_sample():
    # guard 4, limit 2: seed 5 fails its second sample before its fourth
    # leaves the guard, and seed 11 leaves the guard at its third sample
    # before its fourth fails; whichever comes first decides
    e = PLargeSet(F(1, 2), 4, DigitGenerator(4), guard=4)
    cert = LinearEscapeCertificate(ivl(0, 1), ivl(F(1, 2), 3), "certified", 1, "width")
    assert _sample_outcomes(e, cert, 4, 5, 2) == [1, None, 1, "guard"]
    assert _sample_outcomes(e, cert, 4, 11, 2) == [1, 1, "guard", None]
    for validate in (validate_linear_escape, reference_validate_linear_escape):
        assert validate(e, cert, 4, 5, 2) is False
        with pytest.raises(ResourceLimitError, match="at n = 2"):
            validate(e, cert, 4, 11, 2)


def _no_sampling(monkeypatch):
    """Make drawing any sample in `validate_linear_escape` fail the test."""
    import erdosavoid.largescale as largescale

    monkeypatch.setattr(largescale.random, "Random", lambda seed: pytest.fail("sampled"))


def test_box_settle_stops_at_the_sampling_limit():
    # every trajectory of this box escapes by step 3, not all by step 2:
    # the settle fires at n_limit = 3 and sampling decides n_limit = 2
    e = digit_avoider(4, 8)
    x_box, y_box = ivl(0, F(1, 12)), ivl(F(167, 192), F(33, 32))
    assert cover_step(e.generator, x_box, y_box, 64, e.guard, 100) == 3
    assert cover_step(e.generator, x_box, y_box, 2, e.guard, 100) is None
    cert = LinearEscapeCertificate(x_box, y_box, "certified", 64, "width")
    for n_limit, want in ((3, True), (2, False)):
        assert reference_validate_linear_escape(e, cert, samples=20, n_limit=n_limit) == want
        assert validate_linear_escape(e, cert, samples=20, n_limit=n_limit) == want


def test_box_settle_falls_through_past_the_guard():
    # the box's image at step 1, [169/64, 25/8], escapes but lies past a
    # guard of 2: sampling runs and raises where it always did
    e = PLargeSet(F(1, 2), 4, DigitGenerator(4), guard=2)
    x_box, y_box = ivl(0, F(1, 8)), ivl(F(169, 64), 3)
    assert cover_step(e.generator, x_box, y_box, 64, 10**6, 100) == 1
    assert cover_step(e.generator, x_box, y_box, 64, e.guard, 100) is None
    cert = LinearEscapeCertificate(x_box, y_box, "certified", 1, "width")
    for validate in (validate_linear_escape, reference_validate_linear_escape):
        with pytest.raises(ResourceLimitError, match="at n = 1"):
            validate(e, cert, samples=20)


def test_box_settle_agrees_with_sampling_on_the_criterion_grid(monkeypatch):
    # an 8x8 grid of criterion 06's boxes, every 13th along each axis:
    # settled boxes and sampled ones alike give the Fraction reference's
    # verdict, at the default limit and at limits 1 and 2, too short for
    # the cover, so that sampling runs and fails some boxes
    import erdosavoid.largescale as largescale

    e = digit_avoider(4, 200)
    settled = []
    real = largescale._cover_escape_step
    monkeypatch.setattr(largescale, "_cover_escape_step",
                        lambda *args: settled.append(real(*args)) or settled[-1])
    grid = Grid(ivl(0, 1), ivl(F(1, 1000), 10), 100, 100)
    boxes = [grid.cell(100 * i + j) for i in range(0, 100, 13) for j in range(0, 100, 13)]
    certs = [certify_linear_escape(e, x_box, y_box, 4096) for x_box, y_box in boxes]
    assert len(certs) == 64 and all(c.status == "certified" for c in certs)
    verdicts = set()
    for i, cert in enumerate(certs):
        for n_limit in (None, 1, 2):
            got = validate_linear_escape(e, cert, samples=20, seed=i, n_limit=n_limit)
            assert got == reference_validate_linear_escape(e, cert, 20, i, n_limit), (i, n_limit)
            verdicts.add(got)
    assert verdicts == {True, False}
    fired = sum(n is not None for n in settled)
    assert 0 < fired < len(settled)


def test_box_settle_budget_does_not_follow_samples(monkeypatch):
    # box 3133 of criterion 06's grid needs more than 10 pieces: audited
    # with 5 samples it still settles by the cover, and none is drawn
    e = digit_avoider(4, 200)
    x_box, y_box = Grid(ivl(0, 1), ivl(F(1, 1000), 10), 100, 100).cell(3133)
    assert cover_step(e.generator, x_box, y_box, 4096, e.guard, 10) is None
    cert = certify_linear_escape(e, x_box, y_box, 4096)
    assert cert.status == "certified"
    _no_sampling(monkeypatch)
    assert validate_linear_escape(e, cert, samples=5)


def test_audit_settles_boxes_on_the_sample_hull(monkeypatch):
    # the bottom row of a 100x100 grid on y 1/100000:10: y_lo = 1/100000
    # puts the no-jump bound ceil(2/y_lo) past the limit 4096, so the
    # cover cannot settle these boxes, but the sample hull starts at
    # y_lo + wy/128 and settles every one of them
    e = digit_avoider(4, 200)
    grid = Grid(ivl(0, 1), ivl(F(1, 100000), 10), 100, 100)
    certs = [certify_linear_escape(e, *grid.cell(100 * i), 4096) for i in range(100)]
    assert all(c.status == "certified" for c in certs)
    assert all(cover_step(e.generator, c.x_box, c.y_box, 4096, e.guard, 1000) is None
               for c in certs)
    # box 3915 of criterion 06's grid: its hull escapes at step 1, but
    # the box, and the hull stretched to the box's upper x end, only by 4
    x_box, y_box = Grid(ivl(0, 1), ivl(F(1, 1000), 10), 100, 100).cell(3915)
    assert cover_step(e.generator, x_box, y_box, 4096, e.guard, 1000) == 4
    lattice_hull = (ivl(x_box.lo + x_box.length / 128, x_box.lo + x_box.length * F(127, 128)),
                    ivl(y_box.lo + y_box.length / 128, y_box.lo + y_box.length * F(127, 128)))
    assert cover_step(e.generator, *lattice_hull, 1, e.guard, 1000) == 1
    assert cover_step(e.generator, ivl(lattice_hull[0].lo, x_box.hi), lattice_hull[1],
                      4096, e.guard, 1000) == 4
    box_cert = certify_linear_escape(e, x_box, y_box, 4096)
    assert reference_validate_linear_escape(e, box_cert, 100, 0, 1)
    _no_sampling(monkeypatch)
    for i, cert in enumerate(certs):
        assert validate_linear_escape(e, cert, samples=100, seed=100 * i)
    assert validate_linear_escape(e, box_cert, samples=100, n_limit=1)


@pytest.mark.parametrize("cells", [24, 100])
def test_cover_settles_every_box_of_the_criterion_grids(cells):
    # perfbench's 24x24 grid and criterion 06's 100x100 one: every box
    # settles with at most 20 pieces, so the audit samples none of them
    e = digit_avoider(4, 200)
    grid = Grid(ivl(0, 1), ivl(F(1, 1000), 10), cells, cells)
    steps = [cover_step(e.generator, x, y, 4096, e.guard, 20) for x, y in grid]
    assert None not in steps


def test_cover_takes_the_no_jump_bound_on_the_line():
    # y_lo = 1/4 = 1/m: the segment y = 1/4 takes the no-jump bound
    # ceil(2/y_lo) = 8, past the step 4 that settles the box just above
    e = digit_avoider(4, 8)
    x_box = ivl(0, F(1, 8))
    assert cover_step(e.generator, x_box, ivl(F(1, 4), F(3, 10)), 64, e.guard, 100) == 8
    assert cover_step(e.generator, x_box, ivl(F(1, 4), F(3, 10)), 7, e.guard, 100) is None
    assert cover_step(e.generator, x_box, ivl(F(26, 100), F(3, 10)), 64, e.guard, 100) == 4


def test_cover_keeps_a_piece_that_only_touches_a_run():
    # the segment x in [0, 1/2], y = 3/2 has image [3/2, 2] at step 1,
    # whose end 2 meets cell 2's kept part 0 in that one point: the point
    # piece stays, since x = 1/2 escapes only at step 4
    e = digit_avoider(4, 8)
    segment = ivl(0, F(1, 2)), ivl(F(3, 2), F(3, 2))
    assert cover_step(e.generator, *segment, 64, e.guard, 100) == 4
    assert point_escape_index(e, F(1, 2), F(3, 2), 64) == 4


def test_cover_settles_on_its_exact_piece_budget():
    # x 0:1, y 1:2 settles at step 8 after 40 pieces in all, the last
    # ones kept at step 7: a budget of 40 is enough, 39 gives up
    e = digit_avoider(4, 8)
    x_box, y_box = ivl(0, 1), ivl(1, 2)
    for budget, want in ((40, 8), (39, None)):
        assert cover_step(e.generator, x_box, y_box, 4096, e.guard, budget) == want
        assert reference_cover_escape_step(e, x_box, y_box, 4096, budget) == want


def test_range_audit_stops_at_the_audit_steps():
    # below y = 1/m only the no-jump bound ceil(2/y_lo) settles a range:
    # 4096 = AUDIT_STEPS at y_lo = 2/4096, one step too many at 2/4097
    e = digit_avoider(4, 200)
    assert AUDIT_STEPS == 4096
    assert audit_range(e, ivl(0, 1), ivl(F(2, 4096), F(1, 8)))
    assert not audit_range(e, ivl(0, 1), ivl(F(2, 4097), F(1, 8)))
    # criterion 06's whole range settles; y 100:1000 passes the budget
    assert audit_range(e, ivl(0, 1), ivl(F(1, 1000), 10))
    assert not audit_range(digit_avoider(4, 2000), ivl(0, 1), ivl(100, 1000))


@settings(max_examples=40, deadline=None)
@given(audit_sweeps(), st.integers(0, 10**6))
def test_settled_range_passes_every_box_audit(case, seed):
    # a range the cover settles holds no box whose certificate fails the
    # Fraction audit, at the witness of a 64-step scan
    m, x_range, y_range, (x_cells, y_cells) = case
    e = digit_avoider(m, 16)
    if not audit_range(e, x_range, y_range):
        return
    for i, (x_box, y_box) in enumerate(Grid(x_range, y_range, x_cells, y_cells)):
        cert = certify_linear_escape(e, x_box, y_box, 64)
        assert reference_validate_linear_escape(e, cert, samples=20, seed=seed + i), cert


@st.composite
def cover_boxes(draw):
    """Boxes in [-3, 3] x (0, 7/2] on small denominators, so that images
    end on integers and part boundaries, often resting on or crossing
    y = 1/m; offsets below 0 and above 1 are those of log escape's
    rectangles.  The digit set's m and a guard small enough to trip."""
    m = draw(st.integers(3, 7))
    guard = draw(st.sampled_from([2, 6, 1_000_000]))
    e = PLargeSet(F(m - 2, m), 4, DigitGenerator(m), guard=guard)
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, m, 2 * m, 4 * m]))
    lo = draw(st.sampled_from([0, 0, -1, -3, 1]))
    xs = sorted(F(draw(st.integers(lo * den, (lo + 2) * den)), den) for _ in range(2))
    y_lo = draw(st.one_of(
        st.just(F(1, m)),
        st.fractions(min_value=F(1, 3 * m), max_value=F(2, m), max_denominator=4 * m),
        st.fractions(min_value=F(1, 3 * m), max_value=3, max_denominator=48),
    ))
    y_hi = y_lo + draw(st.one_of(
        st.just(F(0)),
        st.fractions(min_value=0, max_value=F(1, 2), max_denominator=4 * m),
    ))
    return e, ivl(*xs), ivl(y_lo, y_hi)


@settings(max_examples=300, deadline=None)
@given(cover_boxes(), st.integers(1, 40), st.integers(0, 40))
def test_cover_matches_the_fraction_clipper(case, n_max, budget):
    e, x_box, y_box = case
    got = cover_step(e.generator, x_box, y_box, n_max, e.guard, budget)
    assert got == reference_cover_escape_step(e, x_box, y_box, n_max, budget)


def _box_points(x_box, y_box, step, m):
    """Corners, the 3x3 inner points of a 4x4 subdivision, and the edge
    points whose image at some step up to `step` is a part boundary t/m."""
    xs, ys = (x_box.lo, x_box.hi), (y_box.lo, y_box.hi)
    points = {(x, y) for x in xs for y in ys}
    points |= {(x_box.lo + x_box.length * F(i, 4), y_box.lo + y_box.length * F(j, 4))
               for i in range(1, 4) for j in range(1, 4)}
    for n in range(1, step + 1):
        for x in xs:  # vertical edges: x + n*y = t/m
            for t in range(math.ceil((x + n * y_box.lo) * m), math.floor((x + n * y_box.hi) * m) + 1):
                points.add((x, (F(t, m) - x) / n))
        for y in ys:  # horizontal edges
            for t in range(math.ceil((x_box.lo + n * y) * m), math.floor((x_box.hi + n * y) * m) + 1):
                points.add((F(t, m) - n * y, y))
    return points


@settings(max_examples=200, deadline=None)
@given(cover_boxes(), st.integers(0, 60))
def test_cover_is_sound_on_boundary_points(case, budget):
    # every corner, edge point on a part boundary and interior lattice
    # point of a settled box escapes by the returned step
    e, x_box, y_box = case
    e.guard = 1_000_000
    step = cover_step(e.generator, x_box, y_box, 64, e.guard, budget)
    if step is None:
        return
    for x, y in _box_points(x_box, y_box, step, e.generator.m):
        assert point_escape_index(e, x, y, step) is not None, (x, y, step)


def test_validation_memory_does_not_grow_with_samples():
    # a million samples on a box that fails at n_limit = 1: the first
    # failing sample decides, and no list of all samples is built
    e = digit_avoider(4, 8)
    cert = LinearEscapeCertificate(ivl(0, F(1, 2)), ivl(1, 2), "certified", 1, "width")
    tracemalloc.start()
    try:
        assert not validate_linear_escape(e, cert, samples=10**6, n_limit=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@st.composite
def trajectories(draw):
    """Arguments of `_escape_index`: starts and steps of either sign,
    denominators that put points on part boundaries (r = 0) and on
    integers or not, and guards small enough to trip."""
    m = draw(st.sampled_from([3, 4, 5, 7]))
    gen = DigitGenerator(m)
    if draw(st.booleans()):
        den = draw(st.sampled_from([1, m, 2 * m, m * m]))
    else:
        den = draw(st.integers(1, 40))
    part = den // m if den % m == 0 else den  # a step along part boundaries
    ax = draw(st.one_of(st.integers(-6, 6).map(lambda q: q * part), st.integers(-6 * den, 6 * den)))
    ay = draw(st.one_of(st.integers(-6, 6).map(lambda q: q * part), st.integers(-3 * den, 3 * den)))
    n_max = draw(st.integers(1, 30))
    guard = draw(st.sampled_from([0, 1, 2, 5, 1_000_000]))
    return gen, ax, ay, den, n_max, guard


@settings(max_examples=500, deadline=None)
@given(scan=trajectories())
def test_escape_index_matches_cell_scan(scan):
    # the same first step, or the guard error at the same n
    assert _outcome(_escape_index, *scan) == _outcome(reference_escape_index, *scan)


def test_escape_index_on_boundaries_and_integers():
    # m = 4, one track: cells -1..4 take digits 0, 0, 1, 2, 0, 0
    gen = DigitGenerator(4)
    assert [gen.scheduled_digit(k) for k in range(-1, 5)] == [0, 0, 1, 2, 0, 0]
    cases = [
        (4, None),  # the integer 1: cell 1 keeps part 0
        (12, 1),  # the integer 3: cell 3 removes part 0, cell 2 its top
        (6, 1),  # 1 + 2/4: top of the removed part 1 of cell 1
        (7, 1),  # 1 + 3/4: bottom of the top part
        (9, None),  # 2 + 1/4: between the kept parts 0 and 1 of cell 2
        (5, 1),  # 1 + 1/4: bottom of the removed part 1
        (-1, 1),  # -1/4: inside the top part of cell -1
        (-2, None),  # -1/2: between the kept parts 1 and 2 of cell -1
        (2, None),  # 1/2: between the kept parts 1 and 2 of cell 0
    ]
    for s, want in cases:
        for kernel in (_escape_index, reference_escape_index):
            assert kernel(gen, s, 0, 4, 1, 10) == want, (kernel.__name__, s)
    # cell 5 keeps the integer, cell 10 is past a guard of 5 or 9
    for guard in (5, 9):
        for kernel in (_escape_index, reference_escape_index):
            with pytest.raises(ResourceLimitError, match="at n = 2"):
                kernel(gen, 0, 20, 4, 3, guard)
            with pytest.raises(ResourceLimitError, match="at n = 1"):
                kernel(gen, 0, -4 * (guard + 1), 4, 3, guard)
    assert _escape_index(gen, 0, -20, 4, 1, 5) == 1  # cell -5 is inside, with digit 0
    # over den 8, points inside parts: part 2 of cell 1 lies just above
    # the removed part 1, but only its lower end escapes
    cases = [
        (11, 1),  # 1 + 3/8: inside the removed part 1
        (13, None),  # 1 + 5/8: inside the kept part 2
    ]
    for s, want in cases:
        for kernel in (_escape_index, reference_escape_index):
            assert kernel(gen, s, 0, 8, 1, 10) == want, (kernel.__name__, s)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(3, 6),
    boxes=escape_boxes(),
    n_max=st.integers(1, 12),
    cap=st.integers(0, 40),
    guard=st.sampled_from([3, 12, 1_000_000]),
)
def test_one_scan_matches_doubling(m, boxes, n_max, cap, guard):
    e = PLargeSet(F(m - 2, m), 4, DigitGenerator(m), guard=guard)
    got = _outcome(certify_linear_escape, e, *boxes, max(n_max, cap))
    assert got == _outcome(certify_linear_escape_doubling, e, *boxes, n_max, cap)


def test_one_scan_matches_doubling_when_inconclusive_or_past_the_guard():
    e = PLargeSet(F(1, 2), 4, DigitGenerator(4), guard=5)
    point, box = (ivl(0, 0), ivl(1, 1)), (ivl(0, F(1, 4)), ivl(1, F(9, 8)))
    # the integers first escape at cell 3, beyond depth 2
    for n_max, cap in ((1, 2), (2, 1), (1, 3), (2, 64)):
        for x_box, y_box in (point, box):
            got = _outcome(certify_linear_escape, e, x_box, y_box, max(n_max, cap))
            want = _outcome(certify_linear_escape_doubling, e, x_box, y_box, n_max, cap)
            assert got == want
    assert certify_linear_escape(e, *point, 2).status == "inconclusive"
    # steps of 5 leave cells 0..5 at n = 2 before any escape
    far = (ivl(0, 0), ivl(5, 5))
    for n_max, cap in ((1, 1), (1, 4), (3, 64)):
        got = _outcome(certify_linear_escape, e, *far, max(n_max, cap))
        assert got == _outcome(certify_linear_escape_doubling, e, *far, n_max, cap)
    assert _outcome(certify_linear_escape, e, *far, 4)[0] == "ResourceLimitError"


def test_scan_depth_below_one_is_rejected():
    e = digit_avoider(4, 8)
    for n_max in (0, -3):
        # the point route and a box alike, rather than "inconclusive"
        for x_box, y_box in ((ivl(0, 1), ivl(1, 2)), (ivl(0, 0), ivl(1, 1))):
            with pytest.raises(InvalidParameterError):
                certify_linear_escape(e, x_box, y_box, n_max)
        with pytest.raises(InvalidParameterError):
            point_escape_index(e, 0, 1, n_max)
        with pytest.raises(InvalidParameterError):
            sweep_linear_escape(e, ivl(0, 1), ivl(1, 2), 2, 2, n_max=n_max)


def test_validation_needs_a_sample():
    e = digit_avoider(4, 8)
    certified = certify_linear_escape(e, ivl(0, 1), ivl(1, 2), 16)
    inconclusive = LinearEscapeCertificate(ivl(0, 1), ivl(1, 2), "inconclusive")
    for samples in (0, -5):
        for cert in (certified, inconclusive):
            with pytest.raises(InvalidParameterError):
                validate_linear_escape(e, cert, samples=samples)


def test_sweep_certifies_and_validates():
    e = digit_avoider(4, 64)
    certs = sweep_linear_escape(e, ivl(0, 1), ivl(F(1, 100), 10), 8, 8)
    assert all(c.status == "certified" for c in certs)
    for i, c in enumerate(certs):
        assert validate_linear_escape(e, c, samples=25, seed=i)


def test_escape_requires_digit_structure():
    e = fractional_set(F(1, 2), 4)
    with pytest.raises(InvalidParameterError):
        certify_linear_escape(e, ivl(0, 0), ivl(1, 1), 8)


def test_extension_guard_raises_resource_error():
    from erdosavoid.errors import ResourceLimitError
    from erdosavoid.largescale import DigitGenerator

    e = PLargeSet(F(1, 2), 4, DigitGenerator(4), guard=5)
    with pytest.raises(ResourceLimitError):
        point_escape_index(e, F(1, 8), F(100), 200)


# --- quotient and countable-dilation avoiders --------------------------------


def test_quotient_avoider_exact_cell_audit():
    e = quotient_avoider(2, F(1, 2), 30)
    for k in range(30):
        cell = e.cell(k)
        assert cell.measure() >= F(1, 2)
        # the bound route: deficit within (1+y) * threshold deficit
        assert 1 - cell.measure() <= 3 * (1 - e.generator.q)


def test_quotient_avoider_sharp_case():
    e = quotient_avoider(2, F(9, 10), 100)
    for k in range(100):
        assert 1 - e.cell(k).measure() <= F(1, 10)


def test_quotient_avoider_trivial_p():
    e = quotient_avoider(2, 0, 5)
    assert is_p_large(e, 0)


def test_quotient_avoider_enclosure_dilation():
    y = Interval(F(199, 100), F(201, 100))
    e = quotient_avoider(y, F(1, 2), 10)
    for k in range(10):
        assert e.cell(k).measure() >= F(1, 2)


# --- density and clustering probes -------------------------------------------


def test_density_rational_lock():
    for n in (10, 100, 500):
        prof = density_mod1(linear(), F(1, 2), n)
        assert prof.max_gap == F(1, 2)


def test_density_rational_never_too_dense():
    for q in (3, 7, 11):
        prof = density_mod1(linear(), F(1, q), 200)
        assert prof.max_gap >= F(1, q) > F(1, 2 * q)


def test_density_gap_monotone_in_samples():
    prev = None
    for n in (10, 50, 250):
        prof = density_mod1(linear(), F(5, 17), n)
        if prev is not None:
            assert prof.max_gap <= prev
        prev = prof.max_gap


def test_density_sqrt2_enclosure():
    prof = density_mod1(linear(), sqrt_enclosure(2, 80), 2000)
    assert prof.conditional
    assert prof.max_gap <= F(10, 2000)


def test_density_precision_error_on_wide_enclosure():
    wide = Interval(F(14, 10), F(15, 10))
    with pytest.raises(PrecisionError):
        density_mod1(linear(), wide, 50)


def test_precision_errors_name_a_bit_count():
    # roughly bitlen(floor(a_N)) + 59 bits: N + 60 for a_N = 2^N
    with pytest.raises(PrecisionError, match=r"at n = 64; supply roughly 1060 bits$"):
        dubickas_gap_check(sqrt_enclosure(2, 64), 1000)
    with pytest.raises(PrecisionError, match=r"at n = 12; supply roughly 66 bits$"):
        density_mod1(linear(), sqrt_enclosure(2, 8), 100)


def test_dubickas_excluded_rational():
    # covering length 1/3 < 1/2: the rational dilate is outside the hypothesis
    res = dubickas_gap_check(F(1, 3), 200)
    assert res.covering_length == F(1, 3)
    assert not res.conditional


def test_dubickas_sqrt2_lower_bound():
    res = dubickas_gap_check(sqrt_enclosure(2, 1100), 1000)
    assert res.conditional
    assert res.covering_length >= F(1, 2) - F(1, 50)


def test_dubickas_rejects_zero():
    with pytest.raises(InvalidParameterError):
        dubickas_gap_check(F(0), 10)


# --- coefficient-mass search --------------------------------------------------


def test_ell_constant_cofactor():
    res = ell_upper_bound([-2, 1], 0, 1, 1)
    assert res.value == 3
    assert res.witness == (F(1),)


def test_ell_degree_one_grid_half():
    res = ell_upper_bound([-2, 1], 1, F(1, 2), 1)
    assert res.value == F(5, 2)
    assert res.witness == (F(1), F(1, 2))
    # direct audit of the witness product
    prod = poly_mul([F(-2), F(1)], list(res.witness))
    assert coefficient_mass(prod) == F(5, 2)


def test_ell_telescoping_family_decreasing():
    values = []
    for d in range(1, 7):
        res = ell_upper_bound([-2, 1], d, F(1, 2**d), 1)
        values.append(res.value)
        prod = poly_mul([F(-2), F(1)], list(res.witness))
        assert coefficient_mass(prod) == res.value
    assert values[-1] <= 2 + F(1, 64)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ell_telescoping_witness_is_geometric():
    # frozen: the grid optimum at degree 3 is the geometric cofactor
    res = ell_upper_bound([-2, 1], 3, F(1, 8), 1)
    assert res.value == 2 + F(1, 8)
    assert res.witness == (F(1), F(1, 2), F(1, 4), F(1, 8))


def test_ell_tie_keeps_the_state_reached_first():
    # (1 + x)(1 - x) and (1 + x)*1 both have mass 2; the grid is walked
    # from -1 up, and on equal cost the state reached first wins
    res = ell_upper_bound([1, 1], 1, 1, 1)
    assert res.value == 2
    assert res.witness == (F(1), F(-1))


def test_ell_search_at_the_work_cap_runs(monkeypatch):
    # step 1/2, bound 1: 5 grid values; max_deg 1: 2 + 3 = 5 layers of 5^2 pairs
    import erdosavoid.largescale as largescale

    monkeypatch.setattr(largescale, "MAX_DP_WORK", 5 * 5**2)
    assert ell_upper_bound([-2, 1], 1, F(1, 2), 1).value == F(5, 2)
    monkeypatch.setattr(largescale, "MAX_DP_WORK", 5 * 5**2 - 1)
    with pytest.raises(ResourceLimitError, match="MAX_DP_WORK"):
        ell_upper_bound([-2, 1], 1, F(1, 2), 1)


@settings(max_examples=150, deadline=None)
@given(
    f=st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=1, max_size=3
    ).filter(any),
    max_deg=st.integers(0, 3),
    step=st.sampled_from([F(2, 3), F(3, 8), F(1, 2), F(5, 4)]),
    bound=st.sampled_from([F(1), F(3, 2)]),
)
def test_ell_integer_dp_matches_fraction_reference(f, max_deg, step, bound):
    # 1/step is not an integer for 2/3, 3/8 and 5/4, so the pinned 1 is
    # off the cofactor grid; small coefficients make ties common, and
    # the witness pins the tie-break order
    res = ell_upper_bound(f, max_deg, step, bound)
    value, witness = reference_ell_upper_bound(f, max_deg, step, bound)
    assert res.value == value
    assert res.witness == witness


# --- log-domain escape ---------------------------------------------------------


def test_log_escape_integer_route():
    e = digit_avoider(4, 40)
    cert = geometric_escape_via_log(
        e, ivl(1, 1), ivl(F(27, 10), F(27, 10)), 16, log_y=ivl(0, 0), log_b=ivl(1, 1)
    )
    assert cert.status == "certified"
    assert cert.route == "point"
    assert cert.witness_index == 3


def test_log_escape_rational_point_boxes():
    e = digit_avoider(4, 64)
    cert = geometric_escape_via_log(e, ivl(F(3, 2), F(3, 2)), ivl(2, 2), 32)
    assert cert.status == "certified"


def test_log_escape_pairs_the_enclosure_ends():
    # step n's span is [n*ln(b).lo - ln(y).hi, n*ln(b).hi - ln(y).lo]:
    # with ln(y) in [0, 1/2] it is [n - 1/2, n], which first escapes at
    # n = 3 (cell 2 removes parts 2 and 3, and cell 3 part 0 holds the
    # integer end); with ln(y) in [1/4, 1/2] it is [n - 1/2, n - 1/4],
    # also first escaping at n = 3, where the offset +ln(y) would give
    # [n + 1/4, n + 1/2], which escapes at n = 1 (cell 1 removes part 1)
    e = digit_avoider(4, 40)
    for log_y in (ivl(0, F(1, 2)), ivl(F(1, 4), F(1, 2))):
        cert = geometric_escape_via_log(e, ivl(1, 1), ivl(3, 3), 16, log_y=log_y, log_b=ivl(1, 1))
        assert (cert.status, cert.witness_index, cert.route) == ("certified", 3, "gap"), log_y


def test_log_escape_stops_at_the_cell_guard():
    # the span [n, n] first escapes at the integer 3 (cell 3 removes its
    # part 0), which lies past a guard of 2: the scan gives up there
    for guard, want in ((2, ("inconclusive", None)), (3, ("certified", 3))):
        e = PLargeSet(F(1, 2), 4, DigitGenerator(4), guard=guard)
        cert = geometric_escape_via_log(e, ivl(1, 1), ivl(3, 3), 16, log_y=ivl(0, 0), log_b=ivl(1, 1))
        assert (cert.status, cert.witness_index) == want


@st.composite
def log_escape_cases(draw):
    """Point and cell boxes with computed enclosures at low precision,
    or injected logs on a 1/(4m) lattice, so that spans end on part
    boundaries and exact logs take the point route."""
    m = draw(st.sampled_from([3, 4, 5]))
    e = digit_avoider(m, 8)

    def box(lo, hi):
        a = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=32))
        if draw(st.booleans()):
            return ivl(a, a)
        return ivl(a, a + draw(st.fractions(min_value=0, max_value=F(1, 4), max_denominator=32)))

    y_box, b_box = box(F(1, 2), 2), box(F(9, 8), 3)
    logs = {}
    if draw(st.booleans()):
        def log_end():
            return F(draw(st.integers(-8 * m, 8 * m)), 4 * m)

        for name in ("log_y", "log_b"):
            lo = log_end()
            logs[name] = ivl(lo, lo + F(draw(st.sampled_from([0, 0, 1, 2])), 4 * m))
        if logs["log_b"].lo <= 0:
            logs["log_b"] = ivl(F(1, m), F(1, m) + logs["log_b"].length)
    n_max = draw(st.integers(1, 12))
    bits = draw(st.integers(1, 40))  # at 1 bit, ln(9/8) encloses as [0, ...]
    return e, y_box, b_box, n_max, logs, bits


@settings(max_examples=300, deadline=None)
@given(log_escape_cases())
def test_log_escape_matches_fraction_reference(case):
    e, y_box, b_box, n_max, logs, bits = case
    got = geometric_escape_via_log(e, y_box, b_box, n_max, bits=bits, **logs)
    assert got == reference_geometric_escape_via_log(e, y_box, b_box, n_max, bits=bits, **logs)


def test_log_sweep_builds_each_log_once(monkeypatch):
    # 5x4 cells: one enclosure per row and one per column, and each
    # certificate that of its whole cell
    import erdosavoid.enclosures as enclosures

    e = digit_avoider(4, 64)
    calls = []
    real = enclosures.ln_interval
    monkeypatch.setattr(enclosures, "ln_interval", lambda iv, bits: calls.append(bits) or real(iv, bits))
    certs, stats = sweep_log_escape(e, ivl(1, 2), ivl(F(3, 2), 3), 5, 4, n_max=8)
    assert calls == [64] * (5 + 4)
    want = [
        reference_geometric_escape_via_log(e, y_box, b_box, 8)
        for y_box, b_box in Grid(ivl(1, 2), ivl(F(3, 2), 3), 5, 4)
    ]
    assert certs == want
    certified = sum(w.status == "certified" for w in want)
    assert stats == {"boxes": 20, "certified": certified, "first_pass": certified,
                     "resolved_by_refinement": 0}


def test_log_sweep_shares_equal_slices_across_axes(monkeypatch):
    # y and b on the same range: the 2x2 grid's two y slices are its two
    # b slices, so two enclosures serve all four cells
    import erdosavoid.enclosures as enclosures

    e = digit_avoider(4, 64)
    calls = []
    real = enclosures.ln_interval
    monkeypatch.setattr(enclosures, "ln_interval", lambda iv, bits: calls.append(iv) or real(iv, bits))
    certs, _ = sweep_log_escape(e, ivl(2, 3), ivl(2, 3), 2, 2, n_max=8)
    assert calls == [ivl(2, F(5, 2)), ivl(F(5, 2), 3)]
    assert certs == [
        reference_geometric_escape_via_log(e, y_box, b_box, 8)
        for y_box, b_box in Grid(ivl(2, 3), ivl(2, 3), 2, 2)
    ]


def test_log_escape_rejects_bad_ranges():
    e = digit_avoider(4, 8)
    with pytest.raises(InvalidParameterError):
        geometric_escape_via_log(e, ivl(0, 1), ivl(2, 2), 8)
    with pytest.raises(InvalidParameterError):
        geometric_escape_via_log(e, ivl(1, 1), ivl(F(1, 2), 1), 8)
    for n_max in (0, -3):
        with pytest.raises(InvalidParameterError):
            geometric_escape_via_log(e, ivl(1, 1), ivl(2, 2), n_max)


def test_log_sweep_point_mode_full():
    # the point certificate at every cell midpoint of the 10x10 grid
    e = digit_avoider(4, 64)
    certs = [
        geometric_escape_via_log(e, ivl(y.midpoint, y.midpoint), ivl(b.midpoint, b.midpoint), 64)
        for y, b in Grid(ivl(1, 2), ivl(F(3, 2), 3), 10, 10)
    ]
    assert len(certs) == 100
    assert all(c.status == "certified" for c in certs)


def test_log_sweep_cell_mode_reports_structure():
    # every certificate of the sweep covers a proper cell, not a point
    e = digit_avoider(4, 64)
    certs, stats = sweep_log_escape(e, ivl(1, 2), ivl(F(3, 2), 3), 10, 10)
    assert stats["certified"] == stats["boxes"] == 100
    assert all(c.y_box.lo < c.y_box.hi and c.b_box.lo < c.b_box.hi for c in certs)


def test_log_refinement_failures_monotone():
    # finer base boxes cannot certify fewer cells
    e = digit_avoider(4, 64)
    _, coarse = sweep_log_escape(e, ivl(1, 2), ivl(F(3, 2), 3), 5, 5)
    _, fine = sweep_log_escape(e, ivl(1, 2), ivl(F(3, 2), 3), 10, 10)
    coarse_failures = coarse["boxes"] - coarse["certified"]
    fine_failures_rate = (fine["boxes"] - fine["certified"]) / fine["boxes"]
    assert fine_failures_rate <= coarse_failures / coarse["boxes"]


# --- infeasible parameters -----------------------------------------------------


def test_quotient_infeasible_parameters_error():
    from erdosavoid.errors import InfeasibleParametersError

    with pytest.raises(InfeasibleParametersError):
        quotient_avoider(2, F(99, 100), 4, max_refine=0)
