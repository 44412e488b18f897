from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosavoid.enclosures import sqrt_enclosure
from erdosavoid.errors import (
    ConstructionAuditError,
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
)
from erdosavoid.intervals import Interval, IntervalSet, ivl
from erdosavoid.largescale import (
    DigitGenerator,
    DigitSchedule,
    LinearEscapeCertificate,
    PLargeSet,
    certify_linear_escape,
    certify_linear_escape_to_cap,
    countable_dilation_avoider,
    density_mod1,
    digit_avoider,
    dubickas_gap_check,
    ell_upper_bound,
    fractional_set,
    geometric_escape_via_log,
    is_p_large,
    point_escape_index,
    poly_mul,
    coefficient_mass,
    quotient_avoider,
    sweep_linear_escape,
    sweep_log_escape,
    validate_linear_escape,
    _point_escapes_digit,
    _seq_escape_index,
)
from erdosavoid.sequences import linear

from helpers import reference_certify_linear_escape, reference_validate_linear_escape

F = Fraction


# --- digit schedule and cells -------------------------------------------------


def test_schedule_prefix_m4():
    s = DigitSchedule(4)
    assert s.prefix(12) == [0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 0, 0]


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
            for part in e.removed_parts(k):
                shifted = part.translate(k)
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
    # the scan over x + n*y, the sequence scan with a_n = n, and the
    # single-point test must name the same first escape step
    e = digit_avoider(m, 8)
    n_max = 48
    n = point_escape_index(e, x, y, n_max)
    assert _seq_escape_index(e, x, y, linear(), n_max) == n
    last = n if n is not None else n_max
    for step in range(1, last + 1):
        assert _point_escapes_digit(e, x + step * y) == (step == n)


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


def test_scan_depth_below_one_is_rejected():
    e = digit_avoider(4, 8)
    for n_max in (0, -3):
        with pytest.raises(InvalidParameterError):
            certify_linear_escape_to_cap(e, ivl(0, 1), ivl(1, 2), n_max, 4096)
        with pytest.raises(InvalidParameterError):
            sweep_linear_escape(e, ivl(0, 1), ivl(1, 2), 2, 2, n_max_start=n_max)


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


def test_countable_dilation_reduces_to_digit_schedule():
    e = countable_dilation_avoider(linear(), [1], F(1, 2), 10)
    d = digit_avoider(4, 10)
    for k in range(10):
        assert e.cell(k) == d.cell(k)


def test_countable_dilation_two_tracks():
    e = countable_dilation_avoider(linear(), [1, 2], F(1, 2), 20)
    assert is_p_large(e, F(1, 2))
    assert e.generator.tracks == 2


def test_countable_dilation_p_three_quarters():
    e = countable_dilation_avoider(linear(), [1, 2, 3], F(3, 4), 12)
    assert e.generator.m == 8
    for k in range(12):
        assert e.cell(k).measure() == F(3, 4)


def test_countable_dilation_audit_failure_surfaces():
    with pytest.raises(ConstructionAuditError):
        countable_dilation_avoider(
            linear(), [1], F(1, 2), 4, probe_offsets=[0], n_max=2
        )


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


def test_dubickas_excluded_rational():
    res = dubickas_gap_check(F(1, 3), 200, admissible=lambda y: False)
    assert res.covering_length == F(1, 3)
    assert res.hypothesis_excluded is True


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


def test_log_escape_rejects_bad_ranges():
    e = digit_avoider(4, 8)
    with pytest.raises(InvalidParameterError):
        geometric_escape_via_log(e, ivl(0, 1), ivl(2, 2), 8)
    with pytest.raises(InvalidParameterError):
        geometric_escape_via_log(e, ivl(1, 1), ivl(F(1, 2), 1), 8)


def test_log_sweep_point_mode_full():
    e = digit_avoider(4, 64)
    certs, stats = sweep_log_escape(e, ivl(1, 2), ivl(F(3, 2), 3), 10, 10)
    assert stats["certified"] == stats["boxes"] == 100


def test_log_sweep_cell_mode_reports_structure():
    e = digit_avoider(4, 64)
    _, stats = sweep_log_escape(
        e, ivl(1, 2), ivl(F(3, 2), 3), 10, 10, mode="cells"
    )
    assert stats["certified"] >= 85


def test_log_refinement_failures_monotone():
    # finer base boxes cannot certify fewer cells
    e = digit_avoider(4, 64)
    _, coarse = sweep_log_escape(e, ivl(1, 2), ivl(F(3, 2), 3), 5, 5, mode="cells", refine=0)
    _, fine = sweep_log_escape(e, ivl(1, 2), ivl(F(3, 2), 3), 10, 10, mode="cells", refine=0)
    coarse_failures = coarse["boxes"] - coarse["certified"]
    fine_failures_rate = (fine["boxes"] - fine["certified"]) / fine["boxes"]
    assert fine_failures_rate <= coarse_failures / coarse["boxes"]


# --- serialization -------------------------------------------------------------


def test_plarge_json_round_trip():
    e = digit_avoider(4, 3)
    obj = e.to_json()
    back = PLargeSet.from_json(obj)
    for k in range(3):
        assert back.cell(k) == e.cell(k)
    assert back.p == F(1, 2)


def test_quotient_infeasible_parameters_error():
    from erdosavoid.errors import InfeasibleParametersError

    with pytest.raises(InfeasibleParametersError):
        quotient_avoider(2, F(99, 100), 4, max_refine=0)


def test_countable_dilation_geometric_sequence():
    # doubling sequence against a single-track avoider: the audit must
    # find escapes for the probe offsets within the window
    from erdosavoid.sequences import geometric_up

    e = countable_dilation_avoider(geometric_up(2), [1], F(1, 2), 16, n_max=64)
    assert is_p_large(e, F(1, 2))
