import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosavoid.errors import (
    DensityPointViolationError,
    ErdosAvoidError,
    InvalidParameterError,
)
from erdosavoid.intervals import IntervalSet, ParamBox, ivl
from erdosavoid.sequences import (
    DOWN,
    custom,
    explicit,
    geometric_down,
    reciprocal,
    reciprocal_power,
)
from erdosavoid.smallscale import (
    EscapeCertificate,
    PiecewiseLinearMap,
    _count_last_two,
    _punch_level,
    _smallest_point_at_least,
    _sup,
    build_sublacunary_avoider,
    certify_no_affine_copy,
    embed_lacunary,
    grid_boxes,
    kolountzakis_delta,
    slope_envelope,
)

from helpers import (
    _reference_merge_punches,
    avoider_level_set,
    reference_punch_count,
    reference_smallest_point_at_least,
    reference_sublacunary_avoider,
    validate_certificate,
)

F = Fraction


# --- avoider ----------------------------------------------------------------


def test_avoider_empty_intersection_convention():
    r = build_sublacunary_avoider(reciprocal(), 0)
    assert r.interval_set() == IntervalSet.of((0, 1))
    assert r.measure == 1


def test_avoider_measure_bound_and_budget():
    for levels in range(1, 5):
        r = build_sublacunary_avoider(reciprocal(), levels)
        assert r.measure >= r.lower_bound > F(1, 3)
        for lvl in r.levels:
            assert lvl.removed <= lvl.budget == F(2, 4**lvl.k)


def test_avoider_levels_have_equal_components():
    seq = reciprocal()
    for k in (1, 2, 3):
        ek = avoider_level_set(seq, k)
        r = build_sublacunary_avoider(seq, k)
        lvl = r.levels[k - 1]
        assert len(ek) == lvl.parts
        want = (1 - lvl.delta * lvl.parts) / lvl.parts
        assert all(iv.length == want for iv in ek)


def test_avoider_fast_measure_matches_generic_intersection():
    seq = reciprocal()
    e = IntervalSet.of((0, 1))
    for k in (1, 2, 3):
        e = e.intersection(avoider_level_set(seq, k))
        r = build_sublacunary_avoider(seq, k)
        assert r.measure == e.measure()
        assert r.interval_set() == e
        assert r.components == len(e)


def test_avoider_frozen_exact_measures():
    # frozen from the generic-intersection oracle above
    r4 = build_sublacunary_avoider(reciprocal(), 4)
    assert r4.measure == F(13867583, 20092800)
    assert [lvl.index for lvl in r4.levels] == [3, 63, 575, 4095]
    assert [lvl.parts for lvl in r4.levels] == [3, 126, 1725, 16380]


def test_avoider_interval_set_punches_the_last_two_levels():
    # the build lists levels 1..K-2 only; interval_set() adds K-1 and K
    seq = reciprocal()
    for levels in (0, 1, 2, 5):
        r = build_sublacunary_avoider(seq, levels)
        e = r.interval_set()
        assert e == reference_sublacunary_avoider(seq, levels).interval_set()
        assert len(e) == r.components
        assert e.measure() == r.measure


# Sequences and the levels the lattice count is checked at.  Only the
# closed-form index search of `reciprocal` reaches level 5 quickly; the
# other kinds scan their terms one by one.  n^-2 past level 2 and n^-3
# past level 1 need millions of punches, which the oracle lists one by
# one, so they are checked where the 20M-punch guard fires.
AVOIDER_CASES = (
    (reciprocal(), range(6)),
    (reciprocal_power(1), range(5)),
    (reciprocal_power(2), (0, 1, 2, 4)),
    (reciprocal_power(3), (0, 1, 3)),
)


@st.composite
def avoider_inputs(draw):
    if draw(st.booleans()):
        seq, levels = draw(st.sampled_from(AVOIDER_CASES))
        return seq, draw(st.sampled_from(tuple(levels)))
    c = draw(st.fractions(min_value=F(-1, 2), max_value=6, max_denominator=4))
    return custom(lambda n: 1 / (n + c), DOWN), draw(st.integers(0, 4))


def _build_or_error(build, seq, levels):
    try:
        return build(seq, levels)
    except ErdosAvoidError as exc:
        return type(exc)


@settings(max_examples=25, deadline=None)
@given(avoider_inputs())
def test_avoider_lattice_count_matches_merge_reference(case):
    seq, levels = case
    got = _build_or_error(build_sublacunary_avoider, seq, levels)
    want = _build_or_error(reference_sublacunary_avoider, seq, levels)
    if isinstance(want, type):
        assert got is want
        return
    assert got.measure == want.measure
    assert got.components == want.components
    assert got.interval_set() == want.interval_set()


@st.composite
def punch_levels(draw):
    """A new punch lattice and a random older union: separated intervals
    in [0, 1] with endpoints on the lattice's denominator parts*q, some
    of them on a punch end, at 0 or at den, and sometimes none at all."""
    parts, q = draw(st.integers(1, 12)), draw(st.integers(3, 30))
    shift = draw(st.integers(1, (q - 1) // 2))  # two punches never touch
    lattice = (parts, q, shift)
    return draw(older_unions(parts * q, [lattice])), lattice


@st.composite
def older_unions(draw, den, lattices):
    punch_ends = [
        min(max(j * q + d, 0), den)
        for parts, q, shift in lattices
        for j in range(parts + 1)
        for d in (-shift, shift)
    ]
    end = st.one_of(st.integers(0, den), st.sampled_from(punch_ends))
    ends = sorted(set(draw(st.lists(end, max_size=16))))
    ends = ends[: len(ends) // 2 * 2]
    return ends[::2], ends[1::2]


@settings(max_examples=400, deadline=None)
@given(punch_levels())
def test_punch_level_matches_sorted_merge(case):
    # random unions reach what the avoider's own levels rarely do: a
    # punch bridging two older intervals, and punches at 0 and 1
    # meeting older endpoints
    (los, his), (parts, q, shift) = case
    den = parts * q
    punches = (
        [max(j * q - shift, 0) for j in range(parts + 1)],
        [min(j * q + shift, den) for j in range(parts + 1)],
    )
    tags = [0] * len(los)
    want_lo, _, want_hi, _ = _reference_merge_punches((los, tags, his, tags), punches, [den], 0)
    assert _punch_level((los, his), (parts, q, shift)) == (want_lo, want_hi)
    # the count loop the two-level counter is checked against
    count, net = reference_punch_count((los, his), (parts, q, shift))
    assert count == len(want_lo)
    assert net == sum(want_hi) - sum(want_lo)


@st.composite
def punch_level_pairs(draw):
    """Two punch lattices on one shared denominator and a random older
    union on it.  The run period P = parts1/gcd(parts1, parts) is at most
    parts1: equal when the punch counts are coprime (the run table is
    indexed by the punch itself), below it when they share a factor."""
    parts1, parts = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    base = lcm(parts1, parts)
    least = -(-3 * max(parts1, parts) // base)  # both q at least 3
    den = base * draw(st.integers(least, least + 4))
    lattices = []
    for n in (parts1, parts):
        q = den // n
        lattices.append((n, q, draw(st.integers(1, (q - 1) // 2))))
    return draw(older_unions(den, lattices)), *lattices


@settings(max_examples=400, deadline=None)
@given(punch_level_pairs())
def test_count_level_matches_count_loop(case):
    older, upper, lattice = case
    middle = _punch_level(older, upper)
    assert _count_last_two(older, upper, lattice) == reference_punch_count(middle, lattice)


def test_count_level_examples():
    # upper: parts 2, q 10, shift 2 over den 20: punches [0, 2], [8, 12], [18, 20]
    # lattice: parts 4, q 5, shift 1: punches [0, 1], [4, 6], [9, 11], [14, 16], [19, 20]
    upper, lattice = (2, 10, 2), (4, 5, 1)
    cases = [
        # older union, then count and net against upper alone, then against both
        ([], [], 3, 8, 5, 12),  # punches alone
        ([4], [6], 4, 10, 5, 12),  # touches no upper punch; equals a lattice punch
        ([1], [5], 3, 11, 4, 14),  # touches punch 0 only
        ([5], [8], 3, 11, 4, 14),  # ends exactly on punch 1's lo
        ([2, 7, 15], [3, 13, 20], 3, 14, 4, 17),  # one punch each, from 0 to den
        ([12], [18], 2, 14, 3, 16),  # bridges punches 1 and 2 from end to end
        ([0], [20], 1, 20, 1, 20),  # covers every punch
    ]
    for los, his, count1, net1, count, net in cases:
        assert reference_punch_count((los, his), upper) == (count1, net1), (los, his)
        middle = _punch_level((los, his), upper)
        assert reference_punch_count(middle, lattice) == (count, net), (los, his)
        assert _count_last_two((los, his), upper, lattice) == (count, net), (los, his)


def test_count_last_two_run_spans_periods():
    # upper: parts 6, q 10, shift 1 over den 60: punches at 10j +- 1
    # lattice: parts 4, q 15, shift 2: punches at 15j +- 2
    # Upper punch j touches a lattice punch only when 10j = 0 mod 15, so
    # the run period is 3, and j = 3 is the one whole punch that touches.
    upper, lattice = (6, 10, 1), (4, 15, 2)
    cases = [
        # [0, 2], [9, 11], [13, 17], [19, 21], [28, 32], [39, 41],
        # [43, 47], [49, 51], [58, 60]: the run 1..5 covers a period and more
        ([], [], 9, 24),
        # [24, 26] splits it into the runs 1..2 and 3..5
        ([24], [26], 10, 26),
    ]
    for los, his, count, net in cases:
        middle = _punch_level((los, his), upper)
        assert reference_punch_count(middle, lattice) == (count, net), (los, his)
        assert _count_last_two((los, his), upper, lattice) == (count, net), (los, his)


def test_avoider_punch_guard_fires_at_its_level():
    # n^-2 at level 4 would need 272,376,634 punches in all
    from erdosavoid.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError, match="level 4 would need 272376634 punches"):
        build_sublacunary_avoider(reciprocal_power(2), 4)


# --- escape certification ---------------------------------------------------


def test_certify_no_internal_gaps_is_inconclusive():
    e = IntervalSet.of((0, 1))
    box = ParamBox(ivl(F(1, 4), F(1, 2)), ivl(F(1, 8), F(1, 4)))
    certs = certify_no_affine_copy(e, reciprocal(), [box], 20)
    assert certs[0].status == "inconclusive"


def test_certify_scan_depth_below_one_is_rejected():
    e = IntervalSet.of((0, F(1, 3)), (F(2, 3), 1))
    box = ParamBox(ivl(1, 1), ivl(0, 0))
    for max_n in (0, -3):
        with pytest.raises(InvalidParameterError):
            certify_no_affine_copy(e, reciprocal(), [box], max_n)


def test_certify_direct_witness():
    e = IntervalSet.of((0, F(1, 3)), (F(2, 3), 1))
    box = ParamBox(ivl(1, 1), ivl(0, 0))
    certs = certify_no_affine_copy(e, reciprocal(), [box], 10)
    assert certs[0].status == "certified"
    assert certs[0].witness_index == 2
    gap = certs[0].witness_gap
    assert (gap.lo, gap.hi) == (F(1, 3), F(2, 3))


def test_certify_negative_scale_boxes():
    e = IntervalSet.of((0, 1))
    box = ParamBox(ivl(-2, -1), ivl(0, 0))
    certs = certify_no_affine_copy(e, reciprocal(), [box], 5)
    # images are negative, inside the left unbounded component
    assert certs[0].status == "certified"
    assert certs[0].witness_gap.lo is None


def test_certify_sweep_on_avoider_validates():
    e = build_sublacunary_avoider(reciprocal(), 4).interval_set()
    boxes = grid_boxes(ivl(1, 2), ivl(-1, 1), 10, 20)
    certs = certify_no_affine_copy(e, reciprocal(), boxes, 40)
    frac = sum(c.status == "certified" for c in certs) / len(certs)
    assert frac > F(1, 2)
    for i, cert in enumerate(certs):
        assert validate_certificate(e, reciprocal(), cert, samples=40, seed=i)


def test_validate_certificate_needs_a_sample():
    e = IntervalSet.of((0, F(1, 3)), (F(2, 3), 1))
    box = ParamBox(ivl(1, 1), ivl(0, 0))
    (certified,) = certify_no_affine_copy(e, reciprocal(), [box], 10)
    inconclusive = EscapeCertificate(box, "inconclusive")
    for samples in (0, -3):
        for cert in (certified, inconclusive):
            with pytest.raises(InvalidParameterError):
                validate_certificate(e, reciprocal(), cert, samples=samples)


def test_certificate_json_shape():
    # the fields the CLI rows are built from: status, witness, gap and box
    e = IntervalSet.of((0, F(1, 3)), (F(2, 3), 1))
    box = ParamBox(ivl(1, 1), ivl(0, 0))
    (cert,) = certify_no_affine_copy(e, reciprocal(), [box], 10)
    assert cert.status == "certified"
    assert cert.witness_index == 2
    assert cert.box == box
    assert (cert.witness_gap.lo, cert.witness_gap.hi) == (F(1, 3), F(2, 3))


# --- embedding --------------------------------------------------------------


def random_density_set(rng, seq, eta, max_n):
    """Unit-interval set hitting every window [eta*a_n, a_n]."""
    pieces = [(F(0), seq.term(max_n + 2))]
    for n in range(1, max_n + 1):
        a = seq.term(n)
        lo, hi = eta * a, a
        u = F(rng.randrange(0, 32), 64)
        v = F(rng.randrange(33, 65), 64)
        pieces.append((lo + (hi - lo) * u, lo + (hi - lo) * v))
    pieces.append((seq.term(1), F(2)))
    return IntervalSet.of(*pieces)


def test_embed_envelope_values():
    assert slope_envelope(F(3, 4), F(1, 2)) == (F(1, 2), F(5, 4))


@pytest.mark.parametrize(
    "eta, delta",
    [(F(3, 4), F(1)), (F(3, 4), F(5, 4)), (F(1, 4), F(1, 2))],
    ids=["delta-one", "delta-above-one", "eta-below-delta"],
)
def test_slope_envelope_refuses_windows_outside_its_domain(eta, delta):
    # delta = 1 divides by zero; delta above 1 or eta at most delta inverts the window
    with pytest.raises(InvalidParameterError, match="0 < delta < eta < 1"):
        slope_envelope(eta, delta)


def test_embed_full_interval_identity_like():
    f = embed_lacunary(geometric_down(F(1, 2)), IntervalSet.of((0, 1)), F(3, 4))
    assert set(f.slopes()) == {F(1)}
    assert f(F(1, 4)) == F(1, 4)


def test_embed_random_sets_exact_audit():
    rng = random.Random(20240811)
    seq = geometric_down(F(1, 2))
    lo, hi = slope_envelope(F(3, 4), F(1, 2))
    for _ in range(10):
        e = random_density_set(rng, seq, F(3, 4), 40)
        f = embed_lacunary(seq, e, F(3, 4), max_n=40)
        for s in f.slopes():
            assert lo <= s <= hi
        for n in range(1, 41):
            assert e.contains(f(seq.term(n)))
        xs = [p[0] for p in f.points]
        assert xs == sorted(xs)


def test_embed_head_indices_before_density_threshold():
    seq = geometric_down(F(1, 2))
    # window at n=1 ([3/8, 1/2]) is missing: n0 must move to 2
    pieces = [(F(0), F(1, 1024))]
    for n in range(2, 13):
        a = seq.term(n)
        pieces.append((F(3, 4) * a, a))
    pieces.append((F(3, 5), F(7, 10)))  # room above a_2 for the head point
    e = IntervalSet.of(*pieces)
    f = embed_lacunary(seq, e, F(3, 4), max_n=12)
    for n in range(2, 13):
        assert e.contains(f(seq.term(n)))
    assert e.contains(f(seq.term(1)))
    ys = [p[1] for p in f.points]
    assert ys == sorted(ys)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(small_rationals, small_rationals).map(sorted), min_size=1, max_size=6),
    st.fractions(min_value=1, max_value=3, max_denominator=8),
    small_rationals,
    small_rationals,
)
def test_set_point_readers_match_fraction_reference(pairs, lam, shift, t):
    # an affine image's view is not on the lcm of its endpoint denominators
    for e in (IntervalSet.of(*pairs), IntervalSet.of(*pairs).affine(lam, shift)):
        assert _smallest_point_at_least(e, t) == reference_smallest_point_at_least(e, t)
        for iv in e.intervals:
            assert _smallest_point_at_least(e, iv.lo) == iv.lo
            assert _smallest_point_at_least(e, iv.hi) == iv.hi
        assert _sup(e) == e.intervals[-1].hi


def test_embed_eta_out_of_range():
    with pytest.raises(InvalidParameterError):
        embed_lacunary(geometric_down(F(1, 2)), IntervalSet.of((0, 1)), F(1, 3))


def test_embed_refuses_a_map_without_two_breakpoints():
    seq = geometric_down(F(1, 2))
    # no scan depth, and a scan that yields one breakpoint and no slope
    with pytest.raises(InvalidParameterError, match="max_n must be at least 1"):
        embed_lacunary(seq, IntervalSet.of((0, 1)), F(3, 4), max_n=0)
    with pytest.raises(InvalidParameterError, match="at least two breakpoints"):
        embed_lacunary(seq, IntervalSet.of((F(1, 4), 1)), F(3, 4), max_n=1)
    with pytest.raises(InvalidParameterError, match="at least two breakpoints"):
        PiecewiseLinearMap(((F(0), F(0)),))


def test_embed_density_point_violation_names_index():
    seq = geometric_down(F(1, 2))
    e = IntervalSet.of((F(9, 10), 1))  # the window at max_n misses
    with pytest.raises(DensityPointViolationError) as err:
        embed_lacunary(seq, e, F(3, 4), max_n=10)
    assert err.value.index == 10


# --- slow-decay statistic ----------------------------------------------------


def test_kolountzakis_values():
    d4, score = kolountzakis_delta(reciprocal(), 4)
    assert d4 == F(1, 12)
    assert score.lo <= score.hi
    d3, _ = kolountzakis_delta(explicit([F(1), F(2, 3), F(1, 3)]), 3)
    assert d3 == F(1, 3)


def test_kolountzakis_geometric_grows_linearly():
    seq = geometric_down(F(1, 2))
    # delta_n = 2^(1-n) exactly, so -log(delta_n)/n is bounded away from 0
    scores = []
    for n in (4, 8, 16):
        d, score = kolountzakis_delta(seq, n)
        assert d == F(2, 2**n)
        scores.append(score)
    for s in scores:
        assert s.lo > F(1, 2)


def test_avoider_window_error_names_level():
    from erdosavoid.errors import NeedsLongerWindowError
    from erdosavoid.sequences import geometric_down

    # a lacunary sequence never meets the level-1 difference-ratio bound
    with pytest.raises(NeedsLongerWindowError) as err:
        build_sublacunary_avoider(geometric_down(F(1, 2)), 1, window=1000)
    assert err.value.level == 1


def test_avoider_resource_guard():
    from erdosavoid.errors import ResourceLimitError
    from erdosavoid.sequences import custom

    # same difference ratios as 1/n but terms a billion times smaller,
    # so the first level would already need billions of punches
    tiny = custom(lambda n: F(1, n * 10**9), "down")
    with pytest.raises(ResourceLimitError):
        build_sublacunary_avoider(tiny, 1)
