import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    member_set,
    random_decreasing_gap_tree,
    reference_corner_verdict,
    reference_affine,
    reference_find_common_point,
    reference_select_frame,
    reference_sumset_cover_probe,
    reference_union,
)

from erdosavoid.errors import InvalidParameterError
from erdosavoid.gaptree import (
    GapTree,
    affine_tree,
    from_middle_ratio,
    thickness,
    to_interval_set,
)
from erdosavoid.intersect import REASON_THIN, check_gap_lemma
from erdosavoid.intervals import ivl
from erdosavoid.sumsets import (
    CoverageRecord,
    FrameCertifier,
    _frame_map,
    build_dyadic_family,
    escape_to_coverage_params,
    select_frame,
    sumset_cover_probe,
)

F = Fraction

rationals = st.fractions(min_value=-64, max_value=64, max_denominator=64)


def test_select_frame_examples():
    assert select_frame(1, F(1, 2)) == (0, 0)
    assert select_frame(3, -1) == (2, -1)
    # exact powers of two stay in their own frame (right-closed)
    for k in (-3, 0, 1, 4):
        n, _ = select_frame(F(2) ** k, 0)
        assert n == k


@settings(max_examples=300, deadline=None)
@given(rationals.filter(lambda q: q != 0), rationals)
def test_select_frame_unique_and_total(lam, t):
    n, l = select_frame(lam, t)
    two_n = F(2) ** n
    assert two_n / 2 < abs(lam) <= two_n
    assert l * two_n < t <= (l + 1) * two_n


@st.composite
def frame_inputs(draw):
    """(lam, t) of either sign, lam often a power of two and t often on
    l*2^n of lam's frame, where the half-open frame ends decide."""
    k = draw(st.integers(-12, 12))
    if draw(st.booleans()):
        lam = F(2) ** k
    else:
        lam = draw(st.fractions(min_value=F(1, 4096), max_value=4096, max_denominator=4096))
    lam *= draw(st.sampled_from([1, -1]))
    n, _ = reference_select_frame(lam, 0)
    if draw(st.booleans()):
        t = draw(st.integers(-40, 40)) * F(2) ** draw(st.sampled_from([n, n - 1, k]))
    else:
        t = draw(rationals)
    return lam, t


@settings(max_examples=500, deadline=None)
@given(frame_inputs())
def test_select_frame_matches_fraction_reference(case):
    lam, t = case
    assert select_frame(lam, t) == reference_select_frame(lam, t)


def test_certify_computes_one_verdict_per_point():
    x = from_middle_ratio(2, 8)
    fam = build_dyadic_family(1, 8, (-3, 3), (-34, 34))
    certifier = FrameCertifier(x, fam)
    seen = []
    real = certifier.corner_verdict
    certifier.corner_verdict = lambda frame, lam, t: seen.append((frame, lam, t)) or real(frame, lam, t)
    for lam, t in ((F(3, 2), F(1, 4)), (F(-5, 4), F(7, 3))):
        seen.clear()
        tr = certifier.certify(lam, t, 8)
        assert seen == [(select_frame(lam, t), lam, t)]
        assert (tr.lam, tr.t, tr.frame) == (lam, t, select_frame(lam, t))
        assert tr.verdict == real(tr.frame, lam, t)


def test_family_members():
    fam = build_dyadic_family(1, 4, (0, 2), (-1, 0))
    assert fam.member(0, 0).interval == ivl(0, 1)
    assert fam.member(2, -1).interval == ivl(-4, 0)
    for frame in fam.frames():
        assert thickness(fam.member(*frame)).value == 1


def test_family_descriptor_json():
    fam = build_dyadic_family(2, 4, (-1, 1), (0, 3))
    obj = fam.describe()
    assert obj == {
        "middle_ratio": 2,
        "depth": 4,
        "n_range": [-1, 1],
        "l_range": [0, 3],
    }


def test_family_level_measure_decreasing():
    fam = build_dyadic_family(1, 6, (-1, 1), (-2, 2))
    values = [fam.level_measure(d) for d in range(7)]
    assert values[0] == (F(1, 2) + 1 + 2) * 5
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[6] == values[0] * F(2, 3) ** 6


def test_single_member_family_trivial():
    fam = build_dyadic_family(1, 3, (0, 0), (0, 0))
    assert fam.union_set(3) == to_interval_set(from_middle_ratio(1, 3), 3)


def test_union_set_matches_fraction_reference():
    fam = build_dyadic_family(1, 4, (-1, 1), (-2, 2))
    for level in (0, 2, 4):
        base = to_interval_set(fam.base, level)
        images = [reference_affine(base, *_frame_map(n, l)) for n, l in fam.frames()]
        assert fam.union_set(level).intervals == reference_union(*images)


def test_certifier_matches_generic_gap_lemma():
    rng = random.Random(17)
    x = from_middle_ratio(2, 6)
    fam = build_dyadic_family(1, 6, (-3, 3), (-34, 34))
    certifier = FrameCertifier(x, fam)
    for _ in range(20):
        lam = F(rng.randrange(1, 65), 8) * (1 if rng.random() < 0.5 else -1)
        t = F(rng.randrange(-32, 33), 8)
        frame = select_frame(lam, t)
        fast = certifier.corner_verdict(frame, lam, t)
        generic = check_gap_lemma(affine_tree(x, lam, t), fam.member(*frame))
        assert fast.applicable == generic.applicable


def test_point_box_certification_with_witness():
    x = from_middle_ratio(2, 10)
    fam = build_dyadic_family(1, 10, (-3, 3), (-34, 34))
    certifier = FrameCertifier(x, fam)
    tr = certifier.certify(F(1), F(0), 10)
    assert tr.status == "certified"
    assert to_interval_set(x, 10).contains(tr.witness)
    assert member_set(fam, *tr.frame, level=10).contains(tr.witness)


def test_sweep_all_applicable_and_witnessed():
    rng = random.Random(20240811)
    x = from_middle_ratio(2, 12)
    fam = build_dyadic_family(1, 12, (-3, 3), (-34, 34))
    certifier = FrameCertifier(x, fam)
    for _ in range(60):
        lam = F(rng.randrange(1, 65), 8) * (1 if rng.random() < 0.5 else -1)
        t = F(rng.randrange(-32, 33), 8)
        tr = certifier.certify(lam, t, 12)
        assert tr.status == "certified"
        assert tr.verdict.applicable


def test_unit_thickness_product_still_certifies():
    # thickness 1 against the unit family: the product is exactly one
    x = from_middle_ratio(1, 4)
    fam = build_dyadic_family(1, 4, (-3, 3), (-34, 34))
    tr = FrameCertifier(x, fam).certify(F(1), F(0), 4)
    assert tr.status == "certified"


def test_thin_tree_not_applicable():
    # thickness 1/2 against the unit family: product below one
    x = GapTree(ivl(0, 4), ivl(1, 3), GapTree(ivl(0, 1)), GapTree(ivl(3, 4)))
    assert thickness(x).value == F(1, 2)
    fam = build_dyadic_family(1, 4, (-3, 3), (-34, 34))
    certifier = FrameCertifier(x, fam)
    lam, t = F(3, 4), F(1, 2)
    tr = certifier.certify(lam, t, 4)
    assert tr.status == "not_applicable"
    assert tr.witness is None
    assert tr.verdict.reason == REASON_THIN
    generic = check_gap_lemma(affine_tree(x, lam, t), fam.member(*tr.frame))
    assert not generic.applicable and generic.reason == REASON_THIN


def _leftmost_common_point(x, fam, lam, t, frame, depth):
    common = (
        to_interval_set(x, depth)
        .affine(lam, t)
        .intersection(member_set(fam, *frame, level=depth))
    )
    return common.intervals[0].lo if common else None


def test_common_point_is_leftmost_of_level_set_intersection():
    rng = random.Random(41)
    fam = build_dyadic_family(1, 6, (-2, 2), (-5, 4))
    trees = [
        from_middle_ratio(2, 6),
        from_middle_ratio(1, 7),
        random_decreasing_gap_tree(rng, 5, ivl(-1, 2)),
    ]
    hits = misses = 0
    for x in trees:
        certifier = FrameCertifier(x, fam)
        reach = min(x.min_depth(), fam.depth)
        for i in range(80):
            lam = F(rng.randrange(8, 257), 64) * (1 if i % 2 else -1)
            t = F(rng.randrange(-256, 257), 64)
            frame = select_frame(lam, t)
            if i % 4 >= 2 or not fam.in_range(frame):
                frame = rng.choice(fam.frames())  # mostly frames that miss
            depth = rng.randint(0, reach)
            got = certifier.find_common_point(lam, t, frame, depth)
            assert got == _leftmost_common_point(x, fam, lam, t, frame, depth)
            hits += got is not None
            misses += got is None
    assert hits >= 60 and misses >= 60
    with pytest.raises(InvalidParameterError):
        certifier.find_common_point(F(1), F(0), (0, 0), -1)


CERT_FAMILY = build_dyadic_family(1, 5, (-3, 3), (-34, 34))
CERTIFIERS = [
    FrameCertifier(x, CERT_FAMILY)
    for x in (
        from_middle_ratio(2, 5),
        from_middle_ratio(1, 6, ivl(-1, 2)),
        random_decreasing_gap_tree(random.Random(7), 4, ivl(F(-1, 3), 2)),
        GapTree(ivl(0, 4), ivl(1, 3), GapTree(ivl(0, 1)), GapTree(ivl(3, 4))),  # thin: product below one
    )
]
# scales and shifts on and off the frame boundaries 2^n and l*2^n
scales = st.one_of(
    st.integers(-3, 3).map(lambda k: F(2) ** k),
    st.fractions(min_value=F(1, 8), max_value=8, max_denominator=64),
)
shifts = st.one_of(
    st.tuples(st.integers(-3, 3), st.integers(-8, 8)).map(lambda p: F(2) ** p[0] * p[1]),
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CERTIFIERS), scales, st.booleans(), shifts,
    st.integers(0, 6), st.integers(0, len(CERT_FAMILY.frames()) - 1),
)
# the image of X touches the framed member at one end point only
@example(CERTIFIERS[0], F(1), False, F(1), 5, 0)
@example(CERTIFIERS[0], F(1), True, F(0), 5, CERT_FAMILY.frames().index((0, 0)))
# one hull fills the closure of a gap of the other up to one end (first
# X in a member gap, then a member in a gap of X): not strictly inside
@example(CERTIFIERS[0], F(1), False, F(4, 3), 5, CERT_FAMILY.frames().index((2, 0)))
@example(CERTIFIERS[0], F(5, 4), False, F(0), 5, CERT_FAMILY.frames().index((-3, 4)))
# X strictly inside a member gap
@example(CERTIFIERS[0], F(1), False, F(3, 2), 5, CERT_FAMILY.frames().index((2, 0)))
# X wholly right of the picked member: inside its unbounded gap
@example(CERTIFIERS[0], F(1), False, F(2), 5, CERT_FAMILY.frames().index((0, 0)))
def test_frame_certifier_matches_fraction_reference(
    certifier, scale, negative, t, depth, frame_pick
):
    lam = -scale if negative else scale
    frame, picked = select_frame(lam, t), CERT_FAMILY.frames()[frame_pick]
    for f in (frame, picked):
        assert certifier.corner_verdict(f, lam, t) == reference_corner_verdict(certifier, f, lam, t)
        assert certifier.find_common_point(lam, t, f, depth) == reference_find_common_point(
            certifier, lam, t, f, depth
        )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
    scales, st.booleans(), shifts, st.integers(-2, 2), st.integers(-3, 3),
)
# X on [5, 6] or [-5, -4] beside the member on [0, 1]
@example(2, 6, 2, 6, F(1), False, F(5), 0, 0)
@example(2, 6, 2, 6, F(1), False, F(-5), 0, 0)
def test_applicable_frame_verdict_has_common_point(
    x_ratio, x_depth, ratio, depth, scale, negative, t, n, l
):
    """The gap lemma: an applicable verdict means lam*X + t meets the
    member, so the level sets share a point at the deepest level."""
    lam = -scale if negative else scale
    fam = build_dyadic_family(ratio, depth, (n, n), (l, l))
    certifier = FrameCertifier(from_middle_ratio(x_ratio, x_depth), fam)
    if certifier.corner_verdict((n, l), lam, t).applicable:
        assert certifier.find_common_point(lam, t, (n, l), certifier.max_depth) is not None


def test_coverage_probe_endpoint_target():
    x = from_middle_ratio(1, 6)
    fam = build_dyadic_family(1, 6, (0, 0), (0, 0))
    rep = sumset_cover_probe(x, fam, 1, [F(1)], 6)
    assert rep.certified == 1
    rep2 = sumset_cover_probe(x, fam, 1, [F(5)], 6)
    assert rep2.certified == 0
    assert rep2.records[0].nearest_miss > 0


def test_coverage_fraction_and_failures():
    x = from_middle_ratio(2, 10)
    fam = build_dyadic_family(1, 10, (-1, 1), (-2, 2))
    targets = [F(i, 25) - 2 for i in range(101)]
    # at lam 1/16, 41 of the 101 targets are covered, so the
    # nearest-miss loop below runs on the other 60
    rep = sumset_cover_probe(x, fam, F(1, 16), targets, 10)
    assert len(rep.records) == len(targets)
    assert 0 < rep.certified < len(targets)
    for rec in rep.records:
        if not rec.covered:
            assert rec.nearest_miss is not None and rec.nearest_miss > 0


def test_coverage_monotone_in_depth():
    # deeper level sets are subsets, so coverage can only shrink
    x = from_middle_ratio(2, 10)
    fam = build_dyadic_family(1, 10, (-1, 1), (-2, 2))
    targets = [F(i, 13) - 2 for i in range(53)]
    counts = [
        sumset_cover_probe(x, fam, F(3, 2), targets, d).certified for d in (4, 7, 10)
    ]
    assert counts[0] >= counts[1] >= counts[2]


def test_coverage_monotone_in_range_sizes():
    x = from_middle_ratio(2, 8)
    targets = [F(i, 7) - 2 for i in range(29)]
    small = build_dyadic_family(1, 8, (0, 0), (0, 0))
    big = build_dyadic_family(1, 8, (-1, 1), (-2, 2))
    c_small = sumset_cover_probe(x, small, F(3, 2), targets, 8).certified
    c_big = sumset_cover_probe(x, big, F(3, 2), targets, 8).certified
    assert c_big >= c_small


def test_escape_translates_to_coverage_gap():
    rng = random.Random(5)
    x = from_middle_ratio(2, 8)
    x_set = to_interval_set(x, 8)
    fam = build_dyadic_family(1, 8, (-1, 1), (-2, 2))
    m_union = fam.union_set(8)
    gaps = m_union.gaps()
    checked = 0
    for _ in range(60):
        gap = gaps[rng.randrange(len(gaps))]
        lam_prime = gap.length * F(rng.randrange(1, 32), 64)
        t = gap.lo + (gap.length - lam_prime) * F(rng.randrange(1, 63), 64)
        if x_set.affine(lam_prime, t).intersection(m_union):
            continue  # not an escape; skip
        lam, target = escape_to_coverage_params(lam_prime, t)
        rep = sumset_cover_probe(x, fam, lam, [target], 8)
        assert rep.certified == 0
        checked += 1
    assert checked >= 50


def test_non_escape_translates_to_coverage():
    x = from_middle_ratio(2, 8)
    fam = build_dyadic_family(1, 8, (-1, 1), (-2, 2))
    # lam' = 1, t = 0 certainly meets the family (shared endpoints)
    lam, target = escape_to_coverage_params(1, 0)
    rep = sumset_cover_probe(x, fam, lam, [target], 8)
    assert rep.certified == 1


PROBE_TREES = (from_middle_ratio(2, 5), random_decreasing_gap_tree(random.Random(3), 5))
PROBE_FAMILY = build_dyadic_family(1, 5, (-1, 1), (-2, 2))
PROBE_GAPS = PROBE_FAMILY.union_set(5).gaps()
sixty_fourths = st.integers(1, 63).map(lambda k: F(k, 64))
# positions in a component, both ends included
positions = st.integers(0, 4).map(lambda k: F(k, 4))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(PROBE_TREES),
    st.integers(0, len(PROBE_GAPS) - 1),
    st.booleans(),
    sixty_fourths,
    sixty_fourths,
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    positions,
    positions,
    st.integers(2, 5),
)
def test_coverage_probe_matches_fraction_reference(
    x, gap_index, flip, u, v, x_pick, m_pick, w, z, depth
):
    # an escape lam'X + t inside a gap of the union gives a target that
    # is not covered; x + lam*m, x in X and m in the union, is covered
    gap = PROBE_GAPS[gap_index]
    size = gap.length * u / 2
    lam_prime, t = (-size, gap.hi - (gap.length - size) * v) if flip else (
        size, gap.lo + (gap.length - size) * v)
    lam, missed = escape_to_coverage_params(lam_prime, t)
    level = min(depth, x.min_depth())
    x_parts = to_interval_set(x, level).intervals
    m_parts = PROBE_FAMILY.union_set(level).intervals
    x_part, m_part = x_parts[x_pick % len(x_parts)], m_parts[m_pick % len(m_parts)]
    hit = x_part.lo + x_part.length * w + lam * (m_part.lo + m_part.length * z)
    rep = sumset_cover_probe(x, PROBE_FAMILY, lam, [missed, hit], depth)
    assert rep == reference_sumset_cover_probe(x, PROBE_FAMILY, lam, [missed, hit], depth)
    if depth == 5:
        assert [r.covered for r in rep.records] == [False, True]
    else:
        assert rep.records[1].covered


# PROBE_TREES[0] has the hull [0, 1], so T = (r - X)/lam has the hull
# [(r - 1)/lam, r/lam], and r = lam*h + (1 if lam > 0 else 0) puts its
# lower end at h; scales of size 8 keep the hull 1/8 long
PROBE_SCALES = (F(8), F(-8))


def _target_with_hull_lo(lam, h):
    return lam * h + (1 if lam > 0 else 0)


def test_coverage_probe_hull_touching_a_member_end():
    # the hull's lower end is a member's upper end and the rest of it
    # lies in the gap after: the end component touches, so it is covered
    gap = max(PROBE_GAPS, key=lambda g: g.length)
    x = PROBE_TREES[0]
    for lam in PROBE_SCALES:
        target = _target_with_hull_lo(lam, gap.lo)
        rep = sumset_cover_probe(x, PROBE_FAMILY, lam, [target], 5)
        assert rep.records[0].covered
        assert rep.records[0].witness == target - lam * gap.lo
        assert rep == reference_sumset_cover_probe(x, PROBE_FAMILY, lam, [target], 5)


@pytest.mark.parametrize("side", ["left", "right"])
def test_coverage_probe_hull_beyond_the_union(side):
    # a hull in the unbounded gap left of the first member (or right of
    # the last) has one nearest gap end only
    members = PROBE_FAMILY.union_set(5).intervals
    x = PROBE_TREES[0]
    h_lo = members[0].lo - 1 if side == "left" else members[-1].hi + 1
    for lam in PROBE_SCALES:
        target = _target_with_hull_lo(lam, h_lo)
        rep = sumset_cover_probe(x, PROBE_FAMILY, lam, [target], 5)
        miss = (members[0].lo - h_lo - F(1, 8) if side == "left" else h_lo - members[-1].hi) * 8
        assert rep.records == (CoverageRecord(target, False, None, miss),)
        assert rep == reference_sumset_cover_probe(x, PROBE_FAMILY, lam, [target], 5)


def test_coverage_probe_hull_straddling_members_of_a_missed_union():
    # X = [0, 1/10] u [9/10, 1] and the union [0, 1/3] u [2/3, 1]: the hull
    # of T = (r - X)/lam spans a member while both components of T lie
    # in gaps, so the per-component walk decides
    x = GapTree(ivl(0, 1), ivl(F(1, 10), F(9, 10)), GapTree(ivl(0, F(1, 10))), GapTree(ivl(F(9, 10), 1)))
    fam = build_dyadic_family(1, 1, (0, 0), (0, 0))
    for lam, target in ((F(1), F(1, 2)), (F(-1), F(-1, 2))):
        hull = sorted(((target - 1) / lam, target / lam))
        assert any(hull[0] < m.lo and m.hi < hull[1] for m in fam.union_set(1))
        rep = sumset_cover_probe(x, fam, lam, [target], 1)
        assert rep.records == (CoverageRecord(target, False, None, F(1, 15)),)
        assert rep == reference_sumset_cover_probe(x, fam, lam, [target], 1)


def test_zero_scale_rejected():
    x = from_middle_ratio(1, 2)
    fam = build_dyadic_family(1, 2, (0, 0), (0, 0))
    with pytest.raises(InvalidParameterError):
        sumset_cover_probe(x, fam, 0, [F(0)], 2)
    with pytest.raises(InvalidParameterError):
        select_frame(0, 0)
