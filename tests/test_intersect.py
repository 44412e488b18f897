import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erdosavoid.errors import (
    ErdosAvoidError,
    GapConditionError,
    HullContainmentError,
    ZeroSlackError,
)
from erdosavoid.gaptree import (
    GapTree,
    affine_tree,
    from_middle_ratio,
    thickness,
    to_interval_set,
    tree_to_json,
)
from erdosavoid.intersect import (
    REASON_K1_IN_GAP,
    REASON_THIN,
    _all_gaps,
    _in_some_gap,
    build_tilde,
    check_gap_lemma,
    containment_walk,
    perturbation_delta,
)
from erdosavoid.intervals import ivl
from erdosavoid.sumsets import FrameCertifier, build_dyadic_family
from helpers import (
    random_decreasing_gap_tree,
    reference_all_gaps,
    reference_build_tilde,
    reference_check_gap_lemma,
    reference_containment_walk,
)

F = Fraction


def thin_tree():
    # both children half the gap length: thickness 1/2
    left = GapTree(ivl(0, F(1, 8)))
    right = GapTree(ivl(F(3, 8), F(1, 2)))
    return GapTree(ivl(0, F(1, 2)), ivl(F(1, 8), F(3, 8)), left, right)


def test_gap_lemma_identical_middle_thirds():
    k = from_middle_ratio(1, 3)
    verdict = check_gap_lemma(k, k)
    assert verdict.applicable and verdict.reason == "ok"


def test_gap_lemma_frame_positioning():
    # thick set against a dyadically framed middle-thirds copy
    x = from_middle_ratio(2, 6)  # thickness 2
    lam, t = F(3), F(-1)
    k1 = affine_tree(x, lam, t)
    # |lam| in (2, 4] selects scale 4; t in (-4, 0] selects offset -1
    k2 = affine_tree(from_middle_ratio(1, 6), 4, -4)
    verdict = check_gap_lemma(k1, k2)
    assert verdict.applicable


def test_gap_lemma_thin_product():
    verdict = check_gap_lemma(thin_tree(), thin_tree())
    assert not verdict.applicable
    assert verdict.reason == REASON_THIN


def test_gap_lemma_hull_inside_gap():
    k2 = from_middle_ratio(1, 2)  # gap (1/3, 2/3)
    k1 = from_middle_ratio(1, 2, ivl(F(2, 5), F(3, 5)))
    verdict = check_gap_lemma(k1, k2)
    assert not verdict.applicable
    assert verdict.reason == "K1_inside_gap_of_K2"
    swapped = check_gap_lemma(k2, k1)
    assert not swapped.applicable
    assert swapped.reason == "K2_inside_gap_of_K1"


def test_gap_lemma_hull_touching_a_gap_end():
    # a hull that shares an end with a gap is not strictly inside it
    k2 = from_middle_ratio(1, 2)  # gap (1/3, 2/3)
    for hull in (ivl(F(1, 3), F(1, 2)), ivl(F(1, 2), F(2, 3))):
        k1 = from_middle_ratio(1, 2, hull)
        assert check_gap_lemma(k1, k2).applicable
        assert check_gap_lemma(k2, k1).applicable
    inside = from_middle_ratio(1, 2, ivl(F(7, 20), F(1, 2)))
    assert check_gap_lemma(inside, k2).reason == "K1_inside_gap_of_K2"


def test_gap_lemma_refuses_disjoint_hulls():
    # a hull wholly beside the other lies in one of its unbounded gaps;
    # these sets are disjoint although both are thick and no bounded gap
    # holds either hull
    k = from_middle_ratio(2, 6)  # thickness 2, on [0, 1]
    shifted = affine_tree(k, 1, 5)  # on [5, 6]
    for k1, k2 in ((k, shifted), (shifted, k)):
        assert check_gap_lemma(k1, k2)[:2] == (False, REASON_K1_IN_GAP)
    # hulls sharing an end meet there
    assert check_gap_lemma(k, affine_tree(k, 1, 1)).applicable
    # the framed verdict: lam*X + t on [t, t + 1] against the member on [0, 1]
    certifier = FrameCertifier(k, build_dyadic_family(2, 6, (0, 0), (0, 0)))
    for t in (F(5), F(-5)):
        assert certifier.corner_verdict((0, 0), F(1), t)[:2] == (False, REASON_K1_IN_GAP)
    assert certifier.corner_verdict((0, 0), F(1), F(1)).applicable


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
    st.fractions(F(1, 8), 8, max_denominator=16), st.booleans(),
    st.fractions(-4, 4, max_denominator=16), st.booleans(),
)
@example(2, 6, 2, 6, F(1), False, F(5), False)
@example(2, 6, 2, 6, F(1), False, F(5), True)
def test_applicable_gap_lemma_means_level_sets_meet(r1, d1, r2, d2, scale, negative, t, swap):
    """The gap lemma: an applicable verdict means the two sets meet, so
    their level sets do at every depth both trees reach."""
    k1 = from_middle_ratio(r1, d1)
    k2 = affine_tree(from_middle_ratio(r2, d2), -scale if negative else scale, t)
    if swap:
        k1, k2 = k2, k1
    if check_gap_lemma(k1, k2).applicable:
        for depth in range(min(d1, d2) + 1):
            assert to_interval_set(k1, depth).intersection(to_interval_set(k2, depth))


def test_in_some_gap_maps_gap_ends_by_the_sign_of_the_scale():
    gaps = _all_gaps(from_middle_ratio(1, 1))  # the gap (1/3, 2/3) over 3
    assert gaps == [(1, 1, 2)]
    # n -> 2n and n -> -2n map the gap to (2, 4) and to (-4, -2)
    assert _in_some_gap(gaps, 2, 0, 3, 3)
    assert _in_some_gap(gaps, -2, 0, -3, -3)
    assert _in_some_gap(gaps, -2, 1, -2, -2)
    assert not _in_some_gap(gaps, -2, 0, -4, -3)
    assert not _in_some_gap(gaps, -2, 0, -3, -2)
    # a hull as long as the gap's image stops the scan
    assert not _in_some_gap(gaps, -2, 0, -4, -2)


def test_gap_lemma_applicable_symmetric():
    rng = random.Random(5)
    for _ in range(20):
        a = random_decreasing_gap_tree(rng, 3)
        b = random_decreasing_gap_tree(rng, 3)
        assert check_gap_lemma(a, b).applicable == check_gap_lemma(b, a).applicable


def test_walk_identical_nested_trees():
    k = from_middle_ratio(1, 4)
    tilde = build_tilde(k, 4, F(1, 10))
    trace = containment_walk(k, tilde, 4)
    assert len(trace.chain) == 4
    for (a, b) in trace.chain:
        assert len(a) == len(b)
    for (a1, b1), (a2, b2) in zip(trace.chain, trace.chain[1:]):
        assert a2.startswith(a1) and b2.startswith(b1)


def growing_gap_tree(depth, gap0=F(1, 128)):
    """Symmetric tree whose gap lengths double with depth, so each
    subtree out-gaps its parent level."""

    def build(iv, level):
        if level == depth:
            return GapTree(iv)
        g = gap0 * 2**level
        mid = iv.midpoint
        gap = ivl(mid - g / 2, mid + g / 2)
        return GapTree(
            iv,
            gap,
            build(ivl(iv.lo, gap.lo), level + 1),
            build(ivl(gap.hi, iv.hi), level + 1),
        )

    return build(ivl(0, 1), 0)


def test_walk_takes_the_left_pair_when_both_fit():
    # the inner left child [0, 1/3] fits in the outer left child [-1, 1/3]
    # and the inner right child [2/3, 1] in the outer right child [1/2, 1]
    inner = from_middle_ratio(1, 1)
    outer = GapTree(
        ivl(-1, 1), ivl(F(1, 3), F(1, 2)), GapTree(ivl(-1, F(1, 3))), GapTree(ivl(F(1, 2), 1))
    )
    trace = containment_walk(inner, outer, 1)
    assert trace.chain == (("0", "0"),)
    assert (trace.point_estimate, trace.error_bound) == (F(1, 6), F(4, 3))


def test_walk_left_restriction_matches_labels():
    # restricting to the left subtree keeps the same node labels when
    # the surrounding tree's gaps grow with depth
    tilde = growing_gap_tree(4)
    k = tilde.left
    trace = containment_walk(k, tilde, 3)
    for inner, outer in trace.chain:
        assert inner == outer


def test_walk_point_in_both_level_sets():
    rng = random.Random(31)
    for _ in range(20):
        k = random_decreasing_gap_tree(rng, 5)
        tilde = build_tilde(k, 5, F(1, 7))
        trace = containment_walk(k, tilde, 5)
        assert to_interval_set(k, 5).contains(trace.point_estimate)
        assert to_interval_set(tilde, 5).contains(trace.point_estimate)
        # error bounds non-increasing and matching the outer level length
        for earlier, later in zip(trace.step_bounds, trace.step_bounds[1:]):
            assert later <= earlier
        assert trace.error_bound == trace.step_bounds[-1]


def test_walk_final_pair_overlaps_brute_force_component():
    rng = random.Random(77)
    for _ in range(10):
        k = random_decreasing_gap_tree(rng, 4)
        tilde = build_tilde(k, 4, F(1, 9))
        trace = containment_walk(k, tilde, 4)
        common = to_interval_set(k, 4).intersection(to_interval_set(tilde, 4))
        assert common.contains(trace.point_estimate)


def test_walk_hull_error():
    k = from_middle_ratio(1, 2)
    with pytest.raises(HullContainmentError):
        containment_walk(k, affine_tree(k, 1, F(1, 2)), 2)


def test_walk_gap_condition_error_names_level():
    k = from_middle_ratio(1, 3)
    # an outer tree with gaps as large as the inner ones fails level 0
    outer = from_middle_ratio(1, 3, ivl(F(-1, 10), F(11, 10)))
    with pytest.raises(GapConditionError) as err:
        containment_walk(k, outer, 3)
    assert err.value.level == 0


def test_build_tilde_gap_bound():
    k = from_middle_ratio(1, 3)
    tilde = build_tilde(k, 3, F(1, 10))
    for n in range(3):
        inner_min = min(node.gap.length for node in k.levels[n])
        outer_max = max(node.gap.length for node in tilde.levels[n])
        assert outer_max < inner_min / 2
    th = thickness(tilde)
    assert not th.is_infinite and th.value > 0


def test_perturbation_delta_value_and_stability():
    k = from_middle_ratio(1, 3)
    margin = F(1, 10)
    tilde = build_tilde(k, 3, margin)
    delta = perturbation_delta(k, tilde, 3)
    assert delta > 0
    assert delta >= margin / (2 * k.interval.length)
    rng = random.Random(13)
    for _ in range(25):
        lam = 1 / (1 + delta) + (delta + 1 - 1 / (1 + delta)) * F(
            rng.randrange(1, 64), 64
        )
        t = -delta + 2 * delta * F(rng.randrange(1, 64), 64)
        moved = affine_tree(k, lam, t)
        trace = containment_walk(moved, tilde, 3)
        assert len(trace.chain) == 3


def test_perturbation_delta_zero_slack():
    k = from_middle_ratio(1, 2)
    # same-size gaps leave no factor-1/2 slack
    outer = GapTree(
        ivl(F(-1, 10), F(11, 10)),
        from_middle_ratio(1, 2).gap,
        GapTree(ivl(F(-1, 10), F(1, 3))),
        GapTree(ivl(F(2, 3), F(11, 10))),
    )
    with pytest.raises((ZeroSlackError, GapConditionError)):
        perturbation_delta(k, outer, 1)


def test_gap_lemma_consistent_with_walker_on_corpus():
    # pairs that satisfy both the lemma hypotheses and the walker
    # preconditions must produce a trace
    rng = random.Random(2024)
    for _ in range(10):
        k = random_decreasing_gap_tree(rng, 4)
        tilde = build_tilde(k, 4, F(1, 8))
        verdict = check_gap_lemma(k, tilde)
        if verdict.applicable:
            trace = containment_walk(k, tilde, 4)
            assert trace.error_bound > 0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ErdosAvoidError as exc:
        return type(exc).__name__, str(exc)


def partial_tree(rng, iv, depth):
    """Node-built tree whose branches stop at random depths."""
    if depth == 0 or rng.random() < 0.3:
        return GapTree(iv)
    a, b, c = rng.randrange(1, 5), rng.randrange(1, 3), rng.randrange(1, 5)
    unit = iv.length / (a + b + c)
    gap = ivl(iv.lo + a * unit, iv.hi - c * unit)
    return GapTree(
        iv,
        gap,
        partial_tree(rng, ivl(iv.lo, gap.lo), depth - 1),
        partial_tree(rng, ivl(gap.hi, iv.hi), depth - 1),
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 4),
    lam=st.sampled_from([F(1), F(2, 3), F(-1), F(-3, 2), F(-5, 7)]),
    t=st.fractions(-3, 3, max_denominator=6),
    margin=st.sampled_from([F(1, 9), F(1, 1000), F(2)]),
)
def test_level_array_kernels_match_fraction_oracles(seed, depth, lam, t, margin):
    # build_tilde, containment_walk and check_gap_lemma against their
    # node-by-node Fraction bodies: equal trees, equal traces or the same
    # error and message, equal verdicts
    rng = random.Random(seed)
    inner = affine_tree(random_decreasing_gap_tree(rng, depth), lam, t)
    tilde = build_tilde(inner, depth, margin)
    ref = reference_build_tilde(inner, depth, margin)
    assert tilde == ref and tree_to_json(tilde) == tree_to_json(ref)
    assert thickness(tilde) == thickness(ref)

    walks = [
        (inner, tilde, depth),
        (inner, ref, depth),
        (inner, affine_tree(tilde, 1, 2 * margin), depth),
        (inner, affine_tree(random_decreasing_gap_tree(rng, depth), lam, t), depth),
        (inner, tilde, depth + 1),
        (affine_tree(inner, F(1, 2), inner.interval.lo / 2), tilde, depth),
    ]
    for args in walks:
        assert _outcome(containment_walk, *args) == _outcome(reference_containment_walk, *args)

    # hulls inside a gap of `inner`, touching one end, both or neither
    g = rng.choice(reference_all_gaps(inner))
    hull = rng.choice([
        ivl(g.lo, g.lo + g.length / 2),
        ivl(g.hi - g.length / 3, g.hi),
        ivl(g.lo + g.length / 4, g.hi - g.length / 4),
        g,
    ])
    nested = random_decreasing_gap_tree(rng, rng.randrange(1, 4), hull)
    flipped = affine_tree(nested, -1, hull.lo + hull.hi)  # the same hull
    partial = partial_tree(rng, rng.choice([hull, inner.interval, ivl(-1, 1)]), depth)
    pairs = [(inner, tilde), (nested, inner), (flipped, inner), (partial, inner), (partial, nested),
             (partial, thin_tree())]
    for k1, k2 in pairs:
        assert check_gap_lemma(k1, k2) == reference_check_gap_lemma(k1, k2)
        assert check_gap_lemma(k2, k1) == reference_check_gap_lemma(k2, k1)
