import random
from fractions import Fraction

import pytest

from erdosavoid.errors import GapConditionError, HullContainmentError, ZeroSlackError
from erdosavoid.gaptree import GapTree, affine_tree, from_middle_ratio, thickness, to_interval_set
from erdosavoid.intersect import (
    REASON_THIN,
    build_tilde,
    check_gap_lemma,
    containment_walk,
    perturbation_delta,
)
from erdosavoid.intervals import ivl
from helpers import random_decreasing_gap_tree

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
