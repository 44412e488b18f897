import random
from fractions import Fraction

import pytest

from erdosavoid.errors import InvalidParameterError, NotEnoughStructureError
from erdosavoid.gaptree import (
    GapTree,
    affine_tree,
    decompose,
    from_middle_ratio,
    thickness,
    to_interval_set,
    tree_from_json,
    tree_to_json,
)
from erdosavoid.intervals import IntervalSet, ivl
from helpers import random_decreasing_gap_tree

F = Fraction


def test_middle_thirds_level_one():
    t = from_middle_ratio(1, 1, ivl(0, 1))
    assert t.left.interval == ivl(0, F(1, 3))
    assert t.gap == ivl(F(1, 3), F(2, 3))
    assert t.right.interval == ivl(F(2, 3), 1)


def test_middle_ratio_piece_lengths():
    t = from_middle_ratio(2, 2, ivl(0, 1))
    for node in t.nodes_at_level(1):
        assert node.interval.length == F(2, 5)
    assert t.gap.length == F(1, 5)


@pytest.mark.parametrize("n_ratio,depth", [(1, 3), (2, 4), (3, 2), (5, 5)])
def test_level_measure_closed_form(n_ratio, depth):
    t = from_middle_ratio(n_ratio, depth, ivl(0, 1))
    for d in range(depth + 1):
        got = to_interval_set(t, d).measure()
        assert got == F(2 * n_ratio, 2 * n_ratio + 1) ** d


def test_invalid_middle_ratio():
    with pytest.raises(InvalidParameterError):
        from_middle_ratio(0, 1)
    with pytest.raises(InvalidParameterError):
        from_middle_ratio(1, 0)


def test_tiling_invariant():
    t = from_middle_ratio(3, 4, ivl(-2, 5))

    def visit(node):
        if node.is_leaf:
            return
        assert node.interval.length == (
            node.left.interval.length + node.gap.length + node.right.interval.length
        )
        visit(node.left)
        visit(node.right)

    visit(t)


def test_thickness_of_generators():
    for n_ratio in range(1, 11):
        for depth in range(1, 5):
            th = thickness(from_middle_ratio(n_ratio, depth))
            assert th.value == n_ratio
            assert th.label == "exact"


def test_thickness_single_shrunken_child():
    # left child half the gap length forces thickness 1/2
    left = GapTree(ivl(0, F(1, 8)))
    gap = ivl(F(1, 8), F(3, 8))
    right = GapTree(ivl(F(3, 8), 1))
    t = GapTree(ivl(0, 1), gap, left, right)
    assert thickness(t).value == F(1, 2)
    assert thickness(t).label == "upper_bound"


def test_thickness_leaf_is_infinite():
    th = thickness(GapTree(ivl(0, 1)))
    assert th.is_infinite


def test_to_interval_set_levels():
    t = from_middle_ratio(1, 2)
    assert to_interval_set(t, 0) == IntervalSet.of((0, 1))
    assert to_interval_set(t, 2) == IntervalSet.of(
        (0, F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), 1)
    )
    with pytest.raises(InvalidParameterError):
        to_interval_set(t, 3)


def test_decompose_round_trip_middle_thirds():
    s = to_interval_set(from_middle_ratio(1, 2), 2)
    assert decompose(s, 2) == from_middle_ratio(1, 2)


def test_decompose_largest_gap_chosen():
    s = IntervalSet.of((0, 1), (2, 3), (10, 11))
    t = decompose(s, 1)
    assert t.gap == ivl(3, 10)


def test_decompose_tie_leftmost():
    s = IntervalSet.of((0, 1), (2, 3), (4, 5))
    t = decompose(s, 1)
    assert t.gap == ivl(1, 2)


def test_decompose_insufficient_gaps():
    s = IntervalSet.of((0, 1), (2, 3))
    with pytest.raises(NotEnoughStructureError) as err:
        decompose(s, 2)
    assert err.value.node in ("0", "1")


def test_decompose_round_trip_random_trees():
    rng = random.Random(4242)
    for _ in range(25):
        tree = random_decreasing_gap_tree(rng, 4)
        s = to_interval_set(tree, 4)
        assert len(s) == 16
        back = decompose(s, 4)
        assert to_interval_set(back, 4) == s
        assert back == tree


def test_affine_tree_identity_and_image():
    t = from_middle_ratio(1, 2)
    assert affine_tree(t, 1, 0) == t
    img = affine_tree(t, 3, 1)
    assert img.interval == ivl(1, 4)
    assert img.gap == ivl(2, 3)


def test_affine_tree_negative_scale_swaps_children():
    t = from_middle_ratio(1, 1)
    img = affine_tree(t, -1, 0)
    assert img.interval == ivl(-1, 0)
    assert img.left.interval == ivl(-1, F(-2, 3))
    assert img.gap == ivl(F(-2, 3), F(-1, 3))


def test_affine_tree_thickness_invariance():
    rng = random.Random(11)
    t = random_decreasing_gap_tree(rng, 3)
    base = thickness(t).value
    for _ in range(50):
        lam = F(rng.randrange(-64, 64) or 1, 16)
        off = F(rng.randrange(-64, 64), 8)
        assert thickness(affine_tree(t, lam, off)).value == base


def test_tree_json_round_trip():
    t = from_middle_ratio(2, 3, ivl(-1, 2))
    assert tree_from_json(tree_to_json(t)) == t
