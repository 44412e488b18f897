import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosavoid.errors import InvalidParameterError, ResourceLimitError
from erdosavoid.gaptree import (
    MAX_TREE_NODES,
    GapTree,
    affine_tree,
    from_middle_ratio,
    thickness,
    to_interval_set,
    tree_to_json,
)
from erdosavoid.intersect import _all_gaps
from erdosavoid.intervals import IntervalSet, ivl
from helpers import (
    random_decreasing_gap_tree,
    reference_affine_tree,
    reference_all_gaps,
    reference_from_middle_ratio,
    reference_level_nodes,
    reference_min_depth,
    reference_thickness,
)

F = Fraction


def test_middle_thirds_level_one():
    t = from_middle_ratio(1, 1, ivl(0, 1))
    assert t.left.interval == ivl(0, F(1, 3))
    assert t.gap == ivl(F(1, 3), F(2, 3))
    assert t.right.interval == ivl(F(2, 3), 1)


def test_middle_ratio_piece_lengths():
    t = from_middle_ratio(2, 2, ivl(0, 1))
    for node in t.levels[1]:
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
    t = from_middle_ratio(1, 1, ivl(-1, 2))
    leaf = {"gap": None, "left": None, "right": None}
    assert tree_to_json(t) == {
        "interval": ["-1", "2"],
        "gap": ["0", "1"],
        "left": {"interval": ["-1", "0"], **leaf},
        "right": {"interval": ["1", "2"], **leaf},
    }


def _left_chain(splits: int) -> GapTree:
    """A tree whose every split keeps splitting on the left, built bottom up."""
    node = GapTree(ivl(0, F(1, 3**splits)))
    for i in range(splits - 1, -1, -1):
        hi = F(1, 3**i)
        node = GapTree(ivl(0, hi), ivl(hi / 3, 2 * hi / 3), node, GapTree(ivl(2 * hi / 3, hi)))
    return node


def test_deep_node_built_chain_maps_and_compares():
    # affine_tree and == work level by level on the arrays; tree_to_json
    # recurses once per level, well within the limit at this depth
    t = _left_chain(256)
    assert t.min_depth() == 1
    assert t == _left_chain(256)
    assert affine_tree(t, F(-2), F(1)).interval == ivl(-1, 1)
    assert tree_to_json(t)["left"]["gap"] == ["1/9", "2/9"]


# a tree shape: None for a leaf, or (left shape, left weight, gap weight,
# right weight, right shape); the weights share out the node interval
shapes = st.recursive(
    st.none(),
    lambda kids: st.tuples(kids, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), kids),
    max_leaves=24,
)


def tree_of_shape(shape, iv) -> GapTree:
    if shape is None:
        return GapTree(iv)
    left, a, b, c, right = shape
    unit = iv.length / (a + b + c)
    gap = ivl(iv.lo + a * unit, iv.hi - c * unit)
    return GapTree(
        iv,
        gap,
        tree_of_shape(left, ivl(iv.lo, gap.lo)),
        tree_of_shape(right, ivl(gap.hi, iv.hi)),
    )


trees = st.one_of(
    st.builds(tree_of_shape, shapes, st.just(ivl(0, 1))),
    st.builds(from_middle_ratio, st.integers(1, 4), st.integers(1, 5)),
    st.builds(
        affine_tree,
        st.builds(from_middle_ratio, st.integers(1, 3), st.integers(1, 4)),
        st.sampled_from([F(-1), F(-3, 2), F(2)]),
        st.just(F(1, 3)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_level_index_matches_recursive_walks(tree):
    depth = reference_min_depth(tree)
    assert tree.min_depth() == depth
    height = max(d for d in range(64) if reference_level_nodes(tree, d))
    assert len(tree.levels) == height + 1
    for d, row in enumerate(tree.levels):
        assert list(map(id, row)) == list(map(id, reference_level_nodes(tree, d)))
    th, ref = thickness(tree), reference_thickness(tree)
    assert (th.value, th.label) == (ref.value, ref.label)
    gaps = _all_gaps(tree)
    assert gaps == sorted(gaps, reverse=True)
    den = tree._rows.den
    assert Counter(ivl(F(lo, den), F(hi, den)) for _, lo, hi in gaps) == Counter(
        reference_all_gaps(tree)
    )
    assert all(length == hi - lo for length, lo, hi in gaps)
    for d in range(depth + 1):
        expected = IntervalSet([n.interval for n in reference_level_nodes(tree, d)])
        assert to_interval_set(tree, d) == expected
        assert to_interval_set(tree, d) is to_interval_set(tree, d)
    for bad in (-1, depth + 1):
        with pytest.raises(InvalidParameterError):
            to_interval_set(tree, bad)


def test_tree_with_built_index_copies_and_pickles():
    t = from_middle_ratio(2, 3, ivl(-1, 2))
    level_set = to_interval_set(t, 2)
    for back in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert back == t and hash(back) == hash(t)
        assert back.levels[0][0] is back
        assert back.min_depth() == 3
        assert to_interval_set(back, 2) == level_set
    # the index is derived data and leaves the pickled bytes alone
    assert pickle.dumps(t) == pickle.dumps(from_middle_ratio(2, 3, ivl(-1, 2)))


def _same_nodes(tree: GapTree, ref: GapTree):
    """Node by node, depth by depth: the same interval and gap."""
    assert len(tree.levels) == len(ref.levels)
    for row, ref_row in zip(tree.levels, ref.levels):
        assert [(n.interval, n.gap) for n in row] == [(n.interval, n.gap) for n in ref_row]


hull_ends = st.fractions(min_value=-4, max_value=4, max_denominator=16)
hull_lengths = st.fractions(min_value=F(1, 16), max_value=4, max_denominator=16)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), hull_ends, hull_lengths)
def test_from_middle_ratio_matches_fraction_reference(n_ratio, depth, lo, length):
    hull = ivl(lo, lo + length)
    tree = from_middle_ratio(n_ratio, depth, hull)
    ref = reference_from_middle_ratio(n_ratio, depth, hull)
    _same_nodes(tree, ref)
    assert tree == ref and hash(tree) == hash(ref)
    assert thickness(tree) == reference_thickness(ref)


@settings(max_examples=300, deadline=None)
@given(trees, hull_ends.filter(lambda q: q != 0), hull_ends)
def test_affine_tree_matches_fraction_reference(tree, lam, t):
    # the images' thickness is read from their own mapped endpoints
    img = affine_tree(tree, lam, t)
    ref = reference_affine_tree(tree, lam, t)
    _same_nodes(img, ref)
    assert img == ref
    assert thickness(img) == reference_thickness(ref)


def test_oversize_trees_are_refused_before_building():
    deepest = MAX_TREE_NODES.bit_length() - 1
    assert 2 ** (deepest + 1) - 1 <= MAX_TREE_NODES < 2 ** (deepest + 2) - 1
    assert from_middle_ratio(1, deepest).min_depth() == deepest
    for depth in (deepest + 1, 40, 10**9):
        with pytest.raises(ResourceLimitError, match="nodes"):
            from_middle_ratio(1, depth)
