import copy
import math
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erdosavoid.errors import (
    DegenerateMapError,
    MalformedIntervalError,
    ResourceLimitError,
    SchemaError,
)
from erdosavoid.gaptree import from_middle_ratio, to_interval_set
from erdosavoid.intervals import (
    MAX_GRID_CELLS,
    Grid,
    Interval,
    IntervalSet,
    ParamBox,
    box_image,
    ivl,
)
from erdosavoid.rationals import as_rational
from erdosavoid.sequences import reciprocal
from erdosavoid.smallscale import build_sublacunary_avoider
from helpers import (
    brute_member,
    grid_points,
    random_interval_list,
    random_decreasing_gap_tree,
    reference_affine,
    reference_contains,
    reference_find_gap_containing,
    reference_grid_slice,
    reference_intersection,
    reference_measure,
    reference_normalize,
    reference_union,
)

F = Fraction

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=16
)


nonzero_rationals = small_rationals.filter(lambda q: q != 0)
positive_rationals = small_rationals.filter(lambda q: q > 0)


def canonical_sets(max_count=8):
    """Canonical sets normalized from members with mixed denominators,
    single points among them; an empty list gives the empty set."""
    member = st.one_of(
        st.tuples(small_rationals, small_rationals).map(lambda p: Interval(min(p), max(p))),
        small_rationals.map(lambda x: Interval(x, x)),
    )
    return st.lists(member, max_size=max_count).map(IntervalSet)


def intervals_strategy(max_count=6):
    def to_interval(pair):
        a, b = pair
        return Interval(min(a, b), max(a, b))

    return st.lists(
        st.tuples(small_rationals, small_rationals).map(to_interval),
        max_size=max_count,
    )


def test_malformed_interval_rejected():
    with pytest.raises(MalformedIntervalError):
        Interval(F(1), F(0))


def test_normalize_empty():
    empty = IntervalSet([])
    assert empty.intervals == ()
    assert not empty and len(empty) == 0
    assert empty.measure() == 0
    assert IntervalSet([ivl(0, 1)]).intersection(IntervalSet.of((2, 3))) == empty


def test_normalize_touching_merge():
    s = IntervalSet([ivl(0, 1), ivl(1, 2)])
    assert s == IntervalSet.of((0, 2))


def test_normalize_matches_brute_force_membership():
    rng = random.Random(20240811)
    raw = random_interval_list(rng, 50)
    s = IntervalSet(raw)
    for x in grid_points(0, 10, 1000):
        assert s.contains(x) == brute_member(raw, x)
    # canonical invariants
    for a, b in zip(s.intervals, s.intervals[1:]):
        assert a.hi < b.lo


def test_measure_basics():
    assert IntervalSet.of((0, 1)).measure() == 1
    assert IntervalSet.of((0, F(1, 4)), (F(1, 2), F(3, 4))).measure() == F(1, 2)


def test_intersection_example():
    a = IntervalSet.of((0, 1))
    b = IntervalSet.of((F(1, 2), 2))
    assert a.intersection(b) == IntervalSet.of((F(1, 2), 1))
    # members that only touch meet in a point
    assert a.intersection(IntervalSet.of((1, 2))) == IntervalSet.of((1, 1))


def test_set_ops_against_grid_oracle():
    rng = random.Random(7)
    for _ in range(20):
        raw_a = random_interval_list(rng, 8)
        raw_b = random_interval_list(rng, 8)
        a, b = IntervalSet(raw_a), IntervalSet(raw_b)
        u = a.union(b)
        i = a.intersection(b)
        for x in grid_points(0, 10, 500):
            ma, mb = brute_member(raw_a, x), brute_member(raw_b, x)
            assert u.contains(x) == (ma or mb)
            assert i.contains(x) == (ma and mb)


@settings(max_examples=200, deadline=None)
@given(intervals_strategy(), intervals_strategy())
def test_inclusion_exclusion_identity(raw_a, raw_b):
    a, b = IntervalSet(raw_a), IntervalSet(raw_b)
    lhs = a.union(b).measure() + a.intersection(b).measure()
    assert lhs == a.measure() + b.measure()


@settings(max_examples=100, deadline=None)
@given(intervals_strategy())
def test_measure_zero_iff_points(raw):
    s = IntervalSet(raw)
    assert (s.measure() == 0) == all(iv.lo == iv.hi for iv in s.intervals)


def test_affine_identity_and_reflection():
    s = IntervalSet.of((0, 1), (2, 3))
    assert s.affine(1, 0) == s
    assert IntervalSet.of((0, 1)).affine(-1, 0) == IntervalSet.of((-1, 0))


def test_affine_measure_scaling():
    s = IntervalSet.of((0, F(1, 3)), (F(1, 2), 1))
    img = s.affine(F(3, 2), -7)
    assert img.measure() == F(3, 2) * s.measure()
    with pytest.raises(DegenerateMapError):
        s.affine(0, 0)


@settings(max_examples=150, deadline=None)
@given(
    intervals_strategy(4),
    small_rationals.filter(lambda q: q != 0),
    small_rationals,
    small_rationals.filter(lambda q: q != 0),
    small_rationals,
)
def test_affine_group_action(raw, l1, t1, l2, t2):
    s = IntervalSet(raw)
    once = s.affine(l1, t1).affine(l2, t2)
    composed = s.affine(l2 * l1, l2 * t1 + t2)
    assert once == composed


@settings(max_examples=300, deadline=None)
@given(canonical_sets(), nonzero_rationals, small_rationals)
def test_affine_matches_fraction_reference(s, lam, t):
    got = s.affine(lam, t)
    assert got.intervals == reference_affine(s, lam, t)
    assert len(got) == len(s) and bool(got) == bool(s)


@settings(max_examples=300, deadline=None)
@given(canonical_sets(), canonical_sets(), nonzero_rationals, small_rationals)
# disjoint hulls, and a hull inside a gap of the other set: both empty
@example(IntervalSet.of((0, 1), (2, 3)), IntervalSet.of((F(7, 2), 4)), F(1), F(0))
@example(IntervalSet.of((0, 1), (4, 5)), IntervalSet.of((2, 3)), F(-1), F(1, 2))
def test_intersection_matches_fraction_reference(a, b, lam, t):
    # an affine image carries only its lattice view, on either side
    image, ref_image = a.affine(lam, t), reference_affine(a, lam, t)
    cases = ((a, b, a, b), (image, b, ref_image, b), (b, image, b, ref_image))
    for x, y, ref_x, ref_y in cases:
        got = x.intersection(y)
        assert got.intervals == reference_intersection(ref_x, ref_y)
        # canonical without normalizing: renormalizing changes nothing
        assert got == IntervalSet(got.intervals)


def test_box_image_examples():
    box = ParamBox(ivl(1, 2), ivl(0, 0))
    assert box_image(0, ParamBox(ivl(1, 2), ivl(-3, 5))) == ivl(-3, 5)
    assert box_image(1, box) == ivl(1, 2)
    # frozen from corner enumeration: x=-3, lam in [1,2], t in [-1,1]
    assert box_image(-3, ParamBox(ivl(1, 2), ivl(-1, 1))) == ivl(-7, -2)


def test_box_image_contains_sampled_points():
    rng = random.Random(99)
    box = ParamBox(ivl(F(1, 2), F(7, 3)), ivl(-2, F(5, 4)))
    for _ in range(100):
        x = F(rng.randrange(-64, 64), 16)
        lam = box.lam.lo + (box.lam.hi - box.lam.lo) * F(rng.randrange(65), 64)
        t = box.t.lo + (box.t.hi - box.t.lo) * F(rng.randrange(65), 64)
        assert box_image(x, box).contains(lam * x + t)


def test_param_box_rejects_zero_scale():
    with pytest.raises(MalformedIntervalError):
        ParamBox(ivl(-1, 1), ivl(0, 0))


def test_json_refuses_booleans():
    # bool is an int subclass; a JSON true must not read as 1
    for value in (True, False):
        with pytest.raises(SchemaError):
            as_rational(value)


def test_find_gap_containing():
    s = IntervalSet.of((0, 1), (2, 3))
    gap = s.find_gap_containing(ivl(F(3, 2), F(7, 4)))
    assert gap is not None and gap.lo == 1 and gap.hi == 2
    assert s.find_gap_containing(ivl(F(1, 2), F(3, 2))) is None
    # an image ending on a member's end is not strictly inside the gap
    assert s.find_gap_containing(ivl(1, F(3, 2))) is None
    assert s.find_gap_containing(ivl(F(3, 2), 2)) is None
    # the unbounded rays are complement components too
    left, right = s.find_gap_containing(ivl(-2, -1)), s.find_gap_containing(ivl(4, 5))
    assert (left.lo, left.hi) == (None, F(0)) and (right.lo, right.hi) == (F(3), None)


def _probe_points(s):
    """Member endpoints, points a quarter lattice step off either side of
    each, the midpoints between them and a point past either end,
    sorted."""
    ends = [v for iv in s.intervals for v in (iv.lo, iv.hi)]
    if not ends:
        return [F(0)]
    eps = F(1, 4 * s._lattice()[0])
    mids = [(u + v) / 2 for u, v in zip(ends, ends[1:])]
    near = [v + d for v in ends for d in (-eps, eps)]
    return sorted({*ends, *near, *mids, ends[0] - 1, ends[-1] + 1})


@lru_cache(maxsize=None)
def _avoider_case(levels):
    s = build_sublacunary_avoider(reciprocal(), levels).interval_set()
    return s, _probe_points(s)


@st.composite
def gap_queries(draw):
    """A set (built from members, an affine or intersection output whose
    view is not on the lcm, or the avoider's handed-over view) and an
    image interval: either between two nearby probe points (ends on
    member endpoints, inside gaps or members, or past either end of the
    set; equal points give a degenerate image) or between two random
    rationals."""
    kind = draw(st.sampled_from(("members", "affine", "intersection", "avoider")))
    if kind == "avoider":
        s, points = _avoider_case(draw(st.integers(0, 3)))
    else:
        s = draw(canonical_sets())
        if kind == "affine":
            s = s.affine(draw(nonzero_rationals), draw(small_rationals))
        elif kind == "intersection":
            s = s.intersection(draw(canonical_sets()))
        points = _probe_points(s)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(points) - 1))
        j = min(i + draw(st.integers(0, 3)), len(points) - 1)
        return s, Interval(points[i], points[j])
    lo, hi = sorted((draw(small_rationals), draw(small_rationals)))
    return s, Interval(lo, hi)


@settings(max_examples=400, deadline=None)
@given(gap_queries())
def test_find_gap_containing_matches_fraction_reference(case):
    s, iv = case
    assert s.find_gap_containing(iv) == reference_find_gap_containing(s, iv)


@st.composite
def member_queries(draw):
    """A set (built from members, an affine or intersection output, or a
    gap tree's level set handed over as a view) and its probe points."""
    kind = draw(st.sampled_from(("members", "affine", "intersection", "tree")))
    if kind == "tree":
        if draw(st.booleans()):
            lo = draw(small_rationals)
            tree = from_middle_ratio(
                draw(st.integers(1, 5)), draw(st.integers(1, 4)), ivl(lo, lo + draw(positive_rationals))
            )
        else:
            tree = random_decreasing_gap_tree(random.Random(draw(st.integers(0, 99))), 3)
        s = to_interval_set(tree, draw(st.integers(0, tree.min_depth())))
    else:
        s = draw(canonical_sets())
        if kind == "affine":
            s = s.affine(draw(nonzero_rationals), draw(small_rationals))
        elif kind == "intersection":
            s = s.intersection(draw(canonical_sets()))
    return s, _probe_points(s)


@settings(max_examples=300, deadline=None)
@given(member_queries())
def test_measure_and_contains_match_fraction_reference(case):
    s, points = case
    assert s.measure() == reference_measure(s)
    assert [s.contains(x) for x in points] == [reference_contains(s, x) for x in points]


@settings(max_examples=300, deadline=None)
@given(member_queries())
def test_gaps_match_validated_intervals(case):
    s, _ = case
    den, los, his = s._lattice()
    want = [Interval(Fraction(a, den), Fraction(b, den)) for a, b in zip(his, los[1:])]
    got = s.gaps()
    assert got == want and [hash(g) for g in got] == [hash(g) for g in want]
    assert all(g.lo < g.hi for g in got)
    assert list(s) == [Interval(Fraction(a, den), Fraction(b, den)) for a, b in zip(los, his)]
    for gap in got:
        for back in (copy.copy(gap), pickle.loads(pickle.dumps(gap))):
            assert back == gap and hash(back) == hash(gap)


def test_gaps_of_empty_and_one_member_sets():
    for s in (IntervalSet(), IntervalSet.of((0, 1)), IntervalSet.of((2, 2)), IntervalSet._from_lattice(6, [], [])):
        assert s.gaps() == []
    assert IntervalSet.of((0, 1), (2, 3)).gaps() == [ivl(1, 2)]


def member_lists(max_count=8):
    """Raw members in any order with mixed denominators: random
    intervals, single points and chains of members touching end to end."""
    member = st.one_of(
        st.tuples(small_rationals, small_rationals).map(lambda p: [Interval(min(p), max(p))]),
        small_rationals.map(lambda x: [Interval(x, x)]),
        st.lists(small_rationals, min_size=2, max_size=5).map(sorted).map(
            lambda xs: [Interval(a, b) for a, b in zip(xs, xs[1:])]
        ),
    )
    return st.lists(member, max_size=max_count).map(
        lambda groups: [iv for g in groups for iv in g]
    ).flatmap(st.permutations)


@st.composite
def view_sets(draw):
    """A set built from members, or an affine image of one, whose view
    is not on the lcm of its endpoint denominators."""
    s = IntervalSet(draw(member_lists()))
    if draw(st.booleans()):
        s = s.affine(draw(nonzero_rationals), draw(small_rationals))
    return s


@settings(max_examples=200, deadline=None)
@given(member_lists())
def test_constructor_matches_fraction_reference(raw):
    s = IntervalSet(raw)
    assert s.intervals == reference_normalize(raw)
    # the view is on the lcm of the members' denominators
    den = s._lattice()[0]
    assert den == math.lcm(*(v.denominator for iv in raw for v in (iv.lo, iv.hi)))


@settings(max_examples=150, deadline=None)
@given(st.lists(view_sets(), min_size=1, max_size=3))
def test_union_matches_fraction_reference(sets):
    got = sets[0].union(*sets[1:])
    assert got.intervals == reference_union(*sets)
    assert got == IntervalSet(got.intervals)


def test_copies_and_pickles_round_trip():
    s = IntervalSet.of((0, F(1, 3)), (F(1, 2), 2))
    kernel = s.affine(F(-3, 7), F(1, 5)).intersection(IntervalSet.of((-1, 0)))
    for original in (s, IntervalSet(), kernel):
        for back in (
            copy.copy(original),
            copy.deepcopy(original),
            pickle.loads(pickle.dumps(original)),
        ):
            assert back == original and hash(back) == hash(original)
    assert kernel.intervals == reference_intersection(
        reference_affine(s, F(-3, 7), F(1, 5)), IntervalSet.of((-1, 0))
    )
    # one point set on two denominators is one value
    for a, b in (
        (IntervalSet._from_lattice(6, [0], [3]), IntervalSet.of((0, F(1, 2)))),
        (IntervalSet._from_lattice(10, [], []), IntervalSet()),
        (IntervalSet._from_lattice(4, [0, 8], [0, 12]), IntervalSet.of((0, 0), (2, 3))),
    ):
        assert a == b and hash(a) == hash(b)
    assert IntervalSet._from_lattice(6, [0], [3]) != IntervalSet.of((0, F(1, 3)))


@settings(max_examples=100, deadline=None)
@given(
    ends=st.lists(small_rationals, min_size=4, max_size=4),
    x_cells=st.integers(1, 9),
    y_cells=st.integers(1, 9),
)
def test_grid_cells_match_slice_formula(ends, x_cells, y_cells):
    # every cell, read in a shuffled order and twice, is the recomputed slice
    x_range = Interval(*sorted(ends[:2]))
    y_range = Interval(*sorted(ends[2:]))
    grid = Grid(x_range, y_range, x_cells, y_cells)
    order = list(range(len(grid))) * 2
    random.Random(len(order)).shuffle(order)
    for box_id in order:
        i, j = divmod(box_id, y_cells)
        want = (reference_grid_slice(x_range, i, x_cells), reference_grid_slice(y_range, j, y_cells))
        assert grid.cell(box_id) == want
    assert list(grid) == [grid.cell(b) for b in range(len(grid))]
    assert grid == Grid(x_range, y_range, x_cells, y_cells)
    assert hash(grid) == hash(Grid(x_range, y_range, x_cells, y_cells))
    assert pickle.loads(pickle.dumps(grid)).cell(len(grid) - 1) == grid.cell(len(grid) - 1)


def test_huge_grid_builds_only_the_slices_read():
    grid = Grid(ivl(0, 1), ivl(1, 2), 1, MAX_GRID_CELLS)
    assert grid.cell(0) == (ivl(0, 1), ivl(1, 1 + F(1, 10**6)))
    assert grid.cell(10**6 - 1)[1] == ivl(2 - F(1, 10**6), 2)
    assert (len(grid._xs), len(grid._ys)) == (1, 2)


def test_grid_cell_cap_is_inclusive():
    # exactly MAX_GRID_CELLS cells is a grid; one more is refused
    assert MAX_GRID_CELLS == 10**6
    for x_cells, y_cells in ((1000, 1000), (10**6, 1), (1, 10**6)):
        assert len(Grid(ivl(0, 1), ivl(1, 2), x_cells, y_cells)) == MAX_GRID_CELLS
    for x_cells, y_cells in ((10**6 + 1, 1), (1, 10**6 + 1), (101, 9901), (10**6, 10**6)):
        with pytest.raises(ResourceLimitError, match="MAX_GRID_CELLS"):
            Grid(ivl(0, 1), ivl(1, 2), x_cells, y_cells)
