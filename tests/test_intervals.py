import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosavoid.errors import DegenerateMapError, MalformedIntervalError, SchemaError
from erdosavoid.intervals import (
    Interval,
    IntervalSet,
    ParamBox,
    box_image,
    ivl,
)
from helpers import brute_member, grid_points, random_interval_list

F = Fraction

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=16
)


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


def test_difference_keeps_endpoints():
    a = IntervalSet.of((0, 1))
    b = IntervalSet.of((F(1, 3), F(2, 3)))
    assert a.difference(b) == IntervalSet.of((0, F(1, 3)), (F(2, 3), 1))


def test_difference_degenerate_points():
    a = IntervalSet.of((0, 0), (1, 2))
    b = IntervalSet.of((0, 0), (F(3, 2), F(3, 2)))
    d = a.difference(b)
    # the isolated point is removed; the interior cut keeps its endpoints
    assert d == IntervalSet.of((1, 2))


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


def test_json_round_trip_and_rejection():
    s = IntervalSet.of((0, F(1, 3)), (F(2, 3), 1))
    assert IntervalSet.from_json(s.to_json()) == s
    with pytest.raises(SchemaError):
        IntervalSet.from_json({"intervals": [["0", "1"], ["1/2", "2"]]})
    with pytest.raises(SchemaError):
        IntervalSet.from_json({"intervals": [["2", "3"], ["0", "1"]]})


def test_find_gap_containing():
    s = IntervalSet.of((0, 1), (2, 3))
    gap = s.find_gap_containing(ivl(F(3, 2), F(7, 4)))
    assert gap is not None and gap.lo == 1 and gap.hi == 2
    assert s.find_gap_containing(ivl(F(1, 2), F(3, 2))) is None
    # the unbounded rays are complement components too
    left, right = s.find_gap_containing(ivl(-2, -1)), s.find_gap_containing(ivl(4, 5))
    assert (left.lo, left.hi) == (None, F(0)) and (right.lo, right.hi) == (F(3), None)


@settings(max_examples=150, deadline=None)
@given(intervals_strategy(), intervals_strategy())
def test_difference_measure_identity(raw_a, raw_b):
    a, b = IntervalSet(raw_a), IntervalSet(raw_b)
    # closures add only measure zero, so the identity is exact
    assert a.difference(b).measure() == a.measure() - a.intersection(b).measure()


@settings(max_examples=150, deadline=None)
@given(intervals_strategy(), intervals_strategy())
def test_difference_disjoint_from_interior(raw_a, raw_b):
    a, b = IntervalSet(raw_a), IntervalSet(raw_b)
    d = a.difference(b)
    # the difference never meets the open interior of the subtrahend
    inner = d.intersection(b)
    assert inner.measure() == 0
