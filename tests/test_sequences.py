from fractions import Fraction

import pytest

from erdosavoid.errors import InvalidParameterError, NeedsLongerWindowError
from erdosavoid.sequences import (
    custom,
    explicit,
    geometric_down,
    geometric_up,
    linear,
    reciprocal,
    reciprocal_power,
)

F = Fraction


def test_reciprocal_terms_and_tail():
    seq = reciprocal()
    assert seq.term(4) == F(1, 4)
    # the consecutive difference a_n - a_{n+1}
    assert seq.diff(3) == F(1, 3) - F(1, 4)


def test_geometric_down_validation():
    with pytest.raises(InvalidParameterError):
        geometric_down(F(3, 2))
    seq = geometric_down(F(1, 2))
    assert seq.term(3) == F(1, 8)


def test_reciprocal_power_integer_exact():
    seq = reciprocal_power(2)
    assert seq.term(3) == F(1, 9)


def test_reciprocal_power_refuses_non_integer():
    # n^-3/2 has no exact terms, so it is refused when it is built
    for alpha in (F(3, 2), F(1, 2), 0, -1):
        with pytest.raises(InvalidParameterError):
            reciprocal_power(alpha)


def test_explicit_monotonicity_checked():
    with pytest.raises(InvalidParameterError):
        explicit([F(1), F(1)])
    seq = explicit([F(1), F(2, 3), F(1, 3)])
    assert seq.term(2) == F(2, 3)
    with pytest.raises(NeedsLongerWindowError):
        seq.term(4)


def test_geometric_down_ratio_closed_form_matches_scan():
    # the difference ratio of r^n is 1 - r for every n: the least index is
    # the start when 1 - r meets the bound, and no window holds one otherwise
    for r in (F(1, 2), F(9, 10), F(99, 100)):
        fast, slow = geometric_down(r), custom(lambda n, r=r: r**n, "down")
        for bound in (F(1, 4), F(1, 64)):
            for start in (1, 5):
                if 1 - r <= bound:
                    assert fast.first_index_with_ratio_at_most(bound, start) == start
                    assert slow.first_index_with_ratio_at_most(bound, start, window=50) == start
                else:
                    with pytest.raises(NeedsLongerWindowError, match=f"1 - r = {1 - r} for every n"):
                        fast.first_index_with_ratio_at_most(bound, start)
                    with pytest.raises(NeedsLongerWindowError):
                        slow.first_index_with_ratio_at_most(bound, start, window=50)


def test_first_index_with_ratio_closed_form_matches_scan():
    fast = reciprocal()
    slow = custom(lambda n: F(1, n), "down")
    for bound in [F(1, 4), F(1, 64), F(1, 1000)]:
        assert fast.first_index_with_ratio_at_most(bound) == (
            slow.first_index_with_ratio_at_most(bound)
        )


def test_linear_and_geometric_up():
    assert linear().term(7) == 7
    assert geometric_up(2).term(10) == 1024
    with pytest.raises(InvalidParameterError):
        geometric_up(1)
