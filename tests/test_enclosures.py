import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erdosavoid.enclosures import (
    MAX_BITS,
    ln2_enclosure,
    ln_enclosure,
    ln_interval,
    sqrt_enclosure,
)
from erdosavoid.errors import InvalidParameterError, ResourceLimitError
from erdosavoid.intervals import Interval, ivl

from helpers import reference_ln_enclosure

F = Fraction


def test_sqrt_brackets_and_width():
    for q in (F(2), F(3), F(1, 2), F(10), F(49, 4)):
        enc = sqrt_enclosure(q, 64)
        assert enc.lo**2 <= q <= enc.hi**2
        assert enc.hi - enc.lo <= F(2, 2**64)


def test_sqrt_exact_square():
    enc = sqrt_enclosure(F(9, 4), 32)
    assert enc.lo == enc.hi == F(3, 2)


def test_ln_exact_at_one_and_sign():
    assert ln_enclosure(F(1), 32) == ivl(0, 0)
    assert ln_enclosure(F(2), 64).lo > 0
    assert ln_enclosure(F(1, 2), 64).hi < 0


def test_ln_additivity_within_widths():
    # ln(6) must sit inside ln(2) + ln(3) up to enclosure widths
    l2, l3, l6 = (ln_enclosure(F(k), 64) for k in (2, 3, 6))
    assert l2.lo + l3.lo <= l6.hi
    assert l6.lo <= l2.hi + l3.hi


def test_ln2_matches_reference_digits():
    l2 = ln2_enclosure(64)
    ref = F(693147180559945309, 10**18)
    assert l2.lo <= ref + F(1, 10**17)
    assert l2.hi >= ref - F(1, 10**17)
    assert l2.hi - l2.lo <= F(1, 2**60)


def test_ln_power_scaling():
    # ln(2^10) stays within 10 * ln(2) enclosure bounds
    l2 = ln_enclosure(F(2), 80)
    big = ln_enclosure(F(1024), 80)
    assert 10 * l2.lo <= big.hi and big.lo <= 10 * l2.hi


def test_ln_interval_monotone():
    enc = ln_interval(ivl(2, 3), 64)
    assert enc.lo <= ln_enclosure(F(5, 2), 64).lo
    assert enc.hi >= ln_enclosure(F(5, 2), 64).hi


def test_domain_errors():
    with pytest.raises(InvalidParameterError):
        ln_enclosure(F(0), 32)
    with pytest.raises(InvalidParameterError):
        sqrt_enclosure(F(-1), 32)
    with pytest.raises(InvalidParameterError):
        ln_interval(ivl(0, 1), 32)


def test_root_enclosure_high_precision_returns_quickly():
    # a float-seeded root search hangs at 96 bits and overflows at 400
    for bits in (96, 400):
        start = time.perf_counter()
        enc = sqrt_enclosure(F(2), bits)
        assert time.perf_counter() - start < 1
        assert enc.lo**2 <= 2 <= enc.hi**2
        assert enc.hi - enc.lo == F(1, 2**bits)


@pytest.mark.parametrize(
    "enclose",
    [
        lambda bits: sqrt_enclosure(F(2), bits),
        lambda bits: ln_enclosure(F(3), bits),
        lambda bits: ln_interval(ivl(1, 2), bits),
    ],
    ids=["sqrt_enclosure", "ln_enclosure", "ln_interval"],
)
def test_negative_bit_counts_are_refused(enclose):
    # a negative count would be a negative shift; zero bits is a valid,
    # coarse enclosure
    for bits in (-1, -3):
        with pytest.raises(InvalidParameterError):
            enclose(bits)
    assert enclose(0).lo <= enclose(64).lo <= enclose(64).hi <= enclose(0).hi


def test_bit_counts_above_the_cap_are_refused():
    enc = sqrt_enclosure(2, MAX_BITS)
    assert enc.hi - enc.lo == F(1, 2**MAX_BITS)
    with pytest.raises(ResourceLimitError):
        sqrt_enclosure(2, MAX_BITS + 1)
    with pytest.raises(ResourceLimitError):
        ln_enclosure(F(3), MAX_BITS + 1)


@st.composite
def log_arguments(draw):
    """Positive rationals of small and large size, on and next to the
    reduction's ends 3/4 * 2**e and 3/2 * 2**e, and powers of two."""
    e = draw(st.integers(-200, 200))
    kind = draw(st.sampled_from(["ratio", "edge", "power"]))
    if kind == "ratio":
        size = draw(st.sampled_from([10**3, 2**80, 10**40]))
        q = F(draw(st.integers(1, size)), draw(st.integers(1, size)))
    elif kind == "edge":
        nudge = F(draw(st.integers(-1, 1)), 2**70)
        q = (draw(st.sampled_from([F(3, 4), F(3, 2)])) + nudge) * F(2) ** e
    else:
        q = F(2) ** e
    return q


@settings(max_examples=400, deadline=None)
@given(q=log_arguments(), bits=st.sampled_from([0, 1, 7, 32, 64, 96, 130]))
@example(q=F(1), bits=64)  # exact [0, 0] through the e * ln 2 path with e = 0
@example(q=F(5, 4), bits=64)  # in [3/4, 3/2): e = 0
@example(q=F(5, 4), bits=0)
def test_ln_enclosure_matches_fraction_series(q, bits):
    assert ln_enclosure.__wrapped__(q, bits) == reference_ln_enclosure(q, bits)


def test_ln_enclosure_far_from_one_is_pinned_and_fast():
    # 10^-4000 is the dilate of `certify log-escape --y-range
    # 1e-4000:1e-3999`, and 3 * 2^-60000 is m = 3/4 sixty thousand
    # binary digits away; every end is on 2^(bits+2), reduced
    cases = {
        F(1, 10**4000): (
            F(-42475197918399869019689, 2**62), F(-42475197918399869019637, 2**62)),
        F(10**4000): (
            F(42475197918399869019637, 2**62), F(42475197918399869019689, 2**62)),
        F(3, 2**60000): (
            F(-383579126446217023324087, 2**63), F(-3068633011569736186588945, 2**66)),
    }
    start = time.perf_counter()
    got = {q: ln_enclosure.__wrapped__(q, 64) for q in cases}
    elapsed = time.perf_counter() - start
    for q, (lo, hi) in cases.items():
        assert got[q] == Interval(lo, hi)
    # about 0.3 s on a 2-CPU VM; `reference_ln_enclosure` takes about 3 s
    assert elapsed < 1.5, elapsed
