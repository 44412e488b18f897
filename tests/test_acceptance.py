"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete.
"""

import random
import time
from fractions import Fraction

from erdosavoid.enclosures import sqrt_enclosure
from erdosavoid.gaptree import affine_tree, from_middle_ratio, thickness, to_interval_set
from erdosavoid.intersect import build_tilde, containment_walk
from erdosavoid.intervals import IntervalSet, ivl
from erdosavoid.largescale import (
    density_mod1,
    digit_avoider,
    dubickas_gap_check,
    ell_upper_bound,
    is_p_large,
    quotient_avoider,
    sweep_linear_escape,
    sweep_log_escape,
    validate_linear_escape,
)
from erdosavoid.sequences import geometric_down, reciprocal
from erdosavoid.smallscale import build_sublacunary_avoider, embed_lacunary, slope_envelope
from erdosavoid.sumsets import (
    FrameCertifier,
    build_dyadic_family,
    escape_to_coverage_params,
    sumset_cover_probe,
)
from helpers import random_decreasing_gap_tree

F = Fraction


def _report(num, description, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {verdict} ({elapsed:.2f}s < {budget}s) {description}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_avoider_measure():
    t0 = time.time()
    seq = reciprocal()
    ok = True
    detail = []
    for levels in range(1, 7):
        result = build_sublacunary_avoider(seq, levels)
        bound = 1 - sum(F(2, 4**k) for k in range(1, levels + 1))
        ok &= result.measure >= bound > F(1, 3)
        detail.append(f"K={levels}:{result.measure}")
    _report(
        1, "avoider measure above its exact removal bound for K=1..6",
        ok, time.time() - t0, 5, "; ".join(detail[-2:]),
    )


def test_criterion_02_thickness_exactness():
    t0 = time.time()
    ok = True
    for n_ratio in range(1, 11):
        for depth in range(1, 9):
            ok &= thickness(from_middle_ratio(n_ratio, depth)).value == n_ratio
    rng = random.Random(2)
    tree = from_middle_ratio(2, 5)
    base = thickness(tree).value
    for _ in range(1000):
        lam = F(rng.randrange(-512, 512) or 1, 64)
        t = F(rng.randrange(-512, 512), 64)
        ok &= thickness(affine_tree(tree, lam, t)).value == base
    _report(
        2, "generator thickness equals its parameter; exact affine invariance",
        ok, time.time() - t0, 5,
    )


def test_criterion_03_gap_lemma_pipeline():
    t0 = time.time()
    x_tree = from_middle_ratio(2, 12)  # middle fifth removed, thickness 2
    family = build_dyadic_family(1, 12, (-3, 3), (-34, 34))
    certifier = FrameCertifier(x_tree, family)
    rng = random.Random(20240811)
    applicable = witnessed = 0
    total = 500
    for _ in range(total):
        lam = F(rng.randrange(16, 1025), 128)  # |lam| in [1/8, 8]
        if rng.random() < 0.5:
            lam = -lam
        t = F(rng.randrange(-512, 513), 128)
        trace = certifier.certify(lam, t, 12)
        if trace.status in ("certified", "applicable_unwitnessed"):
            applicable += 1
        if trace.status == "certified":
            witnessed += 1
    ok = applicable == total and witnessed >= int(0.95 * total)
    _report(
        3, "framed gap-lemma conditions and constructive witnesses",
        ok, time.time() - t0, 60,
        f"applicable {applicable}/{total}, witnessed {witnessed}, "
        f"unwitnessed {applicable - witnessed}",
    )


def test_criterion_04_containment_walker():
    t0 = time.time()
    rng = random.Random(44)
    ok = True
    for _ in range(100):
        tree = random_decreasing_gap_tree(rng, 8)
        tilde = build_tilde(tree, 8, F(1, 9))
        trace = containment_walk(tree, tilde, 8)
        ok &= len(trace.chain) == 8
        common = to_interval_set(tree, 8).intersection(to_interval_set(tilde, 8))
        ok &= common.contains(trace.point_estimate)
    _report(
        4, "containment walks reach depth 8 and land in brute-force components",
        ok, time.time() - t0, 30,
    )


def test_criterion_05_bilipschitz_embedding():
    t0 = time.time()
    seq = geometric_down(F(1, 2))
    eta = F(3, 4)
    lo, hi = slope_envelope(eta, F(1, 2))
    ok = (lo, hi) == (F(1, 2), F(5, 4))
    rng = random.Random(55)
    for _ in range(50):
        pieces = [(F(0), seq.term(42))]
        for n in range(1, 41):
            a = seq.term(n)
            w_lo, w_hi = eta * a, a
            u = F(rng.randrange(0, 32), 64)
            v = F(rng.randrange(33, 65), 64)
            pieces.append((w_lo + (w_hi - w_lo) * u, w_lo + (w_hi - w_lo) * v))
        e = IntervalSet.of(*pieces)
        f = embed_lacunary(seq, e, eta, max_n=40)
        ok &= all(lo <= s <= hi for s in f.slopes())
        ok &= all(e.contains(f(seq.term(n))) for n in range(1, 41))
    _report(
        5, "embedding slopes stay in [1/2, 5/4] and images stay in the set",
        ok, time.time() - t0, 10,
    )


def test_criterion_06_digit_avoider_certification():
    t0 = time.time()
    e = digit_avoider(4, 200)
    ok = is_p_large(e, F(1, 2))
    certs = sweep_linear_escape(e, ivl(0, 1), ivl(F(1, 1000), 10), 100, 100)
    certified = sum(c.status == "certified" for c in certs)
    ok &= certified == 10_000
    failures = 0
    for i, cert in enumerate(certs):
        if not validate_linear_escape(e, cert, samples=100, seed=i):
            failures += 1
    ok &= failures == 0
    _report(
        6, "digit avoider is 1/2-large; 10^4-box sweep certified and re-validated",
        ok, time.time() - t0, 120,
        f"certified {certified}/10000, validation failures {failures}",
    )


def test_criterion_07_quotient_avoider():
    t0 = time.time()
    e = quotient_avoider(2, F(9, 10), 100)
    deficits = [1 - e.cell(k).measure() for k in range(100)]
    ok = all(d <= F(1, 10) for d in deficits)
    _report(
        7, "quotient avoider cell deficits stay at or below 1/10 exactly",
        ok, time.time() - t0, 10, f"max deficit {max(deficits)}",
    )


def test_criterion_08_mod1_probes():
    t0 = time.time()
    from erdosavoid.sequences import linear

    ok = True
    for count in (10, 100, 1000):
        ok &= density_mod1(linear(), F(1, 2), count).max_gap == F(1, 2)
    prof = density_mod1(linear(), sqrt_enclosure(2, 80), 10_000)
    ok &= prof.max_gap <= F(10, 10_000)
    third = dubickas_gap_check(F(1, 3), 200)
    ok &= third.covering_length == F(1, 3)
    sq = dubickas_gap_check(sqrt_enclosure(2, 1100), 1000)
    ok &= sq.covering_length >= F(1, 2) - F(1, 50)
    _report(
        8, "rational dilates lock the gap; sqrt(2) densifies and never clusters",
        ok, time.time() - t0, 20,
        f"sqrt2 max_gap {float(prof.max_gap):.2e}, covering {float(sq.covering_length):.3f}",
    )


def test_criterion_09_ell_search():
    t0 = time.time()
    f = [-2, 1]
    ok = ell_upper_bound(f, 0, 1, 1).value == 3
    ok &= ell_upper_bound(f, 1, F(1, 2), 1).value == F(5, 2)
    values = []
    for deg in range(1, 7):
        values.append(ell_upper_bound(f, deg, F(1, 2**deg), 1).value)
    ok &= values[-1] <= 2 + F(1, 64)
    ok &= all(a > b for a, b in zip(values, values[1:]))
    _report(
        9, "coefficient-mass bounds reproduce 3, 5/2, and decrease to 2 + 2^-6",
        ok, time.time() - t0, 10, f"values {[str(v) for v in values]}",
    )


def test_criterion_10_log_domain_escape():
    t0 = time.time()
    e = digit_avoider(4, 64)
    certs, stats = sweep_log_escape(
        e, ivl(1, 2), ivl(F(3, 2), 3), 50, 50, n_max=64, bits=64
    )
    ok = stats["first_pass"] >= int(0.99 * stats["boxes"])
    ok &= stats["certified"] == stats["boxes"]
    _report(
        10, "log-domain escape on whole cells: >=99% first pass, every cell certified",
        ok, time.time() - t0, 120,
        f"first pass {stats['first_pass']}/{stats['boxes']}, "
        f"certified {stats['certified']}/{stats['boxes']}",
    )


def test_criterion_11_algebraic_consistency():
    t0 = time.time()
    x_tree = from_middle_ratio(2, 8)
    x_set = to_interval_set(x_tree, 8)
    family = build_dyadic_family(1, 8, (-1, 1), (-2, 2))
    m_union = family.union_set(8)
    gaps = m_union.gaps()
    rng = random.Random(1111)
    checked = inconsistent = 0
    while checked < 1000:
        gap = gaps[rng.randrange(len(gaps))]
        lam_prime = gap.length * F(rng.randrange(1, 32), 64)
        t = gap.lo + (gap.length - lam_prime) * F(rng.randrange(1, 63), 64)
        if x_set.affine(lam_prime, t).intersection(m_union):
            continue  # not an escape; resample
        lam, target = escape_to_coverage_params(lam_prime, t)
        report = sumset_cover_probe(x_tree, family, lam, [target], 8)
        if report.certified != 0:
            inconsistent += 1
        checked += 1
    ok = inconsistent == 0
    _report(
        11, "certified escapes translate to coverage gaps with no inconsistency",
        ok, time.time() - t0, 30, f"checked {checked}, inconsistent {inconsistent}",
    )
