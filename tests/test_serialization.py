"""The fields the CLI rows are built from, on the records of each subsystem."""

from fractions import Fraction

from erdosavoid.gaptree import from_middle_ratio
from erdosavoid.intervals import ivl
from erdosavoid.largescale import digit_avoider, geometric_escape_via_log
from erdosavoid.sumsets import FrameCertifier, build_dyadic_family, sumset_cover_probe

F = Fraction


def test_log_escape_certificate_json():
    e = digit_avoider(4, 16)
    cert = geometric_escape_via_log(e, ivl(F(3, 2), F(3, 2)), ivl(2, 2), 32)
    assert cert.status == "certified"
    assert (cert.y_box, cert.b_box) == (ivl(F(3, 2), F(3, 2)), ivl(2, 2))


def test_frame_trace_json():
    fam = build_dyadic_family(1, 6, (-1, 1), (-2, 2))
    certifier = FrameCertifier(from_middle_ratio(2, 6), fam)
    trace = certifier.certify(F(1), F(0), 6)
    assert trace.status == "certified"
    # t = 0 falls in the left-closed-above frame (0, -1]
    assert trace.frame == (0, -1)
    assert trace.witness is not None


def test_coverage_report_json_per_target():
    fam = build_dyadic_family(1, 6, (0, 0), (0, 0))
    rep = sumset_cover_probe(from_middle_ratio(1, 6), fam, 1, [F(1), F(50)], 6)
    # one verdict per target, in the order given
    assert [(r.target, r.covered) for r in rep.records] == [(1, True), (50, False)]
    assert rep.records[1].nearest_miss is not None
