"""The contract every value type and result record keeps: construction by
position and keyword with its defaults, field equality and hashing,
immutability, copy and pickle, and the `Name(field=...)` repr."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from erdosavoid.gaptree import Thickness
from erdosavoid.intersect import GapLemmaVerdict, WalkTrace
from erdosavoid.intervals import Gap, Grid, Interval, ParamBox, ivl
from erdosavoid.largescale import (
    ClusterCheck,
    CoefficientMassBound,
    DigitSchedule,
    LinearEscapeCertificate,
    LogEscapeCertificate,
    Mod1Profile,
)
from erdosavoid.sequences import DOWN, SequenceSpec
from erdosavoid.smallscale import (
    AvoiderLevel,
    EscapeCertificate,
    PiecewiseLinearMap,
)
from erdosavoid.sumsets import CoverageRecord, CoverageReport, FrameTrace

F = Fraction


def _halves(n):
    # a term function pickle can name, unlike the lambdas of the constructors
    return F(1, 2**n)


BOX = ParamBox(ivl(1, 2), ivl(0, F(1, 2)))
GAP = Gap(F(1, 3), F(2, 3))
THICK = Thickness(F(2), "exact")
VERDICT = GapLemmaVerdict(True, "ok", THICK, THICK, 2, 3)
RECORD = CoverageRecord(F(1), True, F(1, 2), None)

# (type, module, a value for every field in order, the defaults of the
# trailing fields) for each of the 20 value types and result records
CASES = [
    (Interval, "intervals", (F(1, 3), F(1, 2)), {}),
    (Gap, "intervals", (None, F(1)), {}),
    (ParamBox, "intervals", (ivl(1, 2), ivl(0, 1)), {}),
    (Grid, "intervals", (ivl(0, 1), ivl(1, 2), 2, 3), {}),
    (DigitSchedule, "largescale", (4,), {}),
    (SequenceSpec, "sequences", ("custom", DOWN, _halves, 50, (F(1, 2),)),
     {"length": None, "params": ()}),
    (PiecewiseLinearMap, "smallscale", (((F(0), F(0)), (F(1), F(2))), F(1), F(2)), {}),
    (AvoiderLevel, "smallscale", (1, 3, F(1, 3), F(1, 4), F(1, 12), 3, F(1, 4), F(1, 2)), {}),
    (EscapeCertificate, "smallscale", (BOX, "certified", 2, GAP),
     {"witness_index": None, "witness_gap": None}),
    (LinearEscapeCertificate, "largescale",
     (ivl(0, 1), ivl(1, 2), "certified", 3, "containment", 2),
     {"witness_index": None, "route": None, "witness_cell": None}),
    (Mod1Profile, "largescale", (3, (F(0), F(1, 3)), F(2, 3), True, F(1, 100)),
     {"conditional": False, "slack": F(0)}),
    (ClusterCheck, "largescale", (4, F(1, 2), True), {"conditional": False}),
    (CoefficientMassBound, "largescale", (F(5, 2), (F(1), F(-1, 2)), 1, "exact"),
     {"label": "upper_bound"}),
    (LogEscapeCertificate, "largescale", (ivl(1, 2), ivl(2, 3), "certified", 5, "gap"),
     {"witness_index": None, "route": None}),
    (Thickness, "gaptree", (F(2), "exact"), {"label": "upper_bound"}),
    (FrameTrace, "sumsets", (F(3, 2), F(-1, 4), (1, -1), "certified", VERDICT, F(1, 3)),
     {"witness": None}),
    (CoverageRecord, "sumsets", (F(1), False, None, F(1, 8)),
     {"witness": None, "nearest_miss": None}),
    (CoverageReport, "sumsets", (F(1), (RECORD,)), {}),
    (GapLemmaVerdict, "intersect", (False, "thickness_product_below_one", THICK, THICK, 2, 3),
     {"scanned_depth_1": 0, "scanned_depth_2": 0}),
    (WalkTrace, "intersect", ((("[0, 1]", "[0, 2]"),), F(1, 2), F(1, 8), (F(1, 4),)),
     {"step_bounds": ()}),
]


@pytest.mark.parametrize("cls, module, values, defaults", CASES,
                         ids=[cls.__name__ for cls, *_ in CASES])
def test_record_contract(cls, module, values, defaults):
    assert cls.__module__ == f"erdosavoid.{module}"
    params = inspect.signature(cls).parameters
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == defaults
    kwargs = dict(zip(params, values, strict=True))
    a = cls(*values)
    b = cls(**kwargs)
    assert [getattr(a, name) for name in params] == list(values)
    assert a == b and hash(a) == hash(b)
    # omitted trailing fields take their defaults
    short = cls(*values[: len(values) - len(defaults)])
    assert {name: getattr(short, name) for name in defaults} == defaults
    with pytest.raises(AttributeError):
        setattr(a, next(iter(params)), values[0])
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    for back in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(back) is cls
        assert back == a and hash(back) == hash(a)
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(a) == f"{cls.__name__}({fields})"
