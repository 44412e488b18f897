import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tomllib
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import erdosavoid
from erdosavoid import largescale, smallscale
from erdosavoid.cli import _FLAGS, _TARGETS, _leaves, build_parser, main
from erdosavoid.errors import InvalidParameterError, ResourceLimitError
from erdosavoid.intervals import Interval
from erdosavoid.rationals import format_rational, parse_rational

from helpers import audit_sweeps, reference_sublacunary_avoider

F = Fraction


def run(tmp_path, *argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return fh.read()


# One small run per target, pinned by its exit code and the sha256 of its
# artifact, so any change in output bytes fails here.
GOLDEN = [
    pytest.param(["construct", "sublacunary-avoider", "--levels", "2"], 0,
                 "8bfc5cdb61171cb22efb7a616a437e3bbb5ddab8f33603666520489127ae0bf9",
                 id="construct-sublacunary-avoider"),
    pytest.param(["construct", "digit-avoider", "--m", "3", "--window", "8"], 0,
                 "8869c852febfefa6d48f88495d17bb3ecd9ec6309c4f4df819113742ff2ed083",
                 id="construct-digit-avoider"),
    pytest.param(["construct", "fractional-set", "--p", "1/3", "--window", "6"], 0,
                 "fc770bacaf737fd95fc19c05d01bcf31935fbacb42627311a1a05e4ca9dade8d",
                 id="construct-fractional-set"),
    pytest.param(["construct", "quotient-avoider", "--y", "3", "--p", "1/2", "--window", "6"], 0,
                 "127b8657e3e86e712cc61d954fd9c277927ad02a2998907662b17001fc44954a",
                 id="construct-quotient-avoider"),
    pytest.param(["construct", "middle-cantor", "--ratio-n", "2", "--depth", "3"], 0,
                 "9655fbdc02e5bbf773973dd7cf808e2c865c8d02dd725b25cff4fced924bd8fd",
                 id="construct-middle-cantor"),
    pytest.param(["construct", "dyadic-family", "--depth", "3"], 0,
                 "dbf3cba0fed8a6c6ce26f9163b7d1b7127a1c85ae1285618d5efd4d424a07283",
                 id="construct-dyadic-family"),
    pytest.param(["certify", "digit-avoider", "--m", "4", "--grid", "3x3", "--Nmax", "32",
                  "--validate", "--samples", "5", "--seed", "2"], 0,
                 "14200e7b3cd39a8c234efe2782d03a3accd323c904155dc413574ac9fb9e6ae8",
                 id="certify-digit-avoider"),
    pytest.param(["certify", "sublacunary-avoider", "--levels", "2", "--grid", "2x3",
                  "--lambda-range", "1:2", "--t-range=-1:1", "--Nmax", "20"], 2,
                 "7bef272fa1bbde4720bc916f5d0f4c5572e9cb7bf56c5dd5278c3813304948cf",
                 id="certify-sublacunary-avoider"),
    pytest.param(["certify", "log-escape", "--m", "4", "--grid", "3x3",
                  "--y-range", "1:2", "--b-range", "3/2:3"], 0,
                 "4906108b9007d8d211accebd7386149741edbdf6945c978eb4c973d98413c30e",
                 id="certify-log-escape"),
    pytest.param(["certify", "log-escape", "--m", "4", "--grid", "3x3",
                  "--y-range", "1:2", "--b-range", "3/2:3", "--format", "csv"], 0,
                 "1b588c6154c809acd36d6fe35f3ced84c9179d9024b2aca4ddd51e7aa155753f",
                 id="certify-log-escape-csv"),
    pytest.param(["certify", "log-escape"], 0,
                 "f910d2a57a9a56d8d2879f5e2519845e5bfe8a20733691a115e7228ac9208496",
                 id="certify-log-escape-cells"),
    pytest.param(["certify", "frame-intersection", "--count", "5", "--depth", "6",
                  "--lambda-range", "1/8:8", "--t-range=-4:4", "--seed", "1"], 0,
                 "a07dc8b89314d4af78f8fa5eada232a2d0143884130b837067d5c7753514ec80",
                 id="certify-frame-intersection"),
    pytest.param(["certify", "frame-intersection", "--count", "5", "--depth", "6",
                  "--lambda-range", "1/8:8", "--t-range=-4:4", "--seed", "1",
                  "--format", "csv"], 0,
                 "5438f86064f1675e6d586143e6a902c810087b3cb01009dd81b4cd56f7213785",
                 id="certify-frame-intersection-csv"),
    pytest.param(["probe", "mod1", "--seq", "linear", "--y", "1/3", "--N", "30"], 0,
                 "432b17026274e0d855104432d9033b1be68fb02f12f65a26454447fa48b1a045",
                 id="probe-mod1"),
    pytest.param(["probe", "mod1", "--seq", "linear", "--y", "sqrt2", "--N", "30",
                  "--bits", "200"], 0,
                 "97f3b79e75b535d7da196f4c94c13ef1ece2771cedf8f0a60e304b19ccd7c2a2",
                 id="probe-mod1-sqrt2"),
    pytest.param(["probe", "dubickas", "--y", "sqrt2", "--N", "50", "--bits", "200"], 0,
                 "66503bce39242174dd37576f6a6516311407c6cb6aa8c1b24f3d66c1cef55779",
                 id="probe-dubickas"),
    pytest.param(["probe", "ell-bound", "--f=-2,1", "--max-deg", "2", "--step", "1/4",
                  "--bound", "1"], 0,
                 "a7d58a990472336a32aa8a877c427feec7f8002296e366478c1a767d1f1cae70",
                 id="probe-ell-bound"),
    pytest.param(["probe", "kolountzakis", "--seq", "reciprocal", "--N", "20"], 0,
                 "36ae988c907cecfd425a013f5f1ebbd89cbce2361b85a003fa4788e1fbfd6ef0",
                 id="probe-kolountzakis"),
]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", GOLDEN)
def test_golden_bytes(tmp_path, argv, code, digest):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == code
    assert sha256(out) == digest


def test_golden_report_bytes(tmp_path):
    sweep, avoider, summary = (str(tmp_path / n) for n in ("sweep.csv", "avoider.json", "r.json"))
    assert main(["certify", "sublacunary-avoider", "--levels", "2", "--grid", "2x3",
                 "--lambda-range", "1:2", "--t-range=-1:1", "--Nmax", "20", "--out", sweep]) == 2
    assert main(["construct", "sublacunary-avoider", "--levels", "2", "--out", avoider]) == 0
    assert main(["report", sweep, avoider, "--out", summary]) == 2
    assert sha256(summary) == "6e5c4ef92473b2b696e3b36b1cca138a686e9783106a1c84fe87b8450e0f7a26"


def test_probe_mod1_rational_lock(tmp_path, capsys):
    assert main(["probe", "mod1", "--seq", "linear", "--y", "1/2", "--N", "100"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["max_gap"] == "1/2"


def test_probe_ell_bound(tmp_path, capsys):
    assert main([
        "probe", "ell-bound", "--f=-2,1", "--max-deg", "2",
        "--step", "1/4", "--bound", "1",
    ]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["label"] == "upper_bound"
    assert F(obj["value"]) <= F(9, 4)


def test_construct_avoider_writes_log_and_measure(tmp_path):
    out = str(tmp_path / "avoider.json")
    code = main([
        "construct", "sublacunary-avoider", "--seq", "reciprocal",
        "--levels", "4", "--out", out,
    ])
    assert code == 0
    obj = json.loads(read(out))
    # frozen exact measure of the four-level construction
    assert obj["measure"] == "13867583/20092800"
    assert len(obj["log"]["levels"]) == 4
    assert "intervals" in obj


def test_construct_quotient(tmp_path, capsys):
    assert main(["construct", "quotient-avoider", "--y", "2", "--p", "9/10", "--window", "10"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["p"] == "9/10"


def test_certify_digit_avoider_deterministic(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    argv = ["certify", "digit-avoider", "--m", "4", "--grid", "4x4",
            "--Nmax", "32", "--validate", "--samples", "10", "--seed", "7"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert read(a) == read(b)
    assert read(a).count("certified") == 16


def test_certify_resume_skips_completed(tmp_path):
    out = str(tmp_path / "sweep.csv")
    argv = ["certify", "digit-avoider", "--m", "4", "--grid", "3x3",
            "--Nmax", "32", "--out", out]
    assert main(argv) == 0
    first = read(out)
    # resumption with everything done must reproduce the file
    assert main(argv + ["--resume"]) == 0
    assert read(out) == first
    assert not os.path.exists(out + ".partial")


def test_certify_resume_from_interrupted_journal(tmp_path):
    out = str(tmp_path / "sweep.csv")
    argv = ["certify", "digit-avoider", "--m", "4", "--grid", "3x3",
            "--Nmax", "32", "--out", out]
    assert main(argv) == 0
    full = read(out)
    # simulate an interrupted run: only a journal with the first rows
    lines = full.splitlines()
    with open(out + ".partial", "w") as fh:
        fh.write("\n".join(lines[:5]) + "\n")
    os.unlink(out)
    assert main(argv + ["--resume"]) == 0
    assert read(out) == full
    assert not os.path.exists(out + ".partial")


def test_certify_sublacunary(tmp_path):
    out = str(tmp_path / "small.csv")
    code = main([
        "certify", "sublacunary-avoider", "--seq", "reciprocal", "--levels", "3",
        "--grid", "4x5", "--Nmax", "40",
        "--lambda-range", "1:2", "--t-range=-1:1", "--out", out,
    ])
    assert code in (0, 2)
    lines = read(out).strip().splitlines()
    assert len(lines) == 21
    assert "certified" in read(out)


def test_certify_log_escape_points(tmp_path, capsys):
    code = main([
        "certify", "log-escape", "--m", "4", "--grid", "5x5",
        "--y-range", "1:2", "--b-range", "3/2:3", "--Nmax", "64",
    ])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["stats"]["certified"] == 25


def test_certify_log_escape_rows_are_whole_cells(capsys):
    # each csv row proves its grid cell, not the cell's centre
    assert main(["certify", "log-escape", "--grid", "2x3", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    for row in rows:
        y_lo, y_hi, b_lo, b_hi = (parse_rational(row[k]) for k in ["y_lo", "y_hi", "b_lo", "b_hi"])
        assert y_lo < y_hi and b_lo < b_hi, row


def test_certify_log_escape_takes_no_window(tmp_path):
    # log escape reads no cell of the digit set, so it has no window to set
    out = tmp_path / "log.json"
    assert main(["certify", "log-escape", "--window", "5", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_certify_frame_intersection(tmp_path, capsys):
    code = main([
        "certify", "frame-intersection", "--count", "20", "--depth", "10",
        "--lambda-range", "1/8:8", "--t-range=-4:4", "--seed", "5",
    ])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["certified"] == 20


def _fraction_formula_draws(lam_range, t_range, seed, count):
    """(lambda, t) as lo + (hi - lo) * k/256 in Fraction arithmetic, with
    the random calls in the CLI's order: k for lambda, its sign, k for t."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        lam = lam_range.lo + lam_range.length * F(rng.randrange(1, 257), 256)
        if rng.random() < 0.5:
            lam = -lam
        t = t_range.lo + t_range.length * F(rng.randrange(0, 257), 256)
        draws.append((str(lam), str(t)))
    return draws


def _frame_csv_draws(lam_range, t_range, seed, count):
    code, out, _ = _sweep_output([
        "certify", "frame-intersection", "--format", "csv", "--count", str(count), "--depth", "3",
        f"--lambda-range={lam_range.lo}:{lam_range.hi}", f"--t-range={t_range.lo}:{t_range.hi}",
        "--seed", str(seed),
    ])
    assert code in (0, 2)
    return [(row["lambda"], row["t"]) for row in csv.DictReader(io.StringIO(out))]


def test_frame_draws_match_the_fraction_formula():
    # non-dyadic ends with a nonzero lower end, so every part of the
    # integer numerator 256*lo + length*k over 256*lcm is exercised
    lam_range, t_range = Interval(F(3, 7), F(5, 3)), Interval(F(-2, 3), F(5, 4))
    assert _frame_csv_draws(lam_range, t_range, 11, 12) == _fraction_formula_draws(lam_range, t_range, 11, 12)


_scale_ends = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=12)
_shift_ends = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(st.lists(_scale_ends, min_size=2, max_size=2), st.booleans(),
       st.lists(_shift_ends, min_size=2, max_size=2), st.integers(0, 10**6))
def test_frame_draws_match_the_fraction_formula_everywhere(scale_ends, negative, shift_ends, seed):
    # a scale range of either sign that excludes 0, inside the default frames
    lo, hi = sorted(-x if negative else x for x in scale_ends)
    lam_range, t_range = Interval(lo, hi), Interval(*sorted(shift_ends))
    assert _frame_csv_draws(lam_range, t_range, seed, 4) == _fraction_formula_draws(lam_range, t_range, seed, 4)


def test_report_aggregates_and_is_idempotent(tmp_path):
    sweep = str(tmp_path / "s.csv")
    art = str(tmp_path / "a.json")
    rep1 = str(tmp_path / "r1.json")
    rep2 = str(tmp_path / "r2.json")
    main(["certify", "digit-avoider", "--m", "4", "--grid", "2x2", "--Nmax", "32", "--out", sweep])
    main(["construct", "sublacunary-avoider", "--levels", "2", "--out", art])
    assert main(["report", sweep, art, "--out", rep1]) == 0
    assert main(["report", sweep, art, "--out", rep2]) == 0
    assert read(rep1) == read(rep2)
    obj = json.loads(read(rep1))
    assert obj["rows"] == 4
    assert obj["certified"] == 4
    assert "a.json" in obj["measures"]


def test_report_counts_inconclusive_json_items(tmp_path):
    log = str(tmp_path / "le.json")
    assert main(["certify", "log-escape", "--grid", "3x3", "--Nmax", "1",
                 "--y-range", "1:2", "--out", log]) == 2
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"target": "frame-intersection", "count": 5, "certified": 3}))
    for path, inconclusive in ((log, 9), (str(frame), 2)):
        rep = str(tmp_path / "r.json")
        assert main(["report", path, "--out", rep]) == 2
        assert json.loads(read(rep))["inconclusive"] == inconclusive
    # counts that cannot be read as counts are refused, not summed
    for counts in ({"count": 3, "certified": 4}, {"count": "5", "certified": 3},
                   {"stats": {"boxes": 2, "certified": True}}):
        frame.write_text(json.dumps(counts))
        assert main(["report", str(frame)]) == 1


def test_report_schema_mismatch_exits_one(tmp_path):
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w") as fh:
        fh.write("foo,bar\n1,2\n")
    assert main(["report", bad]) == 1


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = str(tmp_path / "cfg")
    with open(cfg, "w") as fh:
        fh.write("# defaults\nN = 50\ny = 1/3\n")
    assert main(["--config", cfg, "probe", "mod1", "--seq", "linear"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["N"] == 50
    assert obj["max_gap"] == "1/3"
    # explicit flag wins over the config value
    assert main(["--config", cfg, "probe", "mod1", "--seq", "linear", "--N", "20"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["N"] == 20


def test_inconclusive_exit_code(tmp_path):
    # a sweep that cannot certify anything: single interval, no gaps
    out = str(tmp_path / "inc.csv")
    code = main([
        "certify", "sublacunary-avoider", "--seq", "reciprocal", "--levels", "0",
        "--grid", "2x2", "--Nmax", "5",
        "--lambda-range", "1/4:1/2", "--t-range", "0:1/4", "--out", out,
    ])
    assert code == 2
    assert "inconclusive" in read(out)


def test_probe_dubickas_sqrt2(tmp_path, capsys):
    assert main(["probe", "dubickas", "--y", "sqrt2", "--N", "200", "--bits", "300"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["conditional"] is True
    assert F(obj["covering_length"]) >= F(1, 2) - F(1, 50)


def test_report_two_disjoint_sweeps_additive(tmp_path):
    s1 = str(tmp_path / "s1.csv")
    s2 = str(tmp_path / "s2.csv")
    main(["certify", "digit-avoider", "--m", "4", "--grid", "2x2", "--Nmax", "32", "--out", s1])
    main(["certify", "digit-avoider", "--m", "3", "--grid", "3x2", "--Nmax", "32", "--out", s2])
    rep = str(tmp_path / "rep.json")
    assert main(["report", s1, s2, "--out", rep]) == 0
    obj = json.loads(read(rep))
    assert obj["rows"] == 4 + 6
    assert obj["certified"] == sum(f["certified"] for f in obj["files"])


def test_config_store_true_flag_parses_true_and_false(tmp_path, monkeypatch):
    calls = []
    ranges = []

    def fake_validate(e, cert, samples=100, seed=0):
        calls.append(seed)
        return True

    def declining_range(e, x_range, y_range):
        ranges.append((x_range, y_range))
        return False  # so that every box is audited on its own

    monkeypatch.setattr(largescale, "validate_linear_escape", fake_validate)
    monkeypatch.setattr(largescale, "audit_range", declining_range)
    cfg = tmp_path / "cfg"
    argv = ["--config", str(cfg), "certify", "digit-avoider", "--grid", "2x2", "--Nmax", "32"]
    cfg.write_text("validate = false\n")
    assert main(argv) == 0
    assert calls == [] and ranges == []
    cfg.write_text("validate = true\n")
    assert main(argv) == 0
    assert len(calls) == 4 and len(ranges) == 1
    cfg.write_text("validate = maybe\n")
    assert main(argv) == 1


def _sweep_output(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(audit_sweeps(), st.sampled_from(["1", "8", "64"]), st.integers(0, 50))
def test_range_audit_leaves_the_sweep_bytes_unchanged(sweep, nmax, seed):
    # the same rows, exit code and messages whether the whole range goes
    # through the cover first or every box is audited on its own
    m, x_range, y_range, grid = sweep
    argv = [
        "certify", "digit-avoider", "--m", str(m), "--window", "16", "--validate",
        "--Nmax", nmax, "--samples", "20", "--seed", str(seed), "--grid", f"{grid[0]}x{grid[1]}",
        f"--x-range={format_rational(x_range.lo)}:{format_rational(x_range.hi)}",
        f"--y-range={format_rational(y_range.lo)}:{format_rational(y_range.hi)}",
    ]
    with_range = _sweep_output(argv)
    with mock.patch.object(largescale, "audit_range", lambda e, x_range, y_range: False):
        assert _sweep_output(argv) == with_range


def test_unsettled_range_audits_every_box(monkeypatch):
    # y 100:1000 passes the cover's piece budget as one range, so each of
    # the nine boxes still goes through the per-box audit
    verdicts, calls = [], []
    real_range, real_validate = largescale.audit_range, largescale.validate_linear_escape
    monkeypatch.setattr(largescale, "audit_range",
                        lambda *args: verdicts.append(real_range(*args)) or verdicts[-1])
    monkeypatch.setattr(largescale, "validate_linear_escape",
                        lambda *args, **kw: calls.append(kw["seed"]) or real_validate(*args, **kw))
    argv = ["certify", "digit-avoider", "--m", "4", "--window", "2000", "--y-range", "100:1000",
            "--Nmax", "64", "--validate", "--samples", "20", "--grid", "3x3"]
    code, out, _ = _sweep_output(argv)
    assert code == 0 and out.count("certified") == 9
    assert verdicts == [False]
    assert calls == list(range(9))  # seed 0: box b samples on seed b


def test_config_values_take_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("ratio_n = 2\n")
    assert main(["--config", str(cfg), "construct", "middle-cantor", "--depth", "3"]) == 0
    from_config = capsys.readouterr().out
    assert main(["construct", "middle-cantor", "--depth", "3", "--ratio-n", "2"]) == 0
    assert from_config == capsys.readouterr().out
    cfg.write_text("ratio_n = two\n")
    assert main(["--config", str(cfg), "construct", "middle-cantor"]) == 1


def test_empty_grid_is_rejected(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["certify", "digit-avoider", "--grid", "0x5", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert not os.path.exists(str(out) + ".partial")
    e = largescale.digit_avoider(4, 8)
    with pytest.raises(InvalidParameterError):
        largescale.sweep_linear_escape(e, Interval(F(0), F(1)), Interval(F(1), F(2)), 3, 0)


def _python(*args, cwd=None):
    """A fresh interpreter on this checkout's `src/`, run to its end."""
    env = {**os.environ, "PYTHONPATH": str(Path(erdosavoid.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_cli_import_leaves_process_pools_unloaded():
    # a sweep runs in one process and never loads the process-pool machinery
    done = _python("-c", "import sys, erdosavoid.cli; "
                         "print('concurrent.futures.process' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# a submodule has run once it is a plain module, not a lazy placeholder
_RUN_SUBMODULES = ("sorted(n for n, m in sys.modules.items() if n.startswith('erdosavoid.') "
                   "and type(m) is types.ModuleType)")


def test_package_import_runs_no_submodule():
    done = _python("-c", f"import sys, types, erdosavoid; print({_RUN_SUBMODULES})")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_CLI_CORE = {"cli", "errors", "intervals", "rationals"}
_ESCAPE = _CLI_CORE | {"largescale"}


@pytest.mark.parametrize("argv, modules", [
    (["construct", "sublacunary-avoider", "--levels", "2"], _CLI_CORE | {"sequences", "smallscale"}),
    (["probe", "ell-bound", "--f=-2,1", "--max-deg", "2", "--step", "1/4", "--bound", "1"],
     _ESCAPE),
    (["certify", "log-escape", "--m", "4", "--grid", "2x2", "--y-range", "1:2",
      "--b-range", "3/2:3"], _ESCAPE | {"enclosures"}),
    (["certify", "digit-avoider", "--grid", "2x2", "--Nmax", "32", "--validate",
      "--samples", "5"], _ESCAPE),
    (["certify", "frame-intersection", "--count", "3", "--depth", "6"],
     _CLI_CORE | {"gaptree", "intersect", "sumsets"}),
], ids=["construct-sublacunary-avoider", "probe-ell-bound", "certify-log-escape",
        "certify-digit-avoider-validate", "certify-frame-intersection"])
def test_cli_target_runs_only_the_modules_it_uses(tmp_path, argv, modules):
    # nor does any target load dataclasses, or inspect, which it imports
    code = ("import sys, types, erdosavoid.cli; "
            f"code = erdosavoid.cli.main({argv + ['--out', 'out']!r}); "
            "print(code, 'dataclasses' in sys.modules, 'inspect' in sys.modules, "
            f"*{_RUN_SUBMODULES})")
    done = _python("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    code, dataclasses, inspect, *run_now = done.stdout.split()
    assert code == "0" and (tmp_path / "out").exists()
    assert (dataclasses, inspect) == ("False", "False")
    assert {name.removeprefix("erdosavoid.") for name in run_now} == modules


def test_module_entry_point_runs_cli_once():
    # runpy warns, and runs cli twice, if cli were already in sys.modules
    done = _python("-W", "error::RuntimeWarning", "-m", "erdosavoid.cli", "--version")
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.strip() == f"erdosavoid {erdosavoid.__version__}"


# the names the package exports: its public names, each defined in one
# submodule, and the submodules themselves
PUBLIC_NAMES = """
    AvoiderResult ClusterCheck CoefficientMassBound CoverageReport DigitSchedule
    DyadicFamily EscapeCertificate FrameCertifier FrameTrace Gap GapLemmaVerdict
    GapTree Interval IntervalSet LinearEscapeCertificate LogEscapeCertificate
    Mod1Profile PLargeSet ParamBox PiecewiseLinearMap SequenceSpec Thickness
    WalkTrace affine_tree as_rational box_image build_dyadic_family
    build_sublacunary_avoider build_tilde certify_linear_escape
    certify_no_affine_copy check_gap_lemma containment_walk custom density_mod1
    digit_avoider dubickas_gap_check ell_upper_bound embed_lacunary
    escape_to_coverage_params explicit format_rational fractional_set
    from_middle_ratio geometric_down geometric_escape_via_log geometric_up
    grid_boxes is_p_large ivl kolountzakis_delta linear ln2_enclosure
    ln_enclosure ln_interval parse_rational perturbation_delta
    point_escape_index quotient_avoider reciprocal reciprocal_power
    select_frame slope_envelope sqrt_enclosure sumset_cover_probe
    sweep_linear_escape sweep_log_escape thickness to_interval_set tree_to_json
    validate_linear_escape
""".split()
SUBMODULES = ("enclosures errors gaptree intersect intervals largescale rationals "
              "sequences smallscale sumsets").split()


def test_public_names_resolve():
    assert len(PUBLIC_NAMES) == 71
    assert erdosavoid.__all__ == sorted(PUBLIC_NAMES + SUBMODULES)
    for name in PUBLIC_NAMES:
        value = getattr(erdosavoid, name)
        assert value is getattr(getattr(erdosavoid, value.__module__.rpartition(".")[2]), name)
    for name in SUBMODULES:
        assert getattr(erdosavoid, name) is sys.modules[f"erdosavoid.{name}"]
    namespace = {}
    exec("from erdosavoid import *", namespace)
    assert set(erdosavoid.__all__) <= set(namespace)
    assert set(erdosavoid.__all__) <= set(dir(erdosavoid))
    with pytest.raises(AttributeError):
        erdosavoid.no_such_name


def _digit_sweep(out, grid, *extra):
    return ["certify", "digit-avoider", "--m", "4", "--grid", grid,
            "--Nmax", "32", "--out", str(out), *extra]


def test_resume_refuses_a_foreign_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("foo,bar\n1,2\n")
    assert main(_digit_sweep(out, "2x2", "--resume")) == 1
    assert out.read_text() == "foo,bar\n1,2\n"


def test_resume_refuses_box_ids_outside_the_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(_digit_sweep(out, "3x3")) == 0
    finished = out.read_text()
    assert main(_digit_sweep(out, "2x2", "--resume")) == 1
    assert out.read_text() == finished


def test_resume_refuses_rows_of_other_cells(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(_digit_sweep(out, "2x2")) == 0
    finished = out.read_text()
    # box ids 0-3 exist in both grids, but their cells differ
    assert main(_digit_sweep(out, "3x3", "--y-range", "1:2", "--resume")) == 1
    assert main(_digit_sweep(out, "2x2", "--y-range", "1:2", "--resume")) == 1
    assert out.read_text() == finished
    assert not os.path.exists(str(out) + ".partial")


# A small sweep, and for each flag it reads the other values of that flag.
_SWEEP = ["certify", "digit-avoider", "--m", "4", "--window", "16", "--Nmax", "32",
          "--samples", "3", "--seed", "1", "--grid", "2x2", "--x-range", "0:1",
          "--y-range", "1:2"]


def _other_range(lo, hi, a_min):
    ends = st.tuples(st.integers(a_min, 6), st.integers(1, 6), st.integers(1, 4))
    ends = ends.filter(lambda t: (F(t[0], t[2]), F(t[0] + t[1], t[2])) != (lo, hi))
    return ends.map(lambda t: f"{t[0]}/{t[2]}:{t[0] + t[1]}/{t[2]}")


def _other_int(lo, hi, base):
    return st.integers(lo, hi).filter(lambda v: v != base).map(str)


_OTHER_VALUES = {
    "--m": _other_int(2, 9, 4),
    "--window": _other_int(8, 64, 16),
    "--Nmax": _other_int(1, 64, 32),
    "--validate": st.none(),
    "--samples": _other_int(1, 50, 3),
    "--seed": _other_int(-5, 50, 1),
    "--grid": st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda g: g != (2, 2))
    .map(lambda g: f"{g[0]}x{g[1]}"),
    "--x-range": _other_range(0, 1, 0),
    "--y-range": _other_range(1, 2, 1),
}


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    """The files of a finished run of `_SWEEP`, by name."""
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    assert main([*_SWEEP, "--out", str(out)]) in (0, 2)
    return {p.name: p.read_bytes() for p in out.parent.iterdir()}


@pytest.mark.parametrize("flag", sorted(_OTHER_VALUES))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), interrupted=st.booleans())
def test_resume_refuses_changed_settings(finished_sweep, flag, data, interrupted):
    # a finished CSV, or the journal of a killed run, under any other value
    # of one flag the sweep reads is refused, and no file changes
    value = data.draw(_OTHER_VALUES[flag])
    argv = [*_SWEEP, flag] if value is None else [*_SWEEP, flag, value]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        for name, blob in finished_sweep.items():
            (Path(tmp) / name).write_bytes(blob)
        if interrupted:
            lines = out.read_text().splitlines(keepends=True)
            Path(f"{out}.partial").write_text("".join(lines[:3]))
            out.unlink()
        before = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([*argv, "--out", str(out), "--resume"]) == 1
        assert "fingerprint is missing or holds other settings" in err.getvalue()
        assert {p.name: p.read_bytes() for p in Path(tmp).iterdir()} == before


def test_resume_refuses_a_csv_without_its_fingerprint(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(_digit_sweep(out, "2x2")) == 0
    finished = out.read_text()
    os.unlink(f"{out}.fingerprint")
    assert main(_digit_sweep(out, "2x2", "--resume")) == 1
    assert out.read_text() == finished
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


_POSITIVE = [("digit-avoider", "--Nmax"), ("digit-avoider", "--samples"),
             ("sublacunary-avoider", "--Nmax"), ("log-escape", "--Nmax"),
             ("frame-intersection", "--count")]


@pytest.mark.parametrize("target, flag", _POSITIVE)
@pytest.mark.parametrize("via_config", [False, True])
@settings(max_examples=10, deadline=None)
@given(value=st.integers(max_value=0))
@example(value=0)
def test_positive_int_flags_refuse_zero_and_below(target, flag, via_config, value):
    # on the command line or through --config: exit 1, and no file at all;
    # drawing no sample must not read as every box validated
    small = {"sublacunary-avoider": ["--levels", "1"], "frame-intersection": ["--depth", "3"]}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = ["certify", target, *small.get(target, ["--grid", "2x2"]), "--out", str(out)]
        if flag == "--samples":
            argv.append("--validate")
        if via_config:
            cfg = Path(tmp) / "cfg"
            cfg.write_text(f"{flag[2:].lower()} = {value}\n")
            argv = ["--config", str(cfg), *argv]
        else:
            argv.append(f"{flag}={value}")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 1
        assert sorted(p.name for p in Path(tmp).iterdir()) == (["cfg"] if via_config else [])


@pytest.mark.parametrize("target", ["digit-avoider", "sublacunary-avoider", "log-escape"])
def test_oversized_grid_exits_one_at_once(tmp_path, capsys, target):
    # 10^12 boxes: refused before a box list, an avoider or a file is made
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    assert main(["certify", target, "--grid", "1000000x1000000", "--out", str(out)]) == 1
    assert time.perf_counter() - start < 2
    assert "MAX_GRID_CELLS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_construct_cell_object_default_window(tmp_path):
    out = tmp_path / "digit.json"
    assert main(["construct", "digit-avoider", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["window"] == 64
    assert len(obj["cells"]) == 64


def test_geometric_down_avoider_refuses_a_constant_ratio_at_once(tmp_path, capsys):
    # r^n has difference ratio 1 - r = 1/10 for every n, above level 2's
    # bound 1/64: refused at once, not scanned out to --window
    out = tmp_path / "avoider.json"
    argv = ["construct", "sublacunary-avoider", "--seq", "geometric-down", "--ratio", "9/10",
            "--out", str(out)]
    start = time.perf_counter()
    assert main(argv + ["--levels", "2"]) == 1
    assert time.perf_counter() - start < 5
    assert "1 - r = 1/10 for every n" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--levels", "1"]) == 0
    assert json.loads(out.read_text())["log"]["levels"][0]["index"] == 1


def test_sublacunary_refusals_build_no_avoider(tmp_path, monkeypatch):
    # a bad scan depth or grid is refused before the avoider is built
    def no_build(*args, **kwargs):
        raise AssertionError("the avoider was built")

    monkeypatch.setattr(smallscale, "build_sublacunary_avoider", no_build)
    out = tmp_path / "small.csv"
    for extra in (["--Nmax", "0"], ["--Nmax", "-2"], ["--grid", "0x4"], ["--grid", "4x0"]):
        argv = ["certify", "sublacunary-avoider", "--levels", "6", "--grid", "2x2",
                *extra, "--out", str(out)]
        assert main(argv) == 1, extra
        assert not out.exists(), extra


def test_sublacunary_cli_bytes_match_merge_reference(tmp_path, monkeypatch):
    # the lattice count and the lazily built interval set give the
    # artifacts of the sorted punch merge, byte for byte
    runs = {
        "levels3.json": ["construct", "sublacunary-avoider", "--levels", "3"],
        "levels6.json": ["construct", "sublacunary-avoider", "--levels", "6"],
        "certify.csv": ["certify", "sublacunary-avoider", "--levels", "3", "--grid", "4x4",
                        "--lambda-range", "1:2", "--t-range=-1:1"],
        "certify5.csv": ["certify", "sublacunary-avoider", "--levels", "5", "--grid", "4x4",
                         "--lambda-range", "1:2", "--t-range=-1:1"],
    }
    got = {}
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) in (0, 2)
        got[name] = read(tmp_path / name)
    assert len(json.loads(got["levels3.json"])["intervals"]) == 1308
    assert "intervals" not in json.loads(got["levels6.json"])
    monkeypatch.setattr(smallscale, "build_sublacunary_avoider", reference_sublacunary_avoider)
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / f"ref-{name}")]) in (0, 2)
        assert read(tmp_path / f"ref-{name}") == got[name], name


def test_validation_without_samples_exits_one(tmp_path):
    # drawing no sample must not read as every box validated
    out = tmp_path / "sweep.csv"
    for samples in ("0", "-5"):
        assert main(_digit_sweep(out, "2x2", "--validate", "--samples", samples)) == 1
        assert not out.exists()
        assert not os.path.exists(str(out) + ".partial")


@pytest.fixture
def digit_limit():
    """Python's default int-to-str digit limit, set for the test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)


def test_huge_rationals_exit_one_without_a_file(tmp_path, capsys, digit_limit):
    # one exponent past the limit is refused as it is parsed; 10^limit
    # parses but has one digit more than may be printed
    out = tmp_path / "ell.json"
    for coeff in (f"1e{digit_limit + 1}", f"1e{digit_limit}"):
        argv = ["probe", "ell-bound", f"--f=-2,{coeff}", "--max-deg", "1",
                "--step", "1/2", "--bound", "1", "--out", str(out)]
        assert main(argv) == 1
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err.startswith("error: ")


def test_rationals_past_the_digit_limit_are_resource_limits(digit_limit):
    for literal in (f"1e{digit_limit + 1}", f"-3.5E-{digit_limit + 1}", f"2e+{digit_limit + 7}"):
        with pytest.raises(ResourceLimitError):
            parse_rational(literal)
    assert parse_rational(f"1e{digit_limit}") == 10**digit_limit
    for value in (Fraction(1, 10**digit_limit), 10**digit_limit):
        with pytest.raises(ResourceLimitError):
            format_rational(value)
    assert format_rational(Fraction(10 ** (digit_limit - 1))) == "1" + "0" * (digit_limit - 1)


@given(st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**20)))
def test_format_rational_prints_as_the_fraction_does(q):
    assert format_rational(q) == str(Fraction(q))


def test_version_flag_reads_the_one_version_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"erdosavoid {erdosavoid.__version__}"
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["dynamic"] == ["version"] and "version" not in pyproject["project"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "erdosavoid.__version__"}


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "digit-avoider", "--grid", "axb"],
        ["certify", "digit-avoider", "--bogus", "1"],
        ["construct", "middle-cantor", "--depth", "x"],
        ["probe", "mod1", "--y", "sqrt2", "--bits", "-3"],
        ["probe", "dubickas", "--y", "sqrt2", "--bits", "-3"],
        ["certify", "digit-avoider", "--m", "2"],
        ["construct", "digit-avoider", "--m", "2"],
        ["certify", "log-escape", "--m", "2"],
        ["certify", "digit-avoider", "--x-range", "0:2"],
        ["certify", "digit-avoider", "--y-range", "0:1"],
        ["construct", "dyadic-family", "--n-range", "2:1"],
        ["probe", "ell-bound", "--f", "0"],
        ["probe", "ell-bound", "--step", "0"],
        ["probe", "mod1", "--N", "1"],
        ["probe", "dubickas", "--y", "0"],
        ["probe", "kolountzakis", "--N", "1"],
        ["construct", "sublacunary-avoider", "--seq", "bogus"],
        ["construct", "sublacunary-avoider", "--seq", "geometric-down", "--ratio", "3/2"],
        ["probe", "mod1", "--seq", "geometric-down"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "middle-cantor", "--depth", "40"],
        ["construct", "dyadic-family", "--depth", "40"],
        ["certify", "frame-intersection", "--depth", "40", "--count", "1"],
    ],
)
def test_oversize_trees_exit_1(argv, tmp_path, capsys):
    # refused before any node is built, so no hang and no file
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--f=-2,1", "--step", "1/1500"],  # 3001 grid values: 20 * 3001^2 pairs
    ["--f=1,0,0,0,0,0,1", "--step", "1/16"],  # degree 6: 20 * 33^7 pairs
    ["--f=-2,1", "--max-deg", "100000"],  # about 5*10^9 layers of 33^2 pairs
], ids=["fine-step", "high-degree", "high-max-deg"])
def test_oversize_cofactor_search_exits_1(argv, monkeypatch, tmp_path, capsys):
    # the cap is checked before the grid and the families are built; the
    # search is replaced, so a missing check fails here at once rather
    # than running for hours
    def search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(largescale, "_min_mass_dp", search)
    assert main(["probe", "ell-bound", *argv, "--out", str(tmp_path / "out")]) == 1
    assert "MAX_DP_WORK" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["mod1", "dubickas"])
def test_oversize_bit_counts_exit_1_at_once(target, tmp_path, capsys):
    # two million bits ran for more than a minute before the cap
    start = time.perf_counter()
    code = main(["probe", target, "--y", "sqrt2", "--bits", "2000000", "--N", "10",
                 "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "MAX_BITS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_parse_builds_only_the_flags_of_its_target():
    parser = build_parser()
    parser.parse_args(["probe", "ell-bound", "--step", "1/4"])
    commands = parser._subparsers._group_actions[0].choices
    built = {
        f"{command} {name}"
        for command, sub in commands.items() if command != "report"
        for name, leaf in sub._subparsers._group_actions[0].choices.items()
        if [a.dest for a in leaf._actions] != ["help"]
    }
    assert built == {"probe ell-bound"}
    # --config walks every target, so that each key is checked
    assert len(list(_leaves(parser))) == 15
    assert all(len(leaf._actions) > 2 for leaf in _leaves(parser))


def test_every_flag_spec_is_taken_by_some_target():
    # build_parser gives every command --out; no spec outlives its flag
    taken = {"--out"} | {
        flag.partition("=")[0]
        for _, targets in _TARGETS.values()
        for _, flags in targets.values()
        for flag in flags.split()
    }
    assert taken == set(_FLAGS)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "digit-avoider" in capsys.readouterr().out


def test_flags_a_target_does_not_read_are_refused(tmp_path, capsys):
    # every flag of any target, tried on each target that does not read it
    leaves = list(_leaves(build_parser()))
    flags = {f for leaf in leaves for a in leaf._actions for f in a.option_strings}
    out = tmp_path / "artifact"
    refused = 0
    for leaf in leaves:
        taken = {f for a in leaf._actions for f in a.option_strings}
        path = leaf.prog.split()[1:] + (["x.json"] if leaf.prog.endswith("report") else [])
        for flag in sorted(flags - taken):
            assert main([*path, flag, "1", "--out", str(out)]) == 1, (path, flag)
            assert "error:" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == [], (path, flag)
            refused += 1
    assert refused > 300


def test_probe_kolountzakis_default_sequence_is_decreasing(capsys):
    # the probe needs a decreasing sequence, so its default is 1/n
    assert main(["probe", "kolountzakis", "--N", "20"]) == 0
    default = capsys.readouterr().out
    assert main(["probe", "kolountzakis", "--N", "20", "--seq", "reciprocal"]) == 0
    assert capsys.readouterr().out == default
    assert main(["probe", "kolountzakis", "--N", "20", "--seq", "linear"]) == 1


def test_config_key_no_command_takes_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    argv = ["--config", str(cfg), "probe", "mod1", "--N", "10", "--out", str(tmp_path / "m.json")]
    cfg.write_text("nmaxx = 5\n")
    assert main(argv) == 1
    assert "nmaxx" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()
    # a key that only other targets take is skipped
    cfg.write_text("nmax = 5\nseed = 3\n")
    assert main(argv) == 0


def test_scan_cap_flag_and_config_key_are_gone(tmp_path):
    # --Nmax is the one scan depth of the digit sweep
    out = tmp_path / "sweep.csv"
    sweep = ["certify", "digit-avoider", "--grid", "2x2", "--out", str(out)]
    assert main([*sweep, "--Nmax-cap", "64"]) == 1
    cfg = tmp_path / "cfg"
    cfg.write_text("nmax_cap = 64\n")
    assert main(["--config", str(cfg), *sweep]) == 1
    assert not out.exists()


def test_inputs_that_are_not_utf8_exit_one(tmp_path, capsys):
    # report, --config and --resume read text files; other bytes are refused
    out = tmp_path / "out"
    for name in ("sweep.csv", "artifact.json"):
        bad = tmp_path / name
        bad.write_bytes(b'{"measure": "1/2", "note": "\xff\xfe"}\n')
        assert main(["report", str(bad), "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()
    cfg = tmp_path / "cfg"
    cfg.write_bytes(b"N = 5 \xff\n")
    assert main(["--config", str(cfg), "probe", "mod1", "--out", str(out)]) == 1
    assert "cfg" in capsys.readouterr().err
    assert not out.exists()
    sweep = tmp_path / "sweep.csv"
    assert main(_digit_sweep(sweep, "2x2", "--resume")) == 1
    assert "sweep.csv" in capsys.readouterr().err
    assert not os.path.exists(f"{sweep}.partial")


def _readme_command_line_section():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    section = _readme_command_line_section()
    lines = section.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("erdosavoid ")]
    assert len(commands) >= 12
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `(\w+ [\w-]+)` \| (.*) \|$", _readme_command_line_section(), re.M)
    parser = build_parser()
    leaves = {" ".join(leaf.prog.split()[1:]): leaf for leaf in _leaves(parser)}
    assert sorted(name for name, _ in rows) == sorted(set(leaves) - {"report"})
    for name, cell in rows:
        leaf = leaves[name]
        documented = dict(re.findall(r"`(--[\w-]+)`(?: \(([^)]*)\))?", cell))
        actions = {f: a for a in leaf._actions for f in a.option_strings if f.startswith("--")}
        assert set(documented) | {"--out", "--help"} == set(actions), name
        defaults = vars(parser.parse_args(name.split()))
        for flag, text in documented.items():
            action = actions[flag]
            if text:
                assert (action.type or str)(text) == defaults[action.dest], (name, flag)
            else:
                assert defaults[action.dest] in (None, False), (name, flag)
