import json
import os
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest

import erdosavoid
from erdosavoid import largescale, smallscale
from erdosavoid.cli import _workers, main
from erdosavoid.errors import InvalidParameterError, ResourceLimitError
from erdosavoid.intervals import Interval
from erdosavoid.rationals import format_rational, parse_rational

from helpers import reference_sublacunary_avoider

F = Fraction


def run(tmp_path, *argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return fh.read()


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


def test_certify_digit_avoider_workers_do_not_change_bytes(tmp_path):
    a = str(tmp_path / "w1.csv")
    b = str(tmp_path / "w2.csv")
    argv = ["certify", "digit-avoider", "--m", "4", "--grid", "4x4",
            "--Nmax", "32", "--seed", "3"]
    os.environ["ERDOSAVOID_WORKERS"] = "1"
    try:
        assert main(argv + ["--out", a]) == 0
        os.environ["ERDOSAVOID_WORKERS"] = "2"
        assert main(argv + ["--out", b]) == 0
    finally:
        del os.environ["ERDOSAVOID_WORKERS"]
    assert read(a) == read(b)


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


def test_certify_frame_intersection(tmp_path, capsys):
    code = main([
        "certify", "frame-intersection", "--count", "20", "--depth", "10",
        "--lambda-range", "1/8:8", "--t-range=-4:4", "--seed", "5",
    ])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["certified"] == 20


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

    def fake_validate(e, cert, samples=100, seed=0):
        calls.append(seed)
        return True

    monkeypatch.setattr(largescale, "validate_linear_escape", fake_validate)
    cfg = tmp_path / "cfg"
    argv = ["--config", str(cfg), "certify", "digit-avoider", "--grid", "2x2", "--Nmax", "32"]
    cfg.write_text("validate = false\n")
    assert main(argv) == 0
    assert calls == []
    cfg.write_text("validate = true\n")
    assert main(argv) == 0
    assert len(calls) == 4
    cfg.write_text("validate = maybe\n")
    assert main(argv) == 1


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


def test_workers_capped_at_cpu_count(monkeypatch):
    # _workers only reads the variable; no pool is started here
    monkeypatch.setenv("ERDOSAVOID_WORKERS", "100000")
    assert _workers() == (os.cpu_count() or 1)
    monkeypatch.setenv("ERDOSAVOID_WORKERS", "0")
    assert _workers() == 1


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


def test_construct_cell_object_default_window(tmp_path):
    out = tmp_path / "digit.json"
    assert main(["construct", "digit-avoider", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["window"] == 64
    assert len(obj["cells"]) == 64


def test_scan_depth_below_one_exits_one(tmp_path):
    # doubling from n_max < 1 never reaches the cap, so it is refused;
    # so are the other scans with no step and a frame run with no box
    out = tmp_path / "sweep.csv"
    for nmax in ("0", "-3"):
        argv = ["certify", "digit-avoider", "--grid", "2x2", "--Nmax", nmax, "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()
        assert not os.path.exists(str(out) + ".partial")
    refused = [
        ["sublacunary-avoider", "--levels", "1", "--grid", "2x2", "--Nmax", "0"],
        ["log-escape", "--grid", "2x2", "--Nmax", "0"],
        ["log-escape", "--grid", "2x2", "--Nmax", "-3"],
        ["frame-intersection", "--depth", "3", "--count", "-5"],
        ["frame-intersection", "--depth", "3", "--count", "0"],
    ]
    for args in refused:
        assert main(["certify", *args, "--out", str(out)]) == 1, args
        assert not out.exists(), args


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
    with pytest.raises(ResourceLimitError):
        format_rational(Fraction(1, 10**digit_limit))
    assert format_rational(Fraction(10 ** (digit_limit - 1))) == "1" + "0" * (digit_limit - 1)


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
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "digit-avoider" in capsys.readouterr().out
