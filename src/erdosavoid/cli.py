"""Command-line front door: construct named objects, run certification
sweeps, probe statistics, and aggregate reports.

Every target (`construct digit-avoider`, `certify log-escape`, ...) is
its own sub-parser that declares only the flags its runner reads.  A
runner returns a `Result`, and `_write` renders it, writes it and picks
the exit code, so every artifact leaves the same way.

Outputs are deterministic byte-for-byte given the same configuration
and seed, and files are written atomically.  `certify digit-avoider`
runs its boxes in box order in one process, keeps a `.partial` journal
and can `--resume` it, but only under the settings it was written with:
`<out>.fingerprint` holds them beside the journal and the finished CSV.
Exit codes: 0 = everything constructed / certified, 2 = inconclusive
items remain (files are still written), 1 = usage, configuration or
resource error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from . import __version__, enclosures, gaptree, largescale, sequences, smallscale, sumsets
from .errors import ErdosAvoidError
from .intervals import Grid, Interval
from .rationals import as_rational, format_rational, on_one_denominator

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _split_range(text: str, convert) -> tuple:
    """The two ends of lo:hi, each read by `convert`."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return convert(lo), convert(hi)


def _parse_range(text: str) -> Interval:
    return Interval(*_split_range(text, as_rational))


def _parse_int_range(text: str) -> tuple[int, int]:
    return _split_range(text, int)


def _positive_int(text: str) -> int:
    """An integer of at least 1, the one rule for counts and scan depths."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _parse_grid(text: str) -> tuple[int, int]:
    a, _, b = text.lower().partition("x")
    if not _:
        raise argparse.ArgumentTypeError(f"expected AxB, got {text!r}")
    return int(a), int(b)


def _read_text(path: str) -> str:
    """The whole text of an input file, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ErdosAvoidError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".erdosavoid-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Table(NamedTuple):
    """A CSV artifact: the header and the rows, every value a string."""

    fields: list[str]
    rows: list[dict[str, str]]


class Result(NamedTuple):
    """What a runner hands to `_write`: its artifact (a JSON payload or a
    `Table`), whether every item certified, and the resume journal that
    the written artifact supersedes."""

    artifact: Union[dict, Table]
    ok: bool = True
    journal: Optional[str] = None


def _write(out: Optional[str], result: Result) -> int:
    """Render the artifact, write it to `out` (stdout if None) and map the
    outcome to an exit code."""
    if isinstance(result.artifact, Table):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=result.artifact.fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(result.artifact.rows)
        text = buf.getvalue()
    else:
        text = json.dumps(result.artifact, sort_keys=True, indent=2) + "\n"
    if out:
        write_atomic(out, text)
    else:
        sys.stdout.write(text)
    if result.journal and os.path.exists(result.journal):
        os.unlink(result.journal)
    return EXIT_OK if result.ok else EXIT_INCONCLUSIVE


def _sequence_from_args(args) -> sequences.SequenceSpec:
    kwargs = {k: getattr(args, k) for k in ("ratio", "base") if getattr(args, k) is not None}
    return sequences.from_name(args.seq, **kwargs)


# ---------------------------------------------------------------------------
# construct


def _construct_sublacunary_avoider(args) -> Result:
    result = smallscale.build_sublacunary_avoider(_sequence_from_args(args), args.levels, args.window)
    payload = {
        "object": args.target,
        "seq": args.seq,
        "levels": args.levels,
        "log": result.log_json(),
        "measure": format_rational(result.measure),
    }
    if result.components <= args.max_components:
        payload["intervals"] = result.interval_set().to_json()["intervals"]
    return Result(payload)


def _construct_digit_avoider(args) -> Result:
    e = largescale.digit_avoider(args.m, args.window)
    return Result({"object": args.target, "m": args.m, **e.to_json()})


def _construct_fractional_set(args) -> Result:
    e = largescale.fractional_set(args.p, args.window)
    return Result({"object": args.target, **e.to_json()})


def _construct_quotient_avoider(args) -> Result:
    y = as_rational(args.y)
    e = largescale.quotient_avoider(y, args.p, args.window)
    return Result({"object": args.target, "y": format_rational(y), **e.to_json()})


def _construct_middle_cantor(args) -> Result:
    tree = gaptree.from_middle_ratio(args.ratio_n, args.depth)
    return Result({
        "object": args.target,
        "thickness": format_rational(gaptree.thickness(tree).value),
        "level_measure": format_rational(gaptree.to_interval_set(tree, args.depth).measure()),
        "tree": gaptree.tree_to_json(tree),
    })


def _construct_dyadic_family(args) -> Result:
    fam = sumsets.build_dyadic_family(args.ratio_n, args.depth, args.n_range, args.l_range)
    return Result({
        "object": args.target,
        **fam.describe(),
        "level_measures": {
            str(d): format_rational(fam.level_measure(d)) for d in range(args.depth + 1)
        },
    })


# ---------------------------------------------------------------------------
# certify


def _digit_row(e, args, grid: Grid, box_id: int, audit: bool) -> dict:
    """The CSV row of one box; `audit` says whether its certificate
    still needs the sampling audit."""
    bx, by = grid.cell(box_id)
    cert = largescale.certify_linear_escape(e, bx, by, args.nmax)
    ok = not audit or largescale.validate_linear_escape(
        e, cert, samples=args.samples, seed=args.seed * 1000003 + box_id
    )
    return {
        "box_id": str(box_id),
        "x_lo": format_rational(bx.lo),
        "x_hi": format_rational(bx.hi),
        "y_lo": format_rational(by.lo),
        "y_hi": format_rational(by.hi),
        "status": cert.status if ok else "validation-failed",
        "witness_n": str(cert.witness_index or ""),
        "route": cert.route or "",
        "witness_cell": "" if cert.witness_cell is None else str(cert.witness_cell),
    }


_DIGIT_FIELDS = [
    "box_id", "x_lo", "x_hi", "y_lo", "y_hi", "status", "witness_n", "route",
    "witness_cell",
]


def _fingerprint(args) -> str:
    """The resolved settings of a run as canonical text, one `key=value`
    line per flag or config value, file paths and `--resume` left out."""
    skip = {"func", "config", "out", "resume"}
    return "".join(f"{k}={v!r}\n" for k, v in sorted(vars(args).items()) if k not in skip)


def _resume_rows(out: str, grid: Grid, fingerprint: str) -> dict[int, dict]:
    """Rows an earlier run left, by box id: its journal's if a journal is
    there, else its finished CSV's.  Either is refused, with no file
    touched, unless `<out>.fingerprint` holds these settings, and so is a
    row without the sweep columns or not matching its cell of `grid`."""
    found = [p for p in (f"{out}.partial", out) if os.path.exists(p)]
    if not found:
        return {}
    path, sidecar = found[0], f"{out}.fingerprint"
    if not os.path.exists(sidecar) or _read_text(sidecar) != fingerprint:
        raise ErdosAvoidError(f"{path}: {sidecar} is missing or holds other settings; cannot resume")
    rows = {}
    for line, row in enumerate(csv.DictReader(io.StringIO(_read_text(path), newline="")), 2):
        box = row.get("box_id") or ""
        box_id = int(box) if box.isdecimal() else -1
        ok = None not in map(row.get, _DIGIT_FIELDS) and 0 <= box_id < len(grid)
        if ok:
            bx, by = grid.cell(box_id)
            cell = [format_rational(v) for v in (bx.lo, bx.hi, by.lo, by.hi)]
            ok = [row[k] for k in ("x_lo", "x_hi", "y_lo", "y_hi")] == cell
        if not ok:
            raise ErdosAvoidError(
                f"{path}:{line}: not a row of this sweep (columns, grid or "
                "ranges differ); cannot resume"
            )
        rows[box_id] = row
    return rows


def _certify_digit_avoider(args) -> Result:
    grid = Grid(args.x_range, args.y_range, *args.grid)
    fingerprint = _fingerprint(args)
    journal = f"{args.out}.partial" if args.out else None
    resume = bool(args.resume and journal)
    rows = _resume_rows(args.out, grid, fingerprint) if resume else {}
    # a run starts its own journal unless it goes on with one of its settings
    fresh = not (resume and os.path.exists(journal))
    e = largescale.digit_avoider(args.m, args.window)
    todo = [b for b in range(len(grid)) if b not in rows]
    # a whole range that the exact cover settles passes every box's audit
    audit = bool(args.validate and todo) and not largescale.audit_range(
        e, args.x_range, args.y_range
    )
    for start in range(0, len(todo), 256):
        part = [_digit_row(e, args, grid, b, audit) for b in todo[start : start + 256]]
        if journal:
            with open(journal, "w" if fresh else "a", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=_DIGIT_FIELDS, lineterminator="\n")
                if fresh:  # the old journal is gone before the new fingerprint lands
                    writer.writeheader()
                    write_atomic(f"{args.out}.fingerprint", fingerprint)
                    fresh = False
                writer.writerows(part)
        rows.update((int(row["box_id"]), row) for row in part)
    ok = all(row["status"] == "certified" for row in rows.values())
    return Result(Table(_DIGIT_FIELDS, [rows[b] for b in sorted(rows)]), ok, journal)


def _certify_sublacunary_avoider(args) -> Result:
    seq = _sequence_from_args(args)
    # refuse a bad grid before the avoider is built
    boxes = smallscale.grid_boxes(args.lambda_range, args.t_range, *args.grid)
    result = smallscale.build_sublacunary_avoider(seq, args.levels, args.window)
    certs = smallscale.certify_no_affine_copy(result.interval_set(), seq, boxes, args.nmax)
    rows = [
        {
            "box_id": str(box_id),
            "lambda_lo": format_rational(cert.box.lam.lo),
            "lambda_hi": format_rational(cert.box.lam.hi),
            "t_lo": format_rational(cert.box.t.lo),
            "t_hi": format_rational(cert.box.t.hi),
            "status": cert.status,
            "witness_n": str(cert.witness_index or ""),
        }
        for box_id, cert in enumerate(certs)
    ]
    fields = ["box_id", "lambda_lo", "lambda_hi", "t_lo", "t_hi", "status", "witness_n"]
    return Result(Table(fields, rows), all(c.status == "certified" for c in certs))


def _certify_log_escape(args) -> Result:
    e = largescale.digit_avoider(args.m, 1)  # log escape reads no cell: any window will do
    certs, stats = largescale.sweep_log_escape(e, args.y_range, args.b_range, *args.grid,
                                               n_max=args.nmax)
    ok = stats["certified"] == stats["boxes"]
    if args.format == "json":
        return Result({"target": args.target, "stats": stats}, ok)
    rows = [
        {
            "box_id": str(box_id),
            "y_lo": format_rational(c.y_box.lo),
            "y_hi": format_rational(c.y_box.hi),
            "b_lo": format_rational(c.b_box.lo),
            "b_hi": format_rational(c.b_box.hi),
            "status": c.status,
            "witness_n": str(c.witness_index or ""),
            "route": c.route or "",
        }
        for box_id, c in enumerate(certs)
    ]
    fields = ["box_id", "y_lo", "y_hi", "b_lo", "b_hi", "status", "witness_n", "route"]
    return Result(Table(fields, rows), ok)


def _certify_frame_intersection(args) -> Result:
    x_tree = gaptree.from_middle_ratio(args.x_ratio, args.depth)
    fam = sumsets.build_dyadic_family(args.ratio_n, args.depth, args.n_range, args.l_range)
    certifier = sumsets.FrameCertifier(x_tree, fam)
    rng = random.Random(args.seed)
    # lo + length * k/256, drawn as one integer numerator over 256 * lcm(denominators)
    L, (l0, lw) = on_one_denominator(args.lambda_range.lo, args.lambda_range.length)
    T, (t0, tw) = on_one_denominator(args.t_range.lo, args.t_range.length)
    rows = []
    for box_id in range(args.count):
        lam = 256 * l0 + lw * rng.randrange(1, 257)
        lam = Fraction(-lam if rng.random() < 0.5 else lam, 256 * L)
        t = Fraction(256 * t0 + tw * rng.randrange(0, 257), 256 * T)
        trace = certifier.certify(lam, t, args.depth)
        rows.append({
            "box_id": str(box_id),
            "lambda": format_rational(lam),
            "t": format_rational(t),
            "frame": f"{trace.frame[0]}|{trace.frame[1]}",
            "status": trace.status,
            "witness": format_rational(trace.witness) if trace.witness is not None else "",
        })
    certified = sum(row["status"] == "certified" for row in rows)
    ok = certified == args.count
    if args.format == "json":
        return Result({"target": args.target, "count": args.count, "certified": certified}, ok)
    return Result(Table(["box_id", "lambda", "t", "frame", "status", "witness"], rows), ok)


# ---------------------------------------------------------------------------
# probe


def _y_from_args(args):
    return enclosures.sqrt_enclosure(2, args.bits) if args.y == "sqrt2" else as_rational(args.y)


def _probe_mod1(args) -> Result:
    prof = largescale.density_mod1(_sequence_from_args(args), _y_from_args(args), args.n)
    return Result({"probe": args.target, **prof.to_json()})


def _probe_dubickas(args) -> Result:
    res = largescale.dubickas_gap_check(_y_from_args(args), args.n)
    return Result({
        "probe": args.target,
        "N": res.count,
        "covering_length": format_rational(res.covering_length),
        "conditional": res.conditional,
    })


def _probe_ell_bound(args) -> Result:
    coeffs = [as_rational(c) for c in args.f.split(",")]
    res = largescale.ell_upper_bound(coeffs, args.max_deg, args.step, args.bound)
    return Result({"probe": args.target, **res.to_json()})


def _probe_kolountzakis(args) -> Result:
    delta, score = smallscale.kolountzakis_delta(_sequence_from_args(args), args.n)
    return Result({
        "probe": args.target,
        "delta": format_rational(delta),
        "score": [format_rational(score.lo), format_rational(score.hi)],
    })


# ---------------------------------------------------------------------------
# report


def _report(args) -> Result:
    summary = {
        "files": [],
        "rows": 0,
        "certified": 0,
        "inconclusive": 0,
        "measures": {},
    }
    for path in args.paths:
        name = Path(path).name
        text = _read_text(path)
        if path.endswith(".csv"):
            rows = list(csv.DictReader(io.StringIO(text, newline="")))
            if rows and "status" not in rows[0]:
                raise ErdosAvoidError(f"{path}: sweep CSV must carry a status column")
            certified = sum(r["status"] == "certified" for r in rows)
            summary["files"].append(
                {"name": name, "kind": "sweep", "rows": len(rows), "certified": certified}
            )
            summary["rows"] += len(rows)
            summary["certified"] += certified
            summary["inconclusive"] += len(rows) - certified
        else:
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ErdosAvoidError(f"{path}: not valid JSON ({exc})") from exc
            entry = {"name": name, "kind": "artifact"}
            if isinstance(obj, dict) and "measure" in obj:
                summary["measures"][name] = obj["measure"]
            if isinstance(obj, dict) and "stats" in obj:
                entry["stats"] = obj["stats"]
            if isinstance(obj, dict):
                summary["inconclusive"] += _json_inconclusive(path, obj)
            summary["files"].append(entry)
    return Result(summary, summary["inconclusive"] == 0)


def _json_inconclusive(path: str, obj: dict) -> int:
    """Items a JSON certify artifact left uncertified: stats.boxes minus
    stats.certified (log-escape) or count minus certified
    (frame-intersection); other artifacts count none."""
    counts, total = obj, "count"
    if isinstance(obj.get("stats"), dict):
        counts, total = obj["stats"], "boxes"
    if total not in counts or "certified" not in counts:
        return 0
    n, done = counts[total], counts["certified"]
    if type(n) is not int or type(done) is not int or not 0 <= done <= n:
        raise ErdosAvoidError(f"{path}: {total} and certified must be counts, certified <= {total}")
    return n - done


# ---------------------------------------------------------------------------
# parser plumbing


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ErdosAvoidError, so they exit 1 like every
    other refusal; exit 2 stays with inconclusive items.  Subparsers
    inherit the class.  Flags are never abbreviated, so a flag a target
    does not take is refused rather than read as a longer flag it does.

    A target's parser takes its flags as `_TARGETS` spells them and adds
    them on first use, when it parses or `_leaves` walks it, so a process
    builds only the flags of the target it runs."""

    def __init__(self, *args, flags: str = "", **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._pending = flags

    def add_flags(self) -> None:
        """Add the flags not added yet, each with its `_FLAGS` keywords."""
        for flag in self._pending.split():
            flag, override, default = flag.partition("=")
            spec = dict(_FLAGS[flag])
            if override:
                spec["default"] = default
            self.add_argument(flag, **spec)
        self._pending = ""

    def parse_known_args(self, args=None, namespace=None):
        self.add_flags()
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ErdosAvoidError(f"{self.prog}: {message}")


def _interval(lo: Fraction, hi: Fraction) -> dict:
    return dict(type=_parse_range, default=Interval(lo, hi))


# Every flag a target may take, spelled once as argparse keywords with its
# usual default.  Under _TARGETS a target writes --flag=value where its
# default differs; argparse reads that value through the flag's type.
_FLAGS = {
    "--out": dict(help="output path (stdout if omitted)"),
    "--seq": dict(default="reciprocal"),
    "--ratio": dict(type=as_rational),
    "--base": dict(type=as_rational),
    "--levels": dict(type=int, default=4),
    "--window": dict(type=int, default=64),
    "--max-components": dict(type=int, default=100_000),
    "--m": dict(type=int, default=4),
    "--p": dict(type=as_rational, default=Fraction(1, 2)),
    "--y": dict(default="1/2"),
    "--ratio-n": dict(type=int, default=1),
    "--depth": dict(type=int, default=6),
    "--n-range": dict(type=_parse_int_range, default=(-1, 1)),
    "--l-range": dict(type=_parse_int_range, default=(-2, 2)),
    "--grid": dict(type=_parse_grid, default=(10, 10)),
    "--Nmax": dict(type=_positive_int, default=64, dest="nmax"),
    "--x-range": _interval(Fraction(0), Fraction(1)),
    "--y-range": _interval(Fraction(1, 1000), Fraction(10)),
    "--b-range": _interval(Fraction(3, 2), Fraction(3)),
    "--lambda-range": _interval(Fraction(1), Fraction(2)),
    "--t-range": _interval(Fraction(-1), Fraction(1)),
    "--validate": dict(action="store_true"),
    "--samples": dict(type=_positive_int, default=100),
    "--seed": dict(type=int, default=0),
    "--resume": dict(action="store_true"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--count": dict(type=_positive_int, default=100),
    "--x-ratio": dict(type=int, default=2),
    "--bits": dict(type=int, default=1100),
    "--N": dict(type=int, default=100, dest="n"),
    "--f": dict(default="-2,1"),
    "--max-deg": dict(type=int, default=4),
    "--step": dict(type=as_rational, default=Fraction(1, 16)),
    "--bound": dict(type=as_rational, default=Fraction(1)),
}

# Each subcommand's help, and per target its runner and the flags it reads.
_TARGETS = {
    "construct": ("build a named object", {
        "sublacunary-avoider": (_construct_sublacunary_avoider,
                                "--seq --ratio --base --levels --window=1000000 --max-components"),
        "digit-avoider": (_construct_digit_avoider, "--m --window"),
        "fractional-set": (_construct_fractional_set, "--p --window"),
        "quotient-avoider": (_construct_quotient_avoider, "--y=2 --p --window"),
        "middle-cantor": (_construct_middle_cantor, "--ratio-n --depth"),
        "dyadic-family": (_construct_dyadic_family, "--ratio-n --depth --n-range --l-range"),
    }),
    "certify": ("run a certification sweep", {
        "digit-avoider": (_certify_digit_avoider, "--m --window --grid --Nmax=4096 "
                          "--x-range --y-range --validate --samples --seed --resume"),
        "sublacunary-avoider": (_certify_sublacunary_avoider, "--seq --ratio --base --levels "
                                "--window --grid --Nmax --lambda-range --t-range"),
        "log-escape": (_certify_log_escape, "--m --grid --Nmax --y-range --b-range --format"),
        "frame-intersection": (_certify_frame_intersection,
                               "--count --x-ratio --ratio-n --depth=12 --n-range=-3:3 "
                               "--l-range=-34:34 --lambda-range --t-range --seed --format"),
    }),
    "probe": ("run a statistic probe", {
        "mod1": (_probe_mod1, "--seq=linear --ratio --base --y --bits --N"),
        "dubickas": (_probe_dubickas, "--y --bits --N"),
        "ell-bound": (_probe_ell_bound, "--f --max-deg --step --bound"),
        "kolountzakis": (_probe_kolountzakis, "--seq --ratio --base --N"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="erdosavoid",
        description="exact constructions and finite-scale certification of "
        "pattern-avoiding sets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="flat key=value defaults file")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, targets) in _TARGETS.items():
        group = commands.add_parser(command, help=summary).add_subparsers(dest="target", required=True)
        for name, (runner, flags) in targets.items():
            group.add_parser(name, flags=f"--out {flags}").set_defaults(func=runner)
    report = commands.add_parser("report", help="aggregate artifact files", flags="--out")
    report.set_defaults(func=_report)
    report.add_argument("paths", nargs="+")
    return parser


def _leaves(parser: _Parser):
    """Every parser that runs a command, one per target and `report`,
    with its flags added."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        parser.add_flags()
        yield parser
    for group in groups:
        for sub in group.choices.values():
            yield from _leaves(sub)


def _apply_config(parser, args, argv: Sequence[str]) -> None:
    """Fill flags not given on the command line from the --config file.
    One file serves every command, so a key that only another target
    takes is skipped; a key no target takes is refused."""
    if not args.config:
        return
    overrides = {}
    for line in _read_text(args.config).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        overrides[key.strip().lower().replace("-", "_")] = value.strip()
    leaves = list(_leaves(parser))
    known = {a.dest for p in leaves for a in p._actions if a.option_strings} - {"help"}
    unknown = sorted(overrides.keys() - known)
    if unknown:
        raise ErdosAvoidError(f"{args.config}: no command takes the key(s) {', '.join(unknown)}")
    explicit = {
        a.split("=")[0].lstrip("-").lower().replace("-", "_")
        for a in argv
        if a.startswith("--")
    }
    (chosen,) = (p for p in leaves if p.get_default("func") is args.func)
    actions = {a.dest: a for a in chosen._actions if a.option_strings}
    for key, text in overrides.items():
        if key not in actions or key in explicit:
            continue
        try:
            setattr(args, key, _config_value(actions[key], text))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ErdosAvoidError(f"config key {key!r}: bad value {text!r} ({exc})") from exc


def _config_value(action: argparse.Action, text: str):
    """Parse a config value the way its command-line flag would be parsed."""
    if action.nargs == 0:  # a store_true flag
        if text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true"
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(action.choices)}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args, argv)
        return _write(args.out, args.func(args))
    except (ErdosAvoidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
