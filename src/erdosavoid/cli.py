"""Command-line front door: construct named objects, run certification
sweeps, probe statistics, and aggregate reports.

Outputs are deterministic byte-for-byte given the same configuration
and seed: files are written atomically, sweeps are resumable by box id,
and worker parallelism (ERDOSAVOID_WORKERS) never reorders results.
Exit codes: 0 = everything constructed / certified, 2 = inconclusive
items remain (files are still written), 1 = configuration or resource
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import largescale, sequences, smallscale, sumsets
from .enclosures import sqrt_enclosure
from .errors import ErdosAvoidError
from .gaptree import from_middle_ratio, thickness, to_interval_set, tree_to_json
from .intervals import Grid, Interval, ParamBox
from .rationals import as_rational, format_rational

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _parse_range(text: str) -> Interval:
    lo, _, hi = text.partition(":")
    if not _:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return Interval(as_rational(lo), as_rational(hi))


def _parse_grid(text: str) -> tuple[int, int]:
    a, _, b = text.lower().partition("x")
    if not _:
        raise argparse.ArgumentTypeError(f"expected AxB, got {text!r}")
    return int(a), int(b)


def _parse_int_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not _:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return int(lo), int(hi)


def _json_bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def _emit(args, payload_obj, rows: Optional[list[dict]] = None, fieldnames=None) -> None:
    if args.format == "csv":
        if rows is None:
            raise ErdosAvoidError("this command has no CSV representation")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = _json_bytes(payload_obj)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _sequence_from_args(args) -> sequences.SequenceSpec:
    kwargs = {}
    if getattr(args, "ratio", None) is not None:
        kwargs["ratio"] = args.ratio
    if getattr(args, "base", None) is not None:
        kwargs["base"] = args.base
    return sequences.from_name(args.seq, **kwargs)


def _workers() -> int:
    try:
        requested = int(os.environ.get("ERDOSAVOID_WORKERS", "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(args) -> int:
    obj = args.object
    if args.window is None:  # a search window, or the number of cells to build
        args.window = 1_000_000 if obj == "sublacunary-avoider" else 64
    if obj == "sublacunary-avoider":
        seq = _sequence_from_args(args)
        result = smallscale.build_sublacunary_avoider(seq, args.levels, args.window)
        payload = {
            "object": obj,
            "seq": args.seq,
            "levels": args.levels,
            "log": result.log_json(),
            "measure": format_rational(result.measure),
        }
        if result.components <= args.max_components:
            payload["intervals"] = result.interval_set().to_json()["intervals"]
        _emit(args, payload)
        return EXIT_OK
    if obj == "digit-avoider":
        e = largescale.digit_avoider(args.m, args.window)
        payload = {"object": obj, "m": args.m, **e.to_json()}
        _emit(args, payload)
        return EXIT_OK
    if obj == "fractional-set":
        e = largescale.fractional_set(args.p, args.window)
        _emit(args, {"object": obj, **e.to_json()})
        return EXIT_OK
    if obj == "quotient-avoider":
        e = largescale.quotient_avoider(args.y, args.p, args.window)
        _emit(args, {"object": obj, "y": format_rational(args.y), **e.to_json()})
        return EXIT_OK
    if obj == "middle-cantor":
        tree = from_middle_ratio(args.ratio_n, args.depth)
        payload = {
            "object": obj,
            "thickness": format_rational(thickness(tree).value),
            "level_measure": format_rational(
                to_interval_set(tree, args.depth).measure()
            ),
            "tree": tree_to_json(tree),
        }
        _emit(args, payload)
        return EXIT_OK
    if obj == "dyadic-family":
        fam = sumsets.build_dyadic_family(
            args.ratio_n, args.depth, args.n_range, args.l_range
        )
        payload = {
            "object": obj,
            **fam.describe(),
            "level_measures": {
                str(d): format_rational(fam.level_measure(d))
                for d in range(args.depth + 1)
            },
        }
        _emit(args, payload)
        return EXIT_OK
    raise ErdosAvoidError(f"unknown object {obj!r}")


# ---------------------------------------------------------------------------
# certify


def _digit_sweep_rows(job) -> list[dict]:
    m, window, grid, box_ids, nmax, cap, validate, samples, seed = job
    e = largescale.digit_avoider(m, window)
    rows = []
    for box_id in box_ids:
        bx, by = grid.cell(box_id)
        cert = largescale.certify_linear_escape_to_cap(e, bx, by, nmax, cap)
        ok = True
        if validate:
            ok = largescale.validate_linear_escape(
                e, cert, samples=samples, seed=seed * 1000003 + box_id
            )
        rows.append(
            {
                "box_id": box_id,
                "x_lo": format_rational(bx.lo),
                "x_hi": format_rational(bx.hi),
                "y_lo": format_rational(by.lo),
                "y_hi": format_rational(by.hi),
                "status": cert.status if ok else "validation-failed",
                "witness_n": cert.witness_index if cert.witness_index else "",
                "route": cert.route or "",
                "witness_cell": cert.witness_cell if cert.witness_cell is not None else "",
            }
        )
    return rows


_DIGIT_FIELDS = [
    "box_id", "x_lo", "x_hi", "y_lo", "y_hi", "status", "witness_n", "route",
    "witness_cell",
]


def _load_resume_rows(path: str, grid: Grid) -> dict[int, dict]:
    """Rows of an earlier run of this sweep, by box id.  A row without the
    sweep columns, or not matching its cell of `grid`, is refused."""
    if not os.path.exists(path):
        return {}
    rows = {}
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.DictReader(fh), 2):
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


def _cmd_certify(args) -> int:
    target = args.target
    if target == "digit-avoider":
        grid = Grid(args.x_range, args.y_range, *args.grid)
        total = len(grid)
        journal = f"{args.out}.partial" if args.out else None
        done: dict[int, dict] = {}
        if args.resume and args.out:
            done = _load_resume_rows(args.out, grid)
            if not done and journal:
                done = _load_resume_rows(journal, grid)
        todo = [b for b in range(total) if b not in done]
        window = args.window
        jobs = []
        workers = min(_workers(), max(1, len(todo)))
        chunk = max(1, min((len(todo) + workers - 1) // workers, 256)) if todo else 1
        for w in range(0, len(todo), chunk):
            jobs.append(
                (
                    args.m, window, grid, todo[w : w + chunk],
                    args.nmax, args.nmax_cap, args.validate, args.samples, args.seed,
                )
            )

        def journal_chunk(part: list[dict]) -> None:
            if journal is None:
                return
            fresh = not os.path.exists(journal)
            with open(journal, "a", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=_DIGIT_FIELDS, lineterminator="\n")
                if fresh:
                    writer.writeheader()
                writer.writerows([{k: str(v) for k, v in row.items()} for row in part])

        new_rows: list[dict] = []
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_digit_sweep_rows, jobs):
                    journal_chunk(part)
                    new_rows.extend(part)
        else:
            for job in jobs:
                part = _digit_sweep_rows(job)
                journal_chunk(part)
                new_rows.extend(part)
        merged = {**{int(k): v for k, v in done.items()},
                  **{int(row["box_id"]): row for row in new_rows}}
        rows = [merged[b] for b in sorted(merged)]
        rows = [{k: str(v) for k, v in row.items()} for row in rows]
        args.format = "csv"
        _emit(args, None, rows, _DIGIT_FIELDS)
        if journal and os.path.exists(journal):
            os.unlink(journal)
        bad = sum(r["status"] != "certified" for r in rows)
        return EXIT_OK if bad == 0 else EXIT_INCONCLUSIVE

    if target == "sublacunary-avoider":
        seq = _sequence_from_args(args)
        result = smallscale.build_sublacunary_avoider(seq, args.levels, args.window)
        e = result.interval_set()
        lam_cells, t_cells = args.grid
        boxes = smallscale.grid_boxes(args.lambda_range, args.t_range, lam_cells, t_cells)
        certs = smallscale.certify_no_affine_copy(e, seq, boxes, args.nmax)
        rows = []
        for box_id, cert in enumerate(certs):
            rows.append(
                {
                    "box_id": box_id,
                    "lambda_lo": format_rational(cert.box.lam.lo),
                    "lambda_hi": format_rational(cert.box.lam.hi),
                    "t_lo": format_rational(cert.box.t.lo),
                    "t_hi": format_rational(cert.box.t.hi),
                    "status": cert.status,
                    "witness_n": cert.witness_index if cert.witness_index else "",
                }
            )
        rows = [{k: str(v) for k, v in row.items()} for row in rows]
        args.format = "csv"
        _emit(args, None, rows, ["box_id", "lambda_lo", "lambda_hi", "t_lo", "t_hi", "status", "witness_n"])
        bad = sum(r["status"] != "certified" for r in rows)
        return EXIT_OK if bad == 0 else EXIT_INCONCLUSIVE

    if target == "log-escape":
        e = largescale.digit_avoider(args.m, args.window)
        y_cells, b_cells = args.grid
        certs, stats = largescale.sweep_log_escape(
            e, args.y_range, args.b_range, y_cells, b_cells,
            n_max=args.nmax, mode=args.mode,
        )
        payload = {"target": target, "stats": stats}
        rows = [
            {
                "box_id": i,
                "y_lo": format_rational(c.y_box.lo),
                "y_hi": format_rational(c.y_box.hi),
                "b_lo": format_rational(c.b_box.lo),
                "b_hi": format_rational(c.b_box.hi),
                "status": c.status,
                "witness_n": c.witness_index if c.witness_index else "",
                "route": c.route or "",
            }
            for i, c in enumerate(certs)
        ]
        rows = [{k: str(v) for k, v in row.items()} for row in rows]
        if args.format == "csv":
            _emit(args, None, rows, ["box_id", "y_lo", "y_hi", "b_lo", "b_hi", "status", "witness_n", "route"])
        else:
            _emit(args, payload)
        return EXIT_OK if stats["certified"] == stats["boxes"] else EXIT_INCONCLUSIVE

    if target == "frame-intersection":
        x_tree = from_middle_ratio(args.x_ratio, args.depth)
        fam = sumsets.build_dyadic_family(
            args.ratio_n, args.depth, args.n_range, args.l_range
        )
        certifier = sumsets.FrameCertifier(x_tree, fam)
        import random as _random

        rng = _random.Random(args.seed)
        rows = []
        certified = 0
        for box_id in range(args.count):
            lam = args.lambda_range.lo + args.lambda_range.length * Fraction(
                rng.randrange(1, 257), 256
            )
            if rng.random() < 0.5:
                lam = -lam
            t = args.t_range.lo + args.t_range.length * Fraction(
                rng.randrange(0, 257), 256
            )
            trace = certifier.certify(ParamBox(Interval(lam, lam), Interval(t, t)), args.depth)
            certified += trace.status == "certified"
            rows.append(
                {
                    "box_id": box_id,
                    "lambda": format_rational(lam),
                    "t": format_rational(t),
                    "frame": f"{trace.frame[0]}|{trace.frame[1]}" if trace.frame else "",
                    "status": trace.status,
                    "witness": format_rational(trace.witness) if trace.witness is not None else "",
                }
            )
        rows = [{k: str(v) for k, v in row.items()} for row in rows]
        if args.format == "csv":
            _emit(args, None, rows, ["box_id", "lambda", "t", "frame", "status", "witness"])
        else:
            _emit(args, {"target": target, "count": args.count, "certified": certified})
        return EXIT_OK if certified == args.count else EXIT_INCONCLUSIVE

    raise ErdosAvoidError(f"unknown certify target {target!r}")


# ---------------------------------------------------------------------------
# probe


def _cmd_probe(args) -> int:
    kind = args.kind
    if kind == "mod1":
        seq = _sequence_from_args(args)
        y = sqrt_enclosure(2, args.bits) if args.y == "sqrt2" else as_rational(args.y)
        prof = largescale.density_mod1(seq, y, args.n)
        _emit(args, {"probe": kind, **prof.to_json()})
        return EXIT_OK
    if kind == "dubickas":
        y = sqrt_enclosure(2, args.bits) if args.y == "sqrt2" else as_rational(args.y)
        res = largescale.dubickas_gap_check(y, args.n)
        _emit(
            args,
            {
                "probe": kind,
                "N": res.count,
                "covering_length": format_rational(res.covering_length),
                "conditional": res.conditional,
            },
        )
        return EXIT_OK
    if kind == "ell-bound":
        coeffs = [as_rational(c) for c in args.f.split(",")]
        res = largescale.ell_upper_bound(coeffs, args.max_deg, args.step, args.bound)
        _emit(args, {"probe": kind, **res.to_json()})
        return EXIT_OK
    if kind == "kolountzakis":
        seq = _sequence_from_args(args)
        delta, score = smallscale.kolountzakis_delta(seq, args.n)
        _emit(
            args,
            {
                "probe": kind,
                "delta": format_rational(delta),
                "score": [format_rational(score.lo), format_rational(score.hi)],
            },
        )
        return EXIT_OK
    raise ErdosAvoidError(f"unknown probe {kind!r}")


# ---------------------------------------------------------------------------
# report


def _cmd_report(args) -> int:
    summary = {
        "files": [],
        "rows": 0,
        "certified": 0,
        "inconclusive": 0,
        "measures": {},
    }
    for path in args.paths:
        name = Path(path).name
        if path.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
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
            with open(path) as fh:
                try:
                    obj = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ErdosAvoidError(f"{path}: not valid JSON ({exc})") from exc
            entry = {"name": name, "kind": "artifact"}
            if isinstance(obj, dict) and "measure" in obj:
                summary["measures"][name] = obj["measure"]
            if isinstance(obj, dict) and "stats" in obj:
                entry["stats"] = obj["stats"]
            summary["files"].append(entry)
    text = _json_bytes(summary)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if summary["inconclusive"] == 0 else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# parser plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erdosavoid",
        description="exact constructions and finite-scale certification of "
        "pattern-avoiding sets",
    )
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("construct", help="build a named object")
    c.add_argument("object", choices=[
        "sublacunary-avoider", "digit-avoider", "fractional-set",
        "quotient-avoider", "middle-cantor", "dyadic-family",
    ])
    common(c)
    c.add_argument("--seq", default="reciprocal")
    c.add_argument("--ratio", type=as_rational, default=None)
    c.add_argument("--base", type=as_rational, default=None)
    c.add_argument("--levels", type=int, default=4)
    c.add_argument("--window", type=int, default=None)
    c.add_argument("--max-components", type=int, default=100_000)
    c.add_argument("--m", type=int, default=4)
    c.add_argument("--p", type=as_rational, default=Fraction(1, 2))
    c.add_argument("--y", type=as_rational, default=Fraction(2))
    c.add_argument("--ratio-n", type=int, default=1, dest="ratio_n")
    c.add_argument("--depth", type=int, default=6)
    c.add_argument("--n-range", type=_parse_int_range, default=(-1, 1), dest="n_range")
    c.add_argument("--l-range", type=_parse_int_range, default=(-2, 2), dest="l_range")
    c.set_defaults(func=_cmd_construct)

    z = sub.add_parser("certify", help="run a certification sweep")
    z.add_argument("target", choices=[
        "digit-avoider", "sublacunary-avoider", "log-escape", "frame-intersection",
    ])
    common(z)
    z.add_argument("--m", type=int, default=4)
    z.add_argument("--window", type=int, default=64)
    z.add_argument("--grid", type=_parse_grid, default=(10, 10))
    z.add_argument("--Nmax", type=int, default=64, dest="nmax")
    z.add_argument("--Nmax-cap", type=int, default=4096, dest="nmax_cap")
    z.add_argument("--x-range", type=_parse_range, default=Interval(Fraction(0), Fraction(1)), dest="x_range")
    z.add_argument("--y-range", type=_parse_range, default=Interval(Fraction(1, 1000), Fraction(10)), dest="y_range")
    z.add_argument("--b-range", type=_parse_range, default=Interval(Fraction(3, 2), Fraction(3)), dest="b_range")
    z.add_argument("--lambda-range", type=_parse_range, default=Interval(Fraction(1), Fraction(2)), dest="lambda_range")
    z.add_argument("--t-range", type=_parse_range, default=Interval(Fraction(-1), Fraction(1)), dest="t_range")
    z.add_argument("--seq", default="reciprocal")
    z.add_argument("--ratio", type=as_rational, default=None)
    z.add_argument("--base", type=as_rational, default=None)
    z.add_argument("--levels", type=int, default=4)
    z.add_argument("--validate", action="store_true")
    z.add_argument("--samples", type=int, default=100)
    z.add_argument("--resume", action="store_true")
    z.add_argument("--mode", choices=["points", "cells"], default="points")
    z.add_argument("--x-ratio", type=int, default=2, dest="x_ratio")
    z.add_argument("--ratio-n", type=int, default=1, dest="ratio_n")
    z.add_argument("--depth", type=int, default=12)
    z.add_argument("--n-range", type=_parse_int_range, default=(-3, 3), dest="n_range")
    z.add_argument("--l-range", type=_parse_int_range, default=(-34, 34), dest="l_range")
    z.add_argument("--count", type=int, default=100)
    z.set_defaults(func=_cmd_certify)

    p = sub.add_parser("probe", help="run a statistic probe")
    p.add_argument("kind", choices=["mod1", "dubickas", "ell-bound", "kolountzakis"])
    common(p)
    p.add_argument("--seq", default="linear")
    p.add_argument("--ratio", type=as_rational, default=None)
    p.add_argument("--base", type=as_rational, default=None)
    p.add_argument("--y", default="1/2")
    p.add_argument("--N", type=int, default=100, dest="n")
    p.add_argument("--bits", type=int, default=1100)
    p.add_argument("--f", default="-2,1")
    p.add_argument("--max-deg", type=int, default=4, dest="max_deg")
    p.add_argument("--step", type=as_rational, default=Fraction(1, 16))
    p.add_argument("--bound", type=as_rational, default=Fraction(1))
    p.set_defaults(func=_cmd_probe)

    r = sub.add_parser("report", help="aggregate artifact files")
    r.add_argument("paths", nargs="+")
    r.add_argument("--out")
    r.set_defaults(func=_cmd_report)
    return parser


def _apply_config(parser, args, argv: Sequence[str]) -> None:
    if not args.config:
        return
    overrides = {}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            overrides[key.strip().lower().replace("-", "_")] = value.strip()
    explicit = {
        a.split("=")[0].lstrip("-").lower().replace("-", "_")
        for a in argv
        if a.startswith("--")
    }
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        a.dest: a
        for a in commands.choices[args.command]._actions
        if a.option_strings and hasattr(args, a.dest)
    }
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
        return args.func(args)
    except ErdosAvoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
