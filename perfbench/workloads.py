"""The four benchmark workloads: their sizes, the commands a repetition
runs, the fixed inputs the set-up probe builds, and the correctness
gate that checks each repetition's artifacts.

This module imports only the standard library at load time, so the
set-up probe can time the first `import erdosavoid` of a fresh process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# PERFBENCH_TINY=1 shrinks every workload for the benchmark's own tests.
TINY = os.environ.get("PERFBENCH_TINY") == "1"
# Sizes are chosen so one repetition takes about 1-3 s on a 2-CPU box;
# a run repeats it until --seconds is used up and reports medians.
DIGIT_GRID = 4 if TINY else 24
GAP_CHECKS = 3 if TINY else 60
FRAME_COUNT = 5 if TINY else 300
AVOIDER_LEVELS = 3 if TINY else 6
ELL_MAX_DEG = 2 if TINY else 4
ELL_STEP = f"1/{2 ** ELL_MAX_DEG}"
# Criterion 09's bounds at degree d and step 2^-d are 2 + 2^-d.
ELL_VALUE = 2 + Fraction(1, 2 ** ELL_MAX_DEG)
LOG_GRID = 5 if TINY else 30
# digests.json holds the artifacts of input seeds 0..RECORDED_SEEDS-1; a
# benchmark seed picks its input seed modulo this, so every run is gated
# by a recorded digest.
RECORDED_SEEDS = 100

SIZES = {
    "digit-sweep": {"grid": f"{DIGIT_GRID}x{DIGIT_GRID}", "m": 4, "window": 200,
                    "samples": 100},
    "gap-algebra": {"checks": GAP_CHECKS, "level": 8},
    "frame-certify": {"count": FRAME_COUNT, "depth": 12},
    "construct-probe": {"levels": AVOIDER_LEVELS, "ell_max_deg": ELL_MAX_DEG,
                        "ell_step": ELL_STEP, "log_grid": f"{LOG_GRID}x{LOG_GRID}"},
}


@dataclass
class Command:
    """One program invocation of a repetition.

    `kind` is "cli" (argv goes to `erdosavoid.cli.main`) or "pipeline"
    (argv goes to the gap-algebra library pipeline in `child.py`).
    """

    kind: str
    argv: list[str]
    artifact: Path


@dataclass
class Verdict:
    """Outcome of the correctness gate for one repetition.  Each artifact
    carries an equal share of the items; failures are counted per
    artifact, up to its share."""

    items: int
    artifacts: int
    problems: list[str] = field(default_factory=list)
    histogram: dict[str, int] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    bad: list[int] = field(init=False)

    def __post_init__(self):
        self.bad = [0] * self.artifacts

    @property
    def failed(self) -> int:
        return sum(self.bad)

    def fail(self, problem: str, artifact: int | None = None, items: int | None = None) -> None:
        """Fail `items` items of one artifact: all of them by default, and
        those of every artifact when none is named."""
        share = self.items // self.artifacts
        for i in range(self.artifacts) if artifact is None else [artifact]:
            self.bad[i] = min(share, self.bad[i] + (share if items is None else items))
        self.problems.append(problem)


def commands(workload: str, seed: int, outdir: Path) -> list[Command]:
    if workload == "digit-sweep":
        out = outdir / "digit-sweep.csv"
        return [Command("cli", [
            "certify", "digit-avoider", "--m", "4", "--window", "200",
            "--y-range", "1/1000:10", "--Nmax", "64", "--validate",
            "--samples", "100", "--seed", str(seed),
            "--grid", f"{DIGIT_GRID}x{DIGIT_GRID}", "--out", str(out),
        ], out)]
    if workload == "gap-algebra":
        out = outdir / "gap-algebra.csv"
        return [Command("pipeline", ["--seed", str(seed), "--out", str(out)], out)]
    if workload == "frame-certify":
        out = outdir / "frame-certify.csv"
        return [Command("cli", [
            "certify", "frame-intersection", "--depth", "12",
            "--lambda-range", "1/8:8", "--t-range=-4:4", "--format", "csv",
            "--seed", str(seed), "--count", str(FRAME_COUNT), "--out", str(out),
        ], out)]
    if workload == "construct-probe":
        # deterministic inputs: the seed is not used
        avoider = outdir / "avoider.json"
        ell = outdir / "ell-bound.json"
        log = outdir / "log-escape.json"
        return [
            Command("cli", ["construct", "sublacunary-avoider",
                            "--levels", str(AVOIDER_LEVELS), "--out", str(avoider)], avoider),
            Command("cli", ["probe", "ell-bound", "--f=-2,1", "--max-deg", str(ELL_MAX_DEG),
                            "--step", ELL_STEP, "--bound", "1", "--out", str(ell)], ell),
            Command("cli", ["certify", "log-escape", "--m", "4",
                            "--grid", f"{LOG_GRID}x{LOG_GRID}", "--y-range", "1:2",
                            "--b-range", "3/2:3", "--out", str(log)], log),
        ]
    raise KeyError(workload)


WORKLOADS = ("digit-sweep", "gap-algebra", "frame-certify", "construct-probe")


def items_per_repetition(workload: str) -> int:
    return {
        "digit-sweep": DIGIT_GRID * DIGIT_GRID,
        "gap-algebra": GAP_CHECKS,
        "frame-certify": FRAME_COUNT,
        "construct-probe": 3,
    }[workload]


def seed_used(workload: str) -> bool:
    return workload != "construct-probe"


def input_seed(seed: int) -> int:
    """The seed the workload's inputs are made from."""
    return seed % RECORDED_SEEDS


# ---------------------------------------------------------------------------
# set-up probe: the fixed inputs, built through the public constructors


def build_fixed_inputs(workload: str):
    import erdosavoid  # noqa: F401  (the import is part of what is timed)

    if workload == "digit-sweep":
        from erdosavoid.largescale import digit_avoider

        return digit_avoider(4, 200)
    if workload == "frame-certify":
        from erdosavoid.gaptree import from_middle_ratio
        from erdosavoid.sumsets import FrameCertifier, build_dyadic_family

        return FrameCertifier(
            from_middle_ratio(2, 12), build_dyadic_family(1, 12, (-3, 3), (-34, 34))
        )
    if workload == "gap-algebra":
        return gap_algebra_inputs()
    if workload == "construct-probe":
        return None
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# gap-algebra: the library pipeline with the shape of acceptance criterion 11


def gap_algebra_inputs():
    from erdosavoid.gaptree import from_middle_ratio, to_interval_set
    from erdosavoid.sumsets import build_dyadic_family

    x_tree = from_middle_ratio(2, 8)
    x_set = to_interval_set(x_tree, 8)
    family = build_dyadic_family(1, 8, (-1, 1), (-2, 2))
    m_union = family.union_set(8)
    return x_tree, x_set, family, m_union


GAP_FIELDS = ["item", "gap_lo", "gap_hi", "lam_prime", "t", "lam", "target",
              "covered", "nearest_miss"]


def gap_algebra(seed: int, count: int, on_item=None) -> list[dict]:
    """Sample `count` escapes lam'X + t missing the dyadic union, translate
    each into a coverage probe and record the probe's verdict; a covered
    target contradicts the escape."""
    from erdosavoid.sumsets import escape_to_coverage_params, sumset_cover_probe

    x_tree, x_set, family, m_union = gap_algebra_inputs()
    gaps = [g for g in m_union.gaps() if g.length > 0]
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        if on_item is not None:
            on_item(len(rows))
        gap = gaps[rng.randrange(len(gaps))]
        lam_prime = gap.length * Fraction(rng.randrange(1, 32), 64)
        t = gap.lo + (gap.length - lam_prime) * Fraction(rng.randrange(1, 63), 64)
        if x_set.affine(lam_prime, t).intersection(m_union):
            continue  # not an escape; resample
        lam, target = escape_to_coverage_params(lam_prime, t)
        report = sumset_cover_probe(x_tree, family, lam, [target], 8)
        miss = report.records[0].nearest_miss
        rows.append({
            "item": len(rows), "gap_lo": gap.lo, "gap_hi": gap.hi,
            "lam_prime": lam_prime, "t": t, "lam": lam, "target": target,
            "covered": report.certified, "nearest_miss": "" if miss is None else miss,
        })
    return rows


def write_gap_algebra(rows: list[dict], out: Path) -> None:
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=GAP_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows({k: str(v) for k, v in row.items()} for row in rows)


# ---------------------------------------------------------------------------
# correctness gate


DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def recorded_digests(table: dict, workload: str, seed: int):
    """Digests recorded at the reference commit for an input seed, or None
    at the tiny sizes, which are not recorded."""
    if TINY:
        return None
    entry = table[workload]
    if entry["sizes"] != SIZES[workload]:
        raise ValueError(f"{DIGESTS_PATH.name}: {workload} was recorded at other sizes")
    return entry["seeds"][str(seed) if seed_used(workload) else "any"]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check(workload: str, cmds: list[Command], exit_codes: list[int],
          expected: list[str] | None) -> Verdict:
    """Gate one repetition: exit codes, recorded digests and the
    invariants that hold for any seed.  Items of a failing artifact
    count as failed."""
    v = Verdict(items=items_per_repetition(workload), artifacts=len(cmds))
    for i, cmd in enumerate(cmds):
        if not cmd.artifact.exists():
            v.digests.append("")
            v.fail(f"{cmd.artifact.name}: missing", i)
            continue
        v.digests.append(sha256_file(cmd.artifact))
        if exit_codes[i] != 0:
            v.fail(f"{cmd.artifact.name}: exit code {exit_codes[i]}", i)
        if expected is not None and v.digests[i] != expected[i]:
            v.fail(f"{cmd.artifact.name}: sha256 differs from the record", i)
    if all(v.digests):
        # also after a failure above, so the histograms stay on record
        try:
            _INVARIANTS[workload](cmds, v)
        except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
            v.fail(f"unreadable artifact: {exc!r}")
    return v


def _digit_sweep(cmds, v: Verdict) -> None:
    rows = _read_csv(cmds[0].artifact)
    if len(rows) != v.items:
        v.fail(f"{len(rows)} rows for {v.items} boxes")
        return
    bad = sum(r["status"] != "certified" for r in rows)
    if bad:
        v.fail(f"{bad} boxes not certified", 0, bad)
    v.histogram["certified"] = v.items - bad
    for route in ("containment", "width"):
        v.histogram[f"route.{route}"] = sum(r["route"] == route for r in rows)


def _gap_algebra(cmds, v: Verdict) -> None:
    rows = _read_csv(cmds[0].artifact)
    if len(rows) != v.items:
        v.fail(f"{len(rows)} checks for {v.items} items")
        return
    bad = sum(r["covered"] != "0" for r in rows)
    if bad:
        v.fail(f"{bad} inconsistent checks", 0, bad)
    v.histogram["inconsistent"] = bad


def _frame_certify(cmds, v: Verdict) -> None:
    rows = _read_csv(cmds[0].artifact)
    if len(rows) != v.items:
        v.fail(f"{len(rows)} rows for {v.items} samples")
        return
    for status in ("certified", "split", "not_applicable"):
        v.histogram[f"status.{status}"] = sum(r["status"] == status for r in rows)
    bad = v.items - v.histogram["status.certified"]
    if bad:
        v.fail(f"{bad} samples not certified", 0, bad)


def _construct_probe(cmds, v: Verdict) -> None:
    avoider = _read_json(cmds[0].artifact)
    bound = 1 - sum(Fraction(2, 4**k) for k in range(1, AVOIDER_LEVELS + 1))
    if Fraction(avoider["measure"]) < bound:
        v.fail(f"avoider measure {avoider['measure']} below {bound}", 0)
    ell = _read_json(cmds[1].artifact)
    if Fraction(ell["value"]) != ELL_VALUE:
        v.fail(f"ell-bound {ell['value']} != {ELL_VALUE}", 1)
    stats = _read_json(cmds[2].artifact)["stats"]
    if stats["certified"] != stats["boxes"] or stats["boxes"] != LOG_GRID * LOG_GRID:
        v.fail(f"log-escape certified {stats['certified']}/{stats['boxes']}", 2)
    v.histogram["log_escape.first_pass"] = stats["first_pass"]
    v.histogram["log_escape.refined"] = stats["resolved_by_refinement"]


_INVARIANTS = {
    "digit-sweep": _digit_sweep,
    "gap-algebra": _gap_algebra,
    "frame-certify": _frame_certify,
    "construct-probe": _construct_probe,
}
