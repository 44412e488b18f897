"""Mutation gate for the exact integer kernels and the CLI's input checks.

Each mutant names a file, one exact snippet in it, the snippet's
replacement and the tests that must fail once the replacement is made.
Known equivalent mutants (a replacement that cannot change any result)
are listed apart with the reason; they are never run, but their
snippets are kept in step with the code like the others.
For every mutant the script copies `src/`, `tests/` and `pyproject.toml`
into a temporary directory, applies the mutant there and runs only the
named tests; the checkout itself is never edited.  Before any mutant it
runs the named tests on the unmutated copy, which must pass.

    python3 tools/mutants.py

It exits 1 when a mutant survives (its tests still pass), when a snippet
does not occur exactly once in its file, or when the tests cannot run;
0 when every mutant is killed.  Standard library only; it runs from any
directory of a checkout with pytest and hypothesis installed, and puts
its copies where `tempfile` does (TMPDIR).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = "src/erdosavoid/cli.py"
ENCLOSURES = "src/erdosavoid/enclosures.py"
INTERSECT = "src/erdosavoid/intersect.py"
INTERVALS = "src/erdosavoid/intervals.py"
LARGESCALE = "src/erdosavoid/largescale.py"
SMALLSCALE = "src/erdosavoid/smallscale.py"
SUMSETS = "src/erdosavoid/sumsets.py"
C = "tests/test_cli.py::"
I = "tests/test_intersect.py::"
T = "tests/test_intervals.py::"
L = "tests/test_largescale.py::"
S = "tests/test_smallscale.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids relative to the checkout root


MUTANTS = (
    Mutant(
        "merge-touching", INTERVALS,
        "if his and lo <= his[-1]:", "if his and lo < his[-1]:",
        (T + "test_normalize_touching_merge",),
    ),
    Mutant(
        "intersection-closed", INTERVALS,
        "hi = min(a_hi[i], b_hi[j])\n            if lo <= hi:",
        "hi = min(a_hi[i], b_hi[j])\n            if lo < hi:",
        (T + "test_intersection_example",),
    ),
    Mutant(
        "affine-negative-scale", INTERVALS,
        "        if p < 0:\n            los, his = his[::-1], los[::-1]\n", "",
        (T + "test_affine_identity_and_reflection",),
    ),
    Mutant(
        "find-gap-left", INTERVALS,
        "his[i] * a.denominator >= a.numerator * den",
        "his[i] * a.denominator > a.numerator * den",
        (T + "test_find_gap_containing",),
    ),
    Mutant(
        "find-gap-right", INTERVALS,
        "los[i + 1] * b.denominator <= b.numerator * den",
        "los[i + 1] * b.denominator < b.numerator * den",
        (T + "test_find_gap_containing",),
    ),
    Mutant(
        "grid-cell-cap", INTERVALS,
        "if x_cells * y_cells > MAX_GRID_CELLS:", "if x_cells * y_cells >= MAX_GRID_CELLS:",
        (T + "test_grid_cell_cap_is_inclusive",),
    ),
    Mutant(
        "schedule-closed-form", LARGESCALE,
        "1 + 8 * (i // c)", "9 + 8 * (i // c)",
        (L + "test_schedule_prefix_m4",),
    ),
    Mutant(
        "removed-top-part", LARGESCALE,
        "j == self.m - 1", "j == self.m - 2",
        (L + "test_removed_parts_are_the_top_and_the_scheduled_one",),
    ),
    Mutant(
        "span-escapes-upper-end", LARGESCALE,
        "while t * den < b * m:", "while t * den <= b * m:",
        (L + "test_span_escapes_over_adjacent_removed_parts",),
    ),
    Mutant(
        "escape-index-step-count", LARGESCALE,
        "    for n in range(1, n_max + 1):\n        s += step\n",
        "    for n in range(1, n_max):\n        s += step\n",
        (L + "test_escape_index_on_boundaries_and_integers",),
    ),
    Mutant(
        "escape-index-interior-point", LARGESCALE,
        "(r == 0 and j - 1 == digit)", "(j - 1 == digit)",
        (L + "test_escape_index_on_boundaries_and_integers",),
    ),
    Mutant(
        "escape-index-part-below", LARGESCALE,
        "j - 1 == digit", "j + 1 == digit",
        (L + "test_escape_index_on_boundaries_and_integers",),
    ),
    Mutant(
        "escape-index-guard-end", LARGESCALE,
        "if not t_lo <= t < t_hi:", "if not t_lo <= t <= t_hi:",
        (L + "test_escape_index_on_boundaries_and_integers",),
    ),
    Mutant(
        "sample-hull-end", LARGESCALE,
        "x0 + 127 * sx", "x0 + 128 * sx",
        (L + "test_audit_settles_boxes_on_the_sample_hull",),
    ),
    Mutant(
        "validate-first-failure", LARGESCALE,
        "is None:\n            return False\n    return True\n",
        "is None:\n            samples = 0\n    return samples > 0\n",
        (L + "test_validate_stops_at_the_first_failing_sample",),
    ),
    Mutant(
        "box-settle-guard", LARGESCALE,
        "            if b // D > guard:\n                return None\n", "",
        (L + "test_box_settle_falls_through_past_the_guard",),
    ),
    Mutant(
        "box-settle-limit", LARGESCALE,
        "*hull, den, n_limit, e.guard,", "*hull, den, n_limit + 1, e.guard,",
        (L + "test_box_settle_stops_at_the_sampling_limit",),
    ),
    Mutant(
        "range-audit-limit", LARGESCALE,
        "*ends, L, AUDIT_STEPS, e.guard,", "*ends, L, AUDIT_STEPS + 1, e.guard,",
        (L + "test_range_audit_stops_at_the_audit_steps",),
    ),
    Mutant(
        "cover-run-count", LARGESCALE,
        "if len(cuts) > budget:", "if len(cuts) >= budget:",
        (L + "test_cover_settles_on_its_exact_piece_budget",),
    ),
    Mutant(
        "cover-half-plane-sign", LARGESCALE,
        "if f1 >= 0:", "if f1 <= 0:",
        (L + "test_cover_settles_every_box_of_the_criterion_grids",),
    ),
    Mutant(
        "cover-zero-area-keep", LARGESCALE,
        "if f1 >= 0:", "if f1 > 0:",
        (L + "test_cover_keeps_a_piece_that_only_touches_a_run",),
    ),
    Mutant(
        "no-jump-bound", LARGESCALE,
        "if yl * m <= L:", "if yl * m < L:",
        (L + "test_cover_takes_the_no_jump_bound_on_the_line",),
    ),
    Mutant(
        "log-escape-offset-sign", LARGESCALE,
        "_cover_escape_step(gen, -yh, -yl, bl, bh,", "_cover_escape_step(gen, yl, yh, bl, bh,",
        (L + "test_log_escape_pairs_the_enclosure_ends",),
    ),
    Mutant(
        "log-sweep-slice-memo", LARGESCALE,
        "if box not in logs:", "if True:",
        (L + "test_log_sweep_builds_each_log_once",),
    ),
    Mutant(
        "dp-tie-break", LARGESCALE,
        "if prev is None or ncost < prev:", "if prev is None or ncost <= prev:",
        (L + "test_ell_tie_keeps_the_state_reached_first",),
    ),
    Mutant(
        "dp-work-cap", LARGESCALE,
        "if work > MAX_DP_WORK:", "if work >= MAX_DP_WORK:",
        (L + "test_ell_search_at_the_work_cap_runs",),
    ),
    Mutant(
        "punch-level-ceil", SMALLSCALE,
        "lo, hi = lo_num[i], hi_num[i]\n            jlo = (lo - shift + q - 1) // q",
        "lo, hi = lo_num[i], hi_num[i]\n            jlo = (lo - shift) // q",
        (S + "test_avoider_fast_measure_matches_generic_intersection",),
    ),
    Mutant(
        "punch-level-floor", SMALLSCALE,
        "jhi = (hi + shift) // q\n        else:",
        "jhi = (hi + shift + q - 1) // q\n        else:",
        (S + "test_avoider_fast_measure_matches_generic_intersection",),
    ),
    Mutant(
        "walk-clip-first", SMALLSCALE,
        "if free == 0:", "if free < 0:",
        (S + "test_count_level_examples",),
    ),
    Mutant(
        "walk-clip-last", SMALLSCALE,
        "end = min(jlo, parts)", "end = jlo",
        (S + "test_count_level_examples",),
    ),
    Mutant(
        "count-level-single-touch", SMALLSCALE,
        "if jlo <= jhi:\n            c += jhi - jlo + 1", "if jlo < jhi:\n            c += jhi - jlo + 1",
        (S + "test_count_level_examples",),
    ),
    Mutant(
        "count-run-period", SMALLSCALE,
        "period = parts1 // gcd(parts1, parts)", "period = parts // gcd(parts1, parts)",
        (S + "test_count_last_two_run_spans_periods",),
    ),
    Mutant(
        "count-run-full-periods", SMALLSCALE,
        "full = y // period - x // period", "full = (y - x) // period",
        (S + "test_count_last_two_run_spans_periods",),
    ),
    Mutant(
        "map-breakpoint-count", SMALLSCALE,
        "if len(points) < 2:", "if len(points) < 1:",
        (S + "test_embed_refuses_a_map_without_two_breakpoints",),
    ),
    Mutant(
        "in-some-gap-strict-lo", INTERSECT,
        "if lo * s + h < a0 and a1 < hi * s + h:", "if lo * s + h <= a0 and a1 < hi * s + h:",
        (I + "test_gap_lemma_hull_touching_a_gap_end",),
    ),
    Mutant(
        "in-some-gap-negative-scale", INTERSECT,
        "        if s < 0:\n            lo, hi = hi, lo\n", "",
        (I + "test_in_some_gap_maps_gap_ends_by_the_sign_of_the_scale",),
    ),
    Mutant(
        "gap-lemma-hull-link", INTERSECT,
        "if a1 < b0 or b1 < a0 or _in_some_gap(", "if a1 < b0 or _in_some_gap(",
        (I + "test_gap_lemma_refuses_disjoint_hulls",),
    ),
    Mutant(
        "walk-left-first", INTERSECT,
        "if ihi[i] * dout <= ohi[i] * din:", "if ihi[i] * dout < ohi[i] * din:",
        (I + "test_walk_takes_the_left_pair_when_both_fit",),
    ),
    Mutant(
        "tilde-quarter-gap", INTERSECT,
        "min(g, lengths[-1]) / 4", "min(g, lengths[-1]) / 2",
        (I + "test_build_tilde_gap_bound",),
    ),
    Mutant(
        "fingerprint-drops-a-flag", CLI,
        'skip = {"func", "config", "out", "resume"}', 'skip = {"func", "config", "out", "resume", "m"}',
        (C + "test_resume_refuses_changed_settings",),
    ),
    Mutant(
        "fingerprint-not-compared", CLI,
        "if not os.path.exists(sidecar) or _read_text(sidecar) != fingerprint:",
        "if not os.path.exists(sidecar):",
        (C + "test_resume_refuses_changed_settings",),
    ),
    Mutant(
        "positive-int-admits-zero", CLI,
        "value is None or value < 1:", "value is None or value < 0:",
        (C + "test_positive_int_flags_refuse_zero_and_below",),
    ),
    Mutant(
        "select-frame-power-of-two", SUMSETS,
        "if p << max(-n, 0) > q << max(n, 0):", "if p << max(-n, 0) >= q << max(n, 0):",
        ("tests/test_sumsets.py::test_select_frame_examples",),
    ),
    Mutant(
        "probe-hull-gap", SUMSETS,
        "if i < 0 or m_his[i] * den_t < h_lo * den_m:", "if i < 0 or m_his[i] * den_t <= h_lo * den_m:",
        ("tests/test_sumsets.py::test_coverage_probe_hull_touching_a_member_end",),
    ),
    Mutant(
        "enclosure-bits-cap", ENCLOSURES,
        "if bits > MAX_BITS:", "if bits >= MAX_BITS:",
        ("tests/test_enclosures.py::test_bit_counts_above_the_cap_are_refused",),
    ),
)


@dataclass(frozen=True)
class Equivalent:
    name: str
    path: str
    snippet: str
    replacement: str
    reason: str


EQUIVALENT = (
    Equivalent(
        "count-level-trim", SMALLSCALE,
        "if lo > a:", "if lo >= a:",
        "at lo == a the trim adds lo - a = 0, so both forms give the same net",
    ),
    Equivalent(
        "in-some-gap-early-exit", INTERSECT,
        "if length * scale <= width:", "if length * scale < width:",
        "a gap whose image is as long as the hull cannot hold it strictly, "
        "nor can the gaps after it, which are no longer; the scan still answers False",
    ),
)


def snippet_problems() -> list[str]:
    """One line per mutant, run or known equivalent, whose snippet does
    not occur exactly once in its file, or whose replacement leaves the
    file unchanged."""
    problems = []
    for m in MUTANTS + EQUIVALENT:
        count = (ROOT / m.path).read_text().count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in {m.path}")
        elif m.snippet == m.replacement:
            problems.append(f"{m.name}: replacement equals the snippet")
    return problems


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(cwd: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    problems = snippet_problems()
    for line in problems:
        print(f"STALE     {line}")
    if problems:
        return 1

    failed = False
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_checkout(base)
        named = sorted({t for m in MUTANTS for t in m.tests})
        if _run_tests(base, named) != 0:
            print("ERROR     the named tests do not pass on the unmutated code")
            return 1
        for m in MUTANTS:
            work = Path(tmp) / m.name
            shutil.copytree(base, work)
            target = work / m.path
            target.write_text(target.read_text().replace(m.snippet, m.replacement))
            start = time.perf_counter()
            code = _run_tests(work, m.tests)
            took = time.perf_counter() - start
            # pytest exits 1 when a test failed; other codes mean it could not run
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR({code})")
            failed |= code != 1
            print(f"{verdict:<9} {m.name} in {took:.1f} s by {' '.join(m.tests)}")
            shutil.rmtree(work)
    for m in EQUIVALENT:
        print(f"{'EQUIV':<9} {m.name}: {m.reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
