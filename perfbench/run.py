"""erdosavoid benchmark: four workloads through the CLI and library,
end-to-end metrics from untraced runs and per-layer metrics from a
separate traced run.

    python3 perfbench/run.py --workload digit-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

A run first probes set-up time in fresh processes, then repeats the
workload until --seconds is used up, with a calibration between
repetitions that the times are scaled by.  Every repetition's artifacts
pass through the correctness gate.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run it from the root of an
erdosavoid checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

MIN_SETUP_PROBES = 5
# Times are scaled to a machine on which child.calibration() takes this long.
CALIBRATION_REFERENCE_S = 0.15
SETUP_SHARE = 0.1  # of the run spent on set-up probes, at least
MIN_TIMED_REPS = 3
# Children still running this long after --seconds are killed and their
# items fail: room for the last repetition and the probes.
DEADLINE_MARGIN_S = 45
MAX_SECONDS = 120  # so a run ends well inside three minutes


def child_env() -> dict:
    env = dict(os.environ)
    env["ERDOSAVOID_WORKERS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


class Clock:
    """Seconds left before the run's deadline, `seconds` plus the margin;
    children are killed at it."""

    def __init__(self, seconds: int):
        self.deadline = time.perf_counter() + seconds + DEADLINE_MARGIN_S

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def spawn(argv: list[str], log: Path, clock: Clock):
    """Run a child to completion; return (exit code, rusage).  The
    rusage comes from wait4, so it covers this child alone."""
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, clock.left()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def program_argv(cmd: workloads.Command) -> list[str]:
    if cmd.kind == "cli":
        return [sys.executable, "-m", "erdosavoid.cli", *cmd.argv]
    return [sys.executable, str(BENCH / "child.py"), "gap-algebra", *cmd.argv]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_report(args: list[str], log: Path, clock: Clock) -> dict:
    """Run `child.py args` and return the JSON object it prints last."""
    code, _ = spawn([sys.executable, str(BENCH / "child.py"), *args], log, clock)
    if code != 0:
        raise RuntimeError(f"child.py {args[0]} failed; see {log}")
    return json.loads(log.read_text().splitlines()[-1])


def scaled(samples: list[tuple[float, float]]) -> float:
    """Median of (time, calibration time) ratios, in reference seconds."""
    return statistics.median(t / c for t, c in samples) * CALIBRATION_REFERENCE_S


def repetition(workload: str, seed: int, expected, clock: Clock) -> dict:
    """One untraced repetition, timed from the first launch to the
    checked artifacts."""
    outdir = fresh_dir(OUT / workload / "rep")
    start = time.perf_counter()
    cmds = workloads.commands(workload, seed, outdir)
    codes, cpu, rss = [], 0.0, 0
    for i, cmd in enumerate(cmds):
        code, usage = spawn(program_argv(cmd), outdir / f"cmd{i}.log", clock)
        codes.append(code)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)  # KiB on Linux
    verdict = workloads.check(workload, cmds, codes, expected)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024, "verdict": verdict}


def traced_repetition(workload: str, seed: int, expected, clock: Clock) -> dict:
    """One repetition in a fresh process with the layer trace installed."""
    outdir = fresh_dir(OUT / workload / "traced")
    start = time.perf_counter()
    log = OUT / workload / "traced.log"
    code, _ = spawn([sys.executable, str(BENCH / "child.py"), "traced", workload,
                     "--seed", str(seed), "--outdir", str(outdir)], log, clock)
    cmds = workloads.commands(workload, seed, outdir)
    if code == 0:
        codes = json.loads(log.read_text().splitlines()[-1])["exit_codes"]
    else:
        codes = [code] * len(cmds)
    verdict = workloads.check(workload, cmds, codes, expected)
    wall = time.perf_counter() - start
    trace = json.loads((outdir / "trace.json").read_text()) if code == 0 else None
    return {"wall_s": wall, "verdict": verdict, "trace": trace}


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def layer_metrics(names, trace: dict, histogram: dict, process: dict) -> dict[str, float]:
    functions = trace["functions"]

    def stat(fn: str, key: str) -> float:
        return functions.get(fn, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    derived = {
        "cli.self_s": stat("cli.main", "self_s") + stat("cli.write_atomic", "self_s"),
        "largescale.certify_linear_escape.certified_ratio": ratio(
            stat("largescale.certify_linear_escape", "certified"),
            stat("largescale.certify_linear_escape", "calls")),
        "largescale.route_width_ratio": ratio(
            histogram.get("route.width", 0), histogram.get("certified", 0)),
        "process.import_s": trace["import_s"],
        **process,
    }
    out = {}
    for name in names:
        _, _, rest = name.partition(".")
        if name in derived:
            out[name] = derived[name]
        elif rest in histogram:
            out[name] = histogram[rest]
        else:
            fn, _, key = name.rpartition(".")
            out[name] = stat(fn, key)
    return out


# ---------------------------------------------------------------------------
# run


def source_identity() -> dict:
    """The commit, when the checkout is a git repository, and a hash of
    the sources, which identifies a checkout that is not."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def environment(workload: str, seed: int, seconds: int) -> dict:
    used = workloads.seed_used(workload)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **source_identity(),
        "workload": workload,
        "seed": seed if used else f"{seed} (unused)",
        "input_seed": workloads.input_seed(seed) if used else None,
        "sizes": workloads.SIZES[workload],
        "run_seconds": seconds,
    }


def summarize(values: list[float]) -> str:
    return (f"n={len(values)} min {min(values):.4g} median {statistics.median(values):.4g} "
            f"max {max(values):.4g}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    clock = Clock(seconds)
    env = environment(workload, seed, seconds)
    inputs = workloads.input_seed(seed)
    expected = workloads.recorded_digests(workloads.load_digests(), workload, inputs)
    fresh_dir(OUT / workload)
    lines = [f"# env {json.dumps(env, sort_keys=True)}",
             f"# digests {'recorded' if expected else 'not recorded at tiny sizes: invariants only'}"]

    # compile the sources once, so no timed process pays for it
    spawn([sys.executable, "-c", "import erdosavoid.cli"], OUT / workload / "warmup.log", clock)
    # The machine's speed drifts by tens of percent within a minute, as
    # other tenants load the host.  Each timing is therefore divided by a
    # fixed calibration computation timed right next to it.
    def calibrate() -> float:
        return child_report(["calibrate"], OUT / workload / "calibration.log",
                            clock)["calibration_s"]

    def repeat(run_once, until: float, minimum: int) -> list[dict]:
        """Repetitions between calibrations, until the next one would end
        after `until`; each is paired with the mean of the calibrations on
        either side of it."""
        out, cals, spans = [], [calibrate()], []
        while len(out) < minimum or time.perf_counter() + statistics.median(spans) <= until:
            begin = time.perf_counter()
            out.append(run_once())
            cals.append(calibrate())
            spans.append(time.perf_counter() - begin)
        for r, before, after in zip(out, cals, cals[1:]):
            r["calibration_s"] = (before + after) / 2
        return out

    start = time.perf_counter()
    setups = []
    while not trace and (len(setups) < MIN_SETUP_PROBES or
                         time.perf_counter() - start < SETUP_SHARE * seconds):
        probe = child_report(["setup", workload], OUT / workload / "setup.log", clock)
        setups.append((probe["setup_s"], probe["calibration_s"]))
    # untraced repetitions fill the run, or its first half when traced
    reps = repeat(lambda: repetition(workload, inputs, expected, clock),
                  start + (seconds / 2 if trace else seconds), 2 if trace else MIN_TIMED_REPS)
    verdicts = [r["verdict"] for r in reps]
    walls = [r["wall_s"] for r in reps]
    wall = scaled([(r["wall_s"], r["calibration_s"]) for r in reps])
    items = workloads.items_per_repetition(workload)

    traced = []
    if trace:
        traced = repeat(lambda: traced_repetition(workload, inputs, expected, clock),
                        start + seconds, 1)
        for t in traced:
            v = t["verdict"]
            if t["trace"] is None:
                v.fail("traced run failed")
            elif v.digests != verdicts[0].digests:
                v.fail("traced artifacts differ from untraced ones")
        verdicts += [t["verdict"] for t in traced]

    attempted = sum(v.items for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems = sorted({p for v in verdicts for p in v.problems})
    histogram = verdicts[0].histogram

    if trace:
        units = per_layer_units()
        process = {
            "process.cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "trace.overhead_ratio":
                scaled([(t["wall_s"], t["calibration_s"]) for t in traced]) / wall,
        }
        per_trace = [layer_metrics(units, t["trace"], histogram, process)
                     for t in traced if t["trace"] is not None]
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_trace) if per_trace else 0,
                   "unit": unit}
            for name, unit in units.items()
        }
        lines.append(f"traced repetitions: {len(per_trace)}; untraced: {len(reps)}")
        targets = json.loads((BENCH / "layers.json").read_text())
        for name, m in metrics.items():
            target = targets[name]
            mark = "*" if workload in target["on"] else " "
            lines.append(f"{mark} {name:60} {m['value']:.6g} {m['unit']}   "
                         f"moves {','.join(target['moves'])}")
    else:
        rss = [r["peak_rss_mb"] for r in reps]
        setup = scaled(setups)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items / wall, "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        lines += [
            f"wall_s       {wall:.4f} s   n={len(reps)}; unscaled {summarize(walls)}",
            f"items_per_s  {items / wall:.4f} 1/s   {items} items per repetition",
            f"setup_s      {setup:.4f} s   n={len(setups)}; unscaled "
            f"{summarize([t for t, _ in setups])}",
            f"peak_rss_mb  {statistics.median(rss):.2f} MB   median; {summarize(rss)}",
            f"calibration  {summarize([r['calibration_s'] for r in reps])} s; "
            f"reference {CALIBRATION_REFERENCE_S} s",
        ]
    lines.append(f"fail_ratio   {failed / attempted:.4g}   {failed} of {attempted} items "
                 f"in {len(verdicts)} repetitions")
    lines += [f"histogram    {k} = {v}" for k, v in sorted(histogram.items())]
    lines += [f"FAILED       {p}" for p in problems]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / workload / f"result-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({**result, "env": env, "histogram": histogram, "problems": problems,
                   "samples": {"wall_s": walls,
                               "calibration_s": [r["calibration_s"] for r in reps],
                               "setup_s": setups}}, fh, indent=1)
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workloads.WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    if not (SRC / "erdosavoid" / "cli.py").is_file():
        print(f"error: no erdosavoid sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    if args.workload:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    results = {}
    for workload in workloads.WORKLOADS:
        result, lines = run_workload(workload, args.seed, args.seconds, False)
        print(f"== {workload}")
        print("\n".join(lines), flush=True)
        results[workload] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
