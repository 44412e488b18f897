"""Child-process side of the benchmark.

    child.py setup <workload>
        time the calibration, then, in this still fresh process,
        `import erdosavoid` plus building the workload's fixed inputs;
        print {"setup_s": ..., "calibration_s": ...}.
    child.py calibrate
        time the calibration; print {"calibration_s": ...}.
    child.py gap-algebra --seed N --out PATH
        run the gap-algebra library pipeline and write its CSV artifact.
    child.py traced <workload> --seed N --outdir DIR
        run one repetition in this process with the layer trace
        installed; write DIR/trace.json and print the exit codes.

Only the standard library is imported before the timed import.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads


def calibration() -> float:
    """Time a fixed pure-Python computation that never touches erdosavoid
    (exact rationals, dicts, sorting): the machine's speed right now."""
    rng = random.Random(7)
    start = time.perf_counter()
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(30000):
        a = Fraction(rng.randrange(1, 10**6), 1 << rng.randrange(0, 12))
        acc = (acc + a) % 3
        counts[i % 257] = counts.get(i % 257, 0) + a.numerator % 97
    sorted(counts.values())
    return time.perf_counter() - start


def _setup(args) -> int:
    # calibrate first, so nothing erdosavoid leaves in the process can
    # move the divisor
    calibration_s = calibration()
    start = time.perf_counter()
    workloads.build_fixed_inputs(args.workload)
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s}))
    return 0


def _calibrate(args) -> int:
    print(json.dumps({"calibration_s": calibration()}))
    return 0


def _gap_algebra(args) -> int:
    rows = workloads.gap_algebra(args.seed, workloads.GAP_CHECKS)
    workloads.write_gap_algebra(rows, Path(args.out))
    return 0


def _traced(args) -> int:
    start = time.perf_counter()
    import erdosavoid.cli

    import_s = time.perf_counter() - start
    from layertrace import Tracer

    boundary = {
        "digit-sweep": "largescale.certify_linear_escape",
        "frame-certify": "sumsets.FrameCertifier.certify",
    }.get(args.workload)
    tracer = Tracer(item_boundary=boundary)
    tracer.install()
    exit_codes = []
    try:
        for i, cmd in enumerate(workloads.commands(args.workload, args.seed, Path(args.outdir))):
            if cmd.kind == "cli":
                if boundary is None:
                    tracer.set_item(i)
                exit_codes.append(erdosavoid.cli.main(cmd.argv))
            else:
                rows = workloads.gap_algebra(args.seed, workloads.GAP_CHECKS,
                                             on_item=tracer.set_item)
                workloads.write_gap_algebra(rows, cmd.artifact)
                exit_codes.append(0)
    finally:
        tracer.uninstall()
    with open(Path(args.outdir) / "trace.json", "w") as fh:
        json.dump({"import_s": import_s, **tracer.to_json()}, fh)
    print(json.dumps({"exit_codes": exit_codes}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("workload", choices=workloads.WORKLOADS)
    s.set_defaults(func=_setup)
    sub.add_parser("calibrate").set_defaults(func=_calibrate)
    g = sub.add_parser("gap-algebra")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_gap_algebra)
    t = sub.add_parser("traced")
    t.add_argument("workload", choices=workloads.WORKLOADS)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--outdir", required=True)
    t.set_defaults(func=_traced)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
