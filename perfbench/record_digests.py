"""Record the sha256 of every workload artifact into digests.json.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_digests.py

Seeded workloads are recorded for input seeds 0..RECORDED_SEEDS-1;
construct-probe does not use its seed and is recorded once.  A
repetition that fails the invariants is not recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    table = {"recorded_at": run.source_identity()}
    for workload in workloads.WORKLOADS:
        seeds = range(workloads.RECORDED_SEEDS) if workloads.seed_used(workload) else [0]
        entry = {"sizes": workloads.SIZES[workload], "seeds": {}}
        for seed in seeds:
            verdict = run.repetition(workload, seed, None, run.Clock(0))["verdict"]
            if verdict.failed:
                print(f"{workload} seed {seed}: {verdict.problems}", file=sys.stderr)
                return 1
            key = str(seed) if workloads.seed_used(workload) else "any"
            entry["seeds"][key] = verdict.digests
        table[workload] = entry
        print(f"{workload}: {len(entry['seeds'])} seeds", flush=True)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
