"""Record the reference placements that ops at the default seed must return.

    python3 bench/record_reference.py

Rewrites ``reference.json`` from the library in this checkout. Run it only
when a change to the library is meant to change placements.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if run.load_library() is None:
        print(f"error: placement_opt sources not found under {run.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    placements = {}
    for name, cls in WORKLOADS.items():
        workload = cls(run.DEFAULT_SEED, run.OUT)
        recorded = []
        for item in workload.build_pool():
            output = workload.collect(item, workload.run(item))
            problems = workload.check(item, output)
            if problems:
                print(f"error: {name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            recorded.append(workload.placements(output))
        if any(p is not None for p in recorded):
            placements[name] = recorded
    document = {"seed": run.DEFAULT_SEED, "placements": placements}
    run.REFERENCE.write_text(json.dumps(document) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
