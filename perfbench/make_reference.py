"""Write perfbench/reference.json: the outputs of the first calls of every
workload at full size and seed 0, against which run.py checks a seed-0 run.

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter the package's results, and
say so in the change; a speed-up must pass against the stored outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads

# calls stored per workload: more than a 20-second run makes at the seed code
CALLS = {"mc-dense": 10, "pvalue-matrix": 4, "edgelist-cli": 9}


def main() -> int:
    npt = workloads.import_package()
    here = Path(__file__).resolve().parent
    reference = {}
    for name, count in CALLS.items():
        workload = workloads.WORKLOADS[name]("full")
        workdir = here / "_work" / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            workload.make_inputs(npt, workdir, 0)
            workload.load(npt, workdir, 0)
            calls = [workload.warm_up()] + [workload.run(i) for i in range(count)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for op in calls:
            if op.output is None or workload.invariants(op):
                raise RuntimeError(f"{name} call {op.index} failed its checks")
        reference[name] = {str(op.index): op.output for op in calls}
        print(f"{name}: {len(calls)} calls stored", file=sys.stderr)
    (here / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
