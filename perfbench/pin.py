"""Write pins.json: the answer of every op of every workload at the default
seed, as the current source computes it, and how each failing op failed.

    python3 perfbench/pin.py

Run it only on the commit whose answers are the reference. A failure pinned
here still counts as a failed op, but it does not make a run incorrect.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    pins = {"answers": {}, "failures": {}}
    for name in workloads.FULL:
        workload, _ = run.timed_setup(name, workloads.DEFAULT_SEED, pins={})
        _, _, results = run.run_pass(workload.ops)
        answers = pins["answers"][name] = {}
        failures = pins["failures"][name] = {}
        for op, result in zip(workload.ops, results):
            problems = op.problems(result)
            if problems:
                failures[op.name] = "; ".join(problems)
                print(f"failed {name}/{op.name}: {failures[op.name]}", file=sys.stderr)
            else:
                answers[op.name] = op.value(result)
        print(f"{name}: pinned {len(answers)} answers and {len(failures)} failures",
              file=sys.stderr)
    workloads.PINS_FILE.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
