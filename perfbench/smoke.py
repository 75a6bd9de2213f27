"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on the TINY sizes and checks that
each run emits exactly the metrics BENCHMARK.json lists for its mode, with
their units, as finite numbers, and that a deliberately wrong expected answer
raises the fail rate above zero and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads


def check_metrics(report: dict, wanted: list[dict], positive: bool) -> None:
    label = f"{report['workload']} ({'traced' if 'layers' in report else 'untraced'})"
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1, label
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    want = {metric["name"]: metric["unit"] for metric in wanted}
    assert got == want, f"{label}: metrics differ: {sorted(set(got) ^ set(want))}"
    for key, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (label, key)
        assert value > 0 or not positive, f"{label}: {key} is {value}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.FULL:
        untraced = run.run(name, 0, 0.2, False, sizes=workloads.TINY, pins={}, probes=0)
        check_metrics(untraced, spec["end_to_end"], positive=True)
        assert untraced["result"]["correct"], (name, untraced["problems"])
        traced = run.run(name, 0, 0.2, True, sizes=workloads.TINY, pins={})
        check_metrics(traced, spec["per_layer"], positive=False)
        print(f"{name}: metrics ok, {untraced['result']['failed']} of "
              f"{untraced['result']['attempted']} tiny ops failed")

        def spoil(workload):
            workload.ops[0].expect = "a wrong answer"

        spoiled = run.run(name, 0, 0.2, False, sizes=workloads.TINY, pins={}, edit=spoil,
                          probes=0)
        result = spoiled["result"]
        assert spoiled["fail_rate"] > 0 and not result["correct"], name
        print(f"{name}: a wrong expected answer fails the run")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
