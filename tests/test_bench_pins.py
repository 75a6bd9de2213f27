"""The benchmark's pinned answers of `large` and `quotient` at seed 0,
checked on every test run.

Several pinned page counts depend on which maximum family the flow in
`greene.max_family` returns, not only on its size, so a change to the flow
that returns another family fails here, not only in the benchmark.  The
workloads are built by `perfbench/workloads.py`, which reads
`perfbench/pins.json` and does not change it; each op runs once.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["large", "quotient"])
def test_pinned_answers_hold(name):
    workload = workloads.build(name, workloads.DEFAULT_SEED)
    ops = [op for op in workload.ops if op.known_failure is None]
    assert all(op.expect is not None for op in ops), "an op without a pinned answer"
    problems = {}
    for op in ops:
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op
            result = workloads.Raised(exc)
        if found := op.problems(result):
            problems[op.name] = found
    assert problems == {}
