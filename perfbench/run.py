"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 28 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the workload's op list is run in passes until
`--seconds` of measuring is used up (at least one pass), and the end-to-end
metrics are printed. With `--trace 1` one untraced pass is followed by one
traced pass, whatever `--seconds` says, and the per-layer metrics are
printed. Every result is checked
outside the timed region. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters that repeat the set-up; setup_s is the median of these
# and the run's own set-up.
SETUP_PROBES = 6

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def timed_setup(name: str, seed: int, sizes=None, pins=None):
    """Import the package, build the inputs and make one warm-up call that
    is not an op; returns the workload and the seconds this took."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = workloads.build(name, seed, sizes, pins)
    workload.warmup()
    return workload, time.perf_counter() - start


class CpuPicker:
    """Keeps the main thread on the allowed CPU that currently runs a short
    probe loop fastest.

    On a shared host a co-tenant can slow one CPU for seconds at a time. A
    helper thread re-probes every `interval` seconds, also in the middle of
    long ops, and moves the main thread to the fastest CPU. The probe holds
    the interpreter lock, so the main thread is idle while a CPU is timed.
    """

    def __init__(self, interval: float = 0.2):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.interval = interval
        self.main = threading.get_native_id()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})  # the calling thread only
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i % 7
        return time.perf_counter() - start

    def pick(self) -> None:
        if len(self.cpus) < 2:
            return
        try:
            os.sched_setaffinity(self.main, {min(self.cpus, key=self._probe)})
        except OSError:
            self.cpus = []

    def _follow(self) -> None:
        while not self._stop.wait(self.interval):
            self.pick()

    def __enter__(self) -> "CpuPicker":
        self.pick()
        if len(self.cpus) >= 2:
            self._thread = threading.Thread(target=self._follow, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        if self.cpus:
            os.sched_setaffinity(self.main, self.cpus)


def run_pass(ops, tracer=None):
    """One pass over the op list: (wall seconds, per-op seconds, results)."""
    results, latencies = [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        began = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op
            result = workloads.Raised(exc)
        latencies.append(time.perf_counter() - began)
        results.append(result)
    return time.perf_counter() - start, latencies, results


class Checker:
    """Checks every pass's results. A result equal to the one the first pass
    returned gets that result's verdict; anything else is checked again."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list | None = None
        self.verdicts: list[list[str]] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.problems: dict[str, list[str]] = {}

    def check(self, results) -> None:
        verdicts = []
        for i, (op, result) in enumerate(zip(self.ops, results)):
            if self.first is not None and result == self.first[i]:
                problems = self.verdicts[i]
            else:
                problems = op.problems(result)
            verdicts.append(problems)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.unexpected += op.known_failure is None
                self.problems.setdefault(op.name, problems)
        if self.first is None:
            self.first, self.verdicts = results, verdicts


def calibration_s() -> float:
    """Seconds of a fixed pure-Python loop; shows how fast the host ran."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        import networkx

        nx_version = networkx.__version__
    except ImportError:
        nx_version = "missing"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "networkx": nx_version,
        "cpu": cpu,
        "seed": seed,
        "calibration_s": calibration_s(),
    }


def probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, checker: Checker) -> dict:
    """Passes until the next one would overrun `seconds`.

    An op's latency is its fastest over the passes, and wall_s is the sum of
    these: the time of one pass with the slowdowns that other load on the
    host imposes filtered out. The wall time of each pass is kept beside it.
    """
    walls, per_op = [], [[] for _ in workload.ops]
    while True:
        wall, latencies, results = run_pass(workload.ops)
        checker.check(results)
        del results
        walls.append(wall)
        for samples, latency in zip(per_op, latencies):
            samples.append(latency)
        if sum(walls) + statistics.median(walls) > seconds:
            break
    op_s = [min(samples) for samples in per_op]
    op_ms = [s * 1000 for s in op_s]
    return {
        "walls": walls,
        "wall_s": sum(op_s),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": (statistics.quantiles(op_ms, n=10, method="inclusive")[8]
                      if len(op_ms) > 1 else op_ms[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload, checker: Checker, label: str) -> tuple[dict, Path]:
    from tracing import Tracer

    untraced, _, results = run_pass(workload.ops)
    checker.check(results)
    del results
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, results = run_pass(workload.ops, tracer)
    finally:
        tracer.uninstall()
    checker.check(results)
    del results
    summary = tracer.summary(traced, untraced)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{label}.json"
    with path.open("w") as fh:
        json.dump({"ops": [op.name for op in workload.ops], "summary": summary,
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return summary, path


def run(name: str, seed: int, seconds: float, traced: bool, sizes=None, pins=None,
        edit=None, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object printed last. `edit` may
    change the built workload before it runs (the smoke test uses it)."""
    with CpuPicker() as picker:
        workload, setup = timed_setup(name, seed, sizes, pins)
        if edit is not None:
            edit(workload)
        checker = Checker(workload.ops)
        report: dict = {"workload": name, "seed": seed, "ops": len(workload.ops)}
        if traced:
            from tracing import PER_LAYER

            summary, path = trace(workload, checker, f"{name}-{seed}")
            report["trace_file"] = str(path.relative_to(ROOT))
            report["layers"] = summary
            metrics = {key: {"value": summary[key], "unit": unit} for key, unit in PER_LAYER}
        else:
            measured = measure(workload, seconds, checker)
            setups = [setup]
            for _ in range(probes):
                picker.pick()  # the probe process inherits the CPU
                setups.append(probe_setup(name, seed))
            measured["setup_s"] = statistics.median(setups)
            measured["setups"] = setups
            report.update(measured)
            metrics = {key: {"value": measured[key], "unit": unit} for key, unit in END_TO_END}
    report["env"] = environment(seed)
    report["fail_rate"] = checker.failed / checker.attempted
    report["problems"] = checker.problems
    report["known_failures"] = [op.name for op in workload.ops if op.known_failure]
    report["result"] = {
        "correct": checker.unexpected == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    if "layers" in report:
        print(f"{report['workload']} seed {report['seed']}: traced pass of "
              f"{report['ops']} ops; spans in {report['trace_file']}")
        for key, value in report["layers"].items():
            if value:
                print(f"  {key:48s} {value:.6g}")
    else:
        walls = report["walls"]
        print(f"{report['workload']} seed {report['seed']}: {len(walls)} passes of "
              f"{report['ops']} ops, {min(walls):.3f} to {max(walls):.3f} s each")
        for key, unit in END_TO_END:
            print(f"  {key:12s} {report[key]:.6g} {unit}")
    print(f"  {'fail_rate':12s} {report['fail_rate']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} ops)")
    known = report["known_failures"]
    for op_name, problems in report["problems"].items():
        label = "known failure" if op_name in known else "FAILED"
        print(f"  {label} {op_name}: {'; '.join(problems)}")
    print("env " + json.dumps(report["env"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.FULL))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "mixedpages" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, setup = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup}))
        return 0
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
