"""Spans around the package's layer boundaries, recorded from outside.

`Tracer.install` replaces each boundary function by a wrapper in every
package module that binds it, so calls made between modules are seen no
matter how they were imported. Each span is (name, start, end, parent index,
op index, extra); extra holds the counts a boundary reports, such as search
nodes. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


def _page_pairs(args, kwargs, result) -> int:
    sizes: dict[int, int] = {}
    for p in args[1].page_of:
        sizes[p] = sizes.get(p, 0) + 1
    return sum(_pairs(n) for n in sizes.values())


# (module, attribute, span name, extra(args, kwargs, result) or None)
BOUNDARIES = [
    ("core", "conflict_masks", "core.conflict_masks", lambda a, k, r: _pairs(a[0].m)),
    ("core", "validate_assignment", "core.validate_assignment", _page_pairs),
    ("solver", "_solve_masks", "solver.search", lambda a, k, r: (r[1], r[2])),
    ("solver", "mixed_page_number", "solver.mixed_page_number", None),
    ("solver", "stack_number", "solver.stack_number", None),
    ("solver", "queue_number", "solver.queue_number", None),
    ("solver", "criticality", "solver.criticality", None),
    ("patterns", "has_twist", "patterns.has_twist", None),
    ("patterns", "largest_rainbow", "patterns.largest_rainbow", None),
    ("patterns", "thick_from_diamond", "patterns.thick_from_diamond", None),
    ("greene", "max_family", "greene.max_family", lambda a, k, r: a[0].m),
    ("greene", "approx_mixed_layout", "greene.approx_mixed_layout", None),
    ("greene", "diamond_witness", "greene.diamond_witness", None),
    ("greene", "ferrers", "greene.ferrers", None),
    ("quotient", "interval_partition_by_twists", "quotient.interval_partition_by_twists", None),
    ("quotient", "star_forests", "quotient.star_forests", None),
    ("quotient", "transfer_layout", "quotient.transfer_layout", None),
    ("quotient", "bounded_twist_stack_cover", "quotient.bounded_twist_stack_cover",
     lambda a, k, r: r[1]),
    ("enumeration", "find_critical", "enumeration.find_critical",
     lambda a, k, r: len(r.patterns)),
    ("enumeration", "contains_pattern", "enumeration.contains_pattern", lambda a, k, r: r),
]
STREAM = "enumeration.stream"
SOLVES = ("solver.mixed_page_number", "solver.stack_number")

# Per-layer metrics of the machine-readable result. Inclusive seconds of a
# layer that does not run on every workload are given as a share of the
# traced wall time; the seconds themselves are in the printed table.
PER_LAYER = [
    ("core.conflict_masks.calls", "count"),
    ("core.conflict_masks.s", "s"),
    ("core.conflict_masks.pairs", "count"),
    ("core.validate_assignment.calls", "count"),
    ("core.validate_assignment.share", "ratio"),
    ("core.validate_assignment.pairs", "count"),
    ("solver.search.calls", "count"),
    ("solver.search.s", "s"),
    ("solver.search.nodes", "count"),
    ("solver.search.nodes_per_s", "1/s"),
    ("solver.search.budget_hits", "count"),
    ("solver.mixed_page_number.calls", "count"),
    ("solver.mixed_page_number.share", "ratio"),
    ("solver.stack_number.calls", "count"),
    ("solver.stack_number.share", "ratio"),
    ("solver.queue_number.calls", "count"),
    ("solver.queue_number.share", "ratio"),
    ("solver.criticality.calls", "count"),
    ("solver.criticality.share", "ratio"),
    ("patterns.has_twist.calls", "count"),
    ("patterns.has_twist.share", "ratio"),
    ("patterns.largest_rainbow.calls", "count"),
    ("patterns.largest_rainbow.share", "ratio"),
    ("patterns.thick_from_diamond.share", "ratio"),
    ("greene.max_family.calls", "count"),
    ("greene.max_family.share", "ratio"),
    ("greene.max_family.elements", "count"),
    ("greene.approx_mixed_layout.calls", "count"),
    ("greene.approx_mixed_layout.share", "ratio"),
    ("greene.approx_mixed_layout.self_share", "ratio"),
    ("greene.diamond_witness.calls", "count"),
    ("greene.diamond_witness.share", "ratio"),
    ("greene.ferrers.share", "ratio"),
    ("quotient.interval_partition_by_twists.calls", "count"),
    ("quotient.interval_partition_by_twists.share", "ratio"),
    ("quotient.interval_partition_by_twists.self_share", "ratio"),
    ("quotient.star_forests.calls", "count"),
    ("quotient.star_forests.share", "ratio"),
    ("quotient.transfer_layout.calls", "count"),
    ("quotient.transfer_layout.share", "ratio"),
    ("quotient.transfer_layout.self_share", "ratio"),
    ("quotient.intra_solve.calls", "count"),
    ("quotient.intra_solve.share", "ratio"),
    ("quotient.bounded_twist_stack_cover.calls", "count"),
    ("quotient.bounded_twist_stack_cover.exact_ratio", "ratio"),
    ("enumeration.candidates", "count"),
    ("enumeration.stream.share", "ratio"),
    ("enumeration.contains_pattern.calls", "count"),
    ("enumeration.contains_pattern.share", "ratio"),
    ("enumeration.contains_pattern.prune_ratio", "ratio"),
    ("enumeration.search_per_candidate", "ratio"),
    ("enumeration.find_critical.self_share", "ratio"),
    ("enumeration.criticals", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent, self.op, None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            info = None
            if extra is not None:
                try:
                    info = extra(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # an unexpected call shape loses the count, not the call
            spans[index] = (name, start, end, parent, self.op, info)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_stream(self, fn):
        spans, stack = self.spans, self._stack

        def traced_stream(family):
            source = fn(family)
            while True:
                parent = stack[-1] if stack else -1
                start = perf_counter()
                try:
                    g = next(source)
                except StopIteration:
                    spans.append((STREAM, start, perf_counter(), parent, self.op, 0))
                    return
                spans.append((STREAM, start, perf_counter(), parent, self.op, 1))
                yield g

        return traced_stream

    def install(self) -> None:
        for module_name in {entry[0] for entry in BOUNDARIES}:
            importlib.import_module(f"mixedpages.{module_name}")
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "mixedpages" or key.startswith("mixedpages."))
        ]
        for module_name, attr, name, extra in BOUNDARIES:
            original = getattr(sys.modules[f"mixedpages.{module_name}"], attr)
            wrapper = self._wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        family = sys.modules["mixedpages.enumeration"].EnumFamily
        self._restore.append((family, "stream", family.stream))
        family.stream = self._wrap_stream(family.stream)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every per-layer figure: the PER_LAYER metrics and the seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

        def extras(name):
            return [s[5] for s in spans if s[0] == name and s[5] is not None]

        out: dict[str, float] = {}
        for _, _, name, _ in BOUNDARIES:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = incl.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["core.conflict_masks.pairs"] = sum(extras("core.conflict_masks"))
        out["core.validate_assignment.pairs"] = sum(extras("core.validate_assignment"))

        searches = [(s[2] - s[1], s[5]) for s in spans if s[0] == "solver.search"]
        finished = [(d, info) for d, info in searches if info is not None]
        nodes = sum(info[0] for _, info in finished)
        busy = sum(d for d, _ in finished)
        out["solver.search.nodes"] = nodes
        out["solver.search.nodes_per_s"] = nodes / busy if busy else 0.0
        out["solver.search.budget_hits"] = sum(1 for _, info in finished if info[1])

        out["greene.max_family.elements"] = sum(extras("greene.max_family"))

        intra = [
            s[2] - s[1] for s in spans
            if s[0] in SOLVES and s[3] >= 0 and spans[s[3]][0] == "quotient.transfer_layout"
        ]
        out["quotient.intra_solve.calls"] = len(intra)
        out["quotient.intra_solve.s"] = sum(intra)
        out["quotient.intra_solve.max_s"] = max(intra, default=0.0)
        covers = extras("quotient.bounded_twist_stack_cover")
        out["quotient.bounded_twist_stack_cover.exact_ratio"] = (
            sum(covers) / len(covers) if covers else 0.0
        )

        stream = [s for s in spans if s[0] == STREAM]
        candidates = sum(s[5] for s in stream)
        out["enumeration.candidates"] = candidates
        out["enumeration.stream.s"] = sum(s[2] - s[1] for s in stream)
        found = extras("enumeration.contains_pattern")
        out["enumeration.contains_pattern.prune_ratio"] = (
            sum(found) / len(found) if found else 0.0
        )
        in_enumeration = sum(
            1 for s in spans if s[0] == "solver.search" and self._under(s, "enumeration.find_critical")
        )
        out["enumeration.search_per_candidate"] = (
            in_enumeration / candidates if candidates else 0.0
        )
        out["enumeration.criticals"] = sum(extras("enumeration.find_critical"))

        top = sum(s[2] - s[1] for s in spans if s[3] < 0)
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.unattributed_share"] = (traced_wall - top) / traced_wall
        out["trace.spans"] = len(spans)

        for key in list(out):
            for suffix, share in ((".self_s", ".self_share"), (".s", ".share")):
                if key.endswith(suffix) and not key.startswith("trace."):
                    out[key[: -len(suffix)] + share] = out[key] / traced_wall
                    break
        return out

    def _under(self, span, name) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
