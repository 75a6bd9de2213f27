"""Command-line frontend: solving, detection, generation, layout transfer,
enumeration, rendering, and verification.

Exit codes: 0 ok/feasible, 1 infeasible/violation, 2 unknown/budget,
3 error (malformed input, bad arguments or a failed internal check).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import enumeration, greene, quotient, solver
from .constructions import FAMILIES
from .core import (
    GridMatching,
    OrderedGraph,
    PageAssignment,
    PageKind,
    PageSpec,
    check_coverage,
    dump_assignment,
    dump_olg,
    dump_perm,
    grid_to_graph,
    parse_assignment,
    parse_olg,
    parse_perm,
    to_grid,
    validate_assignment,
)
from .errors import (
    BadEdgeIdError,
    BadParamsError,
    BudgetExceededError,
    InvalidInputError,
    MixedPagesError,
    SizeLimitError,
)
from .patterns import (
    DEFAULT_SEARCH_BUDGET,
    PatternWitness,
    ids_out_of_range,
    largest_diamond,
    largest_rainbow,
    largest_square_thick,
    largest_thick,
    largest_twist,
    witness_violations,
)

OK, INFEASIBLE, UNKNOWN, ERROR = 0, 1, 2, 3

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def load_graph(path: str) -> OrderedGraph:
    text = read_input(path)
    if text.lstrip().startswith("perm:"):
        return grid_to_graph(parse_perm(text))
    return parse_olg(text)


def load_grid(path: str) -> GridMatching:
    text = read_input(path)
    if text.lstrip().startswith("perm:"):
        return parse_perm(text)
    return to_grid(parse_olg(text))


# Rendering


def render_grid(grid: GridMatching, witness: PatternWitness | None = None) -> str:
    """ASCII grid, highest row on top; witness points drawn as '*'."""
    m = grid.m
    marked = set(witness.edges) if witness else set()
    lines = []
    for y in range(m, 0, -1):
        row = []
        for x in range(1, m + 1):
            if grid.pi[x - 1] == y:
                row.append("*" if x - 1 in marked else "#")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def render_grid_svg(grid: GridMatching, witness: PatternWitness | None = None) -> str:
    m = grid.m
    cell = 24
    size = cell * (m + 1)
    marked = set(witness.edges) if witness else set()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for i in range(1, m + 1):
        c = i * cell
        parts.append(
            f'<line x1="{c}" y1="{cell}" x2="{c}" y2="{m * cell}" stroke="#ddd"/>'
        )
        parts.append(
            f'<line x1="{cell}" y1="{c}" x2="{m * cell}" y2="{c}" stroke="#ddd"/>'
        )
    for x, y in grid.points():
        cx, cy = x * cell, (m + 1 - y) * cell
        color = "#d62728" if x - 1 in marked else "#1f77b4"
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="6" fill="{color}"/>')
    parts.append("</svg>")
    return "".join(parts) + "\n"


def render_arcs(g: OrderedGraph, assignment: PageAssignment | None = None) -> str:
    """Arc diagram as SVG: vertices on a line, semicircular arcs, one color
    per page, stacks solid and queues dashed."""
    step = 30
    margin = 20
    width = margin * 2 + step * max(g.n - 1, 0)
    height = margin + step * max((v - u for u, v in g.edges), default=1) // 2 + 40
    base = height - 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for e, (u, v) in enumerate(g.edges):
        x1 = margin + u * step
        x2 = margin + v * step
        r = (x2 - x1) / 2
        if assignment is not None:
            page = assignment.page_of[e]
            color = PALETTE[page % len(PALETTE)]
            dash = "" if assignment.spec.kinds[page] is PageKind.STACK else ' stroke-dasharray="6 4"'
        else:
            color, dash = "#333333", ""
        parts.append(
            f'<path d="M {x1} {base} A {r} {r} 0 0 1 {x2} {base}" '
            f'fill="none" stroke="{color}" stroke-width="2"{dash}/>'
        )
    for v in range(g.n):
        x = margin + v * step
        parts.append(f'<circle cx="{x}" cy="{base}" r="3" fill="#000"/>')
        parts.append(
            f'<text x="{x}" y="{base + 14}" font-size="10" text-anchor="middle">{v}</text>'
        )
    parts.append("</svg>")
    return "".join(parts) + "\n"


# Subcommands


def _refuse(args, names, why: str) -> None:
    """Raise InvalidInputError if any of the options `names` is given: the
    path `why` names never reads them."""
    given = [
        "--" + name.replace("_", "-")
        for name in names
        if getattr(args, name) is not None and getattr(args, name) is not False
    ]
    if given:
        raise InvalidInputError(f"{' and '.join(given)} not read {why}")


def _or_default(value, default):
    return default if value is None else value


def cmd_solve(args) -> int:
    """One outcome per run, with exit code 0, 1 or 2: a layout (feasible),
    none (infeasible, --spec only) or a budget hit (unknown). With --json it
    is one JSON object: the task's value (the spec, or the page number or
    null), "status" and the layout or null."""
    if args.qn:
        _refuse(args, ("budget",), "by --qn, which runs no search")
    budget = _or_default(args.budget, solver.DEFAULT_BUDGET)
    g = load_graph(args.input)
    if args.spec is not None:
        try:
            spec = PageSpec.from_string(args.spec)
        except ValueError:
            raise MixedPagesError(f"bad page spec {args.spec!r}") from None
        res = solver.feasible(g, spec, budget)
        task, value, assignment, status = "spec", args.spec, res.assignment, res.status
    else:
        task = "mn" if args.mn else "sn" if args.sn else "qn"
        try:
            if args.mn:
                value, assignment = solver.mixed_page_number(g, budget)
            elif args.sn:
                value, assignment = solver.stack_number(g, budget)
            else:
                value, assignment = solver.queue_number(g)
            status = "feasible"
        except BudgetExceededError:
            value, assignment, status = None, None, "unknown"
    if args.json:
        layout = None if assignment is None else json.loads(dump_assignment(assignment))
        print(json.dumps({task: value, "status": status, "assignment": layout}))
    elif status == "infeasible":
        print("infeasible")
    elif status == "unknown":
        print("unknown (budget exceeded)")
    else:
        if task != "spec":
            print(f"{task} = {value}")
        print(dump_assignment(assignment))
    return {"feasible": OK, "infeasible": INFEASIBLE, "unknown": UNKNOWN}[status]


def cmd_detect(args) -> int:
    if args.kind != "thick":
        _refuse(args, ("t",), f"by --kind {args.kind}")
    if args.kind != "diamond":
        _refuse(args, ("exact",), f"by --kind {args.kind}")
    if not args.exact:
        _refuse(args, ("budget",), f"by --kind {args.kind}, which runs no search")
    if args.kind == "diamond":
        host = load_grid(args.input)
        budget = _or_default(args.budget, DEFAULT_SEARCH_BUDGET)
        w = largest_diamond(host, exact=args.exact, budget=budget)
    else:
        host = load_graph(args.input)
        if args.kind == "twist":
            w = largest_twist(host)
        elif args.kind == "rainbow":
            w = largest_rainbow(host)
        elif args.t is not None:
            w = largest_thick(host, args.t)
        else:
            w = largest_square_thick(host)
    if args.json:
        print(w.to_json())
    else:
        print(f"{w.kind.value}: k = {w.k}, t = {w.t}, edges = {list(w.edges)}")
    return OK


def cmd_ferrers(args) -> int:
    grid = load_grid(args.input)
    diagram = greene.ferrers(grid)
    if args.json:
        print(
            json.dumps(
                {
                    "rows": list(diagram.rows),
                    "c": list(diagram.c),
                    "a": list(diagram.a),
                    "square": diagram.square,
                }
            )
        )
    else:
        print(diagram.ascii())
    return OK


def cmd_approx(args) -> int:
    grid = load_grid(args.input)
    assignment = greene.approx_mixed_layout(grid)
    print(dump_assignment(assignment))
    return OK


def cmd_gen(args) -> int:
    params = {
        key: getattr(args, key)
        for key in ("k", "t", "s", "q", "n", "r")
        if getattr(args, key) is not None
    }
    family = FAMILIES[args.family]
    try:
        bound = inspect.signature(family).bind(**params)
    except TypeError as exc:
        raise BadParamsError(f"gen {args.family}: {exc}") from None
    obj = family(*bound.args, **bound.kwargs)
    if isinstance(obj, GridMatching):
        sys.stdout.write(dump_perm(obj) if not args.olg else dump_olg(grid_to_graph(obj)))
    else:
        sys.stdout.write(dump_olg(obj))
    return OK


def cmd_layout(args) -> int:
    g = load_graph(args.input)
    assignment, reports = quotient.iterated_quotient_layout_detailed(
        g, args.k, budget=args.budget
    )
    print(dump_assignment(assignment))
    for i, rep in enumerate(reports):
        print(
            f"level {len(reports) - i}: pages={rep.pages_used} ell={rep.ell} "
            f"m_intra={rep.m_intra} bound={rep.bound:.1f} "
            f"branches={sorted(rep.branches)}"
        )
    return OK


def _add_mode(p) -> None:
    """The options of a criticality mode: --k, or --s and --q."""
    for name in ("--k", "--s", "--q"):
        p.add_argument(name, type=int)


def _mode(args) -> tuple:
    """The mode of `_add_mode`'s options; `solver.mode_specs` checks it."""
    if args.k is None:
        return ("sq", args.s, args.q)
    _refuse(args, ("s", "q"), "with --k")
    return ("k", args.k)


def cmd_critical(args) -> int:
    mode = _mode(args)
    g = load_graph(args.input)
    verdict = solver.criticality(g, mode, args.budget)
    print(("critical" if verdict.critical else "not critical") + f": {verdict.reason}")
    return OK if verdict.critical else INFEASIBLE


def cmd_enumerate_critical(args) -> int:
    if args.matchings or args.conjecture:
        _refuse(args, ("max_edges", "max_grid"), "by the matchings family")
    else:
        _refuse(args, ("max_m",), "by the separated family")
    max_m = _or_default(args.max_m, 5)
    if args.conjecture:
        _refuse(
            args,
            ("k", "s", "q", "separated", "checkpoint", "out", "jobs", "progress"),
            "by --conjecture",
        )
        report = enumeration.conjecture_report(max_m, args.budget)
        summary = {
            key: {
                "count": report[key]["count"],
                "conjectured": report[key]["conjectured"],
                "matches": report[key]["matches"],
                "consistent": report[key]["consistent"],
            }
            for key in ("k1", "sq11")
        }
        print(json.dumps({"max_m": report["max_m"], **summary}))
        return OK
    mode = _mode(args)
    if args.matchings:
        family = enumeration.EnumFamily("matchings", max_m)
    else:
        grid = _or_default(args.max_grid, 5)
        family = enumeration.EnumFamily(
            "separated", _or_default(args.max_edges, 8), grid, grid
        )
    result = enumeration.find_critical(
        family,
        mode,
        budget=args.budget,
        checkpoint=args.checkpoint,
        progress=args.progress,
        jobs=_or_default(args.jobs, 1),
    )
    print(json.dumps(result.to_manifest()))
    if args.out:
        with open(args.out, "w") as fh:
            for p in result.patterns:
                fh.write(dump_olg(p))
    else:
        for p in result.patterns:
            sys.stdout.write(dump_olg(p))
    return OK


def cmd_render(args) -> int:
    if args.arcs:
        _refuse(args, ("witness", "svg"), "by --arcs")
        g = load_graph(args.input)
        assignment = parse_assignment(read_input(args.assignment)) if args.assignment else None
        if assignment is not None:
            check_coverage(g, assignment)
        sys.stdout.write(render_arcs(g, assignment))
    else:
        _refuse(args, ("assignment",), "by the grid rendering")
        witness = PatternWitness.from_json(read_input(args.witness)) if args.witness else None
        grid = load_grid(args.input)
        if witness is not None and ids_out_of_range(witness, grid.m):
            raise BadEdgeIdError(f"witness edge id out of range: the grid has {grid.m} edges")
        if args.svg:
            sys.stdout.write(render_grid_svg(grid, witness))
        else:
            sys.stdout.write(render_grid(grid, witness))
    return OK


def cmd_verify(args) -> int:
    if not (args.assignment or args.witness):
        raise InvalidInputError("nothing to verify: give --assignment or --witness")
    g = load_graph(args.input)
    failures = []
    if args.assignment:
        assignment = parse_assignment(read_input(args.assignment))
        failures.extend(
            f"page violation: {v}" for v in validate_assignment(g, assignment)
        )
    if args.witness:
        witness = PatternWitness.from_json(read_input(args.witness))
        host = to_grid(g) if witness.kind.value == "diamond" else g
        failures.extend(witness_violations(host, witness))
    for f in failures:
        print(f)
    print("ok" if not failures else f"{len(failures)} violations")
    return OK if not failures else INFEASIBLE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixedpages",
        description="Stack/queue/mixed page numbers of ordered graphs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="exact feasibility and page numbers")
    p.add_argument("input")
    task = p.add_mutually_exclusive_group(required=True)
    task.add_argument("--spec", help="page spec such as SSQ")
    task.add_argument("--mn", action="store_true",
                      help="mixed page number; the count never depends on --budget, but the "
                      "split shown is the first laid out within it, most stacks first")
    task.add_argument("--sn", action="store_true")
    task.add_argument("--qn", action="store_true")
    p.add_argument("--budget", type=int, help=f"search nodes (default {solver.DEFAULT_BUDGET})")
    p.add_argument("--json", action="store_true",
                   help='one JSON object with "status" feasible, infeasible or unknown')
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("detect", help="largest twist/rainbow/diamond/thick pattern")
    p.add_argument("input")
    p.add_argument("--kind", choices=["twist", "rainbow", "diamond", "thick"], required=True)
    p.add_argument("--t", type=int, help="thickness (--kind thick)")
    p.add_argument("--exact", action="store_true", help="exact search (--kind diamond)")
    p.add_argument("--budget", type=int,
                   help=f"search nodes of --kind diamond --exact (default {DEFAULT_SEARCH_BUDGET})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("ferrers", help="Greene/Ferrers diagram of a separated matching")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ferrers)

    p = sub.add_parser("approx", help="2-approximate mixed layout from the Ferrers square")
    p.add_argument("input")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("gen", help="generate a named construction")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--olg", action="store_true", help="emit .olg even for grid families")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("layout", help="lay out a matching via iterated quotients")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=solver.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("critical", help="check criticality of an input graph")
    p.add_argument("input")
    _add_mode(p)
    p.add_argument("--budget", type=int, default=solver.DEFAULT_BUDGET,
                   help="search nodes of one verdict (the whole graph, or one deletion), "
                   "summed over every split and round of the mode "
                   f"(default {solver.DEFAULT_BUDGET})")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("enumerate-critical", help="mine critical patterns")
    family = p.add_mutually_exclusive_group()
    family.add_argument("--separated", action="store_true")
    family.add_argument("--matchings", action="store_true")
    _add_mode(p)
    p.add_argument("--max-grid", type=int, help="separated family (default 5)")
    p.add_argument("--max-edges", type=int, help="separated family (default 8)")
    p.add_argument("--max-m", type=int, help="matchings family (default 5)")
    p.add_argument("--budget", type=int, default=solver.DEFAULT_BUDGET,
                   help="search nodes of one candidate's verdict, summed over every split "
                   f"and round of the mode (default {solver.DEFAULT_BUDGET})")
    p.add_argument("--checkpoint")
    p.add_argument("--out")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--conjecture", action="store_true",
                   help="report matching critical counts against 8 and 12")
    p.add_argument("--jobs", type=int, help="worker processes (default 1)")
    p.set_defaults(func=cmd_enumerate_critical)

    p = sub.add_parser("render", help="render a grid or arc diagram")
    p.add_argument("input")
    style = p.add_mutually_exclusive_group()
    style.add_argument("--grid", action="store_true")
    style.add_argument("--arcs", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--witness")
    p.add_argument("--assignment")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="re-check an assignment or witness file")
    p.add_argument("input")
    p.add_argument("--assignment")
    p.add_argument("--witness")
    p.set_defaults(func=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on bad arguments
        return ERROR if exc.code else OK
    try:
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise InvalidInputError(f"budget must be at least 0, got {args.budget}")
        return args.func(args)
    except BudgetExceededError:
        print("unknown (budget exceeded)")
        return UNKNOWN
    except SizeLimitError as exc:
        # A bounded pattern search (the exact diamond, or `has_twist` in a
        # layout) says on stderr which one ran out.
        print(f"unknown (budget exceeded): {exc}", file=sys.stderr)
        return UNKNOWN
    except MixedPagesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
