import json
import xml.etree.ElementTree as ET

import pytest

from conftest import delete_edge, parse_grid_ascii
from mixedpages.cli import main, render_arcs, render_grid, render_grid_svg
from mixedpages.core import (
    GridMatching,
    PageAssignment,
    PageSpec,
    build_graph,
    dump_assignment,
    dump_olg,
    dump_perm,
    grid_to_graph,
)
from mixedpages.constructions import gen_diamond
from mixedpages.patterns import largest_diamond


@pytest.fixture
def twist_file(tmp_path):
    path = tmp_path / "twist.olg"
    path.write_text("4 2\n0 2\n1 3\n")
    return str(path)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.perm"
    path.write_text("perm: 3 4 1 2\n")
    return str(path)


class TestRenderers:
    def test_grid_round_trip(self):
        grid = GridMatching((2, 1))
        text = render_grid(grid)
        assert text == "#.\n.#\n"
        assert parse_grid_ascii(text).pi == grid.pi

    def test_grid_round_trip_bigger(self):
        grid = gen_diamond(3)
        assert parse_grid_ascii(render_grid(grid)).pi == grid.pi

    def test_grid_witness_highlight(self):
        grid = gen_diamond(2)
        w = largest_diamond(grid)
        assert render_grid(grid, w).count("*") == 4

    def test_grid_svg_well_formed(self):
        svg = render_grid_svg(gen_diamond(2))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_arcs_svg_well_formed(self):
        g = grid_to_graph(gen_diamond(2))
        _, a = __import__("mixedpages.solver", fromlist=["solver"]).mixed_page_number(g)
        svg = render_arcs(g, a)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert svg.count("<path") == g.m

    def test_arcs_empty_graph(self):
        svg = render_arcs(build_graph(0, []))
        assert ET.fromstring(svg) is not None


class TestCommands:
    def test_solve_spec_feasible(self, capsys, twist_file):
        assert main(["solve", twist_file, "--spec", "Q"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["spec"] == ["Q"]

    def test_solve_spec_infeasible_exit_code(self, capsys, twist_file):
        assert main(["solve", twist_file, "--spec", "S"]) == 1

    def test_solve_mn_json(self, capsys, diamond_file):
        assert main(["solve", diamond_file, "--mn", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mn"] == 2

    @pytest.mark.parametrize("args, code, value, status", [
        (["{g}", "--spec", "Q"], 0, "Q", "feasible"),
        (["{g}", "--spec", "S"], 1, "S", "infeasible"),
        (["{c}", "--spec", "SS", "--budget", "3"], 2, "SS", "unknown"),
        (["{g}", "--mn"], 0, 1, "feasible"),
        (["{k}", "--mn", "--budget", "3"], 2, None, "unknown"),
        (["{g}", "--sn"], 0, 2, "feasible"),
        (["{c}", "--sn", "--budget", "3"], 2, None, "unknown"),
        (["{g}", "--qn"], 0, 1, "feasible"),
    ])
    def test_solve_json_on_every_outcome(self, capsys, tmp_path, twist_file, args, code, value, status):
        from mixedpages.constructions import gen_2critical, gen_k_critical

        critical = tmp_path / "c.olg"
        critical.write_text(dump_olg(gen_2critical(4)))
        # Three pages are not enough and a budget of 3 decides none of the
        # mixed splits of three pages, so --mn stays unknown.
        four = tmp_path / "k.olg"
        four.write_text(dump_olg(gen_k_critical(3)))
        argv = ["solve", *(a.format(g=twist_file, c=critical, k=four) for a in args)]
        assert main([*argv, "--json"]) == code
        data = json.loads(capsys.readouterr().out)
        task = "spec" if "--spec" in args else args[1][2:]
        assert data == {task: value, "status": status, "assignment": data["assignment"]}
        assert (data["assignment"] is None) == (status != "feasible")
        assert main(argv) == code  # without --json: the text output of each outcome
        text = capsys.readouterr().out
        if status != "feasible":
            assert text == ("infeasible\n" if status == "infeasible" else "unknown (budget exceeded)\n")

    def test_solve_budget_unknown_exit_code(self, capsys, tmp_path):
        from mixedpages.constructions import gen_k_critical

        path = tmp_path / "g.olg"
        path.write_text(dump_olg(gen_k_critical(3)))
        assert main(["solve", str(path), "--mn", "--budget", "3"]) == 2

    def test_detect_twist(self, capsys, twist_file):
        assert main(["detect", twist_file, "--kind", "twist", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k"] == 2

    def test_detect_diamond_exact(self, capsys, diamond_file):
        assert main(["detect", diamond_file, "--kind", "diamond", "--exact", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 2

    # The id keeps the case's name from when twists and thick patterns were
    # cases here too (kind0..kind2).
    @pytest.mark.parametrize("kind", [pytest.param(["diamond", "--exact"], id="kind3")])
    def test_detect_out_of_budget_is_unknown(self, capsys, tmp_path, kind):
        """Only the exact diamond search reads a budget; twists and thick
        patterns refuse `--budget` (`test_unread_options_exit_3`)."""
        from mixedpages.constructions import gen_tight_2k

        path = tmp_path / "tight.perm"
        path.write_text(dump_perm(gen_tight_2k(2)))
        assert main(["detect", str(path), "--kind", *kind, "--budget", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unknown (budget exceeded)" in out.err and "exceeded 1 nodes" in out.err

    def test_detect_thick_on_1200_disjoint_edges(self, capsys, tmp_path):
        path = tmp_path / "disjoint.olg"
        path.write_text(dump_olg(build_graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])))
        assert main(["detect", str(path), "--kind", "thick", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 1

    def test_ferrers_json(self, capsys, diamond_file):
        assert main(["ferrers", diamond_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"rows": [2, 2], "c": [2, 4], "a": [2, 4], "square": 2}

    def test_approx_valid_json(self, capsys, diamond_file):
        assert main(["approx", diamond_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["pages"]) == 4

    def test_gen_and_solve_pipeline(self, capsys, tmp_path):
        assert main(["gen", "tight2k", "--k", "1"]) == 0
        perm_text = capsys.readouterr().out
        path = tmp_path / "gen.perm"
        path.write_text(perm_text)
        assert main(["solve", str(path), "--mn", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["mn"] == 2

    def test_gen_tight2k_3_piped_into_solve(self, capsys, monkeypatch):
        """`mixedpages gen tight2k --k 3 | mixedpages solve - --mn --json`"""
        import io

        assert main(["gen", "tight2k", "--k", "3"]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert main(["solve", "-", "--mn", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"mn": 6' in out
        assert json.loads(out)["assignment"]["spec"] == list("SSSQQQ")

    def test_gen_critical_family(self, capsys):
        assert main(["gen", "stack", "--s", "2", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("10 5\n")

    def test_layout_via_quotient(self, capsys, tmp_path):
        from conftest import rand_matching
        import random

        g = rand_matching(random.Random(7), 12)
        path = tmp_path / "m.olg"
        path.write_text(dump_olg(g))
        assert main(["layout", str(path), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "level" in out or json.loads(out.splitlines()[0])["pages"]

    def test_enumerate_critical_cli(self, capsys):
        assert main([
            "enumerate-critical", "--separated", "--k", "1",
            "--max-grid", "3", "--max-edges", "5",
        ]) == 0
        out = capsys.readouterr().out
        manifest = json.loads(out.splitlines()[0])
        assert manifest["count"] == 9

    def test_enumerate_critical_at_zero_pages(self, capsys):
        assert main(["enumerate-critical", "--matchings", "--max-m", "3", "--k", "0"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["count"] == 1

    def test_render_grid_cli(self, capsys, diamond_file):
        assert main(["render", diamond_file, "--grid"]) == 0
        assert parse_grid_ascii(capsys.readouterr().out).pi == (3, 4, 1, 2)

    @pytest.mark.parametrize("pages, why", [
        ([0, 3], "edge 1 mapped to missing page 3"),
        ([0], "assignment covers 1 edges, graph has 2"),
        ([0, -1], "edge 1 mapped to missing page -1"),
    ])
    def test_render_arcs_refuses_an_assignment_that_misses_the_graph(
        self, capsys, tmp_path, pages, why
    ):
        """The coverage check of `verify`: an exit 3 with one error line,
        not a traceback or the style of another page."""
        graph = tmp_path / "a.olg"
        graph.write_text("4 2\n0 1\n2 3\n")
        layout = tmp_path / "a.json"
        layout.write_text(json.dumps({"spec": ["S"], "pages": pages}))
        assert main(["render", str(graph), "--arcs", "--assignment", str(layout)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {why}\n"
        layout.write_text(json.dumps({"spec": ["S"], "pages": [0, 0]}))
        assert main(["render", str(graph), "--arcs", "--assignment", str(layout)]) == 0
        assert ET.fromstring(capsys.readouterr().out) is not None

    @pytest.mark.parametrize("edge", [99, -3, 4])
    @pytest.mark.parametrize("svg", [[], ["--svg"]])
    def test_render_grid_refuses_witness_ids_out_of_range(
        self, capsys, tmp_path, diamond_file, edge, svg
    ):
        """The id check of `verify`, which says "edge id out of range"."""
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({"kind": "twist", "k": 1, "t": 1, "groups": [[edge]]}))
        assert main(["verify", diamond_file, "--witness", str(wfile)]) == 1
        assert "edge id out of range" in capsys.readouterr().out
        assert main(["render", diamond_file, "--grid", *svg, "--witness", str(wfile)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness edge id out of range: the grid has 4 edges\n"

    def test_verify_assignment_ok_and_bad(self, capsys, tmp_path, twist_file):
        good = tmp_path / "good.json"
        good.write_text(dump_assignment(PageAssignment(PageSpec.from_string("Q"), (0, 0))))
        assert main(["verify", twist_file, "--assignment", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(dump_assignment(PageAssignment(PageSpec.from_string("S"), (0, 0))))
        assert main(["verify", twist_file, "--assignment", str(bad)]) == 1

    def test_verify_witness(self, capsys, tmp_path, diamond_file):
        w = largest_diamond(gen_diamond(2))
        wfile = tmp_path / "w.json"
        wfile.write_text(w.to_json())
        assert main(["verify", diamond_file, "--witness", str(wfile)]) == 0

    @pytest.mark.parametrize("text", ['{"kind": "twist", "k": 2}', "not json", "[" * 100000])
    def test_verify_malformed_witness_is_an_error(self, capsys, tmp_path, diamond_file, text):
        wfile = tmp_path / "w.json"
        wfile.write_text(text)
        assert main(["verify", diamond_file, "--witness", str(wfile)]) == 3
        assert "bad witness JSON" in capsys.readouterr().err

    def test_error_reported_cleanly(self, capsys, tmp_path):
        path = tmp_path / "broken.olg"
        path.write_text("not a graph\n")
        assert main(["solve", str(path), "--mn"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["solve", "--mn"], ["layout", "--k", "2"]])
    def test_negative_vertex_count_exits_3(self, capsys, tmp_path, args):
        path = tmp_path / "negative.olg"
        path.write_text("-3 0\n")
        assert main([args[0], str(path), *args[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error: line 1" in captured.err

    @pytest.mark.parametrize("args", [
        ["solve"],
        ["bogus"],
        ["enumerate-critical", "--separated", "--matchings"],
        ["render", "in.perm", "--grid", "--arcs"],
    ])
    def test_bad_arguments_exit_3(self, capsys, args):
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err

    @pytest.mark.parametrize("args", [
        ["critical", "{g}"],
        ["critical", "{g}", "--s", "3"],
        ["critical", "{g}", "--k", "-1"],
        ["critical", "{g}", "--s", "-1", "--q", "0"],
        ["enumerate-critical", "--separated"],
        ["enumerate-critical", "--separated", "--max-grid", "2", "--max-edges", "2", "--k", "-2"],
        ["enumerate-critical", "--matchings", "--k", "1", "--max-m", "-1"],
        ["detect", "{g}", "--kind", "thick", "--t", "-1"],
        ["detect", "{g}", "--kind", "thick", "--t", "0"],
        ["gen", "diamond"],
        ["gen", "stack", "--s", "3"],
        ["gen", "thick-twist", "--k", "2", "--t", "0"],
        ["gen", "diamond", "--k", "3", "--s", "9"],
        ["solve", "{g}", "--mn", "--sn"],
        ["verify", "{g}"],
    ])
    def test_bad_parameters_exit_3(self, capsys, twist_file, args):
        assert main([a.format(g=twist_file) for a in args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("args, unread", [
        (["critical", "{g}", "--k", "1", "--s", "2", "--q", "0"], "--s and --q not read with --k"),
        (["critical", "{g}", "--k", "1", "--q", "0"], "--q not read with --k"),
        (["enumerate-critical", "--separated", "--k", "1", "--s", "1"], "--s not read"),
        (["enumerate-critical", "--matchings", "--k", "1", "--max-edges", "2", "--max-m", "3"],
         "--max-edges not read"),
        (["enumerate-critical", "--matchings", "--k", "1", "--max-grid", "3"], "--max-grid"),
        (["enumerate-critical", "--separated", "--k", "1", "--max-m", "3"], "--max-m"),
        (["enumerate-critical", "--k", "1", "--max-m", "3"], "--max-m"),
        (["enumerate-critical", "--conjecture", "--k", "1"], "--k not read by --conjecture"),
        (["enumerate-critical", "--conjecture", "--s", "1", "--q", "1"], "--s and --q"),
        (["enumerate-critical", "--conjecture", "--separated"], "--separated"),
        (["enumerate-critical", "--conjecture", "--max-edges", "4"], "--max-edges"),
        (["enumerate-critical", "--conjecture", "--checkpoint", "ck.json"], "--checkpoint"),
        (["enumerate-critical", "--conjecture", "--out", "out.olg"], "--out"),
        (["enumerate-critical", "--conjecture", "--jobs", "2"], "--jobs"),
        (["detect", "{g}", "--kind", "twist", "--t", "3"], "--t not read by --kind twist"),
        (["detect", "{g}", "--kind", "rainbow", "--t", "2"], "--t"),
        (["detect", "{p}", "--kind", "diamond", "--t", "2"], "--t"),
        (["detect", "{g}", "--kind", "twist", "--exact"], "--exact"),
        (["detect", "{g}", "--kind", "thick", "--exact"], "--exact"),
        (["detect", "{g}", "--kind", "rainbow", "--budget", "5"], "--budget"),
        (["detect", "{p}", "--kind", "diamond", "--budget", "5"], "--budget"),
        (["solve", "{g}", "--qn", "--budget", "5"], "--budget not read by --qn"),
        (["render", "{p}", "--grid", "--assignment", "a.json"], "--assignment not read by the grid"),
        (["render", "{p}", "--assignment", "a.json"], "--assignment not read by the grid"),
        (["render", "{g}", "--arcs", "--witness", "w.json"], "--witness not read by --arcs"),
        (["render", "{g}", "--arcs", "--svg"], "--svg not read by --arcs"),
        (["detect", "{g}", "--kind", "twist", "--budget", "5"], "--budget not read by --kind twist"),
        (["detect", "{g}", "--kind", "thick", "--budget", "5"], "--budget not read by --kind thick"),
        (["detect", "{g}", "--kind", "thick", "--t", "2", "--budget", "5"], "--budget"),
    ])
    def test_unread_options_exit_3(self, capsys, twist_file, diamond_file, args, unread):
        argv = [a.format(g=twist_file, p=diamond_file) for a in args]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and unread in errors[0]
        assert "Traceback" not in captured.err

    def test_unset_options_take_their_documented_values(self, capsys, twist_file):
        assert main(["enumerate-critical", "--matchings", "--k", "1"]) == 0
        manifest = json.loads(capsys.readouterr().out.splitlines()[0])
        assert manifest["count"] == 8 and manifest["complete_up_to"] == {"max_edges": 5}
        assert main(["solve", twist_file, "--qn"]) == 0
        assert capsys.readouterr().out.startswith("qn = 1")
        assert main(["detect", twist_file, "--kind", "rainbow"]) == 0

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, capsys, args):
        assert main(args) == 0
        assert "usage:" in capsys.readouterr().out

    def test_critical_verb(self, capsys, tmp_path):
        from mixedpages.constructions import gen_2critical

        g = gen_2critical(2)
        path = tmp_path / "crit.olg"
        path.write_text(dump_olg(g))
        assert main(["critical", str(path), "--k", "2"]) == 0
        assert "critical" in capsys.readouterr().out
        path.write_text(dump_olg(delete_edge(g, 0)))
        assert main(["critical", str(path), "--k", "2"]) == 1

    def test_enumerate_critical_jobs(self, capsys):
        assert main([
            "enumerate-critical", "--separated", "--k", "1",
            "--max-grid", "3", "--max-edges", "4", "--jobs", "2",
        ]) == 0
        manifest = json.loads(capsys.readouterr().out.splitlines()[0])
        assert manifest["count"] == 9
        assert main([
            "enumerate-critical", "--separated", "--k", "1",
            "--max-grid", "3", "--max-edges", "4",
        ]) == 0
        sequential = json.loads(capsys.readouterr().out.splitlines()[0])
        assert manifest["scanned"] == sequential["scanned"]

    def test_enumerate_critical_jobs_below_one(self, capsys, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise RuntimeError("a pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert main([
            "enumerate-critical", "--separated", "--k", "1", "--jobs", "0",
        ]) == 3
        assert "jobs" in capsys.readouterr().err

    def test_enumerate_critical_jobs_with_checkpoint_and_progress(self, capsys, tmp_path):
        path = tmp_path / "ck.json"
        assert main([
            "enumerate-critical", "--separated", "--k", "1",
            "--max-grid", "3", "--max-edges", "4", "--jobs", "2",
            "--checkpoint", str(path), "--progress",
        ]) == 0
        captured = capsys.readouterr()
        manifest = json.loads(captured.out.splitlines()[0])
        assert captured.err.splitlines()[-1] == f"level 4: scanned {manifest['scanned']}, found 9"
        assert json.loads(path.read_text())["manifest"]["count"] == 9

    def test_checkpoint_with_a_non_string_pattern_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "ck.json"
        args = [
            "enumerate-critical", "--matchings", "--k", "1", "--max-m", "3",
            "--checkpoint", str(path),
        ]
        assert main(args) == 0
        data = json.loads(path.read_text())
        data["patterns"] = [1]
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(args) == 3
        assert "malformed manifest" in capsys.readouterr().err

    def test_conjecture_flag(self, capsys):
        assert main(["enumerate-critical", "--matchings", "--conjecture", "--max-m", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k1"]["consistent"] is True

    def test_conjecture_out_of_budget_is_unknown(self, capsys):
        # The conjecture's modes have at most two pages and run no search,
        # so only a mode of three or more pages can run out of budget.
        assert main([
            "enumerate-critical", "--matchings", "--conjecture", "--max-m", "3", "--budget", "0",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["k1"]["consistent"]
        assert main([
            "enumerate-critical", "--matchings", "--k", "3", "--max-m", "3", "--budget", "0",
        ]) == 2
        assert capsys.readouterr().out == "unknown (budget exceeded)\n"

    @pytest.mark.parametrize("args", [
        ["solve", "{g}", "--mn"],
        ["critical", "{g}", "--k", "3"],
        ["layout", "{g}", "--k", "2"],
        ["enumerate-critical", "--matchings", "--k", "3", "--max-m", "3"],
        ["detect", "{p}", "--kind", "diamond", "--exact"],
    ])
    def test_negative_budget_is_an_error(self, capsys, twist_file, diamond_file, args):
        """A budget below 0 exits 3 with one error line, never as a budget
        hit (exit 2) that a script could not tell from a real one; 0 stays
        a valid budget."""
        argv = [a.format(g=twist_file, p=diamond_file) for a in args]
        assert main([*argv, "--budget", "-1"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: budget must be at least 0, got -1\n"
        assert main([*argv, "--budget", "0"]) != 3
        assert "error" not in capsys.readouterr().err

    def test_arc_colors_match_page_count(self, tmp_path):
        from mixedpages.constructions import gen_2critical
        from mixedpages import solver as slv

        g = gen_2critical(2)
        _, a = slv.mixed_page_number(g)
        svg = render_arcs(g, a)
        used = {part.split('"')[0] for part in svg.split('stroke="')[1:]}
        assert len([c for c in used if c.startswith("#")]) == 3
