import json

import pytest

from mixedpages.core import build_graph, canonicalize_pattern, grid_to_graph, GridMatching
from mixedpages.errors import InvalidInputError, ParseError
from mixedpages.enumeration import (
    EnumFamily,
    conjecture_report,
    contains_pattern,
    enumerate_matchings,
    enumerate_matchings_up_to,
    enumerate_separated,
    find_critical,
)
from mixedpages import solver


def double_factorial_odd(m):
    out = 1
    for i in range(1, 2 * m, 2):
        out *= i
    return out


class TestStreams:
    def test_matching_counts_match_closed_form(self):
        for m in range(1, 6):
            assert sum(1 for _ in enumerate_matchings(m)) == double_factorial_odd(m)

    def test_matchings_are_distinct_perfect_matchings(self):
        seen = set()
        for g in enumerate_matchings(3):
            assert g.is_matching() and g.n == 6 and g.m == 3
            assert g.edges not in seen
            seen.add(g.edges)

    def test_separated_two_by_two_patterns(self):
        # Direct listing of all 0-1 matrices up to 2x2 without empty rows or
        # columns: one single edge, the two degree-2 forks, the 2-twist, the
        # 2-rainbow, four 3-edge patterns, and the full grid.
        got = list(enumerate_separated(2, 2, 4))
        assert len(got) == 10
        assert len({g.edges for g in got}) == 10
        assert all(canonicalize_pattern(g) == g for g in got)

    def test_separated_ordered_by_edge_count(self):
        sizes = [g.m for g in enumerate_separated(3, 3, 4)]
        assert sizes == sorted(sizes)


class TestContainment:
    def test_twist_inside_bigger_twist(self):
        small = grid_to_graph(GridMatching((1, 2)))
        big = grid_to_graph(GridMatching((1, 2, 3)))
        assert contains_pattern(big, small)
        assert not contains_pattern(small, big)

    def test_order_matters(self):
        twist = grid_to_graph(GridMatching((1, 2)))
        rainbow = grid_to_graph(GridMatching((2, 1)))
        assert not contains_pattern(twist, rainbow)
        assert not contains_pattern(rainbow, twist)

    def test_containment_allows_extra_edges(self):
        host = build_graph(6, [(0, 3), (1, 4), (2, 5)])
        assert contains_pattern(host, build_graph(4, [(0, 2), (1, 3)]))


class TestEnumFamily:
    @pytest.mark.parametrize("bounds", [(0, 3, 3), (4, 2, 2), (5, 3, 4), (6, 4, 3), (4, 0, 4)])
    def test_separated_stream_is_the_generator_stream(self, bounds):
        m, rows, cols = bounds
        assert list(EnumFamily("separated", m, rows, cols).stream()) == list(
            enumerate_separated(rows, cols, m)
        )

    @pytest.mark.parametrize("m", [0, 1, 3, 4])
    def test_matching_stream_is_the_generator_stream(self, m):
        assert list(EnumFamily("matchings", m).stream()) == list(enumerate_matchings_up_to(m))

    def test_widest(self):
        assert EnumFamily("matchings", 5).widest == 10
        assert EnumFamily("separated", 6, 2, 9).widest == 8
        assert EnumFamily("separated", 3, 5, 5).widest == 6

    @pytest.mark.parametrize("args", [
        ("grids", 4), ("matchings", -1), ("separated", 4, -1, 3), ("separated", 4, 3, -2),
        ("matchings", None), ("matchings", True), ("separated", 4.0, 3, 3), ("separated", 4, "3", 3),
    ])
    def test_bad_families_are_invalid_input(self, args):
        with pytest.raises(InvalidInputError):
            EnumFamily(*args)

    def test_bad_mode_is_refused_before_the_checkpoint_is_read(self, tmp_path):
        path = tmp_path / "check.json"
        path.write_text("not json")
        with pytest.raises(InvalidInputError, match="bad criticality mode"):
            find_critical(EnumFamily("matchings", 3), ("k", -1), checkpoint=str(path))


class TestFindCritical:
    def test_unique_01_and_10_critical(self):
        fam = EnumFamily("separated", 4, 3, 3)
        rainbow_only = find_critical(fam, ("sq", 0, 1))
        assert [p.edges for p in rainbow_only.patterns] == [((0, 3), (1, 2))]
        twist_only = find_critical(fam, ("sq", 1, 0))
        assert [p.edges for p in twist_only.patterns] == [((0, 2), (1, 3))]

    @pytest.mark.parametrize("family", [EnumFamily("matchings", 3), EnumFamily("separated", 3, 3, 3)],
                             ids=str)
    @pytest.mark.parametrize("mode", [("k", 0), ("sq", 0, 0)], ids=str)
    def test_single_edge_is_critical_at_zero_pages(self, family, mode):
        # Its one deletion, the empty graph, fits on no pages; every larger
        # candidate holds an edge, so none is critical.
        result = find_critical(family, mode)
        assert [p.edges for p in result.patterns] == [((0, 1),)]
        assert solver.criticality(result.patterns[0], mode).critical

    def test_two_critical_separated_count(self):
        # Pinned count; on separated patterns the SS and QQ splits of each
        # candidate are decided by its longest twist and rainbow.
        result = find_critical(EnumFamily("separated", 7, 5, 5), ("k", 2))
        assert (len(result.patterns), result.scanned) == (780, 108597)

    def test_nine_one_critical_already_in_small_grids(self):
        result = find_critical(EnumFamily("separated", 5, 3, 3), ("k", 1))
        assert len(result.patterns) == 9
        for p in result.patterns:
            assert solver.criticality(p, ("k", 1)).critical

    def test_critical_sets_are_containment_antichains(self):
        result = find_critical(EnumFamily("separated", 5, 3, 3), ("k", 1))
        ps = result.patterns
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                assert not contains_pattern(p, q)
                assert not contains_pattern(q, p)

    def test_deterministic(self):
        fam = EnumFamily("separated", 5, 3, 3)
        a = find_critical(fam, ("k", 1))
        b = find_critical(fam, ("k", 1))
        assert [p.edges for p in a.patterns] == [p.edges for p in b.patterns]

    def test_manifest_records_bounds(self):
        result = find_critical(EnumFamily("separated", 4, 2, 2), ("k", 1))
        manifest = result.to_manifest()
        assert manifest["complete_up_to"] == {
            "max_edges": 4,
            "max_rows": 2,
            "max_cols": 2,
        }
        assert manifest["scanned"] == 10

    def test_vertices_beyond_a_byte_are_rejected(self):
        with pytest.raises(InvalidInputError):
            find_critical(EnumFamily("separated", 300, 1, 300), ("k", 1))
        with pytest.raises(InvalidInputError):
            find_critical(EnumFamily("matchings", 129), ("k", 1))
        one_row = find_critical(EnumFamily("separated", 255, 1, 255), ("k", 1))
        assert one_row.scanned == 255 and one_row.patterns == []

    def test_progress_goes_to_stderr(self, capsys, monkeypatch):
        # A stream of 10^5 single edges reaches the first progress line fast.
        edge = (((0, 1),), (0,))
        monkeypatch.setattr(EnumFamily, "level", lambda self, m: [edge] * 100000)
        find_critical(EnumFamily("matchings", 1), ("k", 1), progress=True)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scanned 100000, found ")

    def test_progress_counts_across_levels(self, capsys, monkeypatch):
        # Two levels of 50000 single edges: the line per 100000 candidates
        # comes at the end of the second level, counted from the first.
        edge = (((0, 1),), (0,))
        monkeypatch.setattr(EnumFamily, "level", lambda self, m: [edge] * 50000)
        find_critical(EnumFamily("matchings", 2), ("k", 1), progress=True)
        assert capsys.readouterr().err.splitlines() == [
            "level 1: scanned 50000, found 0",
            "scanned 100000, found 0",
            "level 2: scanned 100000, found 0",
        ]

    def test_progress_prints_empty_levels(self, capsys):
        find_critical(EnumFamily("separated", 3, 1, 1), ("k", 1), progress=True)
        assert capsys.readouterr().err.splitlines() == [
            f"level {m}: scanned 1, found 0" for m in (1, 2, 3)
        ]

    def test_checkpoint_written(self, tmp_path):
        path = tmp_path / "check.json"
        find_critical(EnumFamily("separated", 4, 2, 2), ("k", 1), checkpoint=str(path))
        data = json.loads(path.read_text())
        assert data["manifest"]["count"] == len(data["patterns"])

    @pytest.mark.parametrize("text", [
        '{"family": {"shape": "separated", "max_edges"',
        "",
        "[]",
        '{"family": {}, "patterns": []}',
    ])
    def test_corrupt_checkpoint_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "check.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            find_critical(EnumFamily("separated", 4, 2, 2), ("k", 1), checkpoint=str(path))

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path):
        from mixedpages import enumeration

        path = tmp_path / "check.json"
        family = EnumFamily("separated", 4, 2, 2)
        find_critical(family, ("k", 1), checkpoint=str(path))
        before = path.read_text()
        result = enumeration.CriticalSet(parameters=("k", 1))
        result.complete_up_to = {"max_edges": object()}  # not JSON: dump fails midway
        with pytest.raises(TypeError):
            enumeration._write_checkpoint(str(path), family, result, 0, set(), 0)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["check.json"]


class TestConjectureReport:
    def test_small_scan_internally_consistent(self):
        rep = conjecture_report(4)
        assert rep["k1"]["count"] == 8
        assert rep["k1"]["matches"] is True
        assert rep["k1"]["consistent"] is True
        assert rep["sq11"]["consistent"] is True

    def test_zero_one_critical_matchings(self):
        rainbow_only = find_critical(EnumFamily("matchings", 3), ("sq", 0, 1))
        assert len(rainbow_only.patterns) == 1
        assert rainbow_only.patterns[0].edges == ((0, 3), (1, 2))
