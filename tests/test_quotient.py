import pytest

from conftest import rand_matching
from mixedpages.core import (
    GridMatching,
    PageKind,
    PageSpec,
    build_graph,
    grid_to_graph,
    validate_assignment,
)
from mixedpages.errors import (
    BadEdgeIdError,
    DepthExceededError,
    InternalError,
    InvalidInputError,
    InvalidPageError,
)
from mixedpages.patterns import PatternKind, largest_twist, witness_violations
from mixedpages.constructions import gen_thick_rainbow, gen_thick_twist
from mixedpages.quotient import (
    EXACT_LIMIT,
    IntervalPartition,
    bounded_twist_stack_cover,
    interval_partition_by_twists,
    iterated_quotient_layout,
    iterated_quotient_layout_detailed,
    quotient_graph,
    queue_cover,
    star_forests,
    subgraph,
    transfer_layout,
)
from mixedpages import solver


class TestIntervalPartition:
    def test_single_twist_closes_first_block(self):
        g = grid_to_graph(GridMatching((1, 2)))  # 2-twist on 4 vertices
        part, twists = interval_partition_by_twists(g, 1)
        assert part.starts == (0,)
        assert twists == [(0, 1)]

    def test_trailing_vertices_form_their_own_block(self):
        g = build_graph(6, [(0, 2), (1, 3)])
        part, twists = interval_partition_by_twists(g, 1)
        assert part.starts == (0, 4)
        assert twists == [(0, 1), None]

    def test_no_twist_single_block(self):
        g = grid_to_graph(GridMatching((3, 2, 1)))
        part, twists = interval_partition_by_twists(g, 1)
        assert part.starts == (0,)
        assert twists == [None]

    def test_two_consecutive_twists_two_blocks(self):
        # two disjoint consecutive 3-twists, k = 2
        pts = [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]
        g = build_graph(12, pts)
        part, twists = interval_partition_by_twists(g, 2)
        assert part.starts == (0, 6)
        assert twists[0] is not None and twists[1] is not None

    def test_blocks_never_hold_bigger_twist(self, rng):
        for _ in range(20):
            g = rand_matching(rng, 12)
            for k in (1, 2, 3):
                part, _ = interval_partition_by_twists(g, k)
                for start, end in part.blocks():
                    inside = [
                        e
                        for e, (u, v) in enumerate(g.edges)
                        if start <= u and v < end
                    ]
                    sub, _ = subgraph(g, inside)
                    assert largest_twist(sub).k <= k + 1

    def test_block_of(self):
        part = IntervalPartition(10, (0, 4, 7))
        assert [part.block_of(v) for v in range(10)] == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]


class TestQuotientGraph:
    def test_singletons_identity(self):
        g = build_graph(6, [(0, 2), (1, 3), (4, 5)])
        res = quotient_graph(g, IntervalPartition(6, tuple(range(6))))
        assert res.h.edges == g.edges
        assert res.intra == ()

    def test_whole_collapses_everything(self):
        g = build_graph(6, [(0, 2), (1, 3)])
        res = quotient_graph(g, IntervalPartition(6, (0,)))
        assert res.h.n == 1 and res.h.m == 0
        assert res.intra == (0, 1)

    def test_thick_rainbow_contracts_to_parallel_edges(self):
        # grouping each twist's endpoints yields 2 parallel quotient edges
        g = gen_thick_rainbow(2, 2)  # edges (0,6),(1,7),(2,4),(3,5)
        part = IntervalPartition(8, (0, 2, 6))
        res = quotient_graph(g, part)
        assert res.h.edges == ((0, 2), (0, 2))
        assert sorted(res.intra) == [2, 3]

    def test_strict_quotient_relations_lift(self, rng):
        # Crossing or nesting between quotient edges always reflects the
        # relation of the underlying edges.
        from mixedpages.core import Relation, classify_pair

        for _ in range(20):
            g = rand_matching(rng, 10)
            part, _ = interval_partition_by_twists(g, 2)
            res = quotient_graph(g, part)
            for i in range(res.h.m):
                for j in range(i + 1, res.h.m):
                    kind = classify_pair(res.h, i, j).kind
                    if kind in (Relation.CROSS, Relation.NEST):
                        lifted = classify_pair(g, res.origins[i], res.origins[j]).kind
                        assert lifted is kind


class TestStarForests:
    def test_matching_page_single_right_forest(self):
        h = build_graph(6, [(0, 3), (1, 4), (2, 5)])
        forests = star_forests(h, [0, 1, 2], PageKind.QUEUE)
        assert len(forests) == 1
        assert forests[0].side == "right"
        assert all(len(star.edges) == 1 for star in forests[0].stars)

    def test_star_graph_single_forest(self):
        h = build_graph(4, [(0, 3), (1, 3), (2, 3)])
        forests = star_forests(h, [0, 1, 2], PageKind.STACK)
        assert len(forests) == 1
        assert forests[0].side == "right"
        assert len(forests[0].stars) == 1 and forests[0].stars[0].center == 3

    def test_invalid_page_rejected(self):
        h = build_graph(4, [(0, 2), (1, 3)])
        with pytest.raises(InvalidPageError):
            star_forests(h, [0, 1], PageKind.STACK)

    @pytest.mark.parametrize("kind", [PageKind.STACK, PageKind.QUEUE])
    def test_unknown_id_on_a_one_edge_page_rejected(self, kind):
        h = build_graph(4, [(0, 2), (1, 3)])
        for bad in (-1, h.m):
            with pytest.raises(BadEdgeIdError, match=f"no edge {bad}"):
                star_forests(h, [bad], kind)
        assert star_forests(h, [1], kind)[0].stars[0].edges == (1,)

    def test_outerplanar_page_partition(self):
        # a maximal outerplanar stack page on 6 vertices
        h = build_graph(6, [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
        forests = star_forests(h, list(range(h.m)), PageKind.STACK)
        assert len(forests) <= 6
        covered = sorted(e for f in forests for s in f.stars for e in s.edges)
        assert covered == list(range(h.m))
        for forest in forests:
            seen = set()
            for star in forest.stars:
                verts = {star.center}
                for e in star.edges:
                    u, v = h.edges[e]
                    leaf = v if u == star.center else u
                    verts.add(leaf)
                    if forest.side == "right":
                        assert leaf < star.center
                    else:
                        assert leaf > star.center
                assert not (verts & seen)
                seen |= verts

    def test_random_pages_stay_within_six(self, rng):
        for _ in range(40):
            g = rand_matching(rng, 10)
            k, layout = solver.mixed_page_number(g)
            part, _ = interval_partition_by_twists(g, 2)
            res = quotient_graph(g, part)
            hk, hlayout = solver.mixed_page_number(res.h)
            for p, members in enumerate(hlayout.pages()):
                if not members:
                    continue
                forests = star_forests(res.h, members, hlayout.spec.kinds[p])
                assert len(forests) <= 6
                covered = sorted(e for f in forests for s in f.stars for e in s.edges)
                assert covered == sorted(members)


class TestCovers:
    def test_queue_cover_uses_rainbow_many_queues(self):
        g = grid_to_graph(GridMatching((3, 2, 1)))
        cover = queue_cover(g, range(3))
        assert len(cover) == 3

    def test_stack_cover_exact_small(self):
        g = grid_to_graph(GridMatching((1, 2, 3)))
        stacks, exact = bounded_twist_stack_cover(g, range(3))
        assert exact and len(stacks) == 3

    def test_stack_cover_first_fit_beyond_limit(self):
        m = EXACT_LIMIT + 1
        g = grid_to_graph(GridMatching(tuple(range(1, m + 1))))
        stacks, exact = bounded_twist_stack_cover(g, range(m))
        assert not exact and len(stacks) == m


class TestTransferLayout:
    def test_singleton_partition_degenerate(self):
        g = gen_thick_twist(2, 3)
        _, layout = solver.mixed_page_number(g)
        a, report = transfer_layout(g, IntervalPartition(g.n, tuple(range(g.n))), layout, 2)
        assert validate_assignment(g, a) == []
        assert report.pages_used == len(a.spec)

    def test_whole_partition_intra_only(self):
        g = gen_thick_twist(2, 3)
        part = IntervalPartition(g.n, (0,))
        res = quotient_graph(g, part)
        _, hlayout = solver.mixed_page_number(res.h)
        a, report = transfer_layout(g, part, hlayout, 2)
        assert validate_assignment(g, a) == []
        mn, _ = solver.mixed_page_number(g)
        assert report.m_intra == mn
        assert report.pages_used <= 2 * mn

    def test_natural_grouping_bound(self):
        g = gen_thick_twist(2, 4)
        part, _ = interval_partition_by_twists(g, 2)
        res = quotient_graph(g, part)
        _, hlayout = solver.mixed_page_number(res.h)
        a, report = transfer_layout(g, part, hlayout, 2)
        assert validate_assignment(g, a) == []
        assert report.pages_used <= report.bound

    def test_invalid_quotient_layout_rejected(self):
        g = gen_thick_twist(2, 3)
        part = IntervalPartition(g.n, tuple(range(g.n)))
        res = quotient_graph(g, part)
        bad = solver.PageAssignment(PageSpec.from_string("S"), tuple([0] * res.h.m))
        with pytest.raises(InvalidInputError):
            transfer_layout(g, part, bad, 2)

    def test_k_below_one_rejected(self):
        g = gen_thick_twist(2, 3)
        _, layout = solver.mixed_page_number(g)
        with pytest.raises(InvalidInputError, match="k must be positive"):
            transfer_layout(g, IntervalPartition(g.n, tuple(range(g.n))), layout, 0)

    def test_non_matching_rejected(self):
        g = build_graph(3, [(0, 2), (1, 2)])
        with pytest.raises(InvalidInputError):
            transfer_layout(g, IntervalPartition(3, tuple(range(3))), solver.PageAssignment(PageSpec.from_string("SS"), (0, 1)), 1)


class TestIteratedQuotient:
    def test_no_twist_direct_layout(self):
        g = grid_to_graph(GridMatching((3, 2, 1)))
        a = iterated_quotient_layout(g, 3)
        assert validate_assignment(g, a) == []

    def test_thick_rainbow_exceeds_depth_with_witness(self):
        g = gen_thick_rainbow(2, 2)
        with pytest.raises(DepthExceededError) as err:
            iterated_quotient_layout(g, 1)
        w = err.value.witness
        assert w.kind is PatternKind.THICK_RAINBOW
        assert w.k == 2 and w.t == 2
        assert witness_violations(g, w) == []

    def test_random_matchings_valid(self, rng):
        done = 0
        for _ in range(12):
            g = rand_matching(rng, rng.randint(8, 20))
            try:
                a = iterated_quotient_layout(g, 3)
            except DepthExceededError as exc:
                assert witness_violations(g, exc.witness) == []
                continue
            assert validate_assignment(g, a) == []
            done += 1
        assert done >= 6

    def test_reports_per_level(self):
        g = gen_thick_twist(2, 5)
        a, reports = iterated_quotient_layout_detailed(g, 2)
        assert validate_assignment(g, a) == []
        assert all(rep.pages_used >= 1 for rep in reports)


class TestInternalChecks:
    """Each consistency check in quotient raises InternalError, which callers
    catch as a MixedPagesError and `python -O` keeps, rather than an
    AssertionError."""

    @staticmethod
    def whole_layout():
        g = gen_thick_twist(2, 3)
        part = IntervalPartition(g.n, (0,))
        _, hlayout = solver.mixed_page_number(quotient_graph(g, part).h)
        return g, part, hlayout

    def test_edge_assigned_twice(self, monkeypatch):
        from mixedpages import quotient

        g, part, hlayout = self.whole_layout()
        real = quotient.subgraph

        def same_edge(graph, ids):
            sub, idmap = real(graph, ids)
            return sub, [idmap[0]] * len(idmap)

        monkeypatch.setattr(quotient, "subgraph", same_edge)
        with pytest.raises(InternalError, match="twice"):
            transfer_layout(g, part, hlayout, 2)

    def test_edge_left_out(self, monkeypatch):
        from mixedpages import quotient

        g, part, hlayout = self.whole_layout()
        real = quotient.subgraph
        monkeypatch.setattr(quotient, "subgraph", lambda graph, ids: real(graph, list(ids)[:-1]))
        with pytest.raises(InternalError, match="missed"):
            transfer_layout(g, part, hlayout, 2)

    def test_invalid_lifted_layout(self, monkeypatch):
        from mixedpages import quotient

        g, part, hlayout = self.whole_layout()
        real = quotient.validate_assignment

        def reject_lift(graph, a):
            return ["bad"] if graph is g else real(graph, a)

        monkeypatch.setattr(quotient, "validate_assignment", reject_lift)
        with pytest.raises(InternalError, match="invalid layout"):
            transfer_layout(g, part, hlayout, 2)
