import pytest

from conftest import brute_force_mixed_page_number, delete_edge, rand_graph, rand_matching
from mixedpages.core import (
    GridMatching,
    OrderedGraph,
    PageAssignment,
    PageSpec,
    build_graph,
    conflict_masks,
    grid_to_graph,
    validate_assignment,
)
from mixedpages.errors import BudgetExceededError, InternalError, InvalidInputError
from mixedpages.patterns import largest_rainbow, largest_twist
from mixedpages.constructions import (
    gen_2critical,
    gen_diamond,
    gen_k_critical,
    gen_stack_critical,
    gen_thick_twist,
    gen_tight_2k,
)
from mixedpages.solver import (
    DEFAULT_BUDGET,
    SolveResult,
    _solve_masks,
    criticality,
    feasible,
    mixed_page_number,
    mode_specs,
    queue_number,
    splits,
    stack_number,
)


def rainbow(k):
    return grid_to_graph(GridMatching(tuple(range(k, 0, -1))))


def twist(k):
    return grid_to_graph(GridMatching(tuple(range(1, k + 1))))


def searched_specs(monkeypatch) -> list[str]:
    """The specs of the searches that run from now on, in order."""
    from mixedpages import solver

    searched = []
    real = solver._solve_masks

    def spy(cross, nest, active, spec, budget):
        searched.append(str(spec))
        return real(cross, nest, active, spec, budget)

    monkeypatch.setattr(solver, "_solve_masks", spy)
    return searched


class TestFeasible:
    def test_rainbow_needs_a_stack(self):
        g = rainbow(3)
        assert not feasible(g, PageSpec.from_string("QQ")).feasible
        assert feasible(g, PageSpec.from_string("S")).feasible

    def test_diamond_two_pages(self):
        g = grid_to_graph(gen_diamond(2))
        for spec in ("S", "Q"):
            assert not feasible(g, PageSpec.from_string(spec)).feasible
        assert feasible(g, PageSpec.from_string("QQ")).feasible
        assert feasible(g, PageSpec.from_string("SS")).feasible

    def test_g2_infeasible_on_all_two_page_splits(self):
        g = gen_2critical(2)
        for spec in splits(2):
            assert not feasible(g, spec).feasible
        for e in range(g.m):
            assert any(feasible(delete_edge(g, e), spec).feasible for spec in splits(2))

    def test_returned_assignment_is_valid(self, rng):
        for _ in range(20):
            g = rand_graph(rng, 8, 7)
            k, a = mixed_page_number(g)
            assert validate_assignment(g, a) == []

    def test_budget_reports_unknown(self):
        g = gen_2critical(4)  # SQ is refuted in 12 nodes
        res = feasible(g, PageSpec.from_string("SQ"), budget=5)
        assert res.budget_hit and res.status == "unknown"
        assert res.nodes == 6

    def test_empty_graph_fits_empty_spec(self):
        res = feasible(build_graph(3, []), PageSpec(()))
        assert res.feasible

    @pytest.mark.parametrize("spec", ["", "S", "Q", "SQ", "QQ", "SSQ", "QSQ"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_graph_fits_every_spec_without_search(self, spec, n):
        spec = PageSpec.from_string(spec)
        assert feasible(build_graph(n, []), spec) == SolveResult(
            True, PageAssignment(spec, ()), 0, False
        )


class TestPageNumbers:
    def test_empty_graph(self):
        assert mixed_page_number(build_graph(4, []))[0] == 0

    def test_thick_twist_mixed_page_number(self):
        assert mixed_page_number(gen_thick_twist(3, 3))[0] == 3

    def test_pure_numbers_on_twist_and_rainbow(self):
        assert stack_number(twist(4))[0] == 4
        assert queue_number(twist(4))[0] == 1
        assert stack_number(rainbow(4))[0] == 1
        assert queue_number(rainbow(4))[0] == 4

    def test_odd_cycle_realization_needs_three_stacks(self):
        assert stack_number(gen_stack_critical(2, 5))[0] == 3

    def test_queue_number_is_largest_rainbow(self, rng):
        for _ in range(40):
            g = rand_graph(rng, 9, 9)
            q, a = queue_number(g)
            assert q == largest_rainbow(g).k
            assert validate_assignment(g, a) == []

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(25):
            g = rand_graph(rng, 7, 5)
            assert mixed_page_number(g)[0] == brute_force_mixed_page_number(g)

    def test_monotone_under_deletion(self, rng):
        for _ in range(10):
            g = rand_matching(rng, 5)
            base, _ = mixed_page_number(g)
            for e in range(g.m):
                assert mixed_page_number(delete_edge(g, e))[0] <= base

    def test_minimality_reverified(self, rng):
        for _ in range(10):
            g = rand_graph(rng, 7, 5)
            k, _ = mixed_page_number(g)
            if k > 0:
                assert all(not feasible(g, spec).feasible for spec in splits(k - 1))


class TestCriticality:
    def test_two_rainbow_is_the_unique_01_critical(self):
        assert criticality(rainbow(2), ("sq", 0, 1)).critical
        assert criticality(twist(2), ("sq", 1, 0)).critical
        assert not criticality(rainbow(3), ("sq", 0, 1)).critical

    def test_g2_is_two_critical(self):
        assert criticality(gen_2critical(2), ("k", 2)).critical

    def test_diamond_is_not_one_critical(self):
        assert not criticality(grid_to_graph(gen_diamond(2)), ("k", 1)).critical

    def test_budget_surfaces_as_error(self):
        # Specs of at most two pages never search, so the budget runs out
        # only on a mode of three or more pages.
        with pytest.raises(BudgetExceededError) as err:
            criticality(gen_k_critical(3), ("k", 3), budget=3)
        assert err.value.nodes == 4

    def test_two_page_modes_run_no_search(self):
        verdict = criticality(gen_2critical(40), ("k", 2), budget=1)
        assert verdict.critical and verdict.nodes == 0

    def test_deletions_fit_at_a_portfolio_of_splits(self):
        # The full graph alone refutes the six splits in 380,092 nodes; its
        # 22 deletions each fit one split, found without first refuting
        # the splits before it.
        g = gen_k_critical(5)
        cross, nest = conflict_masks(g)
        full = sum(
            _solve_masks(cross, nest, list(range(g.m)), spec, DEFAULT_BUDGET)[1]
            for spec in splits(5)
        )
        verdict = criticality(g, ("k", 5))
        assert verdict.critical and full == 380_092
        assert verdict.nodes <= 400_000 and verdict.nodes - full <= 10**4


class TestModeSpecs:
    def test_modes(self):
        assert mode_specs(("sq", 2, 1)) == [PageSpec.from_string("SSQ")]
        assert mode_specs(("sq", 0, 0)) == [PageSpec(())]
        assert mode_specs(("k", 2)) == splits(2)
        assert mode_specs(("k", 0)) == [PageSpec(())]

    @pytest.mark.parametrize("mode", [
        ("k", -1), ("sq", -1, 0), ("sq", 1, -2), ("k", None), ("sq", 3, None),
        ("sq", None, None), ("k", True), ("sq", False, 1), ("k", 1.0), ("k", "1"),
        ("k",), ("k", 1, 1), ("sq", 1), ("kk", 1), (), None, "k1",
    ])
    def test_bad_modes_are_invalid_input(self, mode):
        with pytest.raises(InvalidInputError, match="bad criticality mode"):
            mode_specs(mode)
        with pytest.raises(InvalidInputError):
            criticality(twist(2), mode)


class TestLargeInputs:
    """Inputs deeper than the interpreter's recursion limit."""

    def test_one_stack_holds_1200_disjoint_edges(self):
        g = build_graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
        res = feasible(g, PageSpec.from_string("S"))
        assert res.feasible and res.nodes == 1201
        assert stack_number(g)[0] == 1

    def test_1200_twist(self):
        g = twist(1200)
        k, a = mixed_page_number(g)
        assert k == 1 and str(a.spec) == "Q"
        assert largest_twist(g).k == 1200


class TestTwistRefutation:
    def test_same_witness_as_a_plain_split_scan(self, rng):
        for _ in range(15):
            g = rand_matching(rng, 9)
            k, a = mixed_page_number(g)
            first = next(
                res.assignment
                for j in range(g.m + 1)
                for spec in splits(j)
                if (res := feasible(g, spec)).feasible
            )
            assert a == first and len(a.spec) == k
            s, b = stack_number(g)
            assert b == next(
                res.assignment
                for j in range(g.m + 1)
                if (res := feasible(g, PageSpec.split(j, 0))).feasible
            )

    def test_pure_stack_splits_below_the_twist_are_not_searched(self, monkeypatch):
        searched = searched_specs(monkeypatch)
        assert stack_number(twist(4))[0] == 4
        assert searched == ["SSSS"]
        searched.clear()
        assert mixed_page_number(twist(4))[0] == 1
        assert searched == ["Q"]

    def test_pure_queue_splits_below_the_rainbow_are_not_searched(self, monkeypatch):
        searched = searched_specs(monkeypatch)
        # A 3-twist beside a 3-rainbow: S and SS fall below the twist, Q below
        # the rainbow.
        both = build_graph(12, [(0, 3), (1, 4), (2, 5), (6, 11), (7, 10), (8, 9)])
        assert mixed_page_number(both)[0] == 2
        assert searched == ["SQ"]


class TestSeparatedMatchings:
    """Separated matchings: every split decided without search, and only the
    first split that fits is searched, for its layout."""

    def test_only_the_split_that_fits_is_searched(self, monkeypatch):
        searched = searched_specs(monkeypatch)
        k, a = mixed_page_number(grid_to_graph(gen_tight_2k(2)))
        assert k == 4 and searched == ["SSQQ"] == [str(a.spec)]

    def test_tight_2k_3_needs_six_pages(self, monkeypatch):
        searched = searched_specs(monkeypatch)
        g = grid_to_graph(gen_tight_2k(3))
        k, a = mixed_page_number(g)
        assert (g.m, k, str(a.spec)) == (51, 6, "SSSQQQ")
        assert searched == ["SSSQQQ"] and validate_assignment(g, a) == []

    def test_other_graphs_keep_the_search(self, monkeypatch):
        """On other graphs 2-SAT decides the two-page splits, so the
        2-critical graph searches only SSS; splits of three pages or more
        are still searched, infeasible ones too."""
        searched = searched_specs(monkeypatch)
        assert mixed_page_number(gen_2critical(2))[0] == 3
        assert searched == ["SSS"]
        searched.clear()
        assert mixed_page_number(gen_k_critical(3))[0] == 4
        assert searched == ["SSQ", "SQQ", "SSSS"]

    @pytest.mark.parametrize("g", [
        build_graph(4, []),
        build_graph(4, [(0, 2), (1, 3), (0, 2)], multi=True),
        build_graph(4, [(0, 2), (1, 2)]),
        build_graph(4, [(0, 2), (0, 3)]),
        build_graph(4, [(0, 1), (2, 3)]),
        build_graph(6, [(0, 3), (1, 4), (2, 5), (3, 5)]),
    ])
    def test_what_is_not_a_separated_matching(self, g):
        from mixedpages import solver

        assert solver._separated_rights(g) is None

    def test_rights_in_left_endpoint_order(self):
        from mixedpages import solver

        assert solver._separated_rights(build_graph(6, [(2, 4), (0, 3), (1, 5)])) == [3, 5, 4]
        unsorted = OrderedGraph(6, ((2, 4), (0, 3), (1, 5)))
        assert solver._separated_rights(unsorted) == [3, 5, 4]


class TestInternalChecks:
    """The result checks are raises, so they also run under python -O."""

    def test_invalid_search_result_is_an_internal_error(self, monkeypatch):
        from mixedpages import solver

        def everything_on_page_zero(cross, nest, active, spec, budget):
            return {e: 0 for e in active}, 1, False

        monkeypatch.setattr(solver, "_solve_masks", everything_on_page_zero)
        with pytest.raises(InternalError):
            feasible(twist(2), PageSpec.from_string("S"))
        with pytest.raises(InternalError):
            mixed_page_number(build_graph(8, [(0, 2), (1, 3), (4, 7), (5, 6)]))
        assert feasible(twist(2), PageSpec.from_string("Q")).feasible

    def test_search_that_refutes_a_fitting_split_is_an_internal_error(self, monkeypatch):
        from mixedpages import solver

        monkeypatch.setattr(
            solver, "_solve_masks", lambda cross, nest, active, spec, budget: (None, 1, False)
        )
        with pytest.raises(InternalError, match="search refutes SS, which the verdicts fit"):
            mixed_page_number(grid_to_graph(gen_diamond(2)))

    def test_search_that_refutes_a_two_page_split_2sat_fits_is_an_internal_error(
        self, monkeypatch
    ):
        """On graphs that are not separated matchings too: two disjoint
        crossing pairs fit on two stacks by 2-SAT, so a search that refutes
        them is wrong."""
        from mixedpages import solver

        monkeypatch.setattr(
            solver, "_solve_masks", lambda cross, nest, active, spec, budget: (None, 1, False)
        )
        g = build_graph(8, [(0, 2), (1, 3), (4, 6), (5, 7)])
        assert solver._separated_rights(g) is None
        with pytest.raises(InternalError, match="search refutes SS, which the verdicts fit"):
            mixed_page_number(g)
        with pytest.raises(InternalError, match="search refutes SS, which 2-SAT fits"):
            stack_number(g)

    def test_queue_number_checks_its_layout(self, monkeypatch):
        from mixedpages import solver

        monkeypatch.setattr(
            solver,
            "queue_layout",
            lambda g: PageAssignment(PageSpec.split(0, 1), (0,) * g.m),
        )
        with pytest.raises(InternalError):
            queue_number(rainbow(2))
        monkeypatch.setattr(
            solver,
            "queue_layout",
            lambda g: PageAssignment(PageSpec.split(0, 2), (0,) * g.m),
        )
        with pytest.raises(InternalError):
            queue_number(rainbow(2))

    @pytest.mark.parametrize(
        "corrupt", [lambda chain: chain[::-1], lambda chain: chain[:-1]]
    )
    def test_queue_number_checks_its_rainbow(self, monkeypatch, corrupt):
        """The chain is checked on its own, not against the depths it was
        walked from: an inverted or a short chain is an internal error."""
        from mixedpages import solver

        real = solver.rainbow_chain
        monkeypatch.setattr(
            solver, "rainbow_chain", lambda edges, depth: corrupt(real(edges, depth))
        )
        with pytest.raises(InternalError, match="no rainbow of 4 edges"):
            queue_number(rainbow(4))

    def test_queue_number_checks_pages_that_are_not_depths(self, monkeypatch):
        """Pages that swap the depths of two nested edges give no chain of
        two edges to walk: an internal error, not a StopIteration."""
        from mixedpages import solver

        monkeypatch.setattr(
            solver,
            "queue_layout",
            lambda g: PageAssignment(PageSpec.split(0, 2), (0, 1)),
        )
        with pytest.raises(InternalError, match="no rainbow of 2 edges"):
            queue_number(rainbow(2))
