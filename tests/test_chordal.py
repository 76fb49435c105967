from itertools import product
from random import Random

import pytest

import gstirling.chordal
from gstirling.chordal import (
    ChordalReport,
    Graph,
    PeoFailure,
    chromatic_check,
    count_proper_colorings,
    find_peo,
    graph_from_rgs,
    graph_stirling_bruteforce,
    graph_stirling_matrix,
    parse_graph,
    signed_inverse_check,
    verify_peo,
)
from gstirling.stirling import preset, stirling_recurrence
from gstirling.tnn import first_sign_violation, unit_lower_inverse
from oracles import (
    coloring_count,
    independent_partition_count,
    integer_rgs,
    is_identity,
    rgs_check_integer,
    rgs_graph_edges,
)

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])
TRIANGLE = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
CYCLE4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
# triangle 1-2-3 with a tail 3-4 and an apex 5 over the edge 3-4
KITE = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
STAR_LAST = Graph.from_edges(4, [(1, 4), (2, 4), (3, 4)])
STAR_FIRST = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])


class TestGraph:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(n=2, adj=(frozenset({2}), frozenset()))

    def test_edges_listing(self):
        assert KITE.edges() == [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]

    def test_reorder_is_relabeling(self):
        g = PATH3.reorder((2, 1, 3))
        # new 1 = old 2, new 2 = old 1, new 3 = old 3
        assert g.edges() == [(1, 2), (1, 3)]
        with pytest.raises(ValueError):
            PATH3.reorder((1, 1, 2))

    def test_reorder_round_trip(self):
        order = (3, 1, 4, 5, 2)
        inverse = tuple(order.index(i) + 1 for i in range(1, 6))
        assert KITE.reorder(order).reorder(inverse) == KITE


class TestParseGraph:
    def test_round_trip(self):
        text = "# comment line\nn 4  # trailing\n1 2\n2 3\n\n3 4\n"
        assert parse_graph(text) == Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])

    def test_vertex_only_graph(self):
        g = parse_graph("n 3\n")
        assert g.n == 3 and g.edges() == []

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_graph("1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_graph("# c\nn 2\n1 2 3\n")
        with pytest.raises(ValueError, match="header"):
            parse_graph("# only comments\n")

    def test_bad_integers_name_the_source_and_line(self):
        with pytest.raises(ValueError, match=r"^line 1: 'x' is not an integer$"):
            parse_graph("n x\n")
        with pytest.raises(ValueError, match=r"^g\.txt: line 3: '2\.5' is not an integer$"):
            parse_graph("n 3\n1 2\n1 2.5\n", source="g.txt")


class TestVerifyPeo:
    def test_path_in_order(self):
        report = verify_peo(PATH3)
        assert report.is_peo
        assert report.e_sequence == (0, 1, 1)
        assert report.failure is None

    def test_triangle(self):
        report = verify_peo(TRIANGLE)
        assert report.is_peo
        assert report.e_sequence == (0, 1, 2)

    def test_star_center_last_fails(self):
        report = verify_peo(STAR_LAST)
        assert not report.is_peo
        assert report.failure == PeoFailure(index=4, pair=(1, 2))
        # counts are still reported past the failure
        assert report.e_sequence == (0, 0, 0, 3)

    def test_cycle_fails(self):
        report = verify_peo(CYCLE4)
        assert not report.is_peo
        assert report.failure.index == 4

    def test_empty_graph(self):
        report = verify_peo(Graph.from_edges(0, []))
        assert report.is_peo and report.e_sequence == ()

    def test_peo_e_sequence_is_restricted_growth(self):
        for g in (PATH3, TRIANGLE, KITE, STAR_FIRST):
            report = verify_peo(g)
            assert report.is_peo
            assert rgs_check_integer(list(report.e_sequence))


class TestFindPeo:
    def test_chordal_graphs_get_orders(self):
        for g in (PATH3, TRIANGLE, KITE, STAR_LAST, Graph.from_edges(1, [])):
            found = find_peo(g)
            assert found is not None
            order, reordered, report = found
            assert sorted(order) == list(range(1, g.n + 1))
            assert reordered == g.reorder(order)
            assert report == verify_peo(reordered) and report.is_peo

    def test_cycles_are_rejected(self):
        assert find_peo(CYCLE4) is None
        c5 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert find_peo(c5) is None

    def test_star_center_gets_reordered(self):
        order = find_peo(STAR_LAST)[0]
        # center 4 must not come last under any valid order of a star
        assert order[-1] != 4 or not verify_peo(STAR_LAST).is_peo


class TestGraphStirlingMatrix:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="not a perfect elimination order"):
            graph_stirling_matrix(STAR_LAST)

    def test_empty_graph_gives_set_partitions(self):
        g = Graph.from_edges(5, [])
        assert graph_stirling_matrix(g) == stirling_recurrence(preset("stirling2", 5))

    def test_complete_graph_gives_identity(self):
        g = Graph.from_edges(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
        m = graph_stirling_matrix(g)
        assert is_identity(m.rows)

    def test_counts_match_enumeration(self):
        for g in (PATH3, TRIANGLE, KITE, STAR_FIRST):
            matrix = graph_stirling_matrix(g)
            edges = g.edges()
            for m in range(g.n + 1):
                for k in range(m + 1):
                    assert matrix.entry(m, k) == independent_partition_count(
                        g.n, edges, m, k
                    )


class TestBruteForce:
    def test_matches_matrix_on_non_peo_prefixes(self):
        # brute force needs no elimination order
        for m in range(CYCLE4.n + 1):
            assert graph_stirling_bruteforce(CYCLE4, m) == [
                independent_partition_count(4, CYCLE4.edges(), m, k)
                for k in range(m + 1)
            ]

    def test_bounds(self):
        big = Graph.from_edges(13, [])
        with pytest.raises(ValueError, match="capped at 12 vertices"):
            graph_stirling_bruteforce(big, 13)
        with pytest.raises(ValueError):
            graph_stirling_bruteforce(PATH3, 4)
        with pytest.raises(ValueError):
            graph_stirling_bruteforce(PATH3, -1)
        assert graph_stirling_bruteforce(PATH3, 3) == [0, 0, 1, 1]
        assert graph_stirling_bruteforce(PATH3, 0) == [1]


class TestColoring:
    def test_counts_match_enumeration(self):
        for g in (PATH3, TRIANGLE, CYCLE4, KITE):
            for x in range(4):
                assert count_proper_colorings(g, x) == coloring_count(
                    g.n, g.edges(), x
                )

    def test_chromatic_identity(self):
        for g in (PATH3, TRIANGLE, KITE, STAR_FIRST):
            assert chromatic_check(g, range(5)) == [True] * 5

    def test_expansion_holds_without_elimination_order(self):
        # cycle: not chordal, product form skipped, expansion still exact
        assert chromatic_check(CYCLE4, range(5)) == [True] * 5
        # chordal graph under a bad label order behaves the same way
        assert chromatic_check(STAR_LAST, range(5)) == [True] * 5

    def test_caps(self):
        with pytest.raises(ValueError, match="capped at 10 vertices"):
            chromatic_check(Graph.from_edges(11, []), [2])
        with pytest.raises(ValueError, match="capped at 6 colors"):
            chromatic_check(PATH3, [1, 7])
        assert chromatic_check(PATH3, []) == []

    def test_row_and_report_taken_once_for_all_x(self, monkeypatch):
        calls = {"graph_stirling_bruteforce": 0, "verify_peo": 0,
                 "count_proper_colorings": 0}
        for name in calls:
            real = getattr(gstirling.chordal, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(gstirling.chordal, name, counted)
        g = graph_from_rgs([0, 1, 0, 2, 1, 3])
        assert chromatic_check(g, [1, 2, 3, 4]) == [True] * 4
        assert calls == {"graph_stirling_bruteforce": 1, "verify_peo": 1,
                         "count_proper_colorings": 4}


class TestGraphFromRgs:
    def test_rejects_non_rgs(self):
        with pytest.raises(ValueError):
            graph_from_rgs([1, 0])
        with pytest.raises(ValueError):
            graph_from_rgs([0, 2])

    def test_accepts_exactly_the_classical_strings(self):
        # the chordal corollary of rgs_check against the classical definition,
        # message for message
        def outcome(fn, e):
            try:
                fn(e)
            except ValueError as exc:
                return str(exc)
            return None

        def classical(e):
            if not rgs_check_integer(e):
                raise ValueError("not an integer restricted-growth string")

        for n in range(6):
            for e in product(range(-1, 5), repeat=n):
                assert outcome(graph_from_rgs, e) == outcome(classical, e), e

    def test_examples(self):
        assert graph_from_rgs([]) == Graph.from_edges(0, [])
        assert graph_from_rgs([0, 1, 1]) == Graph.from_edges(3, [(1, 2), (1, 3)])
        assert graph_from_rgs([0, 1, 2]) == TRIANGLE

    def test_round_trip_all_short_strings(self):
        for n in range(6):
            for e in integer_rgs(n):
                g = graph_from_rgs(e)
                report = verify_peo(g)
                assert report.is_peo
                assert report.e_sequence == e

    def test_matches_subset_search_oracle(self):
        for n in range(9):
            for e in integer_rgs(n):
                assert graph_from_rgs(e) == Graph.from_edges(n, rgs_graph_edges(e)), e

    def test_wide_clique_after_a_long_zero_prefix(self):
        # the subset search tries C(33, 9) candidates for the last vertex
        e = (0,) * 25 + tuple(range(1, 10))
        g = graph_from_rgs(e)
        assert verify_peo(g).e_sequence == e
        assert sorted(g.adj[-1]) == [1] + list(range(26, 34))


class TestSignedInverseCheck:
    def test_requires_elimination_order(self):
        with pytest.raises(ValueError):
            signed_inverse_check(STAR_LAST)

    def test_clean_report(self):
        report = signed_inverse_check(KITE)
        assert isinstance(report, ChordalReport)
        assert report.ok
        assert report.peo.is_peo
        assert report.tnn_witness is None
        assert report.sign_violation is None

    def test_complete_graph_inverse_is_identity(self):
        g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        report = signed_inverse_check(g)
        assert report.ok
        assert report.zero_inverse_entries == ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

    def test_empty_graph_inverse_zeros_sit_in_column_zero(self):
        # inverse of the partition triangle: s(m,0) = 0 for m >= 1, interior
        # entries all nonzero
        report = signed_inverse_check(Graph.from_edges(4, []))
        assert report.ok
        assert report.zero_inverse_entries == ((1, 0), (2, 0), (3, 0), (4, 0))

    def test_max_order_is_forwarded(self):
        full = signed_inverse_check(KITE)
        shallow = signed_inverse_check(KITE, max_order=1)
        assert full.ok and shallow.ok

    def test_random_rgs_graphs(self):
        rng = Random(7331)
        strings = integer_rgs(5)
        for e in rng.sample(strings, 20):
            assert signed_inverse_check(graph_from_rgs(e)).ok

    def test_orders_verified_and_matrices_inverted_once(self, monkeypatch):
        calls = {"verify_peo": 0, "unit_lower_inverse": 0}
        for name in calls:
            real = getattr(gstirling.chordal, name)

            def counted(arg, _real=real, _name=name):
                calls[_name] += 1
                return _real(arg)

            monkeypatch.setattr(gstirling.chordal, name, counted)
        for e in integer_rgs(5):
            g = graph_from_rgs(e)
            before = dict(calls)
            report = signed_inverse_check(g)
            assert {k: calls[k] - before[k] for k in calls} == {
                "verify_peo": 1, "unit_lower_inverse": 1}
            matrix = graph_stirling_matrix(g)
            inv = unit_lower_inverse(matrix)
            assert report.peo == verify_peo(g)
            assert report.sign_violation == first_sign_violation(inv)
            assert report.zero_inverse_entries == tuple(
                (m, k) for m in range(inv.n + 1) for k in range(m)
                if inv.entry(m, k) == 0
            )
