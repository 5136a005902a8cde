"""Graph families, cover enumeration, chordality, depth combinatorics."""

import itertools

import pytest

from xcond.graphs import (
    Graph,
    all_connected_graphs,
    back_degrees,
    biclique_graph,
    cameron_walker_graph,
    connected_graph_representatives,
    connectivity_profile,
    depth_bound_a,
    has_chordless_cycle,
    is_chordal,
    is_connected,
    minimal_vertex_covers,
    path_graph,
    peo,
    relabel,
)
from xcond.groebner import MonomialIdeal
from xcond.ring import Monomial


def cover_names(graph, cover):
    return {graph.vertices[i] for i in cover}


def cycle_graph(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    edges = [(f"x{i}", f"x{i+1}") for i in range(1, n)] + [("x1", f"x{n}")]
    return Graph.make(names, edges)


def complete_graph(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    return Graph.make(names, itertools.combinations(names, 2))


class TestConstruction:
    def test_path_edges(self):
        g = path_graph(4)
        assert g.vertices == ("x1", "x2", "x3", "x4")
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_biclique_structure(self):
        g = biclique_graph(2, 3, 2)
        assert g.n == 7
        # x-side is a clique with each of the two sides, no y-z edges
        assert g.has_edge(g.vertices.index("x1"), g.vertices.index("x2"))
        assert g.has_edge(g.vertices.index("x1"), g.vertices.index("y2"))
        assert g.has_edge(g.vertices.index("x2"), g.vertices.index("z1"))
        assert g.has_edge(g.vertices.index("y1"), g.vertices.index("y3"))
        assert g.has_edge(g.vertices.index("z1"), g.vertices.index("z2"))
        assert not g.has_edge(g.vertices.index("y1"), g.vertices.index("z1"))

    def test_cw_smallest(self):
        g = cameron_walker_graph((1,), (1,))
        assert set(g.vertices) == {"a1_1", "b1_1", "c1_1", "zeta1", "xi1"}
        assert g.has_edge(g.vertices.index("xi1"), g.vertices.index("zeta1"))
        assert g.has_edge(g.vertices.index("xi1"), g.vertices.index("a1_1"))
        assert g.has_edge(g.vertices.index("zeta1"), g.vertices.index("b1_1"))
        assert g.has_edge(g.vertices.index("b1_1"), g.vertices.index("c1_1"))

    def test_cw_vertex_order(self):
        g = cameron_walker_graph((3, 1, 2, 1), (2, 0, 1))
        assert g.vertices == (
            "a1_1", "a1_2", "a1_3", "a2_1", "a3_1", "a3_2", "a4_1",
            "b1_1", "c1_1", "b1_2", "c1_2", "b3_1", "c3_1",
            "zeta1", "zeta2", "zeta3", "xi1", "xi2", "xi3", "xi4",
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            path_graph(1)
        with pytest.raises(ValueError):
            biclique_graph(0, 1, 1)
        with pytest.raises(ValueError):
            cameron_walker_graph((0,), (1,))
        with pytest.raises(ValueError):
            Graph.make(("a",), [("a", "a")])


class TestCovers:
    def test_p3(self):
        g = path_graph(3)
        cs = minimal_vertex_covers(g)
        assert [cover_names(g, c) for c in cs.covers] == [{"x1", "x3"}, {"x2"}]

    def test_path_counts(self):
        assert len(minimal_vertex_covers(path_graph(5)).covers) == 4
        assert len(minimal_vertex_covers(path_graph(6)).covers) == 5
        assert len(minimal_vertex_covers(path_graph(8)).covers) == 9

    def test_p8_printed_order(self):
        g = path_graph(8)
        got = [cover_names(g, c) for c in minimal_vertex_covers(g).covers]
        assert got == [
            {"x1", "x3", "x4", "x6", "x7"},
            {"x1", "x3", "x4", "x6", "x8"},
            {"x1", "x3", "x5", "x6", "x8"},
            {"x1", "x3", "x5", "x7"},
            {"x2", "x3", "x5", "x6", "x8"},
            {"x2", "x3", "x5", "x7"},
            {"x2", "x4", "x5", "x7"},
            {"x2", "x4", "x6", "x7"},
            {"x2", "x4", "x6", "x8"},
        ]

    def test_biclique_cover_shapes_and_order(self):
        p, q, r = 2, 3, 2
        g = biclique_graph(p, q, r)
        got = [cover_names(g, c) for c in minimal_vertex_covers(g).covers]
        xs = {f"x{i}" for i in range(1, p + 1)}
        ys = {f"y{j}" for j in range(1, q + 1)}
        zs = {f"z{k}" for k in range(1, r + 1)}
        expected = [(xs - {f"x{i}"}) | ys | zs for i in range(1, p + 1)]
        for j in range(1, q + 1):
            for k in range(r, 0, -1):
                expected.append(xs | (ys - {f"y{j}"}) | (zs - {f"z{k}"}))
        assert got == expected

    def test_biclique_generator_count(self):
        assert len(minimal_vertex_covers(biclique_graph(2, 3, 2)).covers) == 2 + 3 * 2

    def test_cw_example_printed_covers_present(self):
        g = cameron_walker_graph((3, 1, 2, 1), (2, 0, 1))
        sets = [cover_names(g, c) for c in minimal_vertex_covers(g).covers]
        printed = [
            {"xi1", "xi4", "zeta1", "zeta2", "zeta3", "a2_1", "a3_1", "a3_2",
             "b1_1", "c1_2", "c3_1"},
            {"xi1", "xi2", "xi3", "xi4", "zeta3", "b1_1", "c1_1", "b1_2",
             "c1_2", "c3_1"},
            {"xi1", "xi2", "xi4", "zeta1", "zeta2", "zeta3", "a3_1", "a3_2",
             "b1_1", "c1_2", "b3_1"},
            {"xi1", "xi3", "xi4", "zeta1", "zeta2", "zeta3", "a2_1", "c1_1",
             "b1_2", "c3_1"},
            {"xi1", "xi2", "xi3", "xi4", "zeta1", "b1_1", "b1_2", "b3_1",
             "c3_1"},
        ]
        positions = [sets.index(w) for w in printed]
        # the type (iv)/(v) pair needs r3 > r4 and the type (vi) pair r2 < r5
        assert positions[2] > positions[3]
        assert positions[1] < positions[4]

    def test_cover_ideal_p3(self):
        ideal = MonomialIdeal.make(minimal_vertex_covers(path_graph(3)).monomials())
        assert set(ideal.generators) == {Monomial((0, 1, 0)), Monomial((1, 0, 1))}

    def test_cover_ideal_p4(self):
        ideal = MonomialIdeal.make(minimal_vertex_covers(path_graph(4)).monomials())
        assert set(ideal.generators) == {
            Monomial((1, 0, 1, 0)),
            Monomial((0, 1, 1, 0)),
            Monomial((0, 1, 0, 1)),
        }

    def test_covers_against_exhaustive_enumeration(self):
        for g in (path_graph(5), cycle_graph(5), biclique_graph(2, 2, 2)):
            n = g.n
            brute = []
            for mask in range(1 << n):
                c = {v for v in range(n) if mask >> v & 1}
                if not all(a in c or b in c for a, b in g.edges):
                    continue
                if any(
                    all(a in c - {v} or b in c - {v} for a, b in g.edges)
                    for v in c
                ):
                    continue
                brute.append(frozenset(c))
            assert set(minimal_vertex_covers(g).covers) == set(brute)


class TestChordality:
    def test_paths_chordal(self):
        for n in range(2, 9):
            assert peo(path_graph(n)) is not None

    def test_c4_not_chordal(self):
        assert peo(cycle_graph(4)) is None

    def test_k4_chordal(self):
        assert peo(complete_graph(4)) is not None

    def test_peo_matches_cycle_oracle_exhaustively(self):
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                assert is_chordal(g) == (not has_chordless_cycle(g))

    def test_peo_is_prefix_simplicial(self):
        for g in (path_graph(6), complete_graph(5), biclique_graph(2, 2, 2)):
            order = peo(g)
            if order is None:
                continue
            back_degrees(g, order)  # raises if not prefix-simplicial


class TestDepthBounds:
    def test_path_natural_labeling(self):
        for n in (2, 5, 8):
            assert depth_bound_a(path_graph(n), tuple(range(n))) == n - 1

    def test_complete_graph(self):
        g = complete_graph(5)
        assert depth_bound_a(g, peo(g)) == 1

    def test_single_edge(self):
        assert depth_bound_a(path_graph(2), (0, 1)) == 1

    def test_star(self):
        g = Graph.make(
            ("l1", "l2", "l3", "l4", "c"),
            [("c", f"l{i}") for i in range(1, 5)],
        )
        # center first or second are the only prefix-simplicial placements,
        # and both give back degrees (0, 1, 1, 1, 1)
        assert depth_bound_a(g, (4, 0, 1, 2, 3)) == 4
        assert depth_bound_a(g, (0, 4, 1, 2, 3)) == 4
        with pytest.raises(ValueError):
            back_degrees(g, (0, 1, 2, 3, 4))

    def test_non_peo_rejected(self):
        with pytest.raises(ValueError):
            back_degrees(cycle_graph(4), (0, 1, 2, 3))


class TestConnectivityProfile:
    def test_p3(self):
        assert connectivity_profile(path_graph(3))["dim_sym"] == 4

    def test_k2(self):
        prof = connectivity_profile(path_graph(2))
        assert prof["dim_sym"] == 3
        assert prof["limit_upper_corrected"] == 1
        # the proper-subset maximum of |A| - c(A) undershoots the corrected bound
        assert prof["limit_upper_printed"] == 0

    def test_connected_baseline(self):
        for g in (path_graph(4), complete_graph(4), cycle_graph(5)):
            prof = connectivity_profile(g)
            assert prof["dim_sym"] >= g.n + 1


class TestEnumeration:
    def test_labeled_connected_counts(self):
        assert [sum(1 for _ in all_connected_graphs(n)) for n in (1, 2, 3, 4, 5)] == [
            1, 1, 4, 38, 728,
        ]

    def test_isomorphism_class_counts(self):
        assert [len(connected_graph_representatives(n)) for n in (1, 2, 3, 4, 5)] == [
            1, 1, 2, 6, 21,
        ]

    def test_relabel_preserves_structure(self):
        g = cycle_graph(5)
        h = relabel(g, (2, 0, 1, 4, 3))
        assert is_connected(h)
        assert len(h.edges) == len(g.edges)
        assert not is_chordal(h)
