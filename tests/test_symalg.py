"""Edge modules, admissible paths, the chordality equivalence, cycle
complexes, and the depth bound graph-stats reports."""

import random
from dataclasses import replace
from itertools import chain, combinations, permutations

import pytest

from xcond.graphs import (
    Graph,
    all_connected_graphs,
    back_degrees,
    connected_graph_representatives,
    connectivity_profile,
    depth_bound_a,
    path_graph,
)
from xcond.groebner import GroebnerBasis, ScaleExceeded, reduced_groebner_basis
from xcond.ring import (
    Monomial,
    Polynomial,
    lex_order,
    render_monomial,
    render_polynomial,
)
from xcond.symalg import (
    admissible_path_basis,
    admissible_paths,
    cycle_complex,
    cycle_complex_checks,
    edge_module,
    equivalence_check,
    pair_context,
)


def labeled(n, edges):
    names = tuple(f"v{t}" for t in range(1, n + 1))
    return Graph.make(names, [(f"v{a}", f"v{b}") for a, b in edges])


C4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
C5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]


def literal_admissible(graph):
    """The definition read literally, as (vertices, u_pi) pairs: distinct
    vertices i = v_0, ..., v_r = j with i < j, every interior vertex below i
    or above j, and no proper subsequence i, ..., j of the path a path;
    u_pi multiplies x_v over interior v > j and y_v over interior v < i."""
    n = graph.n

    def is_path(seq):
        return all(graph.has_edge(a, b) for a, b in zip(seq, seq[1:]))

    out = []
    for i, j in combinations(range(n), 2):
        outside = [v for v in range(n) if v < i or v > j]
        for size in range(len(outside) + 1):
            for interior in permutations(outside, size):
                if not is_path((i, *interior, j)) or any(
                    is_path((i, *sub, j))
                    for k in range(size)
                    for sub in combinations(interior, k)
                ):
                    continue
                pairs = [(v, 1) for v in interior if v > j]
                pairs += [(n + v, 1) for v in interior if v < i]
                out.append(((i, *interior, j), Monomial.from_pairs(pairs, 2 * n)))
    return sorted(out, key=lambda entry: (entry[0][0], entry[0][-1], entry[0]))


class TestEdgeModule:
    def test_single_edge(self):
        ideal = edge_module(labeled(2, [(1, 2)]))
        basis = GroebnerBasis(ideal.context, ideal.order, ideal.packing, ideal.generators)
        assert [render_polynomial(g, ideal.context) for g in basis.elements] == ["x1*y2 - x2*y1"]

    def test_one_generator_per_edge(self):
        assert len(edge_module(labeled(3, [(1, 2), (2, 3)])).generators) == 2
        assert len(edge_module(labeled(4, C4)).generators) == 4

    def test_context_blocks(self):
        ctx = pair_context(3)
        assert ctx.names == ("x1", "x2", "x3", "y1", "y2", "y3")
        assert ctx.block_indices("base") == (0, 1, 2)
        assert ctx.block_indices("fiber") == (3, 4, 5)


class TestAdmissiblePaths:
    def test_edge_paths_have_unit_multiplier(self):
        paths = admissible_paths(labeled(3, [(1, 2), (2, 3)]))
        assert [(p.i, p.j) for p in paths] == [(0, 1), (1, 2)]
        assert all(p.u_pi.is_one() for p in paths)

    def test_low_interior_contributes_y(self):
        g = labeled(3, [(1, 2), (1, 3)])
        paths = admissible_paths(g)
        detour = [p for p in paths if p.interior][0]
        assert detour.vertices == (1, 0, 2)
        assert render_monomial(detour.u_pi, pair_context(3)) == "y1"

    def test_four_cycle_catalogue(self):
        ctx = pair_context(4)
        paths = admissible_paths(labeled(4, C4))
        listing = [
            (tuple(v + 1 for v in p.vertices), render_monomial(p.u_pi, ctx))
            for p in paths
        ]
        assert listing == [
            ((1, 2), "1"),
            ((1, 4, 3), "x4"),
            ((1, 4), "1"),
            ((2, 3), "1"),
            ((2, 1, 4), "y1"),
            ((3, 4), "1"),
        ]

    def test_adjacent_endpoints_admit_no_detour(self):
        # the bare edge is a shortcut of any longer route between its ends
        for p in admissible_paths(labeled(4, C4)):
            if p.interior:
                assert not labeled(4, C4).has_edge(p.i, p.j)

    def test_search_cap(self):
        with pytest.raises(ScaleExceeded):
            admissible_paths(path_graph(11))

    def test_definition_on_every_small_graph(self):
        # every labeled connected graph on 2-5 vertices, every 6-vertex class
        graphs = chain(
            *(all_connected_graphs(n) for n in range(2, 6)),
            connected_graph_representatives(6),
        )
        for g in graphs:
            found = [(p.vertices, p.u_pi) for p in admissible_paths(g)]
            assert found == literal_admissible(g), sorted(g.edges)

    def test_definition_on_sampled_seven_and_eight_vertex_graphs(self):
        # the literal reference is exponential, so a seeded sample of 20
        # connected graphs: a random spanning tree under a random labeling,
        # plus each other vertex pair with probability 0.3
        rng = random.Random(2026)
        for s in range(20):
            n = 7 + s % 2
            label = rng.sample(range(1, n + 1), n)
            edges = {tuple(sorted((label[v], label[rng.randrange(v)]))) for v in range(1, n)}
            edges |= {e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.3}
            g = labeled(n, sorted(edges))
            found = [(p.vertices, p.u_pi) for p in admissible_paths(g)]
            assert found == literal_admissible(g), sorted(g.edges)

    def test_interiors_below_start(self):
        # every interior vertex lies below i or above j, so the interiors
        # all lie below i exactly when no multiplier has an x-variable
        for g, below in (
            (path_graph(5), True),
            (labeled(3, [(1, 2), (1, 3), (2, 3)]), True),
            (labeled(4, C4), False),
        ):
            paths = admissible_paths(g)
            assert all(v < p.i for p in paths for v in p.interior) == below
            assert all(not any(p.u_pi.exps[: g.n]) for p in paths) == below


class TestAdmissibleBasis:
    @pytest.mark.parametrize(
        "n,edges",
        [
            (3, [(1, 2), (2, 3)]),
            (3, [(1, 2), (1, 3), (2, 3)]),
            (3, [(1, 2), (1, 3)]),
            (4, C4),
            (5, C5),
            (5, [(1, 2), (1, 3), (1, 4), (1, 5)]),
        ],
    )
    def test_equals_computed_reduced_basis(self, n, edges):
        g = labeled(n, edges)
        assert admissible_path_basis(g) == reduced_groebner_basis(edge_module(g))

    def test_equality_compares_context_order_packing_and_entries(self):
        """Both bases take the one cached packing of lex on pair_context(n),
        so == compares their entries; any other basis differs."""
        g = labeled(4, C4)
        basis = admissible_path_basis(g)
        gb = reduced_groebner_basis(edge_module(g))
        assert basis.packing is gb.packing and basis == gb
        assert GroebnerBasis.of(gb.elements, gb.context, gb.order) == basis
        first, *rest = gb.elements
        flipped = Polynomial((first.terms[0], *((m, -c) for m, c in first.terms[1:])))
        reordered = lex_order(*reversed(gb.context.names))
        for other in (
            GroebnerBasis.of(gb.elements[:-1], gb.context, gb.order),
            GroebnerBasis.of((flipped, *rest), gb.context, gb.order),
            GroebnerBasis.of(gb.elements, gb.context, reordered),
            replace(gb, context=pair_context(5)),
        ):
            assert basis != other

    def test_four_cycle_elements(self):
        basis = admissible_path_basis(labeled(4, C4))
        renders = sorted(render_polynomial(g, basis.context) for g in basis.elements)
        assert renders == [
            "x1*x4*y3 - x3*x4*y1",
            "x1*y2 - x2*y1",
            "x1*y4 - x4*y1",
            "x2*y1*y4 - x4*y1*y2",
            "x2*y3 - x3*y2",
            "x3*y4 - x4*y3",
        ]

    def test_elements_descend_by_leading_monomial(self):
        basis = admissible_path_basis(labeled(5, C5))
        key = basis.compiled().key
        leads = [key(g.lm()) for g in basis.elements]
        assert leads == sorted(leads, reverse=True)


class TestEquivalence:
    def test_scale_cap(self):
        with pytest.raises(ScaleExceeded):
            equivalence_check(path_graph(9))

    def test_four_cycle(self):
        rep = equivalence_check(labeled(4, C4))
        assert not rep.chordal
        assert not rep.x_condition
        assert rep.violations == ("x1*x4*y3",)
        assert not rep.basis_x_condition
        assert not rep.colon_route_linear
        assert rep.basis_matches and rep.back_edges_match
        assert rep.routes_agree and rep.equivalence_ok

    def test_five_cycle(self):
        rep = equivalence_check(labeled(5, C5))
        assert not rep.chordal
        assert set(rep.violations) == {
            "x1*x5*y4",
            "x2*x5*y1*y4",
            "x1*x4*x5*y3",
        }
        assert rep.equivalence_ok

    def test_path_is_linear(self):
        rep = equivalence_check(labeled(4, [(1, 2), (2, 3), (3, 4)]))
        assert rep.chordal and rep.x_condition and rep.colon_route_linear
        assert rep.violations == ()
        assert rep.equivalence_ok

    def test_relabel_rescues_a_bad_star_labeling(self):
        # center listed last is not an elimination order; the check relabels
        star = labeled(4, [(1, 4), (2, 4), (3, 4)])
        rep = equivalence_check(star)
        assert rep.chordal and rep.x_condition and rep.equivalence_ok
        assert set(rep.labeling) == {"v1", "v2", "v3", "v4"}

    def test_labeled_sweep_through_four_vertices(self):
        for n in range(2, 5):
            for g in all_connected_graphs(n):
                rep = equivalence_check(g)
                assert rep.equivalence_ok, sorted(g.edges)


class TestCycleComplex:
    def test_range_enforced(self):
        for r in (3, 8):
            with pytest.raises(ValueError):
                cycle_complex(r)

    def test_matrix_shape_r4(self):
        cc = cycle_complex(4)
        rows = [
            [render_polynomial(p, cc.context) if not p.is_zero() else "0" for p in row]
            for row in cc.phi1
        ]
        assert rows == [
            ["-x2", "0", "0", "x4"],
            ["x1", "-x3", "0", "0"],
            ["0", "x2", "-x4", "0"],
            ["0", "0", "x3", "-x1"],
        ]
        assert [render_polynomial(u, cc.context) for u in cc.phi2] == [
            "x3*x4",
            "x1*x4",
            "x1*x2",
            "x2*x3",
        ]

    @pytest.mark.parametrize("r", [4, 5, 6, 7])
    def test_full_report(self, r):
        rep = cycle_complex_checks(r)
        assert rep.product_zero
        assert rep.minor_matches
        assert rep.gcd_one
        assert rep.det_phi1_zero
        assert (rep.rank_phi1, rep.rank_phi2) == (r - 1, 1)
        assert rep.rank_by_evaluation
        assert rep.betti == (r, r, 1)
        assert not rep.linear_resolution
        assert rep.ok

    def test_witness_minor_is_the_variable_window(self):
        assert cycle_complex_checks(4).witness_minor == "x1*x2*x3"
        assert cycle_complex_checks(6).witness_minor == "x1*x2*x3*x4*x5"


class TestDepthBounds:
    """The graph-stats depth bound on the identity labeling, which must be
    a perfect elimination order."""

    def test_path(self):
        g = path_graph(5)
        assert depth_bound_a(g, range(5)) == 4
        assert back_degrees(g, range(5)) == (0, 1, 1, 1, 1)

    def test_complete_graph(self):
        k4 = labeled(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        assert depth_bound_a(k4, range(4)) == 1
        assert max(back_degrees(k4, range(4))) == 3

    def test_star_center_first(self):
        star = labeled(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        assert depth_bound_a(star, range(5)) == 4
        assert back_degrees(star, range(5)) == (0, 1, 1, 1, 1)

    def test_rejects_non_elimination_labeling(self):
        star_center_last = labeled(4, [(1, 4), (2, 4), (3, 4)])
        with pytest.raises(ValueError):
            back_degrees(star_center_last, range(4))

    def test_bound_complements_projdim(self):
        # the initial presentation is Koszul with projdim max back degree
        for g in (path_graph(4), path_graph(6)):
            labeling = range(g.n)
            assert depth_bound_a(g, labeling) + max(back_degrees(g, labeling)) == g.n

    def test_profile_bundled(self):
        profile = connectivity_profile(path_graph(4))
        assert profile["dim_sym"] >= 4
        assert profile["limit_upper_printed"] >= 1
