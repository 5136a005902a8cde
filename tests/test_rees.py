"""Rees presentations, the x-condition, and the quotients pipeline."""

import math
from collections import Counter
from functools import cached_property
from itertools import chain, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xcond import betti, rees
from xcond.betti import betti_numbers, is_componentwise_linear
from xcond.families import biclique_claimed, cw_claimed, fiber_names
from xcond.graphs import (
    Graph,
    all_connected_graphs,
    biclique_graph,
    cameron_walker_graph,
    connected_graph_representatives,
    minimal_vertex_covers,
    path_graph,
    peo,
)
from xcond.groebner import GroebnerBasis, Ideal, MonomialIdeal, eliminate, reduced_groebner_basis
from xcond.rees import (
    betti_from_quotients,
    colon_cross_check,
    componentwise_certificate,
    default_fiber_names,
    extended_context,
    kernel_member,
    presentation_order,
    quotient_steps,
    rees_ideal,
    standard_monomials,
    standard_rewrites,
    x_condition,
)
from xcond.ring import (
    Monomial,
    VarContext,
    block_order,
    lex_order,
    parse_polynomial,
    render_monomial,
    render_polynomial,
    weighted_order,
)
from xcond.symalg import edge_module


def path_presentation(n, **kwargs):
    g = path_graph(n)
    ctx = g.context()
    gens = minimal_vertex_covers(g).monomials()
    return rees_ideal(ctx, gens, **kwargs)


def weighted_presentation(g):
    """g's covers in nondecreasing degree, the fiber compared by image
    degree with ties won by the later fiber variable, then lex on the base."""
    ctx = g.context()
    gens = tuple(sorted(minimal_vertex_covers(g).monomials(), key=Monomial.degree))
    weights = tuple(m.degree() for m in gens)
    tie = lex_order(*reversed(default_fiber_names(len(gens))))
    order = presentation_order(weighted_order(weights, tie), lex_order(*ctx.names))
    return rees_ideal(ctx, gens, order=order)


def biclique_presentation(p, q, r):
    g = biclique_graph(p, q, r)
    gens = minimal_vertex_covers(g).monomials()
    return rees_ideal(g.context(), gens, fiber_names=fiber_names(g, len(gens)))


class TestConstruction:
    def test_p3_single_binomial(self):
        pres = path_presentation(3)
        assert len(pres.gb.elements) == 1
        rendered = render_polynomial(pres.gb.elements[0], pres.extended)
        assert rendered == "y1*x2 - y2*x1*x3"

    def test_single_free_generator(self):
        ctx = VarContext.make(("x1",))
        pres = rees_ideal(ctx, (Monomial((1,)),))
        assert pres.gb.elements == ()
        assert x_condition(pres.gb).holds

    def test_generators_must_be_minimal(self):
        ctx = VarContext.make(("x1", "x2"))
        with pytest.raises(ValueError, match="not minimal"):
            rees_ideal(ctx, (Monomial((1, 0)), Monomial((1, 1))))

    def test_unit_and_empty_generators_rejected(self):
        ctx = VarContext.make(("x1",))
        with pytest.raises(ValueError):
            rees_ideal(ctx, (Monomial((0,)),))
        with pytest.raises(ValueError):
            rees_ideal(ctx, ())

    def test_fiber_names_must_be_fresh(self):
        g = biclique_graph(1, 1, 1)
        with pytest.raises(ValueError, match="fresh"):
            # the base ring already owns y1
            rees_ideal(g.context(), minimal_vertex_covers(g).monomials())

    def test_order_must_lead_with_fiber(self):
        g = path_graph(3)
        ctx = g.context()
        gens = minimal_vertex_covers(g).monomials()
        ext = extended_context(ctx, gens)
        bad = block_order(
            ("base", lex_order(*ctx.names)),
            ("fiber", lex_order(*ext.block_vars("fiber"))),
        )
        with pytest.raises(ValueError, match="fiber block"):
            rees_ideal(ctx, gens, order=bad)

    def test_kernel_membership(self):
        pres = path_presentation(3)
        ext = pres.extended
        member = parse_polynomial("y1*x2 - y2*x1*x3", ext)
        stranger = parse_polynomial("y1*x2 - y2*x1", ext)
        assert kernel_member(member, pres.gens, ext)
        assert not kernel_member(stranger, pres.gens, ext)


class TestOnePass:
    """The t-free part of the elimination basis is already reduced under
    the presentation order: re-running Buchberger on it changes nothing,
    not even the term order inside an element."""

    @staticmethod
    def assert_closed(pres):
        again = reduced_groebner_basis(Ideal.make(pres.gb.elements, pres.extended, pres.gb.order))
        assert [g.terms for g in again.elements] == [g.terms for g in pres.gb.elements]

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_paths(self, n, weighted):
        g = path_graph(n)
        self.assert_closed(weighted_presentation(g) if weighted else path_presentation(n))

    def test_biclique_232(self):
        self.assert_closed(biclique_claimed(2, 3, 2).presentation())

    def test_cw_11_1(self):
        self.assert_closed(cw_claimed(cameron_walker_graph((1, 1), (1,))).presentation())


class TestPackedStrip:
    """rees_ideal keeps the packed entries of the elimination basis as they
    are: t is the last field, so a t-free vector and its key are already
    those of the presentation's packing, and the entries equal those of
    the kernel's Polynomials packed again under the order."""

    @staticmethod
    def assert_strip(pres):
        again = GroebnerBasis.of(pres.gb.elements, pres.extended, pres.gb.order)
        assert again.packing is pres.gb.packing
        assert pres.gb.entries == again.entries and pres.gb.entries

    @pytest.mark.parametrize("n", range(4, 10))
    def test_paths(self, n):
        self.assert_strip(path_presentation(n))

    def test_cw_revlex_fiber(self):
        self.assert_strip(cw_claimed(cameron_walker_graph((1, 1), (0,))).presentation())

    def test_weighted_fiber(self):
        pres = weighted_presentation(path_graph(7))
        assert pres.gb.order.parts[0][1].kind == "weighted"
        self.assert_strip(pres)


class TestHandoff:
    """The elimination basis reaches the presentation without re-layout."""

    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_entries_are_eliminates(self, n, monkeypatch):
        calls = []

        def recording(ideal, block, *args, **kwargs):
            gb = eliminate(ideal, block, *args, **kwargs)
            calls.append((ideal.context, block, gb))
            return gb

        monkeypatch.setattr(rees, "eliminate", recording)
        pres = path_presentation(n)
        ((ctx, block, contracted),) = calls
        assert ctx.names[-1] == rees.ELIM_VAR and block == (rees.ELIM_VAR,)
        assert ctx.names[:-1] == pres.extended.names
        assert pres.gb.entries is contracted.entries


class TestXConditionBlocks:
    """x_condition reads the base block of the basis's context, so one
    function serves R(I) and Sym(M_G)."""

    def test_star_rees_algebra(self):
        g = Graph.make(("a", "b", "c", "d"), [("a", "b"), ("a", "c"), ("a", "d")])
        pres = rees_ideal(g.context(), minimal_vertex_covers(g).monomials())
        report = x_condition(pres.gb)
        assert not report.holds
        assert [render_monomial(m, pres.extended) for m in report.violations] == ["y1*b*c*d"]

    def test_four_cycle_symmetric_algebra(self):
        names = ("v1", "v2", "v3", "v4")
        g = Graph.make(names, [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")])
        ideal = edge_module(g)
        report = x_condition(reduced_groebner_basis(ideal))
        assert not report.holds
        ctx = ideal.context
        assert [render_monomial(m, ctx) for m in report.violations] == ["x1*x4*y3"]


class TestPackedXCondition:
    """x_condition reads the packed leading monomials of the minimal
    entries; its violations are the generators of gb.initial that
    Monomial.degree_on finds of base degree above one, in their order."""

    GRAPHS = {
        **{f"P{n}": (path_graph, n) for n in range(3, 10)},
        "cw p=1 q=1": (cameron_walker_graph, (1,), (1,)),
        "cw p=2 q=1": (cameron_walker_graph, (2,), (1,)),
        "cw p=1,1 q=0": (cameron_walker_graph, (1, 1), (0,)),
        "cw p=1,1 q=1,1": (cameron_walker_graph, (1, 1), (1, 1)),
        "biclique 2 2 2": (biclique_graph, 2, 2, 2),
        "biclique 2 3 2": (biclique_graph, 2, 3, 2),
    }

    @staticmethod
    def assert_reference(gb):
        """x_condition(gb) against the Monomial reading; the number of
        violations."""
        base_idx = gb.context.block_indices("base")
        want = tuple(m for m in gb.initial.generators if m.degree_on(base_idx) > 1)
        report = x_condition(gb)
        assert report.violations == want
        assert report.holds == (not want)
        return len(want)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_rees_presentations(self, name):
        make, *args = self.GRAPHS[name]
        g = make(*args)
        gens = minimal_vertex_covers(g).monomials()
        pres = rees_ideal(g.context(), gens, fiber_names=fiber_names(g, len(gens)))
        self.assert_reference(pres.gb)

    def test_edge_modules_of_non_chordal_graphs(self):
        graphs = chain(
            *(all_connected_graphs(n) for n in range(2, 6)),
            connected_graph_representatives(6),
        )
        counts = []
        for g in graphs:
            if peo(g) is None:
                counts.append(self.assert_reference(reduced_groebner_basis(edge_module(g))))
        assert counts and min(counts) >= 1 and max(counts) > 1


class TestPathEight:
    def test_basis_size_and_purity(self):
        pres = path_presentation(8)
        assert len(pres.gb.elements) == 26
        assert all(e.is_binomial_pm1() for e in pres.gb.elements)

    def test_known_elements_present(self):
        pres = path_presentation(8)
        rendered = {render_polynomial(e, pres.extended) for e in pres.gb.elements}
        # the lcm-repair element replacing the two equal-initial binomials
        assert "y1*y5 - y4*y9*x3*x6" in rendered
        # base-degree-2 rewrites forced by x1 | u1, x3x4 | u1, x1 | u2
        assert "y1*x2 - y8*x1*x3" in rendered
        assert "y1*x5 - y4*x4*x6" in rendered
        assert "y2*x2 - y9*x1*x3" in rendered

    def test_x_condition_holds(self):
        pres = path_presentation(8)
        report = x_condition(pres.gb)
        assert report.holds
        assert report.violations == ()
        assert all(m.degree() == 2 for m in pres.gb.initial.generators)


class TestBiclique:
    def test_basis_sizes(self):
        assert len(biclique_presentation(1, 1, 1).gb.elements) == 1
        assert len(biclique_presentation(2, 2, 2).gb.elements) == 7
        assert len(biclique_presentation(2, 3, 2).gb.elements) == 12
        assert len(biclique_presentation(3, 2, 2).gb.elements) == 8

    def test_x_condition(self):
        for shape in ((2, 2, 2), (2, 3, 2)):
            assert x_condition(biclique_presentation(*shape).gb).holds

    def test_standard_count_232(self):
        pres = biclique_presentation(2, 3, 2)
        # C(8+1, 2) degree-2 fiber monomials minus the three pure-fiber initials
        assert len(standard_monomials(pres, 2).entries) == 33


class TestStandardMonomials:
    def test_k1_is_all_fiber_variables(self):
        pres = path_presentation(5)
        basis = standard_monomials(pres, 1)
        names = [render_monomial(w, pres.extended) for w in basis.monomials()]
        assert sorted(names) == ["y1", "y2", "y3", "y4"]
        assert basis.images() == tuple(reversed(pres.gens))

    def test_p3_k2_all_standard_ascending(self):
        pres = path_presentation(3)
        basis = standard_monomials(pres, 2)
        names = [render_monomial(w, pres.extended) for w in basis.monomials()]
        assert names == ["y2^2", "y1*y2", "y1^2"]
        imgs = [render_monomial(h, pres.base) for h in basis.images()]
        assert imgs == ["x2^2", "x1*x2*x3", "x1^2*x3^2"]

    def test_rewrites_sound_p8(self):
        pres = path_presentation(8)
        rewrites = standard_rewrites(pres, 2)
        assert rewrites
        standard = set(standard_monomials(pres, 2).monomials())
        for w, _remainder in rewrites:
            assert w not in standard

    def test_no_rewrites_when_all_standard(self):
        assert standard_rewrites(path_presentation(3), 2) == ()

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            standard_monomials(path_presentation(3), 0)

    @pytest.mark.parametrize(
        "graph",
        [path_graph(5), path_graph(6), cameron_walker_graph((1,), (1,))],
        ids=["P5", "P6", "cw p=1 q=1"],
    )
    def test_blockers_match_the_initial_ideal(self, graph):
        """The packed blocker test keeps exactly the degree-k fiber
        monomials outside the initial ideal, ascending in the order."""
        pres = rees_ideal(graph.context(), minimal_vertex_covers(graph).monomials())
        fiber, nvars = pres.fiber_indices(), pres.extended.nvars
        for k in (1, 2, 3):
            candidates = (
                Monomial.from_pairs([(i, 1) for i in combo], nvars)
                for combo in combinations_with_replacement(fiber, k)
            )
            literal = sorted(
                (w for w in candidates if not pres.gb.initial.contains(w)),
                key=pres.gb.compiled().key,
            )
            assert standard_monomials(pres, k).monomials() == tuple(literal)


class TestQuotients:
    def test_direct_sequence(self):
        seq = (Monomial((2, 0)), Monomial((1, 2)), Monomial((0, 2)))
        report = quotient_steps(seq)
        assert report.ok
        gens = [step.colon.generators for step in report.steps]
        assert gens == [(), (Monomial((1, 0)),), (Monomial((1, 0)),)]
        assert [step.mu for step in report.steps] == [0, 1, 1]
        # no image divides a later one, so each takes a step; sorted by
        # degree, y^2 comes before x*y^2 and x*y^2 is skipped
        assert report.generators == seq
        ordered = quotient_steps(sorted(seq, key=Monomial.degree))
        assert ordered.generators == (Monomial((2, 0)), Monomial((0, 2)))
        assert [step.j for step in ordered.steps] == [1, 2]
        assert not ordered.ok

    def test_nonlinear_colon_flagged(self):
        seq = (Monomial((2, 0, 0)), Monomial((0, 1, 2)))
        report = quotient_steps(seq)
        assert not report.ok
        assert report.steps[1].colon.generators == (Monomial((2, 0, 0)),)

    def test_pipeline_p5_p6(self):
        for n in (5, 6):
            pres = path_presentation(n)
            for k in (1, 2, 3):
                images = standard_monomials(pres, k).images()
                report = quotient_steps(images)
                assert report.generators == images
                assert report.ok
                ordered = quotient_steps(sorted(images, key=Monomial.degree))
                assert len(ordered.generators) == len(images)
                assert colon_cross_check(pres, k)

    def test_cross_check_requires_linear_quotients(self):
        seq = (Monomial((2, 0, 0)), Monomial((0, 1, 2)))
        assert not quotient_steps(seq).ok
        pres = path_presentation(3)
        assert colon_cross_check(pres, 2)


def literal_steps(images):
    """quotient_steps by its definition on tuples: an image that an earlier
    one divides takes no step; otherwise the colon of step j is
    MonomialIdeal.make of the lcm(h_i, h_j) / h_j over all i < j.  ok when
    every colon other than (0) is generated by variables.  Returns the
    steps, ok and the images that took a step."""
    steps, kept, ok = [], [], True
    for j, h in enumerate(images, start=1):
        if any(u.divides(h) for u in images[: j - 1]):
            continue
        gens = MonomialIdeal.make(
            Monomial(tuple(map(max, u.exps, h.exps))).div(h) for u in images[: j - 1]
        ).generators
        steps.append((j, gens, len(gens), h.degree()))
        kept.append(h)
        if not all(g.degree() == 1 for g in gens):
            ok = False
    return steps, ok, tuple(kept)


def _sequences(nvars):
    """Sequences of monomials in nvars variables, with repeats: small
    exponents make divisibility and unit colons common, and exponents from
    2^16 to past 2^64 force fields of 64 bits and wider."""
    entry = st.one_of(st.integers(0, 2), st.integers(1 << 16, 1 << 17), st.just(1 << 66))
    monomial = st.tuples(*[entry] * nvars).map(Monomial)
    return st.lists(monomial, max_size=8).flatmap(
        lambda ms: st.lists(st.sampled_from(ms), max_size=12) if ms else st.just([])
    )


class TestQuotientsAgainstDefinitions:
    """quotient_steps runs on packed exponents through criterion M;
    these compare it with the definitions on tuples."""

    @settings(max_examples=300, deadline=None)
    @example(images=[])  # the empty sequence
    @example(images=[Monomial((3,))])  # one variable; the colon at j = 1 is (0)
    @example(images=[Monomial((1,)), Monomial((2,)), Monomial((2,))])  # skipped images
    @example(images=[Monomial(e) for e in ((2, 0), (1, 2), (0, 2), (1, 2))])  # a late repeat
    @example(images=[Monomial((1 << 16, 0)), Monomial((1, 1 << 20)), Monomial((0, 1 << 66))])
    @given(images=st.integers(1, 4).flatmap(_sequences))
    def test_matches_the_literal_definitions(self, images):
        report = quotient_steps(images)
        steps, ok, kept = literal_steps(images)
        assert [(s.j, s.colon.generators, s.mu, s.degree) for s in report.steps] == steps
        assert report.ok == ok
        assert report.generators == kept


@st.composite
def redundant_generators(draw):
    """A small monomial ideal (2-4 variables, up to 5 generators,
    exponents at most 3) given as a shuffled sequence with equal images
    and multiples of its generators mixed in."""
    nvars = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    gens = draw(st.lists(exps.filter(any).map(Monomial), min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(gens), max_size=3))
    factors = st.tuples(*[st.integers(0, 1)] * nvars).map(Monomial)
    multiples = draw(st.lists(st.tuples(st.sampled_from(gens), factors), max_size=3))
    return draw(st.permutations(gens + repeats + [g.mul(m) for g, m in multiples]))


class TestDegreeSortedPass:
    """The certificate's route on small ideals: the pass over the images
    sorted by degree keeps the minimal generators, and when its colons are
    linear the closed form and the uncapped oracle agree that the ideal is
    componentwise linear."""

    @settings(max_examples=300, deadline=None)
    @example(images=[Monomial((1, 2)), Monomial((2, 0)), Monomial((0, 2)), Monomial((2, 0))])
    @given(images=redundant_generators())
    def test_minimal_generators_and_sound_certificates(self, images):
        report = quotient_steps(sorted(images, key=Monomial.degree))
        ideal = MonomialIdeal.make(images)
        assert len(report.generators) == len(ideal.generators)
        assert set(report.generators) == set(ideal.generators)
        if report.ok:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(betti, "GENERATOR_CAP", math.inf)
                table = betti_numbers(ideal)
                assert betti_from_quotients(report.steps) == table
                assert is_componentwise_linear(ideal, table) is True


class TestBettiFromQuotients:
    def test_two_generator_example(self):
        steps = quotient_steps((Monomial((0, 1, 0)), Monomial((1, 0, 1)))).steps
        table = betti_from_quotients(steps)
        assert dict(table.entries) == {(0, 1): 1, (0, 2): 1, (1, 3): 1}
        assert table.projdim == 1
        assert table.regularity == 2

    def test_single_generator(self):
        steps = quotient_steps((Monomial((3,)),)).steps
        assert dict(betti_from_quotients(steps).entries) == {(0, 3): 1}

    def test_decreasing_degrees_raise(self):
        # (x^2, x*y^2, y^2) is not minimal and its degrees dip: no table
        seq = (Monomial((2, 0)), Monomial((1, 2)), Monomial((0, 2)))
        steps = quotient_steps(seq).steps
        assert [s.degree for s in steps] == [2, 3, 2]
        with pytest.raises(ValueError, match="decrease"):
            betti_from_quotients(steps)

    def test_oracle_equality_on_powers(self):
        for n in (5, 6):
            pres = path_presentation(n)
            for k in (1, 2, 3):
                basis = standard_monomials(pres, k)
                if len(basis.entries) > 16:
                    continue
                steps = quotient_steps(sorted(basis.images(), key=Monomial.degree)).steps
                closed = betti_from_quotients(steps)
                oracle = betti_numbers(MonomialIdeal.make(basis.images()))
                assert closed == oracle


class TestCertificate:
    def test_p8_cover_ideal_componentwise_past_cap(self, monkeypatch):
        """The paper's claim for k = 1 on P8, whose degree components
        exceed the oracle's default cap."""
        monkeypatch.setattr(betti, "GENERATOR_CAP", 1000)
        images = standard_monomials(path_presentation(8), 1).images()
        power = MonomialIdeal.make(images)
        assert is_componentwise_linear(power) is True
        report = quotient_steps(sorted(images, key=Monomial.degree))
        assert report.ok and len(report.generators) == len(images)
        assert betti_numbers(power) == betti_from_quotients(report.steps)

    def test_p6_k2(self):
        cert = componentwise_certificate(path_presentation(6), 2)
        assert cert.certified == "quadratic-initial"
        assert cert.x_condition and cert.quadratic and cert.minimal
        assert cert.linear_quotients
        assert cert.oracle_betti_match is True

    def test_oracle_cap_lives_in_betti_alone(self, monkeypatch):
        # P7, k = 2 has 22 minimal images, past the default cap of 16
        pres = path_presentation(7)
        cert = componentwise_certificate(pres, 2)
        assert (cert.oracle_componentwise, cert.oracle_betti_match) == (None, None)
        monkeypatch.setattr(betti, "GENERATOR_CAP", math.inf)
        cert = componentwise_certificate(pres, 2)
        assert cert.minimal
        assert (cert.oracle_componentwise, cert.oracle_betti_match) == (True, True)

    def test_component_refusal_keeps_betti_match(self):
        # P9, k = 1: 12 generators, but its degree-5 component has 19
        cert = componentwise_certificate(path_presentation(9), 1)
        assert (cert.oracle_componentwise, cert.oracle_betti_match) == (None, True)

    def test_oracle_minimalises_redundant_images(self):
        # CW p=1,1 q=0, k = 2 under default fiber names: 10 images, 9 minimal
        g = cameron_walker_graph((1, 1), (0,))
        pres = rees_ideal(g.context(), minimal_vertex_covers(g).monomials())
        images = standard_monomials(pres, 2).images()
        assert (len(images), len(MonomialIdeal.make(images).generators)) == (10, 9)
        cert = componentwise_certificate(pres, 2)
        assert not cert.minimal
        assert cert.certified == "nondecreasing-linear-quotients"
        assert (cert.oracle_componentwise, cert.oracle_betti_match) == (True, True)

    @pytest.mark.parametrize(
        "graph", [path_graph(5), cameron_walker_graph((1, 1), (0,))], ids=["P5", "cw p=1,1 q=0"]
    )
    def test_one_colon_pass_per_power(self, monkeypatch, graph):
        """The certificate runs quotient_steps once per k, on the images
        sorted stably by degree; CW p=1,1 q=0 has redundant images."""
        pres = rees_ideal(graph.context(), minimal_vertex_covers(graph).monomials())
        original = rees.quotient_steps
        calls = []

        def counted(images):
            calls.append(tuple(images))
            return original(images)

        monkeypatch.setattr(rees, "quotient_steps", counted)
        for k in (1, 2, 3):
            calls.clear()
            componentwise_certificate(pres, k)
            images = standard_monomials(pres, k).images()
            assert calls == [tuple(sorted(images, key=Monomial.degree))], k

    @pytest.mark.parametrize(
        "graph", [path_graph(5), cameron_walker_graph((1,), (1,))], ids=["P5", "cw p=1 q=1"]
    )
    def test_one_betti_table_per_power(self, monkeypatch, graph):
        pres = rees_ideal(graph.context(), minimal_vertex_covers(graph).monomials())
        original = betti.multigraded_betti
        runs = Counter()

        def counted(ideal):
            runs[ideal.generators] += 1
            return original(ideal)

        monkeypatch.setattr(betti, "multigraded_betti", counted)
        reports = []
        for k in (1, 2, 3):
            runs.clear()
            reports.append(componentwise_certificate(pres, k))
            assert max(runs.values(), default=0) <= 1, k
        assert any(rep.oracle_componentwise is not None for rep in reports)
        monkeypatch.undo()
        for rep in reports:
            power = MonomialIdeal.make(standard_monomials(pres, rep.k).images())
            if rep.oracle_betti_match is not None:
                assert rep.oracle_betti_match == (betti_numbers(power) == rep.betti)
            if rep.oracle_componentwise is not None:
                assert rep.oracle_componentwise == is_componentwise_linear(power)

    def test_one_initial_ideal_per_presentation(self, monkeypatch):
        original = GroebnerBasis.initial.func
        builds = []

        def counted(gb):
            builds.append(gb)
            return original(gb)

        initial = cached_property(counted)
        initial.__set_name__(GroebnerBasis, "initial")
        monkeypatch.setattr(GroebnerBasis, "initial", initial)
        pres = path_presentation(5)
        for k in (1, 2, 3):
            componentwise_certificate(pres, k)
        x_condition(pres.gb)
        assert builds == [pres.gb]

    def test_one_minimal_entries_scan_per_basis(self, monkeypatch):
        """The certificates of every k and x_condition read the minimal
        entries of the one basis, scanned once."""
        original = GroebnerBasis.minimal.func
        scans = []

        def counted(gb):
            scans.append(gb)
            return original(gb)

        minimal = cached_property(counted)
        minimal.__set_name__(GroebnerBasis, "minimal")
        monkeypatch.setattr(GroebnerBasis, "minimal", minimal)
        pres = path_presentation(5)
        scans.clear()
        for k in (1, 2, 3):
            componentwise_certificate(pres, k)
        x_condition(pres.gb)
        assert scans == [pres.gb]

    def test_degenerate_sequence_withholds_certificate(self):
        # the printed quotients pass, but the images are redundant and their
        # degrees dip; over the minimal generators (x^2, y^2) they fail
        seq = (Monomial((2, 0)), Monomial((1, 2)), Monomial((0, 2)))
        assert quotient_steps(seq).ok
        report = quotient_steps(sorted(seq, key=Monomial.degree))
        assert not report.ok and len(report.generators) == 2
        ideal = MonomialIdeal.make(seq)
        table = betti_numbers(ideal)
        assert dict(table.entries)[(1, 4)] == 1

    def test_biclique_222_k3(self):
        cert = componentwise_certificate(biclique_presentation(2, 2, 2), 3)
        assert cert.certified == "quadratic-initial"

    def test_weighted_route_p5(self):
        pres = weighted_presentation(path_graph(5))
        assert [m.degree() for m in pres.gens] == [2, 3, 3, 3]
        assert pres.gb.order.parts[0][1].kind == "weighted"
        assert x_condition(pres.gb).holds
        for k in (1, 2, 3):
            degrees = [h.degree() for h in standard_monomials(pres, k).images()]
            assert degrees == sorted(degrees)
            cert = componentwise_certificate(pres, k)
            assert cert.minimal and cert.linear_quotients and cert.nondecreasing
            assert cert.certified is not None

    def test_weighted_order_cw21_by_nondecreasing_quotients(self):
        # in(J) is not quadratic here, so the label names the quotients
        pres = weighted_presentation(cameron_walker_graph((2,), (1,)))
        for k in (1, 2, 3):
            cert = componentwise_certificate(pres, k)
            assert not cert.quadratic
            assert cert.certified == "nondecreasing-linear-quotients"

    def test_pi_soundness_is_constructor_checked(self):
        pres = path_presentation(8)
        for e in pres.gb.elements:
            assert kernel_member(e, pres.gens, pres.extended)
