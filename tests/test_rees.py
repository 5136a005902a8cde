"""Rees presentations, the x-condition, and the quotients pipeline."""

from fractions import Fraction

import pytest

from xcond.betti import betti_numbers
from xcond.families import biclique_claimed, cw_claimed
from xcond.graphs import biclique_graph, cameron_walker_graph, minimal_vertex_covers, path_graph
from xcond.groebner import Ideal, MonomialIdeal, reduced_groebner_basis
from xcond.rees import (
    ascending_degree,
    betti_from_quotients,
    colon_cross_check,
    componentwise_certificate,
    default_fiber_names,
    default_order,
    extended_context,
    is_minimal_sequence,
    kernel_member,
    linear_quotients,
    minimality_check,
    quotient_steps,
    rees_ideal,
    standard_monomials,
    standard_rewrites,
    weight_order,
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
)


def path_presentation(n, **kwargs):
    g = path_graph(n)
    ctx = g.context()
    gens = minimal_vertex_covers(g).monomials()
    return rees_ideal(ctx, gens, **kwargs)


def biclique_fiber_names(p, q, r):
    names = [f"phi{i}" for i in range(1, p + 1)]
    for j in range(1, q + 1):
        for k in range(r, 0, -1):
            names.append(f"psi{j}_{k}")
    return tuple(names)


def biclique_presentation(p, q, r):
    g = biclique_graph(p, q, r)
    return rees_ideal(
        g.context(),
        minimal_vertex_covers(g).monomials(),
        fiber_names=biclique_fiber_names(p, q, r),
    )


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
        assert x_condition(pres).holds

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

    def test_bidegrees(self):
        pres = path_presentation(3)
        ext = pres.extended
        assert ext.bidegrees[ext.index("y1")] == (2, 1)
        assert ext.bidegrees[ext.index("y2")] == (1, 1)
        assert ext.bidegrees[ext.index("x1")] == (1, 0)

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
        again = reduced_groebner_basis(Ideal.make(pres.gb.elements, pres.extended), pres.order)
        assert [g.terms for g in again.elements] == [g.terms for g in pres.gb.elements]

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_paths(self, n, weighted):
        g = path_graph(n)
        gens = minimal_vertex_covers(g).monomials()
        order = None
        if weighted:
            gens = ascending_degree(gens)
            fiber = default_fiber_names(len(gens))
            order = weight_order(gens, fiber, lex_order(*g.context().names))
        self.assert_closed(rees_ideal(g.context(), gens, order=order))

    def test_biclique_232(self):
        self.assert_closed(biclique_claimed(2, 3, 2).presentation())

    def test_cw_11_1(self):
        self.assert_closed(cw_claimed(cameron_walker_graph((1, 1), (1,))).presentation())


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
        report = x_condition(pres)
        assert report.holds
        assert report.violations == ()
        assert all(m.degree() == 2 for m in pres.initial().generators)


class TestBiclique:
    def test_basis_sizes(self):
        assert len(biclique_presentation(1, 1, 1).gb.elements) == 1
        assert len(biclique_presentation(2, 2, 2).gb.elements) == 7
        assert len(biclique_presentation(2, 3, 2).gb.elements) == 12
        assert len(biclique_presentation(3, 2, 2).gb.elements) == 8

    def test_x_condition(self):
        for shape in ((2, 2, 2), (2, 3, 2)):
            assert x_condition(biclique_presentation(*shape)).holds

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


class TestQuotients:
    def test_direct_sequence(self):
        seq = (Monomial((2, 0)), Monomial((1, 2)), Monomial((0, 2)))
        report = quotient_steps(seq)
        assert report.ok
        gens = [step.colon.generators for step in report.steps]
        assert gens == [(), (Monomial((1, 0)),), (Monomial((1, 0)),)]
        assert [step.mu for step in report.steps] == [0, 1, 1]
        assert not is_minimal_sequence(seq)

    def test_nonlinear_colon_flagged(self):
        seq = (Monomial((2, 0, 0)), Monomial((0, 1, 2)))
        report = quotient_steps(seq)
        assert not report.ok
        assert report.steps[1].colon.generators == (Monomial((2, 0, 0)),)

    def test_pipeline_p5_p6(self):
        for n in (5, 6):
            pres = path_presentation(n)
            for k in (1, 2, 3):
                assert minimality_check(pres, k)
                assert linear_quotients(pres, k).ok
                assert colon_cross_check(pres, k)

    def test_cross_check_requires_linear_quotients(self):
        seq = (Monomial((2, 0, 0)), Monomial((0, 1, 2)))
        assert not quotient_steps(seq).ok
        pres = path_presentation(3)
        assert colon_cross_check(pres, 2)


class TestBettiFromQuotients:
    def test_two_generator_example(self):
        steps = quotient_steps((Monomial((0, 1, 0)), Monomial((1, 0, 1)))).steps
        table = betti_from_quotients(steps)
        assert table.as_dict() == {(0, 1): 1, (0, 2): 1, (1, 3): 1}
        assert table.projdim == 1
        assert table.regularity == 2

    def test_single_generator(self):
        steps = quotient_steps((Monomial((3,)),)).steps
        assert betti_from_quotients(steps).as_dict() == {(0, 3): 1}

    def test_decreasing_degrees_need_minimal_flag(self):
        seq = (Monomial((2, 0)), Monomial((1, 2)), Monomial((0, 2)))
        steps = quotient_steps(seq).steps
        with pytest.raises(ValueError, match="decrease"):
            betti_from_quotients(steps)
        # with the flag asserted the closed form is still produced
        table = betti_from_quotients(steps, minimal=True)
        assert table.get(0, 2) == 2

    def test_oracle_equality_on_powers(self):
        for n in (5, 6):
            pres = path_presentation(n)
            for k in (1, 2, 3):
                basis = standard_monomials(pres, k)
                if len(basis.entries) > 16:
                    continue
                steps = quotient_steps(basis.images()).steps
                closed = betti_from_quotients(steps, minimal=True)
                oracle = betti_numbers(MonomialIdeal.make(basis.images()))
                assert closed == oracle


class TestCertificate:
    def test_p6_k2(self):
        cert = componentwise_certificate(path_presentation(6), 2)
        assert cert.certified == "quadratic-initial"
        assert cert.x_condition and cert.quadratic and cert.minimal
        assert cert.linear_quotients
        assert cert.oracle_betti_match is True

    def test_degenerate_sequence_withholds_certificate(self):
        # quotients pass but the images are redundant and degrees dip
        seq = (Monomial((2, 0)), Monomial((1, 2)), Monomial((0, 2)))
        report = quotient_steps(seq)
        assert report.ok and not is_minimal_sequence(seq)
        ideal = MonomialIdeal.make(seq)
        table = betti_numbers(ideal)
        assert table.get(1, 4) == 1

    def test_biclique_222_k3(self):
        cert = componentwise_certificate(biclique_presentation(2, 2, 2), 3)
        assert cert.certified == "quadratic-initial"

    def test_weighted_route_p5(self):
        g = path_graph(5)
        ctx = g.context()
        gens = ascending_degree(minimal_vertex_covers(g).monomials())
        assert [m.degree() for m in gens] == [2, 3, 3, 3]
        fn = tuple(f"y{j}" for j in range(1, len(gens) + 1))
        order = weight_order(gens, fn, lex_order(*ctx.names))
        pres = rees_ideal(ctx, gens, order=order, fiber_names=fn)
        assert x_condition(pres).holds
        for k in (1, 2, 3):
            degrees = [h.degree() for h in standard_monomials(pres, k).images()]
            assert degrees == sorted(degrees)
            cert = componentwise_certificate(pres, k)
            assert cert.weighted and cert.nondecreasing and cert.linear_quotients
            assert cert.certified is not None

    def test_pi_soundness_is_constructor_checked(self):
        pres = path_presentation(8)
        for e in pres.gb.elements:
            assert kernel_member(e, pres.gens, pres.extended)
