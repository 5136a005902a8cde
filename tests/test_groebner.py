"""Groebner engine: division, Buchberger, reduction, elimination, colons."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xcond import groebner, rees
from xcond.graphs import (
    Graph,
    all_connected_graphs,
    connected_graph_representatives,
    minimal_vertex_covers,
    path_graph,
)
from xcond.groebner import (
    GBConfig,
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    ScaleExceeded,
    buchberger,
    divide,
    eliminate,
    is_spair_closed,
    membership,
    normal_form,
    reduce_basis,
    reduced_groebner_basis,
)
from xcond.ring import (
    Monomial,
    Polynomial,
    VarContext,
    block_order,
    compile_order,
    lex_order,
    monomial_poly,
    parse_order_spec,
    parse_polynomial,
    poly_from_dict,
    render_polynomial,
    revlex_order,
    weighted_order,
)
from xcond.rees import (
    ELIM_VAR,
    default_order,
    extended_context,
    presentation_order,
    quotient_steps,
    rees_ideal,
)
from xcond.symalg import edge_module, equivalence_check, pair_context


# (1 + x3 + x2^3 + x1*x3^2, 1 + x2*x3^2 + x1*x2, x1^3), as in tests/test_oracle.py
DEEP_LEX = (
    dict.fromkeys([(0, 0, 0), (0, 0, 1), (0, 3, 0), (1, 0, 2)], Fraction(1)),
    dict.fromkeys([(0, 0, 0), (0, 1, 2), (1, 1, 0)], Fraction(1)),
    {(3, 0, 0): Fraction(1)},
)


def mono(ctx, **powers):
    e = [0] * ctx.nvars
    for name, p in powers.items():
        e[ctx.index(name)] = p
    return Monomial(tuple(e))


def basis_of(polys, order):
    """GroebnerBasis.of the polys under a compiled order."""
    return GroebnerBasis.of(polys, order.context, order.spec)


@pytest.fixture
def ctx2():
    return VarContext.make(("x1", "x2"))


@pytest.fixture
def ctx3():
    return VarContext.make(("x1", "x2", "x3"))


@pytest.fixture
def p3_rees_ctx():
    # two cover generators y1, y2 over the base x1..x3 plus the helper _t
    return VarContext.make(
        ("x1", "x2", "x3", "y1", "y2", "_t"),
        blocks=(
            ("base", ("x1", "x2", "x3")),
            ("fiber", ("y1", "y2")),
            ("elim", ("_t",)),
        ),
    )


class TestDivision:
    def test_self_reduction(self, ctx3):
        ctx = VarContext.make(("x1", "x2", "y1", "y2"))
        ord_ = compile_order(lex_order("x1", "x2", "y1", "y2"), ctx)
        f = parse_polynomial("x1*y2 - x2*y1", ctx, ord_)
        assert normal_form(f, basis_of([f], ord_)).is_zero()

    def test_multiple_of_generator(self, ctx3):
        ord_ = compile_order(lex_order("x1", "x2", "x3"), ctx3)
        g = parse_polynomial("x2", ctx3, ord_)
        f = parse_polynomial("x2*x1*x3", ctx3, ord_)
        assert normal_form(f, basis_of([g], ord_)).is_zero()

    def test_lex_square_rewrite(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("x1^2*x2^2", ctx2, ord_)
        g = parse_polynomial("x1^2 - x2", ctx2, ord_)
        assert render_polynomial(normal_form(f, basis_of([g], ord_)), ctx2) == "x2^3"

    def test_remainder_reduced_and_combination_exact(self, ctx3):
        ord_ = compile_order(lex_order("x1", "x2", "x3"), ctx3)
        f = parse_polynomial("x1^3*x2 - x1*x3 + x2^2*x3 - 5", ctx3, ord_)
        divisors = [
            parse_polynomial("x1^2 - x3", ctx3, ord_),
            parse_polynomial("x2*x3 - x1", ctx3, ord_),
        ]
        qs, r = divide(f, divisors, ord_)
        for m, _ in r.terms:
            assert not any(g.lm().divides(m) for g in divisors)
        recombined = r
        for q, g in zip(qs, divisors):
            recombined = recombined.add(q.mul(g, ord_), ord_)
        assert recombined == f

    def test_divisor_list_order_is_respected(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("x1*x2", ctx2, ord_)
        g1 = parse_polynomial("x1", ctx2, ord_)
        g2 = parse_polynomial("x1 - x2", ctx2, ord_)
        _, r12 = divide(f, [g1, g2], ord_)
        _, r21 = divide(f, [g2, g1], ord_)
        assert r12.is_zero()
        assert render_polynomial(r21, ctx2) == "x2^2"


def textbook_s_polynomial(f, g, ord_):
    """x^(L - lm f) f / lc f - x^(L - lm g) g / lc g in Fractions."""
    L = Monomial(tuple(map(max, f.lm().exps, g.lm().exps)))
    return f.term_mul(L.div(f.lm()), 1 / f.lc()).sub(
        g.term_mul(L.div(g.lm()), 1 / g.lc()), ord_
    )


def integer_s_polynomial(f, g, ord_):
    """The engine's S-polynomial, checked to be a nonzero integer multiple
    of the textbook one."""
    basis = basis_of([f, g], ord_)
    pk = basis.packing
    fi, fj = basis.entries
    L = pk.lcm(fi[0], fj[0])
    coeffs, exps = groebner._s_polynomial(fi, fj, L, pk.key(pk.unpack(L)))
    # one term per key, each key that of its exponents, every coefficient an int
    assert coeffs.keys() == exps.keys()
    assert all(pk.key(pk.unpack(e)) == k for k, e in exps.items())
    assert all(type(c) is int for c in coeffs.values())
    live = sorted((k for k, c in coeffs.items() if c), reverse=True)
    s = Polynomial(tuple((Monomial(pk.unpack(exps[k])), coeffs[k]) for k in live))
    want = textbook_s_polynomial(f, g, ord_)
    assert all(type(c) is int for _, c in s.terms)
    assert s.is_zero() == want.is_zero()
    if not s.is_zero():
        ratio = s.lc() / want.lc()
        assert ratio.denominator == 1
        assert s.terms == want.scale(ratio).terms
    return s


class TestSPolynomial:
    def test_self_pair_vanishes(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("x1^2 - x2", ctx2, ord_)
        assert integer_s_polynomial(f, f, ord_).is_zero()

    def test_monomial_pair_vanishes(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("x1^2*x2", ctx2, ord_)
        g = parse_polynomial("x1*x2^2", ctx2, ord_)
        assert integer_s_polynomial(f, g, ord_).is_zero()

    def test_leading_terms_cancel(self):
        ctx = VarContext.make(("x1", "x2", "x3", "y1", "y2", "y3"))
        ord_ = compile_order(lex_order("x1", "x2", "x3", "y1", "y2", "y3"), ctx)
        f = parse_polynomial("x1*y2 - x2*y1", ctx, ord_)
        g = parse_polynomial("x2*y3 - x3*y2", ctx, ord_)
        s = integer_s_polynomial(f, g, ord_)
        L = Monomial(tuple(map(max, f.lm().exps, g.lm().exps)))
        assert not s.is_zero()
        assert ord_.key(s.lm()) < ord_.key(L)

    def test_non_unit_leading_coefficients(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("4*x1^2 - 2/3*x2", ctx2, ord_)
        g = parse_polynomial("6*x1*x2 + 5/2*x2^2 - 1", ctx2, ord_)
        s = integer_s_polynomial(f, g, ord_)
        # primitive forms 6*x1^2 - x2 and 12*x1*x2 + 5*x2^2 - 2: lcm(6, 12) = 12
        assert s.lc() / textbook_s_polynomial(f, g, ord_).lc() == 12


def doubled_lead(s_polynomial):
    """_s_polynomial with the coefficient of the leading term, the largest
    key's of those not held at zero, doubled."""

    def corrupted(*args):
        coeffs, exps = s_polynomial(*args)
        live = [k for k, c in coeffs.items() if c]
        if live:
            coeffs[max(live)] *= 2
        return coeffs, exps

    return corrupted


# generators -> whether Buchberger checks binomial purity on them
PURITY_SWITCH = {
    "pm1 binomials": (("x1*x2 - x3^2", "x1^2 - x2*x3"), True),
    "with a single term": (("x1*x2 - x3^2", "x1^2 - x2*x3", "x2^3"), True),
    "scaled binomial": (("2*x1*x2 - 2*x3^2", "x1^2 - x2*x3"), True),
    "constant term": (("x1*x2 - 1", "x1^2 - x3"), True),
    "sum of two terms": (("x1*x2 + x3^2", "x1^2 - x2*x3"), False),
    "non-unit coefficient": (("x1*x2 - 2*x3^2", "x1^2 - x2*x3"), False),
}


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self, ctx3):
        ord_spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(ord_spec, ctx3)
        gens = [parse_polynomial(s, ctx3, ord_) for s in ("x2", "x1*x3")]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3, ord_spec)))
        assert set(gb.elements) == set(gens)

    def test_path3_binomial_edge_ideal(self):
        ctx = VarContext.make(("x1", "x2", "x3", "y1", "y2", "y3"))
        spec = lex_order("x1", "x2", "x3", "y1", "y2", "y3")
        ord_ = compile_order(spec, ctx)
        gens = [
            parse_polynomial("x1*y2 - x2*y1", ctx, ord_),
            parse_polynomial("x2*y3 - x3*y2", ctx, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx, spec)))
        assert set(gb.elements) == set(gens)

    def test_textbook_lex_basis(self, ctx2):
        # (x1^2 - x2, x1x2 - x1) has reduced lex basis {x1^2 - x2, x1x2 - x1, x2^2 - x2}
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gens = [
            parse_polynomial("x1^2 - x2", ctx2, ord_),
            parse_polynomial("x1*x2 - x1", ctx2, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx2, spec)))
        expected = {
            parse_polynomial("x1^2 - x2", ctx2, ord_),
            parse_polynomial("x1*x2 - x1", ctx2, ord_),
            parse_polynomial("x2^2 - x2", ctx2, ord_),
        }
        assert set(gb.elements) == expected

    def test_spair_closure_invariant(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1*x2 - x3", ctx3, ord_),
            parse_polynomial("x2*x3 - x1", ctx3, ord_),
            parse_polynomial("x1*x3 - x2", ctx3, ord_),
        ]
        gb = buchberger(Ideal.make(gens, ctx3, spec))
        assert is_spair_closed(gb)

    def test_spair_check_caps_reduced_pairs_only(self, ctx3):
        """Coprime pairs are skipped before the pair cap counts them."""
        spec = lex_order("x1", "x2", "x3")
        variables = [parse_polynomial(v, ctx3) for v in ("x1", "x2", "x3")]
        assert is_spair_closed(GroebnerBasis.of(variables, ctx3, spec), GBConfig(pair_cap=1))
        # the first of the three pairs is coprime
        texts = ("x1*x2", "x3^2", "x2*x3")
        basis = GroebnerBasis.of([parse_polynomial(f, ctx3) for f in texts], ctx3, spec)
        assert is_spair_closed(basis, GBConfig(pair_cap=2))
        with pytest.raises(
            ScaleExceeded,
            match=r"^S-pair budget of 1 exhausted at pair 3 of 3 \(3 basis elements\)$",
        ):
            is_spair_closed(basis, GBConfig(pair_cap=1))

    def test_pair_cap_raises(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1^2 + x2*x3", ctx3, ord_),
            parse_polynomial("x2^2 - x1*x3", ctx3, ord_),
            parse_polynomial("x1*x2 + x3^2", ctx3, ord_),
        ]
        with pytest.raises(ScaleExceeded):
            buchberger(Ideal.make(gens, ctx3, spec), GBConfig(pair_cap=1))

    def test_empty_ideal(self, ctx3):
        gb = buchberger(Ideal.make([], ctx3, lex_order("x1", "x2", "x3")))
        assert gb.elements == ()

    def test_degree_cap_raises(self, ctx3):
        """DEEP_LEX of tests/test_oracle.py: its reduced basis has degrees
        20, 20 and 21, but Buchberger passes an element of degree 41."""
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [poly_from_dict({Monomial(e): c for e, c in p.items()}, ord_) for p in DEEP_LEX]
        with pytest.raises(
            ScaleExceeded,
            match=r"^degree budget of 40 exceeded "
            r"\(element of degree 41; 40 pairs popped, 41 basis elements\)$",
        ):
            buchberger(Ideal.make(gens, ctx3, spec))

    def test_binomial_purity(self, ctx3, monkeypatch):
        """+-1 binomial generators switch the purity check on: an S-pair
        whose remainder is no +-1 binomial raises."""
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        toric = [parse_polynomial(f, ctx3, ord_) for f in ("x1*x2 - x3^2", "x1^2 - x2*x3")]
        gb = buchberger(Ideal.make(toric, ctx3, spec))
        assert len(gb.elements) > 2
        assert all(g.is_binomial_pm1() for g in gb.elements)
        monkeypatch.setattr(groebner, "_s_polynomial", doubled_lead(groebner._s_polynomial))
        with pytest.raises(AssertionError, match="^binomial purity violated"):
            buchberger(Ideal.make(toric, ctx3, spec))

    @pytest.mark.parametrize("name", sorted(PURITY_SWITCH))
    def test_purity_check_follows_generators(self, name, ctx3, monkeypatch):
        """The check is on exactly when every generator has primitive
        coefficients (1, -1) or (1,); off, a corrupted remainder installs."""
        texts, checked = PURITY_SWITCH[name]
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        ideal = Ideal.make([parse_polynomial(f, ctx3, ord_) for f in texts], ctx3, spec)
        monkeypatch.setattr(groebner, "_s_polynomial", doubled_lead(groebner._s_polynomial))
        if checked:
            with pytest.raises(AssertionError, match="^binomial purity violated"):
                buchberger(ideal)
        else:
            added = buchberger(ideal).elements[len(texts) :]
            assert any(not g.is_binomial_pm1() and len(g.terms) > 1 for g in added)


def dense_ideal(count, nvars, degree, seed):
    """tests/test_oracle.py's dense_polys with integer coefficients, as an
    Ideal under the revlex order it is run under there; rebuilt here, as
    that module is skipped without sympy."""
    rng = random.Random(seed)
    exps = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    nonzero = [v for v in range(-9, 10) if v]
    names = tuple(f"x{i}" for i in range(1, nvars + 1))
    ctx, spec = VarContext.make(names), revlex_order(*names)
    polys = [
        {Monomial(e): Fraction(rng.choice(nonzero), rng.choice((1,))) for e in exps}
        for _ in range(count)
    ]
    return Ideal.make([poly_from_dict(d, compile_order(spec, ctx)) for d in polys], ctx, spec)


class TestNonUnitPopCount:
    """tests/test_oracle.py's dense case (3 polynomials in 3 variables of
    degree 3, seed 1) under revlex pops 19 pairs, over reducers whose
    leading coefficients are not units.  A cap one below fails loudly; a
    cap at the count gives the uncapped reduced basis."""

    def test_cap_below_the_pop_count_fails_loudly(self):
        ideal = dense_ideal(3, 3, 3, 1)
        assert any(entry[2] != 1 for entry in buchberger(ideal).entries)
        with pytest.raises(ScaleExceeded, match=r"^S-pair budget of 18 exhausted"):
            reduced_groebner_basis(ideal, GBConfig(pair_cap=18))

    def test_cap_at_the_pop_count_gives_the_uncapped_basis(self):
        ideal = dense_ideal(3, 3, 3, 1)
        capped = reduced_groebner_basis(ideal, GBConfig(pair_cap=19))
        assert capped == reduced_groebner_basis(ideal)


def popped_degrees(monkeypatch):
    """The w-degree of every pair buchberger pops from then on, in order."""
    degrees = []
    heappop = groebner.heapq.heappop

    def recording(heap):
        pair = heappop(heap)
        degrees.append(pair[0])
        return pair

    monkeypatch.setattr(groebner.heapq, "heappop", recording)
    return degrees


C5 = ("abcde", (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")))
# the fixed eight-vertex graph of the edge-sweep benchmark workload
ANCHOR_8 = (
    range(8),
    (
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
        (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3),
    ),
)


def sym_ideal(vertices, edges):
    """Sym(M_G) of the graph under lex: quadrics x_a*y_b - x_b*y_a."""
    return edge_module(Graph.make(vertices, edges))


def counted_polynomials(monkeypatch):
    """The calls to Packing.polynomial from then on, one item each."""
    calls = []
    polynomial = groebner.Packing.polynomial

    def counted(self, terms, den):
        calls.append(den)
        return polynomial(self, terms, den)

    monkeypatch.setattr(groebner.Packing, "polynomial", counted)
    return calls


class TestPolynomialsOnRead:
    """A basis stays packed: its Polynomials are built on the first read
    of its elements, once."""

    def test_reduced_basis(self, monkeypatch):
        ideal = sym_ideal(*C5)
        calls = counted_polynomials(monkeypatch)
        gb = reduced_groebner_basis(ideal)
        assert calls == []
        assert len(gb.elements) == len(calls) == len(gb.entries) > 1
        assert gb.elements and len(calls) == len(gb.entries)

    def test_equivalence_check(self, monkeypatch):
        calls = counted_polynomials(monkeypatch)
        report = equivalence_check(Graph.make(*C5))
        assert report.equivalence_ok and not report.chordal
        assert calls == []


class TestGradedSelection:
    """Pairs are popped by the w-degree of their lcm first when a positive
    grading makes every generator homogeneous."""

    def test_rees_elimination_pops_by_nondecreasing_degree(self, monkeypatch):
        degrees = popped_degrees(monkeypatch)
        path_kernel(8, monkeypatch)
        assert len(degrees) == 154
        assert degrees == sorted(degrees) and degrees[0] > 0

    def test_standard_grading_of_homogeneous_input(self, monkeypatch):
        ideal = sym_ideal(*C5)
        assert ideal.grading == (1,) * ideal.context.nvars
        degrees = popped_degrees(monkeypatch)
        buchberger(ideal)
        assert len(degrees) > 1
        assert degrees == sorted(degrees) and degrees[0] >= 3

    def test_inhomogeneous_input_keeps_the_order_selection(self, monkeypatch):
        ideal = system("katsura3")
        assert ideal.grading is None
        degrees = popped_degrees(monkeypatch)
        buchberger(ideal)
        assert degrees and set(degrees) == {0}

    def test_grading_gives_the_ungraded_basis(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [parse_polynomial(f, ctx3, ord_) for f in ("x1*x2 - x3", "x1^2 - x2^2")]
        graded = reduced_groebner_basis(Ideal.make(gens, ctx3, spec, (1, 1, 2)))
        assert graded == reduced_groebner_basis(Ideal.make(gens, ctx3, spec))
        assert len(graded.elements) > 2

    @pytest.mark.parametrize("grading", ((1, 0, 1), (2, -1, 1), (1, 1)))
    def test_grading_without_one_positive_weight_per_variable_raises(self, ctx3, grading):
        gens = [parse_polynomial("x1 - x3", ctx3)]
        with pytest.raises(ValueError, match="is not one positive weight per variable"):
            Ideal.make(gens, ctx3, lex_order("x1", "x2", "x3"), grading)

    def test_generator_inhomogeneous_under_the_grading_raises(self, ctx3):
        gens = [parse_polynomial(f, ctx3) for f in ("x1 - x3", "x1*x2 - x3")]
        with pytest.raises(ValueError, match="^a generator is not homogeneous"):
            Ideal.make(gens, ctx3, lex_order("x1", "x2", "x3"), (1, 1, 1))


class TestReduceBasis:
    def test_idempotent(self, ctx2):
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gens = [
            parse_polynomial("x1^2 - x2", ctx2, ord_),
            parse_polynomial("x1*x2 - x1", ctx2, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx2, spec)))
        assert reduce_basis(gb).elements == gb.elements

    def test_reduced_invariants(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1^2 + x2*x3", ctx3, ord_),
            parse_polynomial("x2^2 - x1*x3", ctx3, ord_),
            parse_polynomial("x1*x2 + x3^2", ctx3, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3, spec)))
        lms = [g.lm() for g in gb.elements]
        for a, b in itertools.permutations(lms, 2):
            assert not a.divides(b)
        for g in gb.elements:
            assert g.lc() == 1
            for m, _ in g.terms[1:]:
                assert not any(lm.divides(m) for lm in lms)

    def test_uniqueness_under_permutation_and_rescaling(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1*x2 - x3^2", ctx3, ord_),
            parse_polynomial("x2*x3 - x1", ctx3, ord_),
            parse_polynomial("x1^2 - x2", ctx3, ord_),
        ]
        baseline = reduce_basis(buchberger(Ideal.make(gens, ctx3, spec))).elements
        rng = random.Random(7)
        for _ in range(20):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            scaled = [g.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for g in shuffled]
            again = reduce_basis(buchberger(Ideal.make(scaled, ctx3, spec))).elements
            assert again == baseline


class TestEliminate:
    def test_p3_rees_kernel(self, p3_rees_ctx):
        ctx = p3_rees_ctx
        spec = block_order(
            ("elim", lex_order("_t")),
            ("fiber", lex_order("y1", "y2")),
            ("base", lex_order("x1", "x2", "x3")),
        )
        ord_ = compile_order(spec, ctx)
        gens = [
            parse_polynomial("y1 - x1*x3*_t", ctx, ord_),
            parse_polynomial("y2 - x2*_t", ctx, ord_),
        ]
        contracted = eliminate(Ideal.make(gens, ctx, spec), ("_t",))
        assert len(contracted.elements) == 1
        g = contracted.elements[0]
        assert g == parse_polynomial("x2*y1 - x1*x3*y2", ctx, ord_)

    def test_block_absent(self, p3_rees_ctx):
        ctx = p3_rees_ctx
        spec = block_order(
            ("elim", lex_order("_t")),
            ("fiber", lex_order("y1", "y2")),
            ("base", lex_order("x1", "x2", "x3")),
        )
        ord_ = compile_order(spec, ctx)
        gens = [parse_polynomial("x2*y1 - x1*y2", ctx, ord_)]
        contracted = eliminate(Ideal.make(gens, ctx, spec), ("_t",))
        assert contracted.elements == tuple(gens)

    def test_eliminate_everything(self, ctx2):
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gens = [parse_polynomial("x1 - x2", ctx2, ord_)]
        contracted = eliminate(Ideal.make(gens, ctx2, spec), ("x1", "x2"))
        assert contracted.elements == ()

    @pytest.mark.parametrize(
        "names,ranking,texts,block,want",
        (
            # the twisted cubic; t is the last coordinate, not the first
            (("x", "y", "t"), ("t", "x", "y"), ("x - t^2", "y - t^3"), ("t",), ("x^3 - y^2",)),
            # a two-variable block in fields 1 and 3: a and c are the first
            # two power sums of s and t, b their product
            (
                ("a", "s", "b", "t", "c"),
                ("s", "t", "a", "b", "c"),
                ("a - s - t", "b - s*t", "c - s^2 - t^2"),
                ("s", "t"),
                ("a^2 - 2*b - c",),
            ),
        ),
        ids=("twisted-cubic", "split-block"),
    )
    def test_block_fields_anywhere(self, names, ranking, texts, block, want):
        ctx = VarContext.make(names)
        spec = lex_order(*ranking)
        ord_ = compile_order(spec, ctx)
        gens = [parse_polynomial(t, ctx, ord_) for t in texts]
        contracted = eliminate(Ideal.make(gens, ctx, spec), block)
        assert [g.terms for g in contracted.elements] == [
            parse_polynomial(t, ctx, ord_).terms for t in want
        ]

    def test_mixed_tail_raises(self, ctx2, monkeypatch):
        """The check behind the mask: under an order that does not eliminate
        x2, x1 - x2 has a block-free lead and x2 in its tail."""
        monkeypatch.setattr(groebner, "is_elimination_order", lambda *args: True)
        gens = [parse_polynomial("x1 - x2", ctx2)]
        with pytest.raises(AssertionError, match="^elimination order produced a mixed tail$"):
            eliminate(Ideal.make(gens, ctx2, lex_order("x1", "x2")), ("x2",))

    @pytest.mark.parametrize("case", ("p6", "katsura3"))
    def test_matches_the_block_free_part_of_the_full_reduced_basis(self, case, monkeypatch):
        """The route that reduced the whole basis is the oracle: eliminate
        reduces only its block-free elements, and must return the
        block-free part of the full reduced basis element for element."""
        if case == "p6":
            calls = []

            def recording(*args):
                calls.append(args)
                return eliminate(*args)

            monkeypatch.setattr(rees, "eliminate", recording)
            path_kernel(6, monkeypatch)
            ((ideal, block, config),) = calls
        else:
            names, _, texts = SYSTEMS["katsura3"]
            ctx = VarContext.make(names, blocks=(("e", names[:2]), ("r", names[2:])))
            spec = block_order(("e", revlex_order(*names[:2])), ("r", revlex_order(*names[2:])))
            ord_ = compile_order(spec, ctx)
            ideal = Ideal.make([parse_polynomial(t, ctx, ord_) for t in texts], ctx, spec)
            block, config = names[:2], None
        full = reduce_basis(buchberger(ideal, config)).elements
        idx = [ideal.context.index(v) for v in block]
        want = [g.terms for g in full if not any(g.lm().exps[i] for i in idx)]
        assert 1 < len(want) < len(full)
        assert [g.terms for g in eliminate(ideal, block, config).elements] == want

    def test_non_elimination_order_rejected(self, p3_rees_ctx):
        ctx = p3_rees_ctx
        spec = block_order(
            ("fiber", lex_order("y1", "y2")),
            ("elim", lex_order("_t")),
            ("base", lex_order("x1", "x2", "x3")),
        )
        with pytest.raises(ValueError):
            eliminate(Ideal.make([], ctx, spec), ("_t",))


class TestMembership:
    def test_generator_combination(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1*x2 - x3", ctx3, ord_),
            parse_polynomial("x2*x3 - x1", ctx3, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3, spec)))
        combo = gens[0].mul(parse_polynomial("x3 + 2", ctx3, ord_), ord_).add(
            gens[1].mul(parse_polynomial("x1*x2 - 1/3", ctx3, ord_), ord_), ord_
        )
        assert membership(combo, gb)
        assert membership(combo, GroebnerBasis.of(gb.elements, ctx3, spec))

    def test_one_not_member_of_proper_ideal(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [parse_polynomial("x1*x2 - x3", ctx3, ord_)]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3, spec)))
        assert not membership(parse_polynomial("1", ctx3, ord_), gb)


def quotient_colon(ideal, m):
    """(I : m) as the last colon of the sequence (generators of I, m).  A
    multiple of a generator takes no step: m then lies in I and its colon
    is the unit ideal."""
    report = quotient_steps(ideal.generators + (m,))
    if len(report.steps) == len(ideal.generators):
        assert ideal.contains(m)
        return MonomialIdeal((Monomial((0,) * len(m.exps)),))
    return report.steps[-1].colon


def brute_force_colon(ideal, m, nvars, max_deg):
    """Oracle: all monomials m' with m'*m in I, up to degree max_deg, minimalized."""
    found = []
    exps = [0] * nvars

    def rec(i, deg_left):
        if i == nvars:
            cand = Monomial(tuple(exps))
            if ideal.contains(cand.mul(m)):
                found.append(cand)
            return
        for e in range(deg_left + 1):
            exps[i] = e
            rec(i + 1, deg_left - e)
        exps[i] = 0

    rec(0, max_deg)
    return MonomialIdeal.make(found)


class TestMonomialIdeal:
    def test_minimalization(self):
        gens = [Monomial((2, 0, 0)), Monomial((2, 1, 0)), Monomial((0, 0, 1))]
        I = MonomialIdeal.make(gens)
        assert set(I.generators) == {Monomial((2, 0, 0)), Monomial((0, 0, 1))}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3).map(Monomial), max_size=15))
    def test_make_keeps_the_monomials_no_other_divides(self, monomials):
        """make tests a candidate only against lower-degree generators; the
        result is still every monomial no other distinct one divides."""
        distinct = set(monomials)
        want = [m for m in distinct if not any(u != m and u.divides(m) for u in distinct)]
        want.sort(key=lambda m: (m.degree(), m.exps))
        assert MonomialIdeal.make(monomials).generators == tuple(want)

    def test_colon_examples(self):
        # (x1^2) : x1x2^2 = (x1)
        I = MonomialIdeal.make([Monomial((2, 0))])
        assert quotient_colon(I, Monomial((1, 2))).generators == (Monomial((1, 0)),)
        # (x1^2, x1x2^2) : x2^2 = (x1)
        I2 = MonomialIdeal.make([Monomial((2, 0)), Monomial((1, 2))])
        assert quotient_colon(I2, Monomial((0, 2))).generators == (Monomial((1, 0)),)
        # (x2) : x1x3 = (x2)
        I3 = MonomialIdeal.make([Monomial((0, 1, 0))])
        assert quotient_colon(I3, Monomial((1, 0, 1))).generators == (Monomial((0, 1, 0)),)

    def test_colon_against_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            nvars = 3
            gens = [
                Monomial(tuple(rng.randint(0, 3) for _ in range(nvars)))
                for _ in range(rng.randint(1, 6))
            ]
            gens = [g for g in gens if not g.is_one()]
            if not gens:
                continue
            I = MonomialIdeal.make(gens)
            m = Monomial(tuple(rng.randint(0, 3) for _ in range(nvars)))
            fast = quotient_colon(I, m)
            slow = brute_force_colon(I, m, nvars, 10)
            assert fast.generators == slow.generators

    def test_initial_ideal_minimalizes(self, ctx2):
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gb = GroebnerBasis.of(
            (
                parse_polynomial("x1 - x2", ctx2, ord_),
                parse_polynomial("x1^2 - 2", ctx2, ord_),
            ),
            ctx2,
            spec,
        )
        assert gb.initial.generators == (mono(ctx2, x1=1),)


class TestForeignTermOrder:
    """Inputs whose terms were sorted under a different order must be
    re-sorted on entry, not trusted."""

    def setup_method(self):
        self.ctx = VarContext.make(("a", "b", "c"))
        self.spec = revlex_order("a", "b", "c")
        # parsed under the default plain-lex order, so "a*c - b^2" arrives
        # with the revlex-smaller term first
        self.gens = tuple(
            parse_polynomial(s, self.ctx)
            for s in ("a^2*b - c^2", "a*c - b^2", "b*c - a")
        )

    def test_no_uncancelled_duplicates(self):
        gb = reduced_groebner_basis(Ideal.make(self.gens, self.ctx, self.spec))
        for g in gb.elements:
            monos = [m for m, _ in g.terms]
            assert len(monos) == len(set(monos))

    def presorted(self, polys):
        ord_ = compile_order(self.spec, self.ctx)
        return tuple(poly_from_dict(dict(g.terms), ord_) for g in polys)

    def test_agrees_with_presorted_input(self):
        """Polynomial equality ignores storage order, so the terms are
        compared: results come sorted under the working order."""
        for compute in (buchberger, reduced_groebner_basis):
            a = compute(Ideal.make(self.gens, self.ctx, self.spec))
            b = compute(Ideal.make(self.presorted(self.gens), self.ctx, self.spec))
            assert [g.terms for g in a.elements] == [g.terms for g in b.elements]

    def test_basis_elements_sorted_under_another_order(self):
        gb = buchberger(Ideal.make(self.gens, self.ctx, self.spec))
        lex_ = compile_order(lex_order("a", "b", "c"), self.ctx)
        foreign = tuple(poly_from_dict(dict(g.terms), lex_) for g in gb.elements)
        assert [g.terms for g in foreign] != [g.terms for g in gb.elements]
        repacked = GroebnerBasis.of(foreign, self.ctx, self.spec)
        a = reduce_basis(repacked)
        b = reduce_basis(gb)
        assert [g.terms for g in a.elements] == [g.terms for g in b.elements]
        assert is_spair_closed(repacked)
        for gens in (self.gens, self.presorted(self.gens)):
            assert not is_spair_closed(GroebnerBasis.of(gens, self.ctx, self.spec))
        for text in ("b*c - a", "a^3*b - a*c^2", "a*b*c - c", "a^2 + b"):
            q = parse_polynomial(text, self.ctx)
            (presorted,) = self.presorted([q])
            empty = GroebnerBasis.of([], self.ctx, self.spec)
            assert normal_form(q, empty).terms == presorted.terms
            want = normal_form(presorted, gb)
            assert normal_form(q, repacked).terms == want.terms
            assert membership(q, repacked) == want.is_zero()

    def test_permutation_stability(self):
        base = reduced_groebner_basis(Ideal.make(self.gens, self.ctx, self.spec))
        rng = random.Random(7)
        for _ in range(25):
            sh = list(self.gens)
            rng.shuffle(sh)
            assert reduced_groebner_basis(Ideal.make(sh, self.ctx, self.spec)) == base

    def test_membership_resorts_the_query(self):
        gb = reduced_groebner_basis(Ideal.make(self.gens, self.ctx, self.spec))
        q = parse_polynomial("b*c - a", self.ctx)
        assert membership(q, gb)


# ---------------------------------------------------------------------------
# engine invariants: the raw basis is S-pair closed, a cap never truncates
# ---------------------------------------------------------------------------

SYSTEMS = {
    "cyclic4": (
        ("x1", "x2", "x3", "x4"),
        revlex_order,
        (
            "x1 + x2 + x3 + x4",
            "x1*x2 + x2*x3 + x3*x4 + x4*x1",
            "x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2",
            "x1*x2*x3*x4 - 1",
        ),
    ),
    "katsura3": (
        ("u0", "u1", "u2", "u3"),
        revlex_order,
        (
            "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
            "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
            "2*u0*u2 + u1^2 + 2*u1*u3 - u2",
        ),
    ),
}


def system(name):
    names, make_order, texts = SYSTEMS[name]
    ctx = VarContext.make(names)
    spec = make_order(*names)
    ord_ = compile_order(spec, ctx)
    return Ideal.make([parse_polynomial(t, ctx, ord_) for t in texts], ctx, spec)


# The pruning depends on the order in which generators are installed (F
# keeps the first pair of an lcm class, B_t and retirement look back at
# earlier elements), so every invariant runs on both arrangements.
ARRANGEMENTS = ("given", "reversed")


def arranged(ideal, arrangement):
    gens = ideal.generators
    return replace(ideal, generators=gens if arrangement == "given" else gens[::-1])


def path_kernel(n, monkeypatch, arrangement="given"):
    """The Rees kernel of P_n's cover ideal and the raw basis behind it,
    its generators installed in the given arrangement."""
    raw = []

    def recording(ideal, *args, **kwargs):
        gb = buchberger(arranged(ideal, arrangement), *args, **kwargs)
        raw.append(gb)
        return gb

    g = path_graph(n)
    with monkeypatch.context() as m:
        m.setattr(groebner, "buchberger", recording)
        pres = rees_ideal(g.context(), minimal_vertex_covers(g).monomials())
    (gb,) = raw
    return pres, gb


class TestEngineInvariants:
    @pytest.mark.parametrize("arrangement", ARRANGEMENTS)
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_raw_output_is_spair_closed_on_systems(self, name, arrangement):
        gb = buchberger(arranged(system(name), arrangement))
        assert is_spair_closed(gb)

    @pytest.mark.parametrize("arrangement", ARRANGEMENTS)
    @pytest.mark.parametrize("n", (6, 7))
    def test_raw_output_is_spair_closed_on_rees_kernels(self, n, arrangement, monkeypatch):
        _, gb = path_kernel(n, monkeypatch, arrangement)
        assert len(gb.elements) > {6: 7, 7: 15}[n]
        assert is_spair_closed(gb)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_arrangement_does_not_change_reduced_basis_on_systems(self, name):
        ideal = system(name)
        bases = [
            [g.terms for g in reduced_groebner_basis(arranged(ideal, a)).elements]
            for a in ARRANGEMENTS
        ]
        assert len(bases[0]) > 1
        assert bases[1] == bases[0]

    @pytest.mark.parametrize("n", (6, 7))
    def test_arrangement_does_not_change_rees_kernel(self, n, monkeypatch):
        kernels = [
            [g.terms for g in path_kernel(n, monkeypatch, a)[0].gb.elements] for a in ARRANGEMENTS
        ]
        assert len(kernels[0]) == {6: 7, 7: 15}[n]
        assert kernels[1] == kernels[0]

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_pair_cap_never_truncates(self, name):
        """Each cap either raises or returns the uncapped basis."""
        ideal = system(name)
        full = buchberger(ideal)
        cap = 1
        while True:
            try:
                capped = buchberger(ideal, GBConfig(pair_cap=cap))
            except ScaleExceeded:
                cap += 1
                continue
            break
        assert cap > 1
        assert [g.terms for g in capped.elements] == [g.terms for g in full.elements]


def polynomial_route(raw):
    """The reduced basis by way of Polynomials: every element buchberger
    installed, retired ones included, packed again by GroebnerBasis.of."""
    return reduce_basis(GroebnerBasis.of(raw.elements, raw.context, raw.order))


class TestPackedHandoff:
    """reduce_basis takes buchberger's entries as they are, retired ones
    included; the Polynomial route over every installed element must agree
    term for term."""

    @pytest.mark.parametrize("arrangement", ARRANGEMENTS)
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_systems(self, name, arrangement):
        raw = self.assert_handoff(arranged(system(name), arrangement))
        if arrangement == "reversed":
            # a retired element: the raw basis holds a non-minimal lm
            lms = [g.lm() for g in raw.elements]
            assert any(a.divides(b) for a, b in itertools.permutations(lms, 2))

    @pytest.mark.parametrize("graph", ("c5", "anchor8"))
    def test_sym_ideals(self, graph):
        self.assert_handoff(sym_ideal(*{"c5": C5, "anchor8": ANCHOR_8}[graph]))

    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_path_eliminations(self, n, monkeypatch):
        """eliminate keeps the active entries free of t (the last
        coordinate of the elimination context): the t-free part of the
        Polynomial route's basis, t dropped, is the Rees kernel."""
        pres, raw = path_kernel(n, monkeypatch)
        want = [
            tuple((Monomial(m.exps[:-1]), c) for m, c in g.terms)
            for g in polynomial_route(raw).elements
            if not g.lm().exps[-1]
        ]
        assert [g.terms for g in pres.gb.elements] == want

    @staticmethod
    def assert_handoff(ideal):
        raw = buchberger(ideal)
        want = [g.terms for g in polynomial_route(raw).elements]
        assert [g.terms for g in reduced_groebner_basis(ideal).elements] == want
        assert [g.terms for g in reduce_basis(raw).elements] == want
        assert len(raw.elements) == len(raw.entries)
        return raw


def textbook_binomials(graph):
    """pair_context(n) and x_a*y_b - x_b*y_a over the edges a < b of the
    graph, parsed from text."""
    ctx = pair_context(graph.n)
    texts = (f"x{a + 1}*y{b + 1} - x{b + 1}*y{a + 1}" for a, b in sorted(graph.edges))
    return ctx, [parse_polynomial(t, ctx) for t in texts]


class TestPackedIntake:
    """The edge module writes its ideal straight as entries, which equal
    the textbook binomials packed by Ideal.make; buchberger installs
    either as it is, and the run is the same, pop for pop."""

    def test_packed_entries_are_the_forms_and_give_the_same_run(self, monkeypatch):
        """On every connected labeled graph on 2-5 vertices, every 6-vertex
        class and ANCHOR_8."""
        pops = popped_degrees(monkeypatch)
        graphs = itertools.chain(
            *(all_connected_graphs(n) for n in range(2, 6)),
            connected_graph_representatives(6),
            [Graph.make(*ANCHOR_8)],
        )
        for g in graphs:
            ideal = edge_module(g)
            ctx, gens = textbook_binomials(g)
            textbook = Ideal.make(gens, ctx, lex_order(*ctx.names))
            assert ideal.packing is textbook.packing
            assert ideal.generators == tuple(map(textbook.packing.form, gens))
            assert ideal == textbook
            runs = []
            for variant in (ideal, textbook):
                start = len(pops)
                runs.append((buchberger(variant).entries, len(pops) - start))
            assert runs[1] == runs[0], sorted(g.edges)

    @pytest.mark.parametrize("graph", ("c5", "anchor8"))
    def test_packed_entries_skip_the_polynomial_intake(self, graph, monkeypatch):
        """Packing.form runs once per generator in Ideal.make, and never in
        edge_module or buchberger."""
        g = Graph.make(*{"c5": C5, "anchor8": ANCHOR_8}[graph])
        ctx, gens = textbook_binomials(g)
        calls = []
        form = groebner.Packing.form
        monkeypatch.setattr(groebner.Packing, "form", lambda pk, f: calls.append(f) or form(pk, f))
        buchberger(edge_module(g))
        assert calls == []
        textbook = Ideal.make(gens, ctx, lex_order(*ctx.names))
        assert calls == gens
        buchberger(textbook)
        assert calls == gens

    def test_grading_that_does_not_fit_the_entries_raises(self):
        """The edge module's entries are checked as Ideal.make's are:
        x1*y2 - x2*y1 is not homogeneous when x1 alone weighs 2, and is
        when every x weighs 2 and every y 1."""
        ideal = edge_module(Graph.make(*C5))
        w = (2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="^a generator is not homogeneous"):
            replace(ideal, grading=w)
        with pytest.raises(ValueError, match="is not one positive weight per variable"):
            replace(ideal, grading=(1,) * 9)
        assert replace(ideal, grading=(2,) * 5 + (1,) * 5).grading == (2,) * 5 + (1,) * 5


_CTX3 = VarContext.make(("x1", "x2", "x3"))
_ORDERS3 = tuple(
    compile_order(make(*_CTX3.names), _CTX3) for make in (lex_order, revlex_order)
)
_polys3 = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3).map(Monomial),
    st.integers(-3, 3).map(Fraction),
    max_size=4,
)
_rational_polys3 = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3).map(Monomial),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    max_size=4,
)


def _dict3(terms):
    """A polynomial dict of _CTX3 from exponents and coefficient strings."""
    return {Monomial(e): Fraction(c) for e, c in terms.items()}


class TestInitialIdeal:
    @settings(max_examples=200, deadline=None)
    @given(
        polys=st.lists(_polys3, min_size=1, max_size=4),
        scales=st.lists(st.sampled_from((Fraction(-2), Fraction(3), Fraction(1, 2))), max_size=3),
        shifts=st.lists(st.tuples(*[st.integers(0, 2)] * 3).map(Monomial), max_size=3),
        which=st.sampled_from(range(len(_ORDERS3))),
    )
    def test_matches_make_on_the_leading_monomials(self, polys, scales, shifts, which):
        """initial keeps the minimal packed entries and sorts them as
        MonomialIdeal.make does, on inputs whose leading monomials repeat
        (a scalar multiple, a polynomial cut to its leading term) or are
        not minimal (a monomial multiple)."""
        ord_ = _ORDERS3[which]
        gs = [g for g in (poly_from_dict(d, ord_) for d in polys) if not g.is_zero()]
        gs += [g.scale(c) for g, c in zip(gs, scales)]
        gs += [g.term_mul(m) for g, m in zip(gs, shifts)]
        gs += [Polynomial(g.terms[:1]) for g in gs[:2]]
        want = MonomialIdeal.make(g.lm() for g in gs)
        assert basis_of(gs, ord_).initial.generators == want.generators


class TestQuotientFreeNormalForm:
    @settings(max_examples=150, deadline=None)
    @given(
        f=_polys3,
        divisors=st.lists(_polys3, max_size=3),
        which=st.sampled_from(range(len(_ORDERS3))),
    )
    def test_matches_division_remainder(self, f, divisors, which):
        ord_ = _ORDERS3[which]
        f = poly_from_dict(f, ord_)
        gs = [poly_from_dict(g, ord_) for g in divisors]
        _, r = divide(f, gs, ord_)
        assert normal_form(f, basis_of(gs, ord_)).terms == r.terms

    @settings(max_examples=200, deadline=None)
    # x1^3 goes to the remainder before 2*x2 + x3^2 rescales the rest
    @example(
        f={Monomial((3, 0, 0)): Fraction(1), Monomial((0, 1, 1)): Fraction(1)},
        divisors=[{Monomial((0, 1, 0)): Fraction(2), Monomial((0, 0, 2)): Fraction(1)}],
        which=0,
    )
    # lex: reducing x1*x3 cancels x2^3*x3^2, and the tail of x2^3 + 6*x2^2
    # brings it back while it is listed at zero
    @example(
        f=_dict3({(2, 1, 0): "1/2"}),
        divisors=[
            _dict3({(0, 3, 2): "1", (1, 0, 1): "-2", (1, 1, 1): "2"}),
            _dict3({(0, 3, 0): "1/2", (0, 2, 0): "3"}),
            _dict3({(1, 0, 0): "-2", (0, 3, 1): "1"}),
        ],
        which=0,
    )
    # lex: x1*x3 cancels, and 3*x1^2*x2*x3^2 rescales by 3 while x1*x3 is
    # still listed at zero; no leading monomial divides x1*x3
    @example(
        f=_dict3({(0, 1, 3): "1/3", (1, 0, 1): "2/3", (3, 1, 2): "1"}),
        divisors=[
            _dict3({(0, 0, 1): "-1", (1, 2, 2): "-2", (2, 1, 2): "-3/2"}),
            _dict3({(3, 2, 2): "2"}),
        ],
        which=0,
    )
    # revlex: x1^3*x2^2 goes to the remainder, and the next term,
    # -3*x1^3*x2*x3, meets 2*x1*x2*x3 + x1*x3^2 + 3*x1 and rescales by 2
    @example(
        f=_dict3({(3, 1, 3): "1/2", (3, 3, 1): "-2"}),
        divisors=[
            _dict3({(0, 3, 3): "1/3", (0, 0, 3): "-1"}),
            _dict3({(1, 0, 0): "-3/2", (1, 0, 2): "-1/2", (1, 1, 1): "-1"}),
        ],
        which=1,
    )
    @given(
        f=_rational_polys3,
        divisors=st.lists(_rational_polys3, max_size=3),
        which=st.sampled_from(range(len(_ORDERS3))),
    )
    def test_matches_division_remainder_over_rationals(self, f, divisors, which):
        """Non-unit leading coefficients: the integer loop clears
        denominators and rescales, and the remainder is still divide's."""
        ord_ = _ORDERS3[which]
        f = poly_from_dict(f, ord_)
        gs = [poly_from_dict(g, ord_) for g in divisors]
        _, r = divide(f, gs, ord_)
        got = normal_form(f, basis_of(gs, ord_))
        assert got.terms == r.terms
        assert all(type(c) is Fraction for _, c in got.terms)

    @settings(max_examples=200, deadline=None)
    @given(
        f=_rational_polys3,
        zeros=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=2),
        divisors=st.lists(_rational_polys3, max_size=3),
        which=st.sampled_from(range(len(_ORDERS3))),
    )
    def test_reduce_on_its_input_map(self, f, zeros, divisors, which):
        """_reduce on the map of f times its denominator, with keys held at
        zero as a cancelled S-polynomial term is: the remainder is strictly
        descending, nonzero and reduced, the factor a positive int, and
        factor * p - remainder divides to zero."""
        ord_ = _ORDERS3[which]
        f = poly_from_dict(f, ord_)
        gs = [g for g in (poly_from_dict(d, ord_) for d in divisors) if not g.is_zero()]
        basis = basis_of(gs, ord_)
        pk = basis.packing
        coeffs, exps, den = pk.pack_terms(f)
        for e in zeros:
            coeffs.setdefault(pk.key(e), 0)
            exps.setdefault(pk.key(e), pk.pack(e))
        remainder, factor = groebner._reduce(coeffs, exps, basis.entries, pk)
        keys = [k for k, _, _ in remainder]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert all(pk.key(pk.unpack(e)) == k for k, e, _ in remainder)
        assert all(type(c) is int and c != 0 for _, _, c in remainder)
        r = Polynomial(tuple((Monomial(pk.unpack(e)), Fraction(c)) for _, e, c in remainder))
        assert not any(g.lm().divides(m) for m, _ in r.terms for g in gs)
        assert type(factor) is int and factor > 0
        assert divide(f.scale(Fraction(den * factor)).sub(r, ord_), gs, ord_)[1].is_zero()


# ---------------------------------------------------------------------------
# packed exponents: the int forms agree with the tuple ones
# ---------------------------------------------------------------------------


def _rees_orders():
    """rees_ideal's t-elimination order around the default order, and the
    fiber weighted by image degree, both on the cover ideal of P4."""
    g = path_graph(4)
    base = g.context()
    gens = sorted(minimal_vertex_covers(g).monomials(), key=Monomial.degree)
    extended = extended_context(base, gens)
    default = default_order(extended)
    elim_ctx = VarContext.make(
        extended.names + (ELIM_VAR,), extended.blocks + (("elim", (ELIM_VAR,)),)
    )
    elim = block_order(("elim", lex_order(ELIM_VAR)), *default.parts)
    tie = lex_order(*reversed(extended.block_vars("fiber")))
    fiber = weighted_order(tuple(m.degree() for m in gens), tie)
    weighted = presentation_order(fiber, lex_order(*base.names))
    return [compile_order(elim, elim_ctx), compile_order(weighted, extended)]


_CTX4 = VarContext.make(("a", "b", "c", "d"), blocks=(("p", ("a", "b")), ("q", ("c", "d"))))
PACKED_ORDERS = [
    compile_order(lex_order("c", "a", "d", "b"), _CTX4),
    compile_order(revlex_order("a", "b", "c", "d"), _CTX4),
    compile_order(block_order(("q", lex_order("d", "c")), ("p", revlex_order("b", "a"))), _CTX4),
    compile_order(parse_order_spec("weighted(w=[3,1,2,1]; tie=revlex[a>b>c>d])"), _CTX4),
    compile_order(
        parse_order_spec("weighted(w=[100000000000000000000,0,7,1]; tie=lex[d>c>b>a])"), _CTX4
    ),
    compile_order(
        parse_order_spec("weighted(w=[2,0,1,3]; tie=block(q:lex[d>c]; p:revlex[a>b]))"), _CTX4
    ),
    compile_order(
        parse_order_spec("block(p:weighted(w=[1,4]; tie=lex[b>a]); q:revlex[c>d])"), _CTX4
    ),
    *_rees_orders(),
]


@st.composite
def exponent_pairs(draw):
    """An order of PACKED_ORDERS and two exponent vectors for it, small
    entries mixed with ones near the top of a 32-bit field."""
    order = draw(st.sampled_from(PACKED_ORDERS))
    entry = st.one_of(st.integers(0, 3), st.integers(0, (1 << 30) - 1))
    vec = st.tuples(*[entry] * order.context.nvars)
    return order, draw(vec), draw(vec)


class TestPackedExponents:
    @settings(max_examples=300, deadline=None)
    @given(case=exponent_pairs())
    def test_key_sorts_as_the_order_and_adds(self, case):
        order, a, b = case
        pk = groebner.packing_for(order, 1 << 14)
        assert pk.width == 32
        ka, kb = order.exps_key(a), order.exps_key(b)
        assert (pk.key(a) < pk.key(b)) == (ka < kb)
        assert (pk.key(a) == pk.key(b)) == (ka == kb)
        ab = tuple(x + y for x, y in zip(a, b))
        assert pk.key(a) + pk.key(b) == pk.key(ab)
        # a product of two packed vectors is their sum, guard bits included
        assert pk.pack(a) + pk.pack(b) == sum(x << (32 * i) for i, x in enumerate(ab))

    @settings(max_examples=300, deadline=None)
    @given(case=exponent_pairs(), width=st.sampled_from((32, 64, 40, 77)))
    def test_divides_lcm_and_support_match_tuples(self, case, width):
        order, a, b = case
        pk = groebner.Packing(order, width)
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a
        entries = [pk.form(monomial_poly(Monomial(a)))]
        hit = groebner.find_divisor(pb, entries, pk.guard)
        assert (hit is not None) == all(x <= y for x, y in zip(a, b))
        assert groebner.find_divisor(pa, entries, pk.guard) is entries[0]
        lcm = pk.lcm(pa, pb)
        assert pk.unpack(lcm) == tuple(map(max, a, b))
        assert (lcm == pa + pb) == (not set(Monomial(a).support()) & set(Monomial(b).support()))

    def test_width_leaves_headroom(self):
        order = PACKED_ORDERS[0]
        assert groebner.packing_for(order, 0).width == 32
        assert groebner.packing_for(order, (1 << 15) - 1).width == 32
        assert groebner.packing_for(order, 1 << 15).width == 64
        assert groebner.packing_for(order, 1 << 50).width == 68

    def test_guard_overflow_raises(self, ctx2):
        order = compile_order(lex_order("x1", "x2"), ctx2)
        pk = groebner.Packing(order, 4)  # three value bits: exponents up to 7
        assert pk.unpack(pk.pack((7, 5))) == (7, 5)
        with pytest.raises(ScaleExceeded):
            pk.pack((8, 0))
        # x1^2 -> x1*x2^4 -> x2^8: the last product carries into a guard bit
        g = parse_polynomial("x1 - x2^4", ctx2, order)
        narrow = GroebnerBasis(ctx2, order.spec, pk, (pk.form(g),))
        f = parse_polynomial("x1^2", ctx2, order)
        with pytest.raises(ScaleExceeded):
            normal_form(f, narrow)
        # the default width reduces the same input
        assert render_polynomial(normal_form(f, basis_of([g], order)), ctx2) == "x2^8"

    def test_exponents_beyond_a_64_bit_field(self, ctx2):
        """Inputs with huge exponents get a wider field, not a refusal."""
        spec = lex_order("x2", "x1")
        order = compile_order(spec, ctx2)
        big = 1 << 50
        gens = [
            parse_polynomial(f"x2 - x1^{big}", ctx2, order),
            parse_polynomial("x1*x2 - 1", ctx2, order),
        ]
        config = GBConfig(degree_cap=1 << 52)
        gb = reduced_groebner_basis(Ideal.make(gens, ctx2, spec), config)
        assert [render_polynomial(g, ctx2) for g in gb.elements] == [
            f"x2 - x1^{big}",
            f"x1^{big + 1} - 1",
        ]


def _unit(v, power=1):
    return tuple(power if i == v else 0 for i in range(4))


_entries = st.one_of(st.integers(0, 2), st.integers(0, 1 << 29))
_quotients = st.one_of(
    st.tuples(*[_entries] * 4),
    st.just((0, 0, 0, 0)),  # q = 0: lm_t itself, when lm_i divides lm_t
    st.integers(0, 3).map(_unit),
    st.integers(0, 3).map(lambda v: _unit(v, 2)),
)


class TestCriterionM:
    @settings(max_examples=300, deadline=None)
    # q = 0 properly divides every other lcm: only lm_t itself is kept
    @example(width=32, lm=(1, 0, 2, 0), quotients=[_unit(0), (0, 0, 0, 0), (0, 1, 1, 0)])
    # x1^2 stays out of the variable mask, so x1*x2 survives it, while
    # x3 joins the mask and drops x1*x3
    @example(
        width=32, lm=(0, 1, 0, 0), quotients=[_unit(0, 2), (1, 1, 0, 0), _unit(2), (1, 0, 1, 0)]
    )
    @given(
        width=st.sampled_from((32, 40, 64)),
        lm=st.tuples(*[_entries] * 4),
        quotients=st.lists(_quotients, max_size=12),
    )
    def test_keeps_the_lcms_no_other_properly_divides(self, width, lm, quotients):
        pk = groebner.Packing(PACKED_ORDERS[1], width)
        lcms = {pk.pack(tuple(a + b for a, b in zip(lm, q))) for q in quotients}

        def divides(a, b):
            return all(x <= y for x, y in zip(pk.unpack(a), pk.unpack(b)))

        want = sorted(L for L in lcms if not any(M != L and divides(M, L) for M in lcms))
        assert groebner.criterion_m(lcms, pk.pack(lm), pk) == want
