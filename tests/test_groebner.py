"""Groebner engine: division, Buchberger, reduction, elimination, colons."""

import itertools
import random
from fractions import Fraction

import pytest

from xcond.groebner import (
    GBConfig,
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    ScaleExceeded,
    buchberger,
    divide,
    eliminate,
    initial_ideal,
    is_spair_closed,
    membership,
    monomial_colon,
    normal_form,
    reduce_basis,
    reduced_groebner_basis,
    s_polynomial,
)
from xcond.ring import (
    Monomial,
    VarContext,
    block_order,
    compile_order,
    lex_order,
    parse_polynomial,
    render_polynomial,
    revlex_order,
)


def mono(ctx, **powers):
    e = [0] * ctx.nvars
    for name, p in powers.items():
        e[ctx.index(name)] = p
    return Monomial(tuple(e))


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
        assert normal_form(f, [f], ord_).is_zero()

    def test_multiple_of_generator(self, ctx3):
        ord_ = compile_order(lex_order("x1", "x2", "x3"), ctx3)
        g = parse_polynomial("x2", ctx3, ord_)
        f = parse_polynomial("x2*x1*x3", ctx3, ord_)
        assert normal_form(f, [g], ord_).is_zero()

    def test_lex_square_rewrite(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("x1^2*x2^2", ctx2, ord_)
        g = parse_polynomial("x1^2 - x2", ctx2, ord_)
        assert render_polynomial(normal_form(f, [g], ord_), ctx2) == "x2^3"

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


class TestSPolynomial:
    def test_self_pair_vanishes(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("x1^2 - x2", ctx2, ord_)
        assert s_polynomial(f, f, ord_).is_zero()

    def test_monomial_pair_vanishes(self, ctx2):
        ord_ = compile_order(lex_order("x1", "x2"), ctx2)
        f = parse_polynomial("x1^2*x2", ctx2, ord_)
        g = parse_polynomial("x1*x2^2", ctx2, ord_)
        assert s_polynomial(f, g, ord_).is_zero()

    def test_leading_terms_cancel(self):
        ctx = VarContext.make(("x1", "x2", "x3", "y1", "y2", "y3"))
        ord_ = compile_order(lex_order("x1", "x2", "x3", "y1", "y2", "y3"), ctx)
        f = parse_polynomial("x1*y2 - x2*y1", ctx, ord_)
        g = parse_polynomial("x2*y3 - x3*y2", ctx, ord_)
        s = s_polynomial(f, g, ord_)
        L = f.lm().lcm(g.lm())
        assert not s.is_zero()
        assert ord_.compare(s.lm(), L) < 0


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self, ctx3):
        ord_spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(ord_spec, ctx3)
        gens = [parse_polynomial(s, ctx3, ord_) for s in ("x2", "x1*x3")]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3), ord_spec))
        assert set(gb.elements) == set(gens)

    def test_path3_binomial_edge_ideal(self):
        ctx = VarContext.make(("x1", "x2", "x3", "y1", "y2", "y3"))
        spec = lex_order("x1", "x2", "x3", "y1", "y2", "y3")
        ord_ = compile_order(spec, ctx)
        gens = [
            parse_polynomial("x1*y2 - x2*y1", ctx, ord_),
            parse_polynomial("x2*y3 - x3*y2", ctx, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx), spec))
        assert set(gb.elements) == set(gens)

    def test_textbook_lex_basis(self, ctx2):
        # (x1^2 - x2, x1x2 - x1) has reduced lex basis {x1^2 - x2, x1x2 - x1, x2^2 - x2}
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gens = [
            parse_polynomial("x1^2 - x2", ctx2, ord_),
            parse_polynomial("x1*x2 - x1", ctx2, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx2), spec))
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
        gb = buchberger(Ideal.make(gens, ctx3), spec)
        assert is_spair_closed(gb.elements, spec, ctx3)

    def test_criteria_do_not_change_reduced_basis(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1^2 + x2*x3", ctx3, ord_),
            parse_polynomial("x2^2 - x1*x3", ctx3, ord_),
            parse_polynomial("x1*x2 + x3^2", ctx3, ord_),
        ]
        ideal = Ideal.make(gens, ctx3)
        results = []
        for coprime, chain in itertools.product((True, False), repeat=2):
            cfg = GBConfig(use_coprime_criterion=coprime, use_chain_criterion=chain)
            results.append(reduce_basis(buchberger(ideal, spec, cfg)).elements)
        assert all(r == results[0] for r in results)

    def test_pair_cap_raises(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1^2 + x2*x3", ctx3, ord_),
            parse_polynomial("x2^2 - x1*x3", ctx3, ord_),
            parse_polynomial("x1*x2 + x3^2", ctx3, ord_),
        ]
        with pytest.raises(ScaleExceeded):
            buchberger(Ideal.make(gens, ctx3), spec, GBConfig(pair_cap=1))

    def test_env_cap_pickup(self, ctx3, monkeypatch):
        monkeypatch.setenv("XCOND_PAIR_CAP", "17")
        assert GBConfig.from_env().pair_cap == 17
        assert GBConfig.from_env(pair_cap=99).pair_cap == 99
        monkeypatch.delenv("XCOND_PAIR_CAP")
        assert GBConfig.from_env().pair_cap == 200_000

    def test_empty_ideal(self, ctx3):
        gb = buchberger(Ideal.make([], ctx3), lex_order("x1", "x2", "x3"))
        assert gb.elements == ()


class TestReduceBasis:
    def test_idempotent(self, ctx2):
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gens = [
            parse_polynomial("x1^2 - x2", ctx2, ord_),
            parse_polynomial("x1*x2 - x1", ctx2, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx2), spec))
        assert reduce_basis(gb).elements == gb.elements

    def test_reduced_invariants(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1^2 + x2*x3", ctx3, ord_),
            parse_polynomial("x2^2 - x1*x3", ctx3, ord_),
            parse_polynomial("x1*x2 + x3^2", ctx3, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3), spec))
        lms = gb.leading_monomials()
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
        baseline = reduce_basis(buchberger(Ideal.make(gens, ctx3), spec)).elements
        rng = random.Random(7)
        for _ in range(20):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            scaled = [g.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for g in shuffled]
            again = reduce_basis(buchberger(Ideal.make(scaled, ctx3), spec)).elements
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
        contracted = eliminate(Ideal.make(gens, ctx), ("_t",), spec)
        assert len(contracted.generators) == 1
        g = contracted.generators[0]
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
        contracted = eliminate(Ideal.make(gens, ctx), ("_t",), spec)
        assert contracted.generators == tuple(gens)

    def test_eliminate_everything(self, ctx2):
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gens = [parse_polynomial("x1 - x2", ctx2, ord_)]
        contracted = eliminate(Ideal.make(gens, ctx2), ("x1", "x2"), spec)
        assert contracted.generators == ()

    def test_non_elimination_order_rejected(self, p3_rees_ctx):
        ctx = p3_rees_ctx
        spec = block_order(
            ("fiber", lex_order("y1", "y2")),
            ("elim", lex_order("_t")),
            ("base", lex_order("x1", "x2", "x3")),
        )
        with pytest.raises(ValueError):
            eliminate(Ideal.make([], ctx), ("_t",), spec)


class TestMembership:
    def test_generator_combination(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [
            parse_polynomial("x1*x2 - x3", ctx3, ord_),
            parse_polynomial("x2*x3 - x1", ctx3, ord_),
        ]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3), spec))
        combo = gens[0].mul(parse_polynomial("x3 + 2", ctx3, ord_), ord_).add(
            gens[1].mul(parse_polynomial("x1*x2 - 1/3", ctx3, ord_), ord_), ord_
        )
        assert membership(combo, gb)

    def test_one_not_member_of_proper_ideal(self, ctx3):
        spec = lex_order("x1", "x2", "x3")
        ord_ = compile_order(spec, ctx3)
        gens = [parse_polynomial("x1*x2 - x3", ctx3, ord_)]
        gb = reduce_basis(buchberger(Ideal.make(gens, ctx3), spec))
        assert not membership(parse_polynomial("1", ctx3, ord_), gb)


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

    def test_colon_examples(self):
        # (x1^2) : x1x2^2 = (x1)
        I = MonomialIdeal.make([Monomial((2, 0))])
        assert monomial_colon(I, Monomial((1, 2))).generators == (Monomial((1, 0)),)
        # (x1^2, x1x2^2) : x2^2 = (x1)
        I2 = MonomialIdeal.make([Monomial((2, 0)), Monomial((1, 2))])
        assert monomial_colon(I2, Monomial((0, 2))).generators == (Monomial((1, 0)),)
        # (x2) : x1x3 = (x2)
        I3 = MonomialIdeal.make([Monomial((0, 1, 0))])
        assert monomial_colon(I3, Monomial((1, 0, 1))).generators == (Monomial((0, 1, 0)),)

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
            fast = monomial_colon(I, m)
            slow = brute_force_colon(I, m, nvars, 10)
            assert fast.generators == slow.generators

    def test_power(self):
        I = MonomialIdeal.make([Monomial((1, 0)), Monomial((0, 1))])
        sq = I.power(2)
        assert set(sq.generators) == {Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))}

    def test_initial_ideal_minimalizes(self, ctx2):
        spec = lex_order("x1", "x2")
        ord_ = compile_order(spec, ctx2)
        gb = GroebnerBasis(
            ctx2,
            spec,
            (
                parse_polynomial("x1 - x2", ctx2, ord_),
                parse_polynomial("x1^2 - 2", ctx2, ord_),
            ),
            False,
        )
        assert initial_ideal(gb).generators == (mono(ctx2, x1=1),)


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
        gb = reduced_groebner_basis(Ideal.make(self.gens, self.ctx), self.spec)
        for g in gb.elements:
            monos = [m for m, _ in g.terms]
            assert len(monos) == len(set(monos))

    def test_agrees_with_presorted_input(self):
        ord_ = compile_order(self.spec, self.ctx)
        sorted_gens = tuple(
            parse_polynomial(s, self.ctx, ord_)
            for s in ("a^2*b - c^2", "a*c - b^2", "b*c - a")
        )
        a = reduced_groebner_basis(Ideal.make(self.gens, self.ctx), self.spec)
        b = reduced_groebner_basis(Ideal.make(sorted_gens, self.ctx), self.spec)
        assert a == b

    def test_permutation_stability(self):
        base = reduced_groebner_basis(Ideal.make(self.gens, self.ctx), self.spec)
        rng = random.Random(7)
        for _ in range(25):
            sh = list(self.gens)
            rng.shuffle(sh)
            assert reduced_groebner_basis(Ideal.make(sh, self.ctx), self.spec) == base

    def test_membership_resorts_the_query(self):
        gb = reduced_groebner_basis(Ideal.make(self.gens, self.ctx), self.spec)
        q = parse_polynomial("b*c - a", self.ctx)
        assert membership(q, gb)
