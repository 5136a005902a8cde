"""Ring layer: monomial orders, polynomial arithmetic, parsers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcond.groebner import Ideal, eliminate
from xcond.ring import (
    Monomial,
    ParseError,
    VarContext,
    block_order,
    compile_order,
    is_elimination_order,
    lex_order,
    parse_order_spec,
    parse_polynomial,
    poly_from_terms,
    render_order_spec,
    render_polynomial,
    revlex_order,
    weighted_order,
)


def mono(ctx, **powers):
    e = [0] * ctx.nvars
    for name, p in powers.items():
        e[ctx.index(name)] = p
    return Monomial(tuple(e))


@pytest.fixture
def ctx3():
    return VarContext.make(("x", "y", "z"))


@pytest.fixture
def ctx_xy():
    return VarContext.make(
        ("x1", "x2", "x3", "y1", "y2", "y3"),
        blocks=(("base", ("x1", "x2", "x3")), ("fiber", ("y1", "y2", "y3"))),
    )


class TestMonomial:
    def test_ops(self, ctx3):
        a = mono(ctx3, x=2, y=1)
        b = mono(ctx3, y=2, z=1)
        assert a.mul(b).exps == (2, 3, 1)
        assert a.gcd(b).exps == (0, 1, 0)
        assert not a.divides(b)
        assert a.gcd(b).divides(a)
        assert Monomial((2, 2, 1)).div(a).exps == (0, 1, 1)
        assert a.degree() == 3
        assert Monomial((0, 0, 0)).is_one()

    def test_div_rejects_nondivisor(self, ctx3):
        with pytest.raises(ArithmeticError):
            mono(ctx3, x=1).div(mono(ctx3, y=1))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))


class TestLexOrder:
    def test_ranking_respected(self, ctx3):
        ord_ = compile_order(lex_order("x", "y", "z"), ctx3)
        x, y, z = (mono(ctx3, **{v: 1}) for v in "xyz")
        assert ord_.key(x) > ord_.key(y)
        assert ord_.key(y) > ord_.key(z)
        # lex ignores total degree
        assert ord_.key(x) > ord_.key(mono(ctx3, y=5, z=5))

    def test_permuted_ranking(self, ctx3):
        ord_ = compile_order(lex_order("z", "x", "y"), ctx3)
        assert ord_.key(mono(ctx3, z=1)) > ord_.key(mono(ctx3, x=3))
        assert ord_.key(mono(ctx3, x=1)) > ord_.key(mono(ctx3, y=3))

    def test_scope_must_be_exact(self, ctx3):
        with pytest.raises(ValueError):
            compile_order(lex_order("x", "y"), ctx3)
        with pytest.raises(ValueError):
            compile_order(lex_order("x", "y", "y"), ctx3)


class TestRevlexOrder:
    def test_degree_dominates(self, ctx3):
        ord_ = compile_order(revlex_order("x", "y", "z"), ctx3)
        assert ord_.key(mono(ctx3, z=2)) > ord_.key(mono(ctx3, x=1))

    def test_equal_degree_last_variable_penalized(self, ctx3):
        # Among equal degrees the monomial with the smaller exponent on the
        # least variable wins: x*z < y^2 because z's exponent decides.
        ord_ = compile_order(revlex_order("x", "y", "z"), ctx3)
        assert ord_.key(mono(ctx3, y=2)) > ord_.key(mono(ctx3, x=1, z=1))
        assert ord_.key(mono(ctx3, x=1, y=1)) > ord_.key(mono(ctx3, y=2))

    def test_differs_from_graded_lex(self, ctx3):
        # grlex would put x^2*y*z^2 > x*y^3*z ; grevlex reverses it.
        ord_ = compile_order(revlex_order("x", "y", "z"), ctx3)
        a = mono(ctx3, x=2, y=1, z=2)
        b = mono(ctx3, x=1, y=3, z=1)
        assert ord_.key(a) < ord_.key(b)


class TestBlockOrder:
    def test_fiber_block_decides_first(self, ctx_xy):
        spec = block_order(
            ("fiber", lex_order("y3", "y2", "y1")),
            ("base", lex_order("x3", "x2", "x1")),
        )
        ord_ = compile_order(spec, ctx_xy)
        # any positive fiber degree beats any pure-base monomial
        big_base = mono(ctx_xy, x1=3)
        small_fiber = mono(ctx_xy, y2=1)
        assert ord_.key(small_fiber) > ord_.key(big_base)
        assert ord_.key(mono(ctx_xy, y3=1)) > ord_.key(mono(ctx_xy, y2=4))

    def test_base_breaks_fiber_ties(self, ctx_xy):
        spec = block_order(
            ("fiber", revlex_order("y1", "y2", "y3")),
            ("base", lex_order("x1", "x2", "x3")),
        )
        ord_ = compile_order(spec, ctx_xy)
        a = mono(ctx_xy, y1=1, x1=1)
        b = mono(ctx_xy, y1=1, x2=2)
        assert ord_.key(a) > ord_.key(b)

    def test_all_blocks_required(self, ctx_xy):
        with pytest.raises(ValueError):
            compile_order(block_order(("fiber", lex_order("y1", "y2", "y3"))), ctx_xy)


class TestWeightedOrder:
    def test_weight_dominates_then_tie(self, ctx3):
        spec = weighted_order((2, 3, 1), lex_order("x", "y", "z"))
        ord_ = compile_order(spec, ctx3)
        # w(y^1)=3 > w(x^1)=2
        assert ord_.key(mono(ctx3, y=1)) > ord_.key(mono(ctx3, x=1))
        # w(x^3)=6 vs w(y^2)=6: lex tie-break picks x^3
        assert ord_.key(mono(ctx3, x=3)) > ord_.key(mono(ctx3, y=2))

    def test_weight_length_checked(self, ctx3):
        with pytest.raises(ValueError):
            compile_order(weighted_order((1, 2), lex_order("x", "y", "z")), ctx3)


_CTX_PQ = VarContext.make(("a", "b", "c", "d"), blocks=(("p", ("a", "b")), ("q", ("c", "d"))))


class TestNestedBlockOrder:
    def test_block_in_a_block_part_rejected(self):
        # the inner block would rank c, d inside part p, before a and b
        spec = parse_order_spec("block(p:block(q:lex[c>d]; p:lex[a>b]); q:lex[d>c])")
        with pytest.raises(ValueError, match="whole context"):
            compile_order(spec, _CTX_PQ)
        gens = [parse_polynomial(f, _CTX_PQ) for f in ("a - c", "b - d^2")]
        with pytest.raises(ValueError):
            eliminate(Ideal.make(gens, _CTX_PQ, spec), ("a", "b"))

    def test_block_in_the_one_block_of_a_context(self):
        ctx = VarContext.make(("a", "b"))
        ord_ = compile_order(parse_order_spec("block(main:block(main:lex[a>b]))"), ctx)
        assert ord_.matrix == ((1, 0), (0, 1))

    def test_block_as_the_tie_of_a_top_level_weighted_order(self):
        spec = parse_order_spec("weighted(w=[1,1,0,0]; tie=block(q:lex[c>d]; p:lex[a>b]))")
        ord_ = compile_order(spec, _CTX_PQ)
        # equal weight: the tie's q block decides before its p block
        assert ord_.key(mono(_CTX_PQ, a=1, c=1)) > ord_.key(mono(_CTX_PQ, b=1, d=5))
        assert ord_.key(mono(_CTX_PQ, b=1, d=1)) > ord_.key(mono(_CTX_PQ, a=1))


class TestEliminationRecognition:
    def test_block_prefix(self, ctx_xy):
        spec = block_order(
            ("fiber", lex_order("y1", "y2", "y3")),
            ("base", lex_order("x1", "x2", "x3")),
        )
        assert is_elimination_order(spec, ctx_xy, ("y1", "y2", "y3"))
        assert not is_elimination_order(spec, ctx_xy, ("x1", "x2", "x3"))
        assert not is_elimination_order(spec, ctx_xy, ("y1",))

    def test_lex_prefix(self, ctx3):
        spec = lex_order("z", "x", "y")
        assert is_elimination_order(spec, ctx3, ("z",))
        assert is_elimination_order(spec, ctx3, ("z", "x"))
        assert not is_elimination_order(spec, ctx3, ("x",))


ORDER_SPECS = [
    lex_order("x", "y", "z"),
    lex_order("z", "y", "x"),
    revlex_order("x", "y", "z"),
    weighted_order((2, 3, 1), lex_order("x", "y", "z")),
    weighted_order((1, 1, 1), revlex_order("z", "y", "x")),
]

exp_vec = st.tuples(*([st.integers(min_value=0, max_value=6)] * 3))


@given(a=exp_vec, b=exp_vec, c=exp_vec, spec_i=st.integers(0, len(ORDER_SPECS) - 1))
@settings(max_examples=400, deadline=None)
def test_order_axioms(a, b, c, spec_i):
    """Total order, 1 minimal among monomials, multiplication-compatible."""
    ctx = VarContext.make(("x", "y", "z"))
    ord_ = compile_order(ORDER_SPECS[spec_i], ctx)
    ma, mb, mc = Monomial(a), Monomial(b), Monomial(c)
    ka, kb, kc = ord_.key(ma), ord_.key(mb), ord_.key(mc)
    assert (ka == kb) == (a == b)
    if ka >= kb and kb >= kc:
        assert ka >= kc
    if not ma.is_one():
        assert ka > ord_.key(Monomial((0, 0, 0)))
    # multiplicativity
    kac, kbc = ord_.key(ma.mul(mc)), ord_.key(mb.mul(mc))
    assert (kac < kbc, kac == kbc) == (ka < kb, ka == kb)


def _sign(x, y):
    return (x > y) - (x < y)


def _compare(spec, ctx, scope, a, b):
    """-1, 0 or 1 as a <, = or > b under spec on the scope, read off the
    definitions of the four kinds rather than off the order's matrix."""
    if spec.kind == "lex":
        # the first differing exponent in rank order decides
        for v in spec.vars:
            i = ctx.index(v)
            if a[i] != b[i]:
                return _sign(a[i], b[i])
        return 0
    if spec.kind == "revlex":
        # the degree decides, then the last-ranked differing variable,
        # where the smaller exponent wins
        idx = [ctx.index(v) for v in spec.vars]
        verdict = _sign(sum(a[i] for i in idx), sum(b[i] for i in idx))
        if verdict:
            return verdict
        for i in reversed(idx):
            if a[i] != b[i]:
                return _sign(b[i], a[i])
        return 0
    if spec.kind == "block":
        # the first part that differs decides
        for bn, sub in spec.parts:
            verdict = _compare(sub, ctx, ctx.block_vars(bn), a, b)
            if verdict:
                return verdict
        return 0
    # weighted: the weighted degree on the scope decides, then the tie
    idx = [i for i, v in enumerate(ctx.names) if v in scope]
    wa = sum(w * a[i] for w, i in zip(spec.weights, idx))
    wb = sum(w * b[i] for w, i in zip(spec.weights, idx))
    return _sign(wa, wb) or _compare(spec.tie, ctx, scope, a, b)


DEFINED_ORDERS = [
    parse_order_spec(text)
    for text in (
        "lex[c>a>d>b]",
        "revlex[a>b>c>d]",
        "block(q:revlex[d>c]; p:weighted(w=[2,5]; tie=lex[b>a]))",
        "weighted(w=[100000000000000000000,0,7,1]; tie=lex[d>c>b>a])",
        "weighted(w=[3,0,1,2]; tie=block(p:revlex[b>a]; q:lex[c>d]))",
    )
]

_small = st.integers(0, 3)
_entry = st.one_of(_small, st.integers(0, 1 << 30), st.integers((1 << 30) - 3, 1 << 30))
_exps4 = st.one_of(st.tuples(*[_small] * 4), st.tuples(*[_entry] * 4))


@st.composite
def _exps_pairs(draw):
    """Two exponent vectors of _CTX_PQ, small entries mixed with ones near
    2^30; b is often a permutation of a, so that degrees tie."""
    a = draw(_exps4)
    return a, draw(st.one_of(_exps4, st.permutations(a).map(tuple)))


@given(pair=_exps_pairs(), spec=st.sampled_from(DEFINED_ORDERS))
@settings(max_examples=400, deadline=None)
def test_key_compares_as_the_defined_order(pair, spec):
    a, b = pair
    ord_ = compile_order(spec, _CTX_PQ)
    verdict = _compare(spec, _CTX_PQ, _CTX_PQ.names, a, b)
    assert _sign(ord_.key(Monomial(a)), ord_.key(Monomial(b))) == verdict


class TestPolynomialArithmetic:
    def test_add_cancels(self, ctx3):
        ord_ = compile_order(lex_order("x", "y", "z"), ctx3)
        f = parse_polynomial("x^2 + 2*x*y - y", ctx3, ord_)
        g = parse_polynomial("-x^2 + y", ctx3, ord_)
        h = f.add(g, ord_)
        assert render_polynomial(h, ctx3) == "2*x*y"

    def test_terms_sorted_descending(self, ctx3):
        ord_ = compile_order(revlex_order("x", "y", "z"), ctx3)
        f = parse_polynomial("z + x^2*y + x", ctx3, ord_)
        keys = [ord_.key(m) for m, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert f.lm() == mono(ctx3, x=2, y=1)

    def test_mul_known_product(self, ctx3):
        ord_ = compile_order(lex_order("x", "y", "z"), ctx3)
        f = parse_polynomial("x + y", ctx3, ord_)
        g = parse_polynomial("x - y", ctx3, ord_)
        assert f.mul(g, ord_) == parse_polynomial("x^2 - y^2", ctx3, ord_)

    def test_equality_ignores_term_storage_order(self, ctx3):
        lex_ = compile_order(lex_order("x", "y", "z"), ctx3)
        rev = compile_order(revlex_order("x", "y", "z"), ctx3)
        f1 = parse_polynomial("x^3 + y*z", ctx3, lex_)
        f2 = parse_polynomial("y*z + x^3", ctx3, rev)
        assert f1 == f2
        assert hash(f1) == hash(f2)

    def test_binomial_shape_detector(self, ctx3):
        ord_ = compile_order(lex_order("x", "y", "z"), ctx3)
        assert parse_polynomial("x*y - z^2", ctx3, ord_).is_binomial_pm1()
        assert not parse_polynomial("x*y + z^2", ctx3, ord_).is_binomial_pm1()
        assert not parse_polynomial("2*x - y", ctx3, ord_).is_binomial_pm1()


coeff_st = st.fractions(min_value=-5, max_value=5, max_denominator=7)
poly_st = st.lists(st.tuples(exp_vec, coeff_st), min_size=0, max_size=6)


def _mk(pairs, ord_):
    return poly_from_terms([(Monomial(e), c) for e, c in pairs], ord_)


@given(fp=poly_st, gp=poly_st, hp=poly_st)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(fp, gp, hp):
    ctx = VarContext.make(("x", "y", "z"))
    ord_ = compile_order(revlex_order("x", "y", "z"), ctx)
    f, g, h = _mk(fp, ord_), _mk(gp, ord_), _mk(hp, ord_)
    assert f.add(g, ord_) == g.add(f, ord_)
    assert f.mul(g, ord_) == g.mul(f, ord_)
    assert f.mul(g.add(h, ord_), ord_) == f.mul(g, ord_).add(f.mul(h, ord_), ord_)
    assert f.sub(f, ord_).is_zero()
    for p in (f.add(g, ord_), f.sub(g, ord_)):
        keys = [ord_.key(m) for m, _ in p.terms]
        assert keys == sorted(keys, reverse=True) and all(c for _, c in p.terms)
    if not f.is_zero() and not g.is_zero():
        assert f.mul(g, ord_).lm() == f.lm().mul(g.lm())


class TestPolynomialParser:
    def test_round_trip(self, ctx3):
        ord_ = compile_order(lex_order("x", "y", "z"), ctx3)
        for text in ("x^2*y - 3/4*z + 1", "x - y", "-x + 2", "0", "z^5"):
            p = parse_polynomial(text, ctx3, ord_)
            assert parse_polynomial(render_polynomial(p, ctx3), ctx3, ord_) == p

    @given(fp=poly_st)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random(self, fp):
        ctx = VarContext.make(("x", "y", "z"))
        ord_ = compile_order(lex_order("x", "y", "z"), ctx)
        p = _mk(fp, ord_)
        assert parse_polynomial(render_polynomial(p, ctx), ctx, ord_) == p

    def test_repeated_variable_in_term(self, ctx3):
        p = parse_polynomial("x*x*y", ctx3)
        assert p.lm() == mono(ctx3, x=2, y=1)

    def test_like_terms_collect(self, ctx3):
        p = parse_polynomial("x + x - 2*x", ctx3)
        assert p.is_zero()


class TestOrderSpecParser:
    def test_lex(self):
        assert parse_order_spec("lex[x>y>z]") == lex_order("x", "y", "z")

    def test_revlex(self):
        assert parse_order_spec("revlex[z>y>x]") == revlex_order("z", "y", "x")

    def test_block(self):
        spec = parse_order_spec("block(fiber:revlex[y1>y2>y3]; base:lex[x1>x2>x3])")
        assert spec == block_order(
            ("fiber", revlex_order("y1", "y2", "y3")),
            ("base", lex_order("x1", "x2", "x3")),
        )

    def test_weighted(self):
        spec = parse_order_spec("weighted(w=[2,3,1]; tie=lex[x>y>z])")
        assert spec == weighted_order((2, 3, 1), lex_order("x", "y", "z"))

    def test_whitespace_between_tokens(self):
        spec = parse_order_spec(" weighted ( w = [ 2 ,3 ] ;\ttie = block ( a : lex [ x > y ] ) ) ")
        assert spec == weighted_order((2, 3), block_order(("a", lex_order("x", "y"))))

    def test_nested_block_in_weighted_tie(self):
        spec = parse_order_spec(
            "weighted(w=[1,1,1,2,2,2]; tie=block(fiber:lex[y1>y2>y3]; base:lex[x1>x2>x3]))"
        )
        assert spec.kind == "weighted"
        assert spec.tie.kind == "block"

    def test_round_trip(self):
        for text in (
            "lex[x1>x2>x3>y1>y2>y3]",
            "block(fiber:revlex[y3>y2>y1]; base:lex[x1>x2>x3])",
            "weighted(w=[1,2,3,4,5,6]; tie=lex[x1>x2>x3>y1>y2>y3])",
        ):
            spec = parse_order_spec(text)
            assert parse_order_spec(render_order_spec(spec)) == spec


# One row per ParseError branch: (text, message, position).
POLYNOMIAL_ERRORS = [
    ("", "empty polynomial", 0),
    ("   ", "empty polynomial", 0),
    ("x + w $", "unexpected character '$'", 6),
    ("x^ $", "unexpected character '$'", 3),
    ("x +", "expected a factor", 3),
    ("^2", "expected a factor", 0),
    ("x*", "expected a factor", 2),
    ("x**y", "expected a factor", 2),
    ("3/", "expected denominator", 2),
    ("3/x", "expected denominator", 2),
    ("x - 1/0*y", "zero denominator", 6),
    ("x + w^2", "unknown variable 'w'", 4),
    ("x^", "expected exponent", 2),
    ("x^y", "expected exponent", 2),
    ("x y", "unexpected token 'y'", 2),
    ("2x", "unexpected token 'x'", 1),  # no implicit products
    ("x/y", "unexpected token '/'", 1),
    ("x^2^3", "unexpected token '^'", 3),
]
ORDER_ERRORS = [
    ("", "expected a name", 0),
    ("   ", "expected a name", 3),
    ("123", "expected a name", 0),
    ("lex[]", "expected a name", 4),
    ("lex[x>>y]", "expected a name", 6),
    ("block(:lex[x])", "expected a name", 6),
    ("grlex[x>y>z]", "unknown order kind 'grlex'", 0),
    ("grlex[x>y$]", "unknown order kind 'grlex'", 0),
    ("lex(x)", "expected '['", 3),
    ("lex[x y]", "expected ']'", 6),
    ("lex[x>y", "expected ']'", 7),
    ("lex[x>y>z] junk", "trailing text after order spec", 11),
    ("lex[x>y]]", "trailing text after order spec", 8),
    ("block(a:lex[x])extra", "trailing text after order spec", 15),
    ("block[x]", "expected '('", 5),
    ("block(a lex[x])", "expected ':'", 8),
    ("block(a:lex[x],b:lex[y])", "expected ')'", 14),
    ("weighted(x=[1]; tie=lex[x])", "expected 'w'", 9),
    ("weighted(w [1])", "expected '='", 11),
    ("weighted(w=[])", "expected a weight", 12),
    ("weighted(w=[a])", "expected a weight", 12),
    ("weighted(w=[1 2]; tie=lex[x])", "expected ']'", 14),
    ("weighted(w=[1,2,3])", "expected ';'", 18),
    ("weighted(w=[1,2,3]; lex[x>y>z])", "expected 'tie'", 20),
    ("weighted(w=[1]; tie=lex[x]", "expected ')'", 26),
    # a character outside the order grammar; formerly "expected ']'" at 9
    # and 5, "trailing text after order spec" and "expected a weight"
    ("lex[x>y>z$]", "unexpected character '$'", 9),
    ("lex[x-y]", "unexpected character '-'", 5),
    ("lex[x]$", "unexpected character '$'", 6),
    ("weighted(w=[-1]; tie=lex[x])", "unexpected character '-'", 12),
    # a word that only starts with a keyword is rejected where it starts;
    # formerly "expected '='" at 10 and 19
    ("weighted(wx=[1]; tie=lex[x])", "expected 'w'", 9),
    ("weighted(w=[1]; tiebreak=lex[x])", "expected 'tie'", 16),
]


@pytest.mark.parametrize("text,message,position", POLYNOMIAL_ERRORS)
def test_polynomial_parse_errors(ctx3, text, message, position):
    with pytest.raises(ParseError) as ei:
        parse_polynomial(text, ctx3)
    assert (str(ei.value), ei.value.position) == (f"{message} (at position {position})", position)


@pytest.mark.parametrize("text,message,position", ORDER_ERRORS)
def test_order_spec_parse_errors(text, message, position):
    with pytest.raises(ParseError) as ei:
        parse_order_spec(text)
    assert (str(ei.value), ei.value.position) == (f"{message} (at position {position})", position)


class TestContextValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            VarContext.make(("x", "x"))

    def test_blocks_must_partition(self):
        with pytest.raises(ValueError):
            VarContext.make(("x", "y"), blocks=(("a", ("x",)),))

    def test_block_lookup(self, ctx_xy):
        assert ctx_xy.block_vars("base") == ("x1", "x2", "x3")
        assert ctx_xy.block_indices("fiber") == (3, 4, 5)
        with pytest.raises(KeyError):
            ctx_xy.block_vars("nope")
