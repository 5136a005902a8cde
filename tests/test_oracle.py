"""Differential oracle: xcond's reduced bases against sympy.groebner.

Skipped when sympy is absent.  Bases are compared as sets of monic
polynomials, since sympy scales its elements to integer coefficients.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from xcond.graphs import minimal_vertex_covers, path_graph  # noqa: E402
from xcond.groebner import GBConfig, Ideal, reduced_groebner_basis  # noqa: E402
from xcond.rees import ELIM_VAR, rees_ideal  # noqa: E402
from xcond.ring import (  # noqa: E402
    Monomial,
    VarContext,
    compile_order,
    lex_order,
    parse_polynomial,
    poly_from_dict,
    revlex_order,
)

ORDERS = ((lex_order, "lex"), (revlex_order, "grevlex"))
# The caps are not what this oracle checks: lifted far past the default
# degree cap, they never turn a small ideal into ScaleExceeded.
UNCAPPED = GBConfig(degree_cap=10**6)
# (1 + x3 + x2^3 + x1*x3^2, 1 + x2*x3^2 + x1*x2, x1^3): under lex its reduced
# basis has degrees 20, 20 and 21, but Buchberger passes through an element
# of degree 41, past the default cap of 40.
DEEP_LEX = (
    3,
    [
        dict.fromkeys([(0, 0, 0), (0, 0, 1), (0, 3, 0), (1, 0, 2)], Fraction(1)),
        dict.fromkeys([(0, 0, 0), (0, 1, 2), (1, 1, 0)], Fraction(1)),
        {(3, 0, 0): Fraction(1)},
    ],
)


def monic_terms(terms, key):
    """frozenset of (exponents, coefficient) after dividing by the leading
    coefficient under `key`."""
    lead = max(terms, key=lambda t: key(t[0]))[1]
    return frozenset((e, Fraction(c) / lead) for e, c in terms)


def sympy_basis(polys, gens, order, key):
    """Monic reduced basis from sympy.groebner; polys are exponent dicts."""
    symbols = sympy.symbols(gens)
    exprs = [
        sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.items()}, symbols
        ).as_expr()
        for p in polys
    ]
    gb = sympy.groebner(exprs, *symbols, order=order)
    out = set()
    for g in gb.exprs:
        terms = [
            (exps, Fraction(int(c.p), int(c.q)))
            for exps, c in sympy.Poly(g, *symbols).terms()
        ]
        out.add(monic_terms(terms, key))
    return out


def xcond_basis(elements, key):
    return {monic_terms([(m.exps, c) for m, c in g.terms], key) for g in elements}


@st.composite
def small_ideals(draw):
    """<= 3 generators in <= 3 variables, degree <= 3, coefficients in [-3, 3]."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: sum(e) <= 3)
    coeffs = st.integers(-3, 3).filter(bool).map(Fraction)
    poly = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
    return nvars, draw(st.lists(poly, min_size=1, max_size=3))


@pytest.mark.parametrize("make_order,sympy_order", ORDERS)
@settings(max_examples=100, deadline=None)
@given(case=small_ideals())
@example(case=DEEP_LEX)
def test_reduced_basis_matches_sympy(case, make_order, sympy_order):
    nvars, polys = case
    names = tuple(f"x{i}" for i in range(1, nvars + 1))
    ctx = VarContext.make(names)
    spec = make_order(*names)
    ord_ = compile_order(spec, ctx)
    ideal = Ideal.make(
        [poly_from_dict({Monomial(e): c for e, c in p.items()}, ord_) for p in polys], ctx, spec
    )
    ours = reduced_groebner_basis(ideal, UNCAPPED).elements
    key = ord_.exps_key
    assert xcond_basis(ours, key) == sympy_basis(polys, names, sympy_order, key)


@pytest.mark.parametrize("n,size", ((6, 7), (7, 15), (8, 26)))
def test_rees_kernel_matches_sympy(n, size):
    """The default order, block(fiber: lex; base: lex), is pure lex with
    y1 > ... > ys > x1 > ... > xn; sympy eliminates t from y_j - t*u_j."""
    g = path_graph(n)
    gens = minimal_vertex_covers(g).monomials()
    pres = rees_ideal(g.context(), gens)
    names = pres.extended.names
    key = pres.gb.compiled().exps_key
    s = len(gens)
    relations = []
    for j, u in enumerate(gens):
        y = (0,) * (1 + j) + (1,) + (0,) * (len(names) - j - 1)
        image = (1,) + (0,) * s + u.exps
        relations.append({y: Fraction(1), image: Fraction(-1)})
    full = sympy_basis(relations, (ELIM_VAR,) + names, "lex", lambda e: e)
    t_free = {
        frozenset((e[1:], c) for e, c in element) for element in full
        if all(e[0] == 0 for e, _ in element)
    }
    assert len(pres.gb.elements) == size
    assert xcond_basis(pres.gb.elements, key) == t_free


# cyclic4 and katsura3 as SYSTEMS in tests/test_groebner.py has them, and an
# input with a non-binomial generator: an S-pair remainder of it is no +-1
# binomial, so Buchberger's binomial-purity check must stay off
TEXT_CASES = {
    "cyclic4": (
        ("x1", "x2", "x3", "x4"),
        revlex_order,
        "grevlex",
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
        "grevlex",
        (
            "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
            "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
            "2*u0*u2 + u1^2 + 2*u1*u3 - u2",
        ),
    ),
    "mixed": (("x1", "x2", "x3"), lex_order, "lex", ("x1*x2 - x3^2", "x1^2 + x2*x3")),
}


# Homogeneous inputs, on which buchberger pops its pairs by standard degree:
# katsura3 homogenised with h, and Sym(M_G) of the 5-cycle and of the fixed
# eight-vertex graph of the edge-sweep benchmark workload (49 elements, its
# heaviest op), whose generators x_a*y_b - x_b*y_a are quadrics.  DEEP_LEX
# stays the inhomogeneous lex guard.
ANCHOR_8 = (
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
    (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3),
)
HOMOGENEOUS_CASES = {
    "katsura3-homogenised": (
        ("u0", "u1", "u2", "u3", "h"),
        (
            "u0 + 2*u1 + 2*u2 + 2*u3 - h",
            "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0*h",
            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1*h",
            "2*u0*u2 + u1^2 + 2*u1*u3 - u2*h",
        ),
    ),
    "sym-c5": (
        tuple(f"x{i}" for i in range(1, 6)) + tuple(f"y{i}" for i in range(1, 6)),
        tuple(f"x{a}*y{b} - x{b}*y{a}" for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
    ),
    "sym-anchor8": (
        tuple(f"x{i}" for i in range(1, 9)) + tuple(f"y{i}" for i in range(1, 9)),
        tuple(f"x{a + 1}*y{b + 1} - x{b + 1}*y{a + 1}" for a, b in ANCHOR_8),
    ),
}


@pytest.mark.parametrize("make_order,sympy_order", ORDERS)
@pytest.mark.parametrize("name", sorted(HOMOGENEOUS_CASES))
def test_homogeneous_input_matches_sympy(name, make_order, sympy_order):
    names, texts = HOMOGENEOUS_CASES[name]
    gens = assert_text_input_matches_sympy(names, make_order, sympy_order, texts)
    assert all(len({m.degree() for m, _ in g.terms}) == 1 for g in gens)


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_input_matches_sympy(name):
    assert_text_input_matches_sympy(*TEXT_CASES[name])


def assert_text_input_matches_sympy(names, make_order, sympy_order, texts):
    """xcond's reduced basis of the parsed texts is sympy's; returns the
    parsed generators."""
    ctx = VarContext.make(names)
    spec = make_order(*names)
    ord_ = compile_order(spec, ctx)
    gens = [parse_polynomial(t, ctx, ord_) for t in texts]
    ours = reduced_groebner_basis(Ideal.make(gens, ctx, spec)).elements
    polys = [{m.exps: c for m, c in g.terms} for g in gens]
    key = ord_.exps_key
    assert len(ours) > 2
    assert xcond_basis(ours, key) == sympy_basis(polys, names, sympy_order, key)
    return gens


def dense_polys(nvars, degree, count, rng, denominators=(1,)):
    """count polynomials with every monomial of degree <= `degree`, each
    coefficient a nonzero integer in [-9, 9] over a denominator drawn from
    `denominators`; exponent dicts."""
    monomials = [
        e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree
    ]
    nonzero = [v for v in range(-9, 10) if v]
    return [
        {e: Fraction(rng.choice(nonzero), rng.choice(denominators)) for e in monomials}
        for _ in range(count)
    ]


DENSE = (
    # (count, nvars, degree, seed, denominators)
    (3, 4, 2, 1, (1,)),
    (3, 4, 2, 2, (1,)),
    (3, 3, 3, 1, (1,)),
    (3, 3, 3, 2, (1,)),
    (3, 4, 2, 3, (1, 2, 3, 5, 7)),
)


@pytest.mark.parametrize("count,nvars,degree,seed,denominators", DENSE)
def test_dense_reduced_basis_matches_sympy(count, nvars, degree, seed, denominators):
    """Dense ideals whose elements have non-unit leading coefficients, as
    in the gb-dense benchmark workload."""
    polys = dense_polys(nvars, degree, count, random.Random(seed), denominators)
    names = tuple(f"x{i}" for i in range(1, nvars + 1))
    ctx = VarContext.make(names)
    spec = revlex_order(*names)
    ord_ = compile_order(spec, ctx)
    ideal = Ideal.make(
        [poly_from_dict({Monomial(e): c for e, c in p.items()}, ord_) for p in polys], ctx, spec
    )
    ours = reduced_groebner_basis(ideal).elements
    key = ord_.exps_key
    assert len(ours) > count
    assert xcond_basis(ours, key) == sympy_basis(polys, names, "grevlex", key)


def sparse_polys(nvars, degree, count, terms, rng):
    """count polynomials of `terms` terms, each with one term of degree
    `degree` and the others of degree <= `degree`, coefficients nonzero
    integers in [-9, 9]; exponent dicts."""
    monomials = [
        e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree
    ]
    nonzero = [v for v in range(-9, 10) if v]
    polys = []
    for _ in range(count):
        top = rng.choice([e for e in monomials if sum(e) == degree])
        chosen = {top} | set(rng.sample(monomials, terms - 1))
        polys.append({e: Fraction(rng.choice(nonzero)) for e in chosen})
    return polys


def test_lex_basis_with_large_exponents_matches_sympy():
    """Three quartic trinomials in three variables under lex: the reduced
    basis reaches exponent 22, where the dense cases stay below 4."""
    polys = sparse_polys(3, 4, 3, 3, random.Random(4))
    names = ("x1", "x2", "x3")
    ctx = VarContext.make(names)
    spec = lex_order(*names)
    ord_ = compile_order(spec, ctx)
    ideal = Ideal.make(
        [poly_from_dict({Monomial(e): c for e, c in p.items()}, ord_) for p in polys], ctx, spec
    )
    ours = reduced_groebner_basis(ideal).elements
    key = ord_.exps_key
    assert max(max(m.exps) for g in ours for m, _ in g.terms) == 22
    assert xcond_basis(ours, key) == sympy_basis(polys, names, "lex", key)
