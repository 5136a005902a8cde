"""Differential oracle: xcond's reduced bases against sympy.groebner.

Skipped when sympy is absent.  Bases are compared as sets of monic
polynomials, since sympy scales its elements to integer coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from xcond.graphs import minimal_vertex_covers, path_graph  # noqa: E402
from xcond.groebner import Ideal, reduced_groebner_basis  # noqa: E402
from xcond.rees import ELIM_VAR, rees_ideal  # noqa: E402
from xcond.ring import (  # noqa: E402
    Monomial,
    VarContext,
    compile_order,
    lex_order,
    poly_from_dict,
    revlex_order,
)

ORDERS = ((lex_order, "lex"), (revlex_order, "grevlex"))


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
def test_reduced_basis_matches_sympy(case, make_order, sympy_order):
    nvars, polys = case
    names = tuple(f"x{i}" for i in range(1, nvars + 1))
    ctx = VarContext.make(names)
    spec = make_order(*names)
    ord_ = compile_order(spec, ctx)
    ideal = Ideal.make(
        [poly_from_dict({Monomial(e): c for e, c in p.items()}, ord_) for p in polys], ctx
    )
    ours = reduced_groebner_basis(ideal, spec).elements
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
