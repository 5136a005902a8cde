"""Groebner bases over Q: division, Buchberger, reduction, elimination.

Buchberger's algorithm with the installation of Gebauer and Moeller
(J. Symbolic Comput. 6, 1988).  When an element t is installed, its pairs
(i, t) with the elements still taking pairs are pruned once, instead of
every pair being tested when it is popped:

- criterion M drops (i, t) when another new pair's lcm strictly divides
  lcm(i, t); criterion F keeps one pair per lcm;
- the product criterion drops a pair whose leading monomials are coprime,
  and with F its whole lcm class;
- B_t drops a queued pair (i, j) when lm(t) divides lcm(i, j) and differs
  from neither lcm(i, t) nor lcm(j, t);
- elements whose leading monomial lm(t) divides take no further pairs.

GBConfig.use_coprime_criterion switches the product criterion and
use_chain_criterion switches M, F, B_t and the retirement.  Pairs are
selected normally: smallest lcm under the working order, ties by index
pair.  S-polynomials are reduced by normal_form over a Reducers table of
the elements not retired, built once and updated on each install; the
final basis is fully tail-reduced.  Every run is bounded by explicit resource caps; exceeding
a cap raises ScaleExceeded rather than returning a truncated basis.

Coefficients are Fractions only at the boundary.  Each divisor is held
in its primitive integer form (denominators cleared, content divided out,
leading coefficient positive), S-polynomials are formed fraction-free
from two such forms, and the reduction loop runs on ints, rescaling the
running polynomial only when a reducer's leading coefficient does not
divide the coefficient it cancels (never for the +-1 binomials).
normal_form clears its input's denominators on entry and returns
Fractions; installed elements are made monic once, from their integer
form.  divide stays the Fraction textbook oracle.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, itemgetter, le, sub

from .ring import (
    Monomial,
    OrderSpec,
    Polynomial,
    VarContext,
    compile_order,
    is_elimination_order,
    poly_from_dict,
    poly_from_terms,
)

DEFAULT_PAIR_CAP = 200_000
DEFAULT_DEGREE_CAP = 40

_first = itemgetter(0)


class ScaleExceeded(RuntimeError):
    """A computation hit a size cap (its pair or degree budget, or a vertex
    limit of an exhaustive search); no partial result is returned."""


@dataclass(frozen=True)
class GBConfig:
    pair_cap: int = DEFAULT_PAIR_CAP
    degree_cap: int = DEFAULT_DEGREE_CAP
    use_coprime_criterion: bool = True
    use_chain_criterion: bool = True
    expect_binomials: bool = False

    def __post_init__(self):
        if self.pair_cap <= 0 or self.degree_cap <= 0:
            raise ValueError("caps must be positive")


@dataclass(frozen=True)
class Ideal:
    context: VarContext
    generators: tuple

    @staticmethod
    def make(gens, ctx):
        return Ideal(ctx, tuple(g for g in gens if not g.is_zero()))


@dataclass(frozen=True)
class GroebnerBasis:
    context: VarContext
    order: OrderSpec
    elements: tuple

    def compiled(self):
        return compile_order(self.order, self.context)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal held by its unique minimal generating set."""

    generators: tuple

    @staticmethod
    def make(monomials):
        distinct = sorted(set(monomials), key=lambda m: (m.degree(), m.exps))
        kept = []
        for m in distinct:
            if not any(u.divides(m) for u in kept):
                kept.append(m)
        return MonomialIdeal(tuple(kept))

    def is_zero(self):
        return not self.generators

    def contains(self, m):
        return any(u.divides(m) for u in self.generators)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def divide(f, divisors, order):
    """Multivariate division: f = sum q_i * divisors_i + r.

    Divisors are tried in list order, the leading term of the running
    polynomial is reduced first.  No term of r is divisible by any
    divisor's leading monomial.  Returns (quotients, r).
    """
    quotients = [dict() for _ in divisors]
    lead = [(g.lm(), g.lc()) if not g.is_zero() else None for g in divisors]
    p = f
    remainder = []
    while not p.is_zero():
        m, c = p.lt()
        for gi, g in enumerate(divisors):
            if lead[gi] is None:
                continue
            glm, glc = lead[gi]
            if glm.divides(m):
                qm = m.div(glm)
                qc = c / glc
                quotients[gi][qm] = quotients[gi].get(qm, Fraction(0)) + qc
                p = p.sub(g.term_mul(qm, qc), order)
                break
        else:
            remainder.append((m, c))
            p = Polynomial(p.terms[1:])
    qs = tuple(poly_from_dict(q, order) for q in quotients)
    return qs, Polynomial(tuple(remainder))


def _support_mask(exps):
    """Bit i is set when variable i occurs in the monomial."""
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


def _divides(a, b):
    return all(map(le, a, b))


def _integer_form(g, monic=False):
    """(lm exponents, lm support mask, lc, tail, element) of a nonzero
    polynomial g.  lc and the tail [(exponents, int)] are the primitive
    integer multiple of g: denominators cleared, content divided out,
    leading coefficient positive.  element is g, or g made monic."""
    terms = g.terms
    den = lcm(*(c.denominator for _, c in terms))
    ints = [c.numerator * (den // c.denominator) for _, c in terms]
    content = gcd(*ints)
    if ints[0] < 0:
        content = -content
    if content != 1:
        ints = [c // content for c in ints]
    lc = ints[0]
    if monic:
        g = Polynomial(tuple((m, Fraction(c, lc)) for (m, _), c in zip(terms, ints)))
    exps = terms[0][0].exps
    tail = [(m.exps, c) for (m, _), c in zip(terms[1:], ints[1:])]
    return (exps, _support_mask(exps), lc, tail, g)


class Reducers(list):
    """Divisor table for normal_form: one _integer_form entry per nonzero
    divisor, tried in list order.

    A divisor's support must lie in the target's, so the mask test is an
    exact prefilter before the exponents are compared.
    """

    def __init__(self, polys=()):
        super().__init__()
        for g in polys:
            if not g.is_zero():
                self.append(_integer_form(g))

    def find(self, exps):
        """First entry whose leading monomial divides exps, or None."""
        mask = _support_mask(exps)
        for entry in self:
            if not entry[1] & ~mask and _divides(entry[0], exps):
                return entry
        return None


def _reduce(p, table, key):
    """Reduce p, an ascending list of (key, exponents, int), by the table.

    Returns (remainder, factor): remainder is a descending list of
    (exponents, int) with no term divisible by a table leading monomial,
    and factor * p - remainder lies in the ideal of the table.  Each step
    cancels the leading term c x^e with an entry of leading coefficient
    gc: when gc does not divide c, p and the remainder so far are first
    multiplied by a = gc / gcd(c, gc), and so is factor.
    """
    remainder = []
    factor = 1
    while p:
        _, e, c = p.pop()
        hit = table.find(e)
        if hit is None:
            remainder.append((e, c))
            continue
        ge, _, gc, tail, _ = hit
        if gc != 1:
            g = gcd(c, gc)
            a = gc // g
            if a != 1:
                factor *= a
                p = [(k2, e2, a * c2) for k2, e2, c2 in p]
                remainder = [(e2, a * c2) for e2, c2 in remainder]
            c //= g
        q = tuple(map(sub, e, ge))
        for m, b in tail:
            e2 = tuple(map(add, m, q))
            k2 = key(e2)
            c2 = -c * b
            i = bisect_left(p, k2, key=_first)
            if i < len(p) and p[i][0] == k2:
                c2 += p[i][2]
                if c2:
                    p[i] = (k2, e2, c2)
                else:
                    del p[i]
            else:
                p.insert(i, (k2, e2, c2))
    return remainder, factor


def normal_form(f, divisors, order):
    """The remainder of divide(f, divisors, order), without quotients.

    divisors is a polynomial list or a prebuilt Reducers table.  f's
    denominators are cleared and _reduce runs on integers; the remainder's
    coefficients come back as Fractions.
    """
    table = divisors if isinstance(divisors, Reducers) else Reducers(divisors)
    if not table or f.is_zero():
        return f
    key = order.exps_key
    den = lcm(*(c.denominator for _, c in f.terms))
    p = [
        (key(m.exps), m.exps, c.numerator * (den // c.denominator))
        for m, c in reversed(f.terms)
    ]
    remainder, factor = _reduce(p, table, key)
    den *= factor
    return Polynomial(tuple((Monomial(e), Fraction(c, den)) for e, c in remainder))


def _s_polynomial(fi, fj, order):
    """S-polynomial of two integer forms, kept integral:
    (lc_j/g) x^(L-lm_i) f_i - (lc_i/g) x^(L-lm_j) f_j, where L is the lcm
    of the leading monomials and g = gcd(lc_i, lc_j).  It is
    lcm(lc_i, lc_j) times the S-polynomial of the monic elements, returned
    as a Polynomial with int coefficients."""
    L = tuple(map(max, fi[0], fj[0]))
    g = gcd(fi[2], fj[2])
    acc = {}
    for (lm, _, _, tail, _), scale in ((fi, fj[2] // g), (fj, -(fi[2] // g))):
        shift = tuple(map(sub, L, lm))
        for e, c in tail:
            e = tuple(map(add, e, shift))
            acc[e] = acc.get(e, 0) + scale * c
    key = order.exps_key
    terms = sorted(((key(e), e, c) for e, c in acc.items() if c), reverse=True)
    return Polynomial(tuple((Monomial(e), c) for _, e, c in terms))


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def buchberger(ideal, order, config=None):
    """S-pair-closed basis of the ideal; elements monic; not tail-reduced.

    Elements are installed one at a time, generators first, each through
    the Gebauer-Moeller update (see the module docstring); every popped
    pair is reduced.  The result lists every installed element, retired
    ones included.
    """
    cfg = config or GBConfig()
    ctx = ideal.context
    ord_ = compile_order(order, ctx)
    key = ord_.exps_key
    coprime_crit = cfg.use_coprime_criterion
    chain_crit = cfg.use_chain_criterion

    forms = []  # _integer_form of each basis element, element monic
    active = []  # indices not retired: they take new pairs
    reducers = Reducers()  # forms of the active elements, in installation order
    heap = []  # (lcm key, i, j, lcm exponents, lcm mask), i < j

    def install(form):
        t = len(forms)
        lm_t, mask_t = form[0], form[1]
        forms.append(form)

        def lcm_with_t(i):
            return tuple(map(max, forms[i][0], lm_t))

        def divisible_by_t(exps, mask):
            return not mask_t & ~mask and _divides(lm_t, exps)

        if chain_crit and heap:
            # B_t: (i, j) is redundant when lm_t divides its lcm and the
            # lcms of (i, t) and (j, t) are proper divisors of it
            kept = [
                pair
                for pair in heap
                if not divisible_by_t(pair[3], pair[4])
                or lcm_with_t(pair[1]) == pair[3]
                or lcm_with_t(pair[2]) == pair[3]
            ]
            if len(kept) < len(heap):
                heap[:] = kept
                heapq.heapify(heap)

        new = {}  # lcm exponents -> partner indices, ascending
        for i in active:
            new.setdefault(lcm_with_t(i), []).append(i)
        minimal = []  # (exponents, mask) of the lcms kept by criterion M

        def coprime(i):
            return not forms[i][1] & mask_t

        # a proper divisor has a smaller degree, so it is met first
        for L in sorted(new, key=sum):
            partners = new[L]
            mask = forms[partners[0]][1] | mask_t
            if chain_crit:
                # M: drop a class whose lcm another new lcm properly divides
                if any(not m & ~mask and _divides(e, L) for e, m in minimal):
                    continue
                minimal.append((L, mask))
                # product criterion: a coprime pair drops its whole class
                if coprime_crit and any(map(coprime, partners)):
                    continue
                partners = partners[:1]  # F: one pair per lcm
            elif coprime_crit:
                partners = [i for i in partners if not coprime(i)]
            for i in partners:
                heapq.heappush(heap, (key(L), i, t, L, mask))

        if chain_crit:
            # every multiple of a retired lm is a multiple of lm_t, so the
            # retired elements also leave the reducer table
            active[:] = [i for i in active if not divisible_by_t(forms[i][0], forms[i][1])]
            reducers[:] = [entry for entry in reducers if not divisible_by_t(entry[0], entry[1])]
        active.append(t)
        reducers.append(form)

    seen = set()
    for g in ideal.generators:
        g = poly_from_terms(g.terms, ord_)
        if g.is_zero():
            continue
        form = _integer_form(g, monic=True)
        if form[4] not in seen:
            seen.add(form[4])
            install(form)
    if not forms:
        return GroebnerBasis(ctx, order, ())

    popped = 0
    while heap:
        _, i, j, _, _ = heapq.heappop(heap)
        popped += 1
        if popped > cfg.pair_cap:
            raise ScaleExceeded(
                f"S-pair budget of {cfg.pair_cap} exhausted ({len(forms)} basis elements)"
            )
        h = normal_form(_s_polynomial(forms[i], forms[j], ord_), reducers, ord_)
        if h.is_zero():
            continue
        if h.degree() > cfg.degree_cap:
            raise ScaleExceeded(
                f"degree budget of {cfg.degree_cap} exceeded (element of degree {h.degree()})"
            )
        form = _integer_form(h, monic=True)
        if cfg.expect_binomials and not form[4].is_binomial_pm1():
            raise AssertionError(
                "binomial purity violated: a toric run produced a non-binomial element"
            )
        install(form)

    return GroebnerBasis(ctx, order, tuple(form[4] for form in forms))


def reduce_basis(gb):
    """The unique reduced basis: minimal leading monomials, monic elements,
    every tail in normal form with respect to the others."""
    if not gb.elements:
        return GroebnerBasis(gb.context, gb.order, ())
    ord_ = gb.compiled()
    elems = [g for g in (poly_from_terms(e.terms, ord_) for e in gb.elements) if not g.is_zero()]
    ascending = sorted(elems, key=lambda g: ord_.key(g.lm()))
    minimal = []
    for g in ascending:
        if not any(h.lm().divides(g.lm()) for h in minimal):
            minimal.append(g)
    # Every term of a tail, and of its reductions, lies below lm(g), so no
    # lm(g) divides it and g may stay in the table that reduces its tail.
    table = Reducers(minimal)
    tail_reduced = []
    for g in minimal:
        tail = normal_form(Polynomial(g.terms[1:]), table, ord_)
        tail_reduced.append(Polynomial(g.terms[:1] + tail.terms).monic())
    tail_reduced.sort(key=lambda g: ord_.key(g.lm()), reverse=True)
    return GroebnerBasis(gb.context, gb.order, tuple(tail_reduced))


def reduced_groebner_basis(ideal, order, config=None):
    return reduce_basis(buchberger(ideal, order, config))


def membership(f, gb):
    ord_ = gb.compiled()
    return normal_form(poly_from_terms(f.terms, ord_), list(gb.elements), ord_).is_zero()


def is_spair_closed(elements, order, ctx, config=None):
    """Buchberger criterion re-check: every S-pair reduces to zero."""
    cfg = config or GBConfig()
    ord_ = compile_order(order, ctx)
    table = Reducers(poly_from_terms(e.terms, ord_) for e in elements)
    checked = 0
    for fi, fj in combinations(table, 2):
        checked += 1
        if checked > cfg.pair_cap:
            raise ScaleExceeded(f"S-pair budget of {cfg.pair_cap} exhausted")
        if not fi[1] & fj[1]:
            continue
        s = _s_polynomial(fi, fj, ord_)
        if not normal_form(s, table, ord_).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def eliminate(ideal, block, order, config=None):
    """Generators of the contraction of the ideal to the subring without
    the block variables; requires an elimination order for the block."""
    block = tuple(block)
    ctx = ideal.context
    if not is_elimination_order(order, ctx, block):
        raise ValueError("order does not eliminate the requested block")
    gb = reduce_basis(buchberger(ideal, order, config))
    block_idx = set(ctx.index(v) for v in block)
    kept = []
    for g in gb.elements:
        if any(g.lm().exps[i] for i in block_idx):
            continue
        if any(t[0].exps[i] for t in g.terms for i in block_idx):
            raise AssertionError("elimination order produced a mixed tail")
        kept.append(g)
    return Ideal(ctx, tuple(kept))


# ---------------------------------------------------------------------------
# monomial utilities
# ---------------------------------------------------------------------------


def initial_ideal(gb):
    return MonomialIdeal.make(g.lm() for g in gb.elements)
