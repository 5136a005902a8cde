"""Groebner bases over Q: division, Buchberger, reduction, elimination.

The engine is deliberately classical: normal pair selection (smallest lcm
under the working order, ties by generator index pair), the coprime and
chain criteria, full tail reduction.  Every run is bounded by explicit
resource caps; exceeding a cap raises ScaleExceeded rather than returning
a truncated basis.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .ring import (
    OrderSpec,
    Polynomial,
    VarContext,
    compile_order,
    is_elimination_order,
    poly_from_dict,
)

DEFAULT_PAIR_CAP = 200_000
DEFAULT_DEGREE_CAP = 40
PAIR_CAP_ENV = "XCOND_PAIR_CAP"


class ScaleExceeded(RuntimeError):
    """A computation hit its pair or degree budget; no partial result is returned."""


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

    @staticmethod
    def from_env(**overrides):
        """Default config, with the pair cap taken from the environment when
        set; explicit keyword overrides win over both."""
        cfg = GBConfig()
        env_cap = os.environ.get(PAIR_CAP_ENV)
        if env_cap is not None:
            cfg = replace(cfg, pair_cap=int(env_cap))
        if overrides:
            cfg = replace(cfg, **overrides)
        return cfg


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
    reduced: bool

    def compiled(self):
        return compile_order(self.order, self.context)

    def leading_monomials(self):
        return tuple(g.lm() for g in self.elements)


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

    def colon(self, m):
        return monomial_colon(self, m)

    def power(self, k):
        if k < 1:
            raise ValueError("power must be at least 1")
        acc = list(self.generators)
        for _ in range(k - 1):
            acc = list(
                MonomialIdeal.make(a.mul(g) for a in acc for g in self.generators).generators
            )
        return MonomialIdeal.make(acc)


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
                p = p.sub_mul(g, qm, qc, order)
                break
        else:
            remainder.append((m, c))
            p = Polynomial(p.terms[1:])
    qs = tuple(poly_from_dict(q, order) for q in quotients)
    return qs, Polynomial(tuple(remainder))


def normal_form(f, divisors, order):
    if not divisors:
        return f
    _, r = divide(f, divisors, order)
    return r


def s_polynomial(f, g, order):
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    L = f.lm().lcm(g.lm())
    a = f.term_mul(L.div(f.lm()), 1 / f.lc())
    return a.sub_mul(g, L.div(g.lm()), 1 / g.lc(), order)


def _canonical(f, ord_):
    """Re-sort a caller-supplied polynomial under the working order; its
    terms may have been built under a different one."""
    acc = {}
    for m, c in f.terms:
        acc[m] = acc.get(m, 0) + c
    return poly_from_dict(acc, ord_)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def buchberger(ideal, order, config=None):
    """S-pair-closed basis of the ideal; elements monic; not tail-reduced."""
    cfg = config or GBConfig.from_env()
    ctx = ideal.context
    ord_ = compile_order(order, ctx)

    basis = []
    seen = set()
    for g in ideal.generators:
        g = _canonical(g, ord_)
        if g.is_zero():
            continue
        g = g.monic()
        if g not in seen:
            seen.add(g)
            basis.append(g)
    if not basis:
        return GroebnerBasis(ctx, order, (), True)

    heap = []

    def push_pairs(t):
        lm_t = basis[t].lm()
        for i in range(t):
            L = basis[i].lm().lcm(lm_t)
            heapq.heappush(heap, (ord_.key(L), i, t))

    for t in range(1, len(basis)):
        push_pairs(t)

    done = set()
    popped = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        popped += 1
        if popped > cfg.pair_cap:
            raise ScaleExceeded(
                f"S-pair budget of {cfg.pair_cap} exhausted ({len(basis)} basis elements)"
            )
        done.add((i, j))
        lm_i, lm_j = basis[i].lm(), basis[j].lm()
        if cfg.use_coprime_criterion and lm_i.gcd(lm_j).is_one():
            continue
        if cfg.use_chain_criterion:
            L = lm_i.lcm(lm_j)
            skip = False
            for k in range(len(basis)):
                if k == i or k == j:
                    continue
                if (
                    basis[k].lm().divides(L)
                    and (min(i, k), max(i, k)) in done
                    and (min(j, k), max(j, k)) in done
                ):
                    skip = True
                    break
            if skip:
                continue
        h = normal_form(s_polynomial(basis[i], basis[j], ord_), basis, ord_)
        if h.is_zero():
            continue
        if h.degree() > cfg.degree_cap:
            raise ScaleExceeded(
                f"degree budget of {cfg.degree_cap} exceeded (element of degree {h.degree()})"
            )
        h = h.monic()
        if cfg.expect_binomials and not h.is_binomial_pm1():
            raise AssertionError(
                "binomial purity violated: a toric run produced a non-binomial element"
            )
        basis.append(h)
        push_pairs(len(basis) - 1)

    return GroebnerBasis(ctx, order, tuple(basis), False)


def reduce_basis(gb):
    """The unique reduced basis: minimal leading monomials, monic elements,
    every tail in normal form with respect to the others."""
    if not gb.elements:
        return GroebnerBasis(gb.context, gb.order, (), True)
    ord_ = gb.compiled()
    elems = [g for g in (_canonical(e, ord_) for e in gb.elements) if not g.is_zero()]
    ascending = sorted(elems, key=lambda g: ord_.key(g.lm()))
    minimal = []
    for g in ascending:
        if not any(h.lm().divides(g.lm()) for h in minimal):
            minimal.append(g)
    tail_reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        tail_reduced.append(normal_form(g, others, ord_).monic())
    tail_reduced.sort(key=lambda g: ord_.key(g.lm()), reverse=True)
    return GroebnerBasis(gb.context, gb.order, tuple(tail_reduced), True)


def reduced_groebner_basis(ideal, order, config=None):
    return reduce_basis(buchberger(ideal, order, config))


def membership(f, gb):
    ord_ = gb.compiled()
    return normal_form(_canonical(f, ord_), list(gb.elements), ord_).is_zero()


def is_spair_closed(elements, order, ctx, config=None):
    """Buchberger criterion re-check: every S-pair reduces to zero."""
    cfg = config or GBConfig.from_env()
    ord_ = compile_order(order, ctx)
    elems = [g for g in (_canonical(e, ord_) for e in elements) if not g.is_zero()]
    checked = 0
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            checked += 1
            if checked > cfg.pair_cap:
                raise ScaleExceeded(f"S-pair budget of {cfg.pair_cap} exhausted")
            if elems[i].lm().gcd(elems[j].lm()).is_one():
                continue
            s = s_polynomial(elems[i], elems[j], ord_)
            if not normal_form(s, elems, ord_).is_zero():
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


def monomial_colon(ideal, m):
    """(I : m) for a monomial ideal I and monomial m."""
    if m.is_one():
        return ideal
    return MonomialIdeal.make(u.lcm(m).div(m) for u in ideal.generators)


def initial_ideal(gb):
    return MonomialIdeal.make(g.lm() for g in gb.elements)
