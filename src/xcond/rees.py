"""Rees-algebra presentations of monomial ideals.

A minimal monomial generating set u_1..u_s of an ideal I in the base ring
S determines a surjection T = K[y_1..y_s, x_1..x_n] -> R(I) sending
y_j to u_j*t and fixing the x_i.  The kernel J is computed here by a
single Buchberger run that eliminates t under block(t; fiber; base): by
the Elimination Theorem the t-free part of that reduced basis is already
the reduced basis of J under the block order comparing the fiber
variables first.  Everything downstream reads off the reduced basis of
J: the x-condition, the standard fiber monomials of each degree k (which
present I^k), the successive colon ideals of their images, the
closed-form Betti table those colons determine, and the final
componentwise-linearity certificate.
"""

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .betti import GENERATOR_CAP, BettiTable, betti_numbers, is_componentwise_linear
from .groebner import (
    GBConfig,
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    ScaleExceeded,
    eliminate,
    initial_ideal,
    monomial_colon,
    normal_form,
)
from .ring import (
    Monomial,
    Polynomial,
    VarContext,
    block_order,
    compile_order,
    lex_order,
    monomial_poly,
    poly_from_dict,
    weighted_order,
)

ELIM_VAR = "_t"
FIBER_BLOCK = "fiber"
BASE_BLOCK = "base"


# ---------------------------------------------------------------------------
# presentation construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReesPresentation:
    """Reduced presentation data of the Rees algebra of (u_1..u_s).

    gens holds the base-ring monomials in the order matching the fiber
    variables: the j-th fiber variable maps to gens[j] * t.  gb is the
    reduced basis of the kernel under `order`, which compares the fiber
    block before the base block.
    """

    base: VarContext
    gens: tuple
    extended: VarContext
    order: object
    gb: object

    def fiber_names(self):
        return self.extended.block_vars(FIBER_BLOCK)

    def fiber_indices(self):
        return self.extended.block_indices(FIBER_BLOCK)

    def base_indices(self):
        return self.extended.block_indices(BASE_BLOCK)

    def initial(self):
        return initial_ideal(self.gb)


def default_fiber_names(count):
    return tuple(f"y{j}" for j in range(1, count + 1))


def extended_context(base_ctx, gens, fiber_names=None):
    """Fiber block in front of the base block, bidegrees (deg u_j, 1) and
    (1, 0) respectively."""
    gens = tuple(gens)
    if fiber_names is None:
        fiber_names = default_fiber_names(len(gens))
    fiber_names = tuple(fiber_names)
    if len(fiber_names) != len(gens):
        raise ValueError("one fiber variable per generator")
    if set(fiber_names) & set(base_ctx.names) or ELIM_VAR in fiber_names:
        raise ValueError("fiber names must be fresh")
    names = fiber_names + base_ctx.names
    blocks = ((FIBER_BLOCK, fiber_names), (BASE_BLOCK, base_ctx.names))
    bidegrees = tuple((g.degree(), 1) for g in gens) + tuple(
        (1, 0) for _ in base_ctx.names
    )
    return VarContext.make(names, blocks, bidegrees)


def presentation_order(fiber_spec, base_spec):
    return block_order((FIBER_BLOCK, fiber_spec), (BASE_BLOCK, base_spec))


def default_order(extended):
    """Fiber variables ranked by their printed position, then the base."""
    return presentation_order(
        lex_order(*extended.block_vars(FIBER_BLOCK)),
        lex_order(*extended.block_vars(BASE_BLOCK)),
    )


def ascending_degree(gens):
    """Stable relabeling with nondecreasing generator degrees, the labeling
    the weight-vector order expects."""
    return tuple(sorted(gens, key=lambda g: g.degree()))


def weight_order(gens, fiber_names, base_spec):
    """Fiber comparison by total image degree, ties won by the later fiber
    variable, then the base comparison."""
    weights = tuple(g.degree() for g in gens)
    tie = lex_order(*reversed(tuple(fiber_names)))
    return presentation_order(weighted_order(weights, tie), base_spec)


def _validate_generators(base_ctx, gens):
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if len(g.exps) != base_ctx.nvars:
            raise ValueError("generator does not live in the base context")
        if g.is_one():
            raise ValueError("unit generator")
    for a, b in itertools.permutations(gens, 2):
        if a.divides(b):
            raise ValueError(f"generators are not minimal: {a} divides {b}")


def rees_ideal(base_ctx, gens, order=None, fiber_names=None, config=None):
    """Reduced kernel basis of y_j -> u_j*t via t-elimination.

    One Buchberger run under block(t; fiber; base) insists on pure
    binomials.  Its t-free elements, with the t coordinate dropped, are the
    reduced basis under `order` (Elimination Theorem), already listed in
    descending order of leading monomial.  Every element is checked to
    vanish under the substitution map.
    """
    gens = tuple(gens)
    _validate_generators(base_ctx, gens)
    extended = extended_context(base_ctx, gens, fiber_names)
    if order is None:
        order = default_order(extended)
    if order.kind != "block" or tuple(bn for bn, _ in order.parts) != (
        FIBER_BLOCK,
        BASE_BLOCK,
    ):
        raise ValueError("order must compare the fiber block before the base block")
    cfg = replace(config or GBConfig.from_env(), expect_binomials=True)

    elim_ctx = VarContext.make(
        (ELIM_VAR,) + extended.names,
        (("elim", (ELIM_VAR,)),) + extended.blocks,
        ((0, 1),) + extended.bidegrees,
    )
    elim_order = block_order(("elim", lex_order(ELIM_VAR)), *order.parts)
    elim_compiled = compile_order(elim_order, elim_ctx)
    fiber = extended.block_vars(FIBER_BLOCK)
    relations = []
    for j, u in enumerate(gens):
        image = [0] * elim_ctx.nvars
        image[elim_ctx.index(ELIM_VAR)] = 1
        for i, e in enumerate(u.exps):
            image[elim_ctx.index(base_ctx.names[i])] = e
        relations.append(
            poly_from_dict(
                {
                    Monomial.var(elim_ctx.index(fiber[j]), elim_ctx.nvars): Fraction(1),
                    Monomial(tuple(image)): Fraction(-1),
                },
                elim_compiled,
            )
        )
    contracted = eliminate(Ideal.make(relations, elim_ctx), (ELIM_VAR,), elim_order, cfg)
    # ELIM_VAR is coordinate 0 of elim_ctx and the rest is `extended`; t-free
    # terms compare under elim_order exactly as under `order`
    elements = tuple(
        Polynomial(tuple((Monomial(m.exps[1:]), c) for m, c in g.terms))
        for g in contracted.generators
    )
    gb = GroebnerBasis(extended, order, elements, True)
    presentation = ReesPresentation(base_ctx, gens, extended, order, gb)
    for g in gb.elements:
        if not kernel_member(g, gens, extended):
            raise AssertionError(f"basis element {g} does not vanish under substitution")
    return presentation


def substitution_image(p, gens, extended):
    """Coefficient map of p under y_j -> u_j*t, keyed by (t-degree, base
    exponents); empty exactly when p lies in the kernel."""
    fiber_idx = extended.block_indices(FIBER_BLOCK)
    base_idx = extended.block_indices(BASE_BLOCK)
    acc = {}
    for m, c in p.terms:
        exps = [m.exps[i] for i in base_idx]
        for pos, j in enumerate(fiber_idx):
            a = m.exps[j]
            if a:
                for i, e in enumerate(gens[pos].exps):
                    exps[i] += a * e
        key = (m.degree_on(fiber_idx), tuple(exps))
        total = acc.get(key, Fraction(0)) + c
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


def kernel_member(p, gens, extended):
    return not substitution_image(p, gens, extended)


# ---------------------------------------------------------------------------
# x-condition and standard monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XConditionReport:
    holds: bool
    violations: tuple


def x_condition(presentation):
    """Every minimal generator of the initial ideal is allowed at most one
    base variable (counted with multiplicity)."""
    base_idx = presentation.base_indices()
    ini = presentation.initial()
    violations = tuple(m for m in ini.generators if m.degree_on(base_idx) > 1)
    return XConditionReport(not violations, violations)


@dataclass(frozen=True)
class StandardBasisK:
    """Degree-k fiber monomials surviving the initial ideal, paired with
    their base-ring images; ascending in the fiber order."""

    k: int
    entries: tuple

    def monomials(self):
        return tuple(w for w, _ in self.entries)

    def images(self):
        return tuple(h for _, h in self.entries)


def _pure_fiber_initials(presentation):
    base_idx = presentation.base_indices()
    return [m for m in presentation.initial().generators if m.degree_on(base_idx) == 0]


def _image(presentation, w):
    exps = [0] * presentation.base.nvars
    for pos, j in enumerate(presentation.fiber_indices()):
        a = w.exps[j]
        if a:
            for i, e in enumerate(presentation.gens[pos].exps):
                exps[i] += a * e
    return Monomial(tuple(exps))


def _fiber_monomials(presentation, k):
    nvars = presentation.extended.nvars
    for combo in itertools.combinations_with_replacement(presentation.fiber_indices(), k):
        yield Monomial.from_pairs([(i, 1) for i in combo], nvars)


def standard_monomials(presentation, k):
    if k < 1:
        raise ValueError("power must be at least 1")
    blockers = _pure_fiber_initials(presentation)
    order = presentation.gb.compiled()
    ws = [
        w
        for w in _fiber_monomials(presentation, k)
        if not any(v.divides(w) for v in blockers)
    ]
    ws.sort(key=order.key)
    return StandardBasisK(k, tuple((w, _image(presentation, w)) for w in ws))


def standard_rewrites(presentation, k):
    """Normal form of every non-standard degree-k fiber monomial.

    Each remainder must be a base-coefficient combination of strictly
    smaller standard fiber monomials of the same degree; violations raise.
    Returns the (monomial, remainder) pairs.
    """
    blockers = _pure_fiber_initials(presentation)
    order = presentation.gb.compiled()
    fiber_idx = set(presentation.fiber_indices())
    standard = set(standard_monomials(presentation, k).monomials())
    out = []
    for w in _fiber_monomials(presentation, k):
        if not any(v.divides(w) for v in blockers):
            continue
        remainder = normal_form(monomial_poly(w), list(presentation.gb.elements), order)
        for m, _c in remainder.terms:
            part = Monomial.from_pairs(
                [(i, e) for i, e in enumerate(m.exps) if e and i in fiber_idx],
                presentation.extended.nvars,
            )
            if part.degree() != k or part not in standard:
                raise AssertionError(f"rewrite of {w} leaves a non-standard term {m}")
            if order.key(part) >= order.key(w):
                raise AssertionError(f"rewrite of {w} is not strictly decreasing")
        difference = monomial_poly(w).sub(remainder, order)
        if not kernel_member(difference, presentation.gens, presentation.extended):
            raise AssertionError(f"rewrite of {w} is not a kernel relation")
        out.append((w, remainder))
    return tuple(out)


# ---------------------------------------------------------------------------
# linear quotients and Betti data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientStep:
    j: int
    colon: MonomialIdeal
    mu: int
    degree: int


@dataclass(frozen=True)
class QuotientReport:
    steps: tuple
    ok: bool


def quotient_steps(images):
    """Successive colon ideals (h_1..h_{j-1}) : h_j; ok when every colon
    that is neither zero nor the unit ideal is generated by variables."""
    images = tuple(images)
    steps = []
    ok = True
    for j, h in enumerate(images, start=1):
        colon = monomial_colon(MonomialIdeal.make(images[: j - 1]), h)
        steps.append(QuotientStep(j, colon, len(colon.generators), h.degree()))
        if any(g.is_one() for g in colon.generators):
            continue
        if not all(g.degree() == 1 for g in colon.generators):
            ok = False
    return QuotientReport(tuple(steps), ok)


def linear_quotients(presentation, k):
    return quotient_steps(standard_monomials(presentation, k).images())


def is_minimal_sequence(monomials):
    monomials = tuple(monomials)
    return not any(
        i != j and a.divides(b)
        for i, a in enumerate(monomials)
        for j, b in enumerate(monomials)
    )


def minimality_check(presentation, k):
    return is_minimal_sequence(standard_monomials(presentation, k).images())


def colon_cross_check(presentation, k):
    """Each nontrivial colon's variable set must equal the base variables
    x_i with x_i * w_j in the initial ideal, w_j the j-th standard fiber
    monomial."""
    basis = standard_monomials(presentation, k)
    report = quotient_steps(basis.images())
    if not report.ok:
        raise ValueError("cross-check requires a linear-quotients pipeline")
    ini = presentation.initial()
    extended = presentation.extended
    for step, w in zip(report.steps, basis.monomials()):
        if any(g.is_one() for g in step.colon.generators):
            continue
        lhs = {presentation.base.names[g.support()[0]] for g in step.colon.generators}
        rhs = {
            name
            for name in presentation.base.names
            if ini.contains(w.mul(Monomial.var(extended.index(name), extended.nvars)))
        }
        if lhs != rhs:
            return False
    return True


def betti_from_quotients(steps, minimal=False):
    """Closed-form graded Betti table from colon counts: each step of image
    degree d and colon size mu contributes C(mu, i) to position (i, i+d).

    Valid when the image degrees are nondecreasing or the image sequence is
    a minimal generating set; otherwise raises.
    """
    degrees = [s.degree for s in steps]
    if any(a > b for a, b in zip(degrees, degrees[1:])) and not minimal:
        raise ValueError("image degrees decrease and the sequence is not minimal")
    table = {}
    for s in steps:
        for i in range(s.mu + 1):
            key = (i, i + s.degree)
            table[key] = table.get(key, 0) + math.comb(s.mu, i)
    return BettiTable.from_dict(table)


# ---------------------------------------------------------------------------
# componentwise-linearity certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    k: int
    x_condition: bool
    quadratic: bool
    minimal: bool
    linear_quotients: bool
    nondecreasing: bool
    weighted: bool
    certified: "str | None"
    betti_route: "str | None"
    betti: "BettiTable | None"
    oracle_componentwise: "bool | None"
    oracle_betti_match: "bool | None"


def componentwise_certificate(presentation, k):
    """Certificate that the k-th power is componentwise linear.

    Route "quadratic-initial": initial ideal generated in degree at most 2,
    images minimal, colons linear.  Route "weighted-nondecreasing": weighted
    fiber order, colons linear, image degrees nondecreasing.  The closed-form
    Betti table is attached whenever either hypothesis validates it, and the
    brute-force verdict is attached whenever the power is small enough.
    """
    xc = x_condition(presentation)
    quadratic = all(m.degree() <= 2 for m in presentation.initial().generators)
    basis = standard_monomials(presentation, k)
    images = basis.images()
    minimal = is_minimal_sequence(images)
    report = quotient_steps(images)
    degrees = [s.degree for s in report.steps]
    nondecreasing = all(a <= b for a, b in zip(degrees, degrees[1:]))
    weighted = presentation.order.parts[0][1].kind == "weighted"

    certified = None
    if quadratic and minimal and report.ok:
        certified = "quadratic-initial"
    elif weighted and report.ok and nondecreasing:
        certified = "weighted-nondecreasing"

    betti_route = None
    table = None
    if report.ok and (minimal or nondecreasing):
        table = betti_from_quotients(report.steps, minimal=minimal)
        betti_route = (
            "both" if minimal and nondecreasing else "minimal" if minimal else "nondecreasing"
        )

    oracle_verdict = None
    oracle_match = None
    power = MonomialIdeal.make(images)
    if len(power.generators) <= GENERATOR_CAP:
        if table is not None and minimal:
            oracle_match = betti_numbers(power) == table
        try:
            oracle_verdict = is_componentwise_linear(power)
        except ScaleExceeded:
            pass

    return CertificateReport(
        k=k,
        x_condition=xc.holds,
        quadratic=quadratic,
        minimal=minimal,
        linear_quotients=report.ok,
        nondecreasing=nondecreasing,
        weighted=weighted,
        certified=certified,
        betti_route=betti_route,
        betti=table,
        oracle_componentwise=oracle_verdict,
        oracle_betti_match=oracle_match,
    )
