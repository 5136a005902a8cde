"""Rees-algebra presentations of monomial ideals.

A minimal monomial generating set u_1..u_s of an ideal I in the base ring
S determines a surjection T = K[y_1..y_s, x_1..x_n] -> R(I) sending
y_j to u_j*t and fixing the x_i.  The kernel J is computed here by a
single Buchberger run that eliminates t under block(t; fiber; base): by
the Elimination Theorem the t-free part of that reduced basis is already
the reduced basis of J under the block order comparing the fiber
variables first.  t is the last variable of the elimination context, so
those packed entries are J's as they stand.  Everything downstream reads
off the reduced basis of J: the x-condition, the standard fiber
monomials of each degree k (which present I^k), the successive colon
ideals of their images, the closed-form Betti table those colons
determine, and the final componentwise-linearity certificate.

The x-condition is read off any reduced basis whose context names a
"base" block, the variables of S: symalg presents Sym(M) in K[x, y] with
its x_i as that block, so x_condition serves both algebras.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .betti import BettiTable, betti_numbers, is_componentwise_linear
from .groebner import (
    ExponentPacking,
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    ScaleExceeded,
    criterion_m,
    eliminate,
    field_width,
    find_divisor,
    normal_form,
    order_packing,
)
from .ring import (
    Monomial,
    Polynomial,
    VarContext,
    block_order,
    compile_order,
    lex_order,
    monomial_poly,
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
    reduced basis of the kernel under gb.order, which compares the fiber
    block before the base block.
    """

    base: VarContext
    gens: tuple
    extended: VarContext
    gb: object

    def fiber_indices(self):
        return self.extended.block_indices(FIBER_BLOCK)


def default_fiber_names(count):
    return tuple(f"y{j}" for j in range(1, count + 1))


def extended_context(base_ctx, gens, fiber_names=None):
    """Fiber block in front of the base block."""
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
    return VarContext.make(names, blocks)


def presentation_order(fiber_spec, base_spec):
    return block_order((FIBER_BLOCK, fiber_spec), (BASE_BLOCK, base_spec))


def default_order(extended):
    """Fiber variables ranked by their printed position, then the base."""
    return presentation_order(
        lex_order(*extended.block_vars(FIBER_BLOCK)),
        lex_order(*extended.block_vars(BASE_BLOCK)),
    )


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

    One Buchberger run under block(t; fiber; base), t the last variable of
    its context; its generators y_j - u_j*t are +-1 binomials, so it checks
    that every element it adds is one too.  Its t-free elements are the
    reduced basis under `order` (Elimination Theorem), already listed in
    descending order of leading monomial, and their packed entries are
    kept as they are.  Every element is checked to vanish under the
    substitution map.
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

    elim_ctx = VarContext.make(
        extended.names + (ELIM_VAR,),
        extended.blocks + (("elim", (ELIM_VAR,)),),
    )
    elim_order = block_order(("elim", lex_order(ELIM_VAR)), *order.parts)
    # u_j*t leads y_j - u_j*t, as the elimination order compares t first
    no_fiber = (0,) * len(gens)
    relations = [
        Polynomial(
            (
                (Monomial(no_fiber + u.exps + (1,)), Fraction(-1)),
                (Monomial.var(j, elim_ctx.nvars), Fraction(1)),
            )
        )
        for j, u in enumerate(gens)
    ]
    # y_j - u_j*t is homogeneous for deg y_j = deg u_j + 1, deg x_i = 1 and
    # deg t = 1, so buchberger selects its pairs degree by degree
    grading = (*(u.degree() + 1 for u in gens), *(1,) * base_ctx.nvars, 1)
    ideal = Ideal.make(relations, elim_ctx, elim_order, grading)
    contracted = eliminate(ideal, (ELIM_VAR,), config)
    # ELIM_VAR is the last field of the packing and the fields below it are
    # `extended`'s, so a t-free vector is already its vector in `extended`.
    # elim_order's matrix is one t row on top of the rows of `order`, with
    # the same shift, so a t-free key is also its key under `order`.
    packing = order_packing(compile_order(order, extended), contracted.packing.width)
    if packing.units != contracted.packing.units[:-1]:
        raise AssertionError("the elimination key does not extend the order's key")
    gb = GroebnerBasis(extended, order, packing, contracted.entries)
    presentation = ReesPresentation(base_ctx, gens, extended, gb)
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
        exps = _add_fiber_image([m.exps[i] for i in base_idx], m, fiber_idx, gens)
        key = (m.degree_on(fiber_idx), tuple(exps))
        total = acc.get(key, Fraction(0)) + c
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


def _add_fiber_image(exps, m, fiber_idx, gens):
    """exps, base exponents, plus those of the image of m's fiber part
    under y_j -> u_j; fiber_idx lists the y_j in the order of gens."""
    for pos, j in enumerate(fiber_idx):
        a = m.exps[j]
        if a:
            for i, e in enumerate(gens[pos].exps):
                exps[i] += a * e
    return exps


def kernel_member(p, gens, extended):
    return not substitution_image(p, gens, extended)


# ---------------------------------------------------------------------------
# x-condition and standard monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XConditionReport:
    holds: bool
    violations: tuple


def x_condition(gb):
    """Every minimal generator of the initial ideal of the basis is allowed
    at most one variable of its context's base block (counted with
    multiplicity).  Read off the packed leading monomials of gb.minimal,
    scanned once per basis, whose base fields must be 0 or one unit x_i;
    only the violations are unpacked, sorted as gb.initial sorts its
    generators."""
    packing = gb.packing
    base_idx = gb.context.block_indices(BASE_BLOCK)
    base, allowed = packing.fields(base_idx), {0, *(1 << packing.width * i for i in base_idx)}
    violations = gb.monomials(e for e in gb.minimal if e[0] & base not in allowed)
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


def _blocked(presentation):
    """Whether a fiber monomial is a multiple of a pure-fiber leading
    monomial of the basis: the engine's divisor scan in its packing."""
    packing = presentation.gb.packing
    guard, pack = packing.guard, packing.pack
    base = packing.fields(presentation.extended.block_indices(BASE_BLOCK))
    blockers = [entry for entry in presentation.gb.entries if not entry[0] & base]

    def blocked(w):
        return find_divisor(pack(w.exps), blockers, guard) is not None

    return blocked


def _image(presentation, w):
    exps = [0] * presentation.base.nvars
    fiber_idx = presentation.fiber_indices()
    return Monomial(tuple(_add_fiber_image(exps, w, fiber_idx, presentation.gens)))


def _fiber_monomials(presentation, k):
    nvars = presentation.extended.nvars
    for combo in itertools.combinations_with_replacement(presentation.fiber_indices(), k):
        yield Monomial.from_pairs([(i, 1) for i in combo], nvars)


def standard_monomials(presentation, k):
    if k < 1:
        raise ValueError("power must be at least 1")
    blocked = _blocked(presentation)
    packing = presentation.gb.packing
    ws = [w for w in _fiber_monomials(presentation, k) if not blocked(w)]
    ws.sort(key=lambda w: packing.key(w.exps))
    return StandardBasisK(k, tuple((w, _image(presentation, w)) for w in ws))


def standard_rewrites(presentation, k):
    """Normal form of every non-standard degree-k fiber monomial.

    Each remainder must be a base-coefficient combination of strictly
    smaller standard fiber monomials of the same degree; violations raise.
    Returns the (monomial, remainder) pairs.
    """
    blocked = _blocked(presentation)
    order = presentation.gb.compiled()
    fiber_idx = set(presentation.fiber_indices())
    standard = set(standard_monomials(presentation, k).monomials())
    out = []
    for w in _fiber_monomials(presentation, k):
        if not blocked(w):
            continue
        remainder = normal_form(monomial_poly(w), presentation.gb)
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
    generators: tuple


def quotient_steps(images):
    """Successive colon ideals (h_1..h_{j-1}) : h_j; ok when every colon
    other than the zero ideal is generated by variables.  An image that an
    earlier one divides has the unit ideal as its colon and takes no step;
    generators holds the images kept.  On images sorted by degree those are
    the minimal generators of the ideal, in nondecreasing degree.

    Each image is packed once.  The colon is generated by the quotients
    lcm(h_i, h_j) / h_j over the kept h_i, and its minimal generators are
    the lcms that criterion_m keeps, less h_j: the engine's criterion M on
    the new pairs of an element of leading monomial h_j.  The same lcms
    decide the skip: h_i | h_j exactly when lcm(h_i, h_j) = h_j.
    """
    images = tuple(images)
    top = max((e for h in images for e in h.exps), default=0)
    fields = ExponentPacking(len(images[0].exps) if images else 0, field_width(top))
    lcm, unpack = fields.lcm, fields.unpack
    steps, kept, packed = [], [], []
    ok = True
    for j, h in enumerate(images, start=1):
        p = fields.pack(h.exps)
        lcms = {lcm(u, p) for u in packed}
        if p in lcms:
            continue
        quotients = sorted(
            (unpack(L - p) for L in criterion_m(lcms, p, fields)), key=lambda e: (sum(e), e)
        )
        colon = MonomialIdeal(tuple(map(Monomial, quotients)))
        steps.append(QuotientStep(j, colon, len(quotients), h.degree()))
        kept.append(h)
        packed.append(p)
        if any(sum(q) > 1 for q in quotients):
            ok = False
    return QuotientReport(tuple(steps), ok, tuple(kept))


def colon_cross_check(presentation, k):
    """Each colon's variable set must equal the base variables x_i with
    x_i * w_j in the initial ideal, w_j the standard fiber monomial of the
    step's image."""
    basis = standard_monomials(presentation, k)
    report = quotient_steps(basis.images())
    if not report.ok:
        raise ValueError("cross-check requires a linear-quotients pipeline")
    ini = presentation.gb.initial
    extended = presentation.extended
    monomials = basis.monomials()
    for step in report.steps:
        w = monomials[step.j - 1]
        lhs = {presentation.base.names[g.support()[0]] for g in step.colon.generators}
        rhs = {
            name
            for name in presentation.base.names
            if ini.contains(w.mul(Monomial.var(extended.index(name), extended.nvars)))
        }
        if lhs != rhs:
            return False
    return True


def betti_from_quotients(steps):
    """Closed-form graded Betti table from colon counts: each step of image
    degree d and colon size mu contributes C(mu, i) to position (i, i+d).

    Valid for linear quotients in nondecreasing degree; decreasing image
    degrees raise.
    """
    degrees = [s.degree for s in steps]
    if any(a > b for a, b in zip(degrees, degrees[1:])):
        raise ValueError("image degrees decrease")
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
    certified: "str | None"
    betti: "BettiTable | None"
    oracle_componentwise: "bool | None"
    oracle_betti_match: "bool | None"


def componentwise_certificate(presentation, k):
    """Certificate that the k-th power is componentwise linear.

    The fiber block is compared first, so the images of the standard
    degree-k fiber monomials generate I^k.  One colon pass runs over them
    sorted stably by degree; it skips every image an earlier one divides,
    so its steps run over the power's minimal generators in nondecreasing
    degree.  When every colon is linear the power is certified: an ideal
    with linear quotients over its minimal generators in nondecreasing
    degree is componentwise linear (Jahan & Zheng, "Ideals with linear
    quotients", J. Combin. Theory Ser. A 117, 2010; Herzog & Hibi,
    Monomial Ideals, 2011, section 8.2), and the closed-form Betti table of
    those steps is its Betti table.  The label says whether the initial
    ideal is generated in degree at most 2.  `minimal` and `nondecreasing`
    describe the printed images: none redundant, degrees never dropping.
    The Betti oracle alone decides its size: a power it refuses
    (ScaleExceeded) leaves both oracle fields None, a degree component
    only the verdict.
    """
    xc = x_condition(presentation.gb)
    quadratic = all(m.degree() <= 2 for m in presentation.gb.initial.generators)
    images = standard_monomials(presentation, k).images()
    report = quotient_steps(sorted(images, key=Monomial.degree))
    degrees = [h.degree() for h in images]

    certified = table = None
    if report.ok:
        certified = "quadratic-initial" if quadratic else "nondecreasing-linear-quotients"
        table = betti_from_quotients(report.steps)

    oracle_verdict = None
    oracle_match = None
    power = MonomialIdeal(report.generators)
    try:
        power_table = betti_numbers(power)
        if table is not None:
            oracle_match = power_table == table
        oracle_verdict = is_componentwise_linear(power, power_table)
    except ScaleExceeded:
        pass

    return CertificateReport(
        k=k,
        x_condition=xc.holds,
        quadratic=quadratic,
        minimal=len(report.generators) == len(images),
        linear_quotients=report.ok,
        nondecreasing=all(a <= b for a, b in zip(degrees, degrees[1:])),
        certified=certified,
        betti=table,
        oracle_componentwise=oracle_verdict,
        oracle_betti_match=oracle_match,
    )
