"""Groebner bases over Q: division, Buchberger, reduction, elimination.

Buchberger's algorithm with the installation of Gebauer and Moeller
(J. Symbolic Comput. 6, 1988).  When an element t is installed, its pairs
(i, t) with the elements still taking pairs are pruned once, instead of
every pair being tested when it is popped:

- criterion M drops (i, t) when another new pair's lcm strictly divides
  lcm(i, t).  It compares the colon quotients lcm(i, t) / lm(t): a kept
  quotient that is one variable x_v enters a mask of guard bits, which
  drops every later quotient that x_v divides with one add and one and,
  and only the other kept quotients are scanned.  A kept pair with such
  a quotient takes lm(t)'s w-degree and key plus x_v's, with no unpack.
  Criterion F keeps one pair per lcm;
- the product criterion drops a pair whose leading monomials are coprime,
  and with F its whole lcm class;
- B_t drops a queued pair (i, j) when lm(t) divides lcm(i, j) and differs
  from neither lcm(i, t) nor lcm(j, t);
- elements whose leading monomial lm(t) divides take no further pairs.

All of them always run; GBConfig holds only the pair and degree caps.
Pairs are popped by (w . lcm, K(lcm), index pair), w a positive grading
under which every generator is homogeneous, settled when the Ideal is
made: the grading given, else the standard grading when it fits.
S-pair remainders are then homogeneous too, and the run goes degree by
degree, the normal strategy (sugar on homogeneous input: Giovini, Mora,
Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC 1991).
Other input has w . lcm = 0 and keeps the order's own selection,
smallest lcm first, as sugar there can climb through far higher
degrees.  S-polynomials are reduced over the list of the entries not
retired, updated on each install; the final basis is fully tail-reduced.
Every run is bounded by explicit resource caps; exceeding a cap raises
ScaleExceeded rather than returning a truncated basis.

Exponent vectors are packed ints inside the loop (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  Each variable has a fixed-width field whose top
bit is a guard bit; the width is chosen per run from the largest input
exponent, at least 32 bits.  A product of monomials is one int add,
divisibility is ((b | guard) - a) & guard == guard, and the lcm is a
fieldwise max computed the same way.  That much needs no order
(ExponentPacking); rees runs its colon ideals on it through criterion_m.
The order is an additive int key taken from its matrix (Packing), so a
new term's key is an add and comparing two terms is one int compare.
An exponent that carries into a guard bit raises ScaleExceeded; nothing
wraps.

Coefficients are Fractions only at the boundary.  Each divisor is held
in its primitive integer form (denominators cleared, content divided out,
leading coefficient positive).  A polynomial under reduction is a map by
term key K (Yan's geobuckets as one dict, J. Symbolic Comput. 25, 1998):
coeffs K -> int, exps K -> packed exponents, and one ascending list of
the keys.  A tail term adds into its key's coefficient, a new key is
inserted into the list, and a cancelled key stays listed at zero, skipped
when popped.  Coefficients are multiplied in place only when a reducer's
leading coefficient does not divide the one it cancels (never for the
+-1 binomials).  S-polynomials go fraction-free from two primitive forms
straight into the map.  S-pairs take one of two reduction routes,
selected by purity: on +-1 binomials and single terms, whose S-pair
remainders are such elements too, _pm1_remainder walks the
S-polynomial's at most two terms down the reducers with no map.

An Ideal and a GroebnerBasis hold these entries (lm, K(lm), lc, tail) in
their packing, and every basis stays packed: buchberger's, reduce_basis's,
eliminate's, and GroebnerBasis.of's.  Ideal.make and GroebnerBasis.of pack
Polynomials in one packer, the order's packing whose fields hold every
input exponent; buchberger installs the Ideal's entries as they are, so
an Ideal written straight as entries (the edge module's, from the
packing's units) enters the one way.  A polynomial crosses the boundary
through Packing only: pack_terms packs its terms into that map on the way
in, and polynomial builds a Polynomial from packed terms on the way out,
once per normal_form and once per element of a basis whose elements are
read.  A basis's minimal entries, which reduce_basis keeps, are scanned
once, on first read, and its initial ideal unpacks only their leading
monomials.  divide stays the Fraction textbook oracle.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, groupby
from math import gcd, lcm
from operator import itemgetter, mul
from struct import Struct

from .ring import (
    Monomial,
    OrderSpec,
    Polynomial,
    VarContext,
    compile_order,
    is_elimination_order,
    poly_from_dict,
)

DEFAULT_PAIR_CAP = 200_000
DEFAULT_DEGREE_CAP = 40


class ScaleExceeded(RuntimeError):
    """A computation hit a size cap (its pair or degree budget, or a vertex
    limit of an exhaustive search); no partial result is returned."""


@dataclass(frozen=True)
class GBConfig:
    pair_cap: int = DEFAULT_PAIR_CAP
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        if self.pair_cap <= 0 or self.degree_cap <= 0:
            raise ValueError("caps must be positive")


@dataclass(frozen=True)
class Ideal:
    """Generators of a context under an order, packed once: one primitive
    entry (Packing.form) per nonzero generator, in order, which buchberger
    installs as it is.  grading is settled on construction, from the
    entries: a grading given must be one positive weight per variable
    under which every generator is homogeneous, else ValueError; with none
    given it is the standard grading when that fits, else None (every
    w-degree 0)."""

    context: VarContext
    order: OrderSpec
    packing: Packing
    generators: tuple
    grading: "tuple | None" = None

    def __post_init__(self):
        given = self.grading
        w = given or (1,) * self.context.nvars
        if len(w) != self.context.nvars or not all(a > 0 for a in w):
            raise ValueError(f"grading {w} is not one positive weight per variable")
        unpack = self.packing.unpack

        def degree(e):
            return sum(map(mul, w, unpack(e)))

        # whether every term of each generator has one w-degree
        graded = all(
            len({degree(lm), *(degree(e) for _, e, _ in tail)}) == 1
            for lm, _, _, tail in self.generators
        )
        if not graded and given is not None:
            raise ValueError(f"a generator is not homogeneous under the grading {w}")
        object.__setattr__(self, "grading", w if graded else None)

    @staticmethod
    def make(polys, ctx, order, grading=None):
        """The ideal of the polys, stored in any order, packed as
        GroebnerBasis.of packs them."""
        return Ideal(ctx, order, *_pack(polys, ctx, order), grading)


def _pack(polys, ctx, order):
    """The order's packing whose fields hold every exponent of the nonzero
    polys, and the entry of each of them, in order."""
    polys = [g for g in polys if not g.is_zero()]
    packing = packing_for(compile_order(order, ctx), max_exponent(polys))
    return packing, tuple(map(packing.form, polys))


@dataclass(frozen=True)
class GroebnerBasis:
    """Polynomials of a context under an order, held packed: one entry
    (lm, K(lm), lc, tail) per element in the packing's fields, in its
    primitive form (Packing.form)."""

    context: VarContext
    order: OrderSpec
    packing: Packing
    entries: tuple

    @staticmethod
    def of(polys, ctx, order):
        """The basis of the nonzero polys, stored in any order, in fields
        that hold every exponent of the polys."""
        return GroebnerBasis(ctx, order, *_pack(polys, ctx, order))

    def compiled(self):
        return compile_order(self.order, self.context)

    @cached_property
    def elements(self):
        """The element of each entry as a monic Polynomial, in entry order;
        built on first read."""
        return tuple(
            self.packing.polynomial(((k, lm, lc), *tail), lc) for lm, k, lc, tail in self.entries
        )

    def monomials(self, entries):
        """The leading monomials of the entries, sorted by (degree, exps)."""
        exps = sorted((self.packing.unpack(e[0]) for e in entries), key=lambda e: (sum(e), e))
        return tuple(map(Monomial, exps))

    @cached_property
    def minimal(self):
        """The entries, ascending by key, whose leading monomial no kept one
        divides (a divisor has the smaller key): one per minimal leading
        monomial, the first in entry order of those that share it; scanned
        on first read."""
        kept = []
        for entry in sorted(self.entries, key=itemgetter(1)):
            if find_divisor(entry[0], kept, self.packing.guard) is None:
                kept.append(entry)
        return tuple(kept)

    @cached_property
    def initial(self):
        """The initial ideal, generated by the leading monomials of the
        minimal entries; built on first read."""
        return MonomialIdeal(self.monomials(self.minimal))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal held by its unique minimal generating set."""

    generators: tuple

    @staticmethod
    def make(monomials):
        """The minimal generators of the ideal of the monomials, sorted by
        (degree, exps).  A candidate is tested only against the kept
        generators of lower degree: distinct monomials of one degree
        never divide each other."""
        distinct = sorted(set(monomials), key=lambda m: (m.degree(), m.exps))
        kept = []
        for _, group in groupby(distinct, key=Monomial.degree):
            lower = tuple(kept)
            kept.extend(m for m in group if not any(u.divides(m) for u in lower))
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


# ---------------------------------------------------------------------------
# packed exponents
# ---------------------------------------------------------------------------

HEADROOM_BITS = 16  # spare bits above an input's largest exponent
_STRUCT_CODES = {32: "I", 64: "Q"}  # fields that struct packs in C


class ExponentPacking:
    """Exponent vectors of nvars variables held as ints, with no order.

    Field i of a packed vector is e_i in `width` bits, the top one a guard
    bit that stays clear, so a product of monomials is a sum of ints, a
    quotient a difference, and a | b is ((b | guard) - a) & guard == guard.
    """

    __slots__ = ("nvars", "width", "guard", "_struct")

    def __init__(self, nvars, width):
        self.nvars = nvars
        self.width = width
        self.guard = sum(1 << (width * i + width - 1) for i in range(nvars))
        code = _STRUCT_CODES.get(width)
        self._struct = Struct(f"<{nvars}{code}") if code else None

    def pack(self, e):
        if max(e, default=0) >> (self.width - 1):
            raise ScaleExceeded(f"exponent {max(e)} does not fit a {self.width}-bit field")
        if self._struct:
            return int.from_bytes(self._struct.pack(*e), "little")
        return sum(x << (self.width * i) for i, x in enumerate(e))

    def unpack(self, p):
        if self._struct:
            return self._struct.unpack(p.to_bytes(self._struct.size, "little"))
        mask = (1 << self.width) - 1
        return tuple((p >> (self.width * i)) & mask for i in range(self.nvars))

    def fields(self, indices):
        """The value bits of the fields of the variables at the indices: a
        packed vector is free of those variables when it meets none."""
        value = (1 << (self.width - 1)) - 1
        return sum(value << (self.width * i) for i in indices)

    def lcm(self, a, b):
        """Fieldwise max of two guard-free vectors; a and b have disjoint
        supports exactly when it equals a + b."""
        ge = ((a | self.guard) - b) & self.guard  # guard bit set where a_i >= b_i
        take_a = ge - (ge >> (self.width - 1))  # the value bits of those fields
        return b ^ ((a ^ b) & take_a)


class Packing(ExponentPacking):
    """Exponent vectors of one order held as ints: an ExponentPacking of
    the order's variables with an additive key.

    The key K(e) = sum_r (M_r . e) * 2^(S * (R - 1 - r)) over the R rows of
    the order's matrix sorts exactly as the order's key and is additive,
    K(e + f) = K(e) + K(f).  S holds a sign bit and any row on fields
    below 2^width, so a sum of two guard-free vectors, exact but perhaps
    carried into a guard bit, still has its true key.
    """

    __slots__ = ("units",)

    def __init__(self, order, width):
        super().__init__(order.context.nvars, width)
        rows = order.matrix
        shift = width + max((sum(map(abs, row)) for row in rows), default=0).bit_length() + 1
        top = len(rows) - 1
        self.units = tuple(
            sum(row[i] << (shift * (top - r)) for r, row in enumerate(rows))
            for i in range(self.nvars)
        )

    def key(self, e):
        """K of an exponent tuple, summed over its nonzero entries."""
        return sum(map(mul, compress(self.units, e), filter(None, e)))

    def pack_terms(self, g):
        """(coeffs, exps, den): _reduce's input of g times den, the lcm of g's denominators."""
        den = lcm(*(c.denominator for _, c in g.terms))
        coeffs, exps = {}, {}
        for m, c in g.terms:
            k = self.key(m.exps)
            coeffs[k], exps[k] = c.numerator * (den // c.denominator), self.pack(m.exps)
        return coeffs, exps, den

    def polynomial(self, terms, den):
        """The Polynomial of packed terms (key, packed exponents, int),
        descending by key, each coefficient divided by den."""
        return Polynomial(tuple((Monomial(self.unpack(e)), Fraction(c, den)) for _, e, c in terms))

    def form(self, g):
        """The entry (lm, K(lm), lc, tail) of a nonzero polynomial g stored
        in any order, as _entry makes it."""
        coeffs, exps, _ = self.pack_terms(g)
        return _entry([(k, exps[k], coeffs[k]) for k in sorted(coeffs, reverse=True)])


@lru_cache(maxsize=None)
def order_packing(order, width):
    """The order's packing with fields of the width, built once per
    (order, width)."""
    return Packing(order, width)


def field_width(top):
    """The width of a field that holds exponents up to top with
    HEADROOM_BITS to spare and the guard bit: 32, 64, or wider."""
    width = top.bit_length() + HEADROOM_BITS + 1
    return 32 if width <= 32 else 64 if width <= 64 else width


def packing_for(order, top):
    """The order's packing whose fields hold exponents up to top."""
    return order_packing(order, field_width(top))


def max_exponent(polys):
    """The largest exponent in any term of the polys, 0 when there is none."""
    return max((max(m.exps, default=0) for g in polys for m, _ in g.terms), default=0)


def _entry(terms):
    """Entry (lm, K(lm), lc, tail) of nonzero integer terms (key, packed
    exponents, int), descending by key: their primitive multiple (content
    divided out, lc positive), lm and lc from the leading term and tail
    the rest, still descending."""
    content = gcd(*(c for _, _, c in terms))
    if terms[0][2] < 0:
        content = -content
    key, lm, lc = terms[0]
    return (lm, key, lc // content, tuple((k, e, c // content) for k, e, c in terms[1:]))


def find_divisor(e, entries, guard):
    """The first entry whose leading monomial divides the packed e, or
    None."""
    e |= guard
    for entry in entries:
        if (e - entry[0]) & guard == guard:
            return entry
    return None


def _reduce(coeffs, exps, entries, packing):
    """Reduce p by the entries, tried in list order, all in the packing;
    p is the module docstring's map: coeffs K -> int (zero allowed) and
    exps K -> packed exponents, both consumed, its keys popped from one
    ascending list.  Returns (remainder, factor): remainder is a
    descending list of (key, packed exponents, int) with no term
    divisible by an entry's leading monomial, and factor * p - remainder
    lies in the ideal of the entries.  When an entry's leading
    coefficient gc does not divide the coefficient c it cancels, coeffs
    (in place) and the remainder so far are first multiplied by
    a = gc / gcd(c, gc), and so is factor.  A term whose exponent has
    carried into a guard bit raises ScaleExceeded when it leads.
    """
    guard = packing.guard
    keys = [*coeffs]
    keys.sort()
    remainder, factor = [], 1
    while keys:
        k = keys.pop()
        c = coeffs.pop(k)
        if not c:
            continue
        e = exps[k]
        if e & guard:
            raise ScaleExceeded(f"an exponent outgrew its {packing.width}-bit field")
        hit = find_divisor(e, entries, guard)
        if hit is None:
            remainder.append((k, e, c))
            continue
        ge, gk, gc, tail = hit
        if gc != 1:
            g = gcd(c, gc)
            a = gc // g
            if a != 1:
                factor *= a
                for k2 in coeffs:
                    coeffs[k2] *= a
                remainder = [(k2, e2, a * c2) for k2, e2, c2 in remainder]
            c //= g
        q, dk = e - ge, k - gk
        for k2, m, b in tail:
            k2 += dk
            c2 = coeffs.get(k2)
            if c2 is None:
                coeffs[k2], exps[k2] = -c * b, m + q
                insort(keys, k2)
            else:
                coeffs[k2] = c2 - c * b
    return remainder, factor


def normal_form(f, basis):
    """The remainder of divide(f, basis.elements, basis.compiled()),
    without quotients.  f, stored in any order, must fit the basis's
    fields; it is packed with its denominators cleared for _reduce."""
    *p, den = basis.packing.pack_terms(f)
    remainder, factor = _reduce(*p, basis.entries, basis.packing)
    return basis.packing.polynomial(remainder, den * factor)


def _s_polynomial(fi, fj, L, key):
    """S-polynomial of two entries whose leading monomials have lcm L, of
    key K(L), kept integral: (lc_j/g) x^(L-lm_i) f_i - (lc_i/g) x^(L-lm_j) f_j
    with g = gcd(lc_i, lc_j).  It is lcm(lc_i, lc_j) times the S-polynomial
    of the monic elements, built straight into _reduce's map (cancelled keys at 0)."""
    g = gcd(fi[2], fj[2])
    coeffs, exps = {}, {}
    for (lm, k, _, tail), scale in ((fi, fj[2] // g), (fj, -(fi[2] // g))):
        shift, dk = L - lm, key - k
        for k2, e, c in tail:
            k2 += dk
            coeffs[k2], exps[k2] = coeffs.get(k2, 0) + scale * c, e + shift
    return coeffs, exps


def _pm1_remainder(fi, fj, L, key, entries, packing):
    """_reduce(*_s_polynomial(fi, fj, L, key), entries, packing)'s remainder
    on +-1 binomials and single terms: the S-polynomial's at most two terms
    walk down the entries, the larger key first, each moving to its
    reducer's shifted tail with its coefficient or vanishing."""
    guard = packing.guard
    live = []  # at most two terms (key, packed exponents, int), ascending by key
    for (lm, k, _, tail), c in ((fi, -1), (fj, 1)):
        for tk, te, _ in tail:
            live.append((tk + key - k, te + L - lm, c))
    if len(live) == 2 and live[0][0] == live[1][0]:
        return []
    live.sort()
    remainder = []
    while live:
        k, e, c = live.pop()
        if e & guard:
            raise ScaleExceeded(f"an exponent outgrew its {packing.width}-bit field")
        hit = find_divisor(e, entries, guard)
        if hit is None:
            remainder.append((k, e, c))
        elif hit[3]:
            ge, gk, _, ((tk, te, _),) = hit
            k += tk - gk
            if live and live[0][0] == k:  # the two terms meet
                c += live[0][2]
                live[:] = [(k, live[0][1], c)] if c else []
            else:
                insort(live, (k, e + te - ge, c))
    return remainder


def criterion_m(lcms, lm, fields):
    """The packed lcms, ascending, that no other one properly divides:
    criterion M over the new pairs of an element whose leading monomial
    is lm, which divides every lcm.

    L' | L exactly when the colon quotients q' = L' - lm and q = L - lm
    divide, and a proper divisor has a smaller packed value, so it is met
    first.  A kept quotient that is one variable x_v joins a mask of guard
    bits, and q is a multiple of some such x_v when q + fill, which carries
    into the guard bit of every field with q_v >= 1, meets the mask; only
    the other kept quotients are scanned.
    """
    guard, width = fields.guard, fields.width
    ones = guard >> (width - 1)  # the low bit of every field
    fill = guard - ones
    linear = 0  # guard bits of the kept quotients x_v
    scan = []  # the other kept quotients, x_v^2 and 1 among them
    kept = []
    for L in sorted(lcms):
        q = L - lm
        if (q + fill) & linear:
            continue
        above = q | guard
        for p in scan:
            if (above - p) & guard == guard:
                break
        else:
            if q & ones and not q & (q - 1):
                linear |= q << (width - 1)
            else:
                scan.append(q)
            kept.append(L)
    return kept


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _coefficients(form):
    """The primitive coefficients of an entry, leading one first."""
    return (form[2], *(c for _, _, c in form[3]))


# the primitive coefficients of a +-1 binomial and of a single term: S-pairs
# and reductions of such elements give such elements (Eisenbud and Sturmfels,
# "Binomial ideals", Duke Math. J. 84, 1996, Prop. 1.1)
_PM1 = ((1, -1), (1,))


def buchberger(ideal, config=None):
    """S-pair-closed basis of the ideal under its order; not tail-reduced.

    Elements are installed one at a time, the ideal's entries first, as
    they are, each through the Gebauer-Moeller update (see the module
    docstring); every popped pair is reduced.  Pairs are popped by the
    w-degree of their lcm first, w the ideal's settled grading; when that
    is None every w-degree is 0.  When every generator is a +-1 binomial
    or a single term, pairs are reduced by _pm1_remainder, and every
    S-pair remainder must be such an element too; one that is not
    raises AssertionError.  The result holds every installed entry,
    retired ones included, in installation order, in the ideal's packing.
    """
    cfg = config or GBConfig()
    packing, w = ideal.packing, ideal.grading
    graded = w is not None
    w = w or (0,) * packing.nvars  # every w-degree 0 when ungraded
    guard, lcm_of, unpack, units = packing.guard, packing.lcm, packing.unpack, packing.units
    unit = graded and set(w) == {1}  # the standard grading: sum(e) is the w-degree
    width, shift = packing.width, packing.width - 1
    ones = guard >> shift  # the low bit of every field
    forms = []  # the entry of each basis element
    lms = []  # the leading monomial of each basis element
    active = []  # indices not retired: they take new pairs
    reducers = []  # entries of the active elements, in installation order
    heap = []  # (w-degree of lcm, K(lcm), i, j, packed lcm), i < j

    def install(form):
        t = len(forms)
        lm_t = form[0]
        forms.append(form)
        lms.append(lm_t)

        # B_t: (i, j) is redundant when lm_t divides its lcm and the lcms of
        # (i, t) and (j, t) are proper divisors of it
        kept = [
            pair
            for pair in heap
            if ((pair[4] | guard) - lm_t) & guard != guard
            or lcm_of(lms[pair[2]], lm_t) == pair[4]
            or lcm_of(lms[pair[3]], lm_t) == pair[4]
        ]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)

        new = {}  # packed lcm -> its first partner index
        coprime = set()  # the lcms of pairs with coprime leading monomials
        retired = False
        above = lm_t | guard
        for i in active:
            # Packing.lcm, inline: lm_i where it exceeds lm_t, else lm_t
            lm = lms[i]
            lt = (above - lm) & guard  # guard bit set where lm_t_v >= lm_v
            L = lm ^ ((lm ^ lm_t) & (lt - (lt >> shift)))
            new.setdefault(L, i)
            if L == lm + lm_t:
                coprime.add(L)
            if L == lm:  # lm_t divides lm_i: i retires
                retired = True

        d_t = sum(map(mul, w, unpack(lm_t)))
        for L in criterion_m(new, lm_t, packing):
            # product criterion: a coprime pair drops its whole lcm class, as
            # coprime leading monomials have their product as lcm; otherwise
            # F keeps the class's first pair
            if L not in coprime:
                q = L - lm_t  # the colon quotient: K and w-degree add over it
                if q & ones and not q & (q - 1):  # one variable x_v
                    v = (q.bit_length() - 1) // width
                    d, key = d_t + w[v], form[1] + units[v]
                else:
                    e = unpack(L)
                    d, key = sum(e) if unit else sum(map(mul, w, e)), sum(map(mul, units, e))
                heapq.heappush(heap, (d, key, new[L], t, L))

        # every multiple of a retired lm is a multiple of lm_t, so the
        # retired elements also leave the reducers
        if retired:
            active[:] = [i for i in active if ((lms[i] | guard) - lm_t) & guard != guard]
            reducers[:] = [forms[i] for i in active]
        active.append(t)
        reducers.append(form)

    seen = set()  # generators equal up to a scalar share one entry
    for form in ideal.generators:
        if form not in seen:
            seen.add(form)
            install(form)
    pure = all(_coefficients(form) in _PM1 for form in forms)

    popped = 0
    while heap:
        d, k, i, j, L = heapq.heappop(heap)
        popped += 1
        if popped > cfg.pair_cap:
            at = f", degree {d}" if graded else ""
            raise ScaleExceeded(
                f"S-pair budget of {cfg.pair_cap} exhausted ({len(forms)} basis elements{at})"
            )
        if pure:
            remainder = _pm1_remainder(forms[i], forms[j], L, k, reducers, packing)
        else:
            remainder, _ = _reduce(*_s_polynomial(forms[i], forms[j], L, k), reducers, packing)
        if not remainder:
            continue
        # a homogeneous remainder has its pair's degree
        degree = d if unit else max(sum(unpack(e)) for _, e, _ in remainder)
        if degree > cfg.degree_cap:
            raise ScaleExceeded(
                f"degree budget of {cfg.degree_cap} exceeded (element of degree {degree}; "
                f"{popped} pairs popped, {len(forms)} basis elements)"
            )
        form = _entry(remainder)
        if pure and _coefficients(form) not in _PM1:
            raise AssertionError(
                "binomial purity violated: +-1 binomial generators gave a non-binomial element"
            )
        install(form)

    return GroebnerBasis(ideal.context, ideal.order, packing, tuple(forms))


def reduce_basis(gb):
    """The unique reduced basis of gb's ideal, packed as gb: minimal leading
    monomials, every tail in normal form with respect to the others, one
    primitive entry (a monic element) per minimal leading monomial,
    descending; an entry whose tail is already reduced is kept as it is.

    gb may be any Groebner basis, buchberger's with its retired entries
    included: a retired leading monomial is a multiple of a later one, so
    gb.minimal keeps one entry per minimal leading monomial, and the
    reduced basis is unique.
    """
    packing, minimal = gb.packing, gb.minimal
    reduced = []
    for lm, k, lc, tail in reversed(minimal):
        coeffs, exps = {}, {}
        for k2, e, c in tail:
            coeffs[k2], exps[k2] = c, e
        # g may stay in the list: no multiple of lm(g) lies below lm(g)
        remainder, factor = _reduce(coeffs, exps, minimal, packing)
        same = factor == 1 and tuple(remainder) == tail
        reduced.append((lm, k, lc, tail) if same else _entry([(k, lm, lc * factor), *remainder]))
    return replace(gb, entries=tuple(reduced))


def reduced_groebner_basis(ideal, config=None):
    return reduce_basis(buchberger(ideal, config))


def membership(f, basis):
    """Whether f, stored in any order, reduces to zero over the Groebner
    basis, as normal_form reduces it."""
    return normal_form(f, basis).is_zero()


def is_spair_closed(basis, config=None):
    """Buchberger criterion re-check: every S-pair of the basis reduces to
    zero over it.  Pairs with coprime leading monomials are skipped; the
    pair cap counts the others."""
    cfg = config or GBConfig()
    pk, entries = basis.packing, basis.entries
    size = len(entries)
    reduced = 0
    for n, (fi, fj) in enumerate(combinations(entries, 2), 1):
        L = pk.lcm(fi[0], fj[0])
        if L == fi[0] + fj[0]:  # coprime leading monomials
            continue
        reduced += 1
        if reduced > cfg.pair_cap:
            raise ScaleExceeded(
                f"S-pair budget of {cfg.pair_cap} exhausted at pair {n} of "
                f"{size * (size - 1) // 2} ({size} basis elements)"
            )
        if _reduce(*_s_polynomial(fi, fj, L, pk.key(pk.unpack(L))), entries, pk)[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def eliminate(ideal, block, config=None):
    """The reduced basis of the contraction of the ideal to the subring
    without the block variables, in the ideal's context and packing;
    requires the ideal's order to eliminate the block.

    Only the entries of buchberger's basis whose leading monomial meets
    none of the block's packed fields are reduced.  Under an elimination
    order they form a Groebner basis of the contraction (Elimination
    Theorem), so their reduced basis is exactly the block-free part of the
    reduced basis of the whole ideal.
    """
    block = tuple(block)
    ctx = ideal.context
    if not is_elimination_order(ideal.order, ctx, block):
        raise ValueError("order does not eliminate the requested block")
    raw = buchberger(ideal, config)
    mask = raw.packing.fields([ctx.index(v) for v in block])
    gb = reduce_basis(replace(raw, entries=tuple(e for e in raw.entries if not e[0] & mask)))
    if any(e & mask for entry in gb.entries for _, e, _ in entry[3]):
        raise AssertionError("elimination order produced a mixed tail")
    return gb

