"""Brute-force homological oracle for monomial ideals.

Multigraded Betti numbers are computed from scratch as ranks of reduced
simplicial homology, over Q, of the upper Koszul complexes of the ideal:
for a multidegree b, the complex has a face tau (a subset of supp(b))
exactly when x^(b-tau) still lies in the ideal, and beta_{i,b} is the
rank of the (i-1)-st reduced homology.  Only multidegrees that are lcms
of generator subsets can contribute, so the oracle enumerates those.
Each generator g dividing x^b spans the facet {v : g_v < b_v}, and the
complex is every subset of a facet.  The lcm lattice and the facets are
computed on exponent tuples packed into ints by a packing of this
module's own, not the Groebner engine's, so that one packing bug cannot
hide in both the engine and its oracle; a facet is the set of guard bits
of its fields.  Boundary ranks come from one sparse echelon pass over
int, exact over Q: +-1 pivots are subtracted as they are, any other
pivot combines fraction-free.

Every call cross-checks itself against the Hilbert series numerator
obtained by Bigatti's pivot recursion; a mismatch is a bug, not data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import and_, le

from .groebner import MonomialIdeal, ScaleExceeded
from .ring import Monomial

GENERATOR_CAP = 16


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of an ideal: entries ((i, j), beta) sorted."""

    entries: tuple
    projdim: int
    regularity: int

    @staticmethod
    def from_dict(d):
        items = tuple(sorted((k, v) for k, v in d.items() if v))
        if not items:
            return BettiTable((), -1, -1)
        projdim = max(i for (i, _), _ in items)
        reg = max(j - i for (i, j), _ in items)
        return BettiTable(items, projdim, reg)

    def generator_degrees(self):
        """Degree distribution of the beta_0 row."""
        return {j: v for (i, j), v in self.entries if i == 0}


def _check_cap(generators):
    if len(generators) > GENERATOR_CAP:
        raise ScaleExceeded(
            f"oracle handles at most {GENERATOR_CAP} generators, got {len(generators)}"
        )


def _lattice(generators):
    """The lcm lattice of the exponent tuples on packed ints.

    Each tuple becomes one int with a field per variable: the field holds
    the largest exponent, which no lcm exceeds, with a bit to spare, and
    its top bit is a guard.  Returns the packed generators, the guard bits
    and the lcms of all nonempty subsets as (exponent tuple, packed int)
    pairs sorted by degree and then exponents."""
    nvars = len(generators[0])
    width = max(itertools.chain.from_iterable(generators), default=0).bit_length() + 2
    value = (1 << (width - 1)) - 1
    guard = sum(1 << (width * v + width - 1) for v in range(nvars))
    packed = [sum(e << (width * v) for v, e in enumerate(g)) for g in generators]
    acc = set()
    for g in packed:
        lcms = {g}
        for m in acc:
            ge = ((m | guard) - g) & guard  # guard bit set where m_v >= g_v
            lcms.add(g ^ ((m ^ g) & (ge - (ge >> (width - 1)))))
        acc |= lcms
    unpacked = ((tuple(b >> (width * v) & value for v in range(nvars)), b) for b in acc)
    return packed, guard, sorted(unpacked, key=lambda eb: (sum(eb[0]), eb[0]))


def _koszul_facets(packed, b, guard):
    """Facets of the upper Koszul complex at b: the maximal sets
    {v : g_v < b_v} over the generators g dividing x^b, each held as the
    guard bits of its fields."""
    above = b | guard
    masks = {
        guard ^ (((g | guard) - b) & guard) for g in packed if (above - g) & guard == guard
    }
    facets = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if all(m & f != m for f in facets):
            facets.append(m)
    return facets


def _rank(rows):
    """Rank over Q of integer rows held as dicts {column: nonzero int}, by
    one echelon pass keyed on each row's leading column.  A +-1 pivot is
    subtracted as it is; any other combines fraction-free and the row is
    then divided by its content, so the arithmetic stays exact in int.
    The rows are consumed."""
    pivots = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, p = row[col], pivot[col]
            unit = p == 1 or p == -1
            if unit:
                f = a * p
            else:
                g = math.gcd(a, p)
                f, s = a // g, p // g
                row = {c: s * x for c, x in row.items()}
            for c, x in pivot.items():
                y = row.get(c, 0) - f * x
                if y:
                    row[c] = y
                else:
                    del row[c]
            if not unit and (content := math.gcd(*row.values())) > 1:
                row = {c: x // content for c, x in row.items()}
    return len(pivots)


def matrix_rank(rows):
    """Rank over Q of a dense matrix of ints or Fractions.

    Each row is first scaled by the lcm of its denominators, which leaves
    the rank unchanged, and then goes through the sparse routine of the
    boundary ranks."""
    sparse = []
    for r in rows:
        den = math.lcm(*(e.denominator for e in r))
        sparse.append({c: e.numerator * (den // e.denominator) for c, e in enumerate(r) if e})
    return _rank(sparse)


def _reduced_homology_ranks(facets):
    """Ranks of reduced homology H~_d for d = -1 .. top, over Q, of the
    complex of all subsets of the facet bitmasks."""
    faces = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & f
    top = max(f.bit_count() for f in facets) - 1
    by_size = [[] for _ in range(top + 2)]
    for f in faces:
        by_size[f.bit_count()].append(f)

    # ranks[d + 1] is the rank of the boundary map from dimension d to
    # d - 1; a row is a d-face, its columns the (d - 1)-faces themselves
    ranks = [0] * (top + 3)
    for d in range(0, top + 1):
        rows = []
        for f in by_size[d + 1]:
            row = {}
            rest = f
            while rest:
                bit = rest & -rest
                row[f ^ bit] = -1 if (f & (bit - 1)).bit_count() % 2 else 1
                rest ^= bit
            rows.append(row)
        ranks[d + 1] = _rank(rows)
    return {d: len(by_size[d + 1]) - ranks[d + 1] - ranks[d + 2] for d in range(-1, top + 1)}


def multigraded_betti(ideal):
    """beta_{i,b} of the ideal for every contributing multidegree b."""
    _check_cap(ideal.generators)
    if ideal.is_zero():
        return {}
    packed, guard, lattice = _lattice([g.exps for g in ideal.generators])
    out = {}
    for exps, b in lattice:
        facets = _koszul_facets(packed, b, guard)
        # a vertex in every facet makes the complex a cone, hence acyclic
        if reduce(and_, facets):
            continue
        for d, rank in _reduced_homology_ranks(facets).items():
            if rank:
                out[(d + 1, Monomial(exps))] = rank
    return out


def _minimalize(exps):
    kept = []
    for e in sorted(set(exps), key=lambda e: (sum(e), e)):
        if not any(all(map(le, u, e)) for u in kept):
            kept.append(e)
    return kept


def _numerator(gens):
    """Coefficient list of the numerator N(I) for minimal exponent tuples:
    N(I) = N(I + (x_v)) + t * N(I : x_v), pivoting on the variable in the
    most generators; pairwise coprime generators give prod (1 - t^deg g)."""
    counts = [sum(1 for g in gens if g[v]) for v in range(len(gens[0]))] if gens else []
    v = max(range(len(counts)), key=counts.__getitem__, default=None)
    if v is None or counts[v] <= 1:
        poly = [1]
        for g in gens:
            d = sum(g)
            shifted = [0] * d + poly
            poly = [a - b for a, b in itertools.zip_longest(poly, shifted, fillvalue=0)]
        return poly
    xv = tuple(int(i == v) for i in range(len(counts)))
    plus = [g for g in gens if not g[v]] + [xv]
    colon = _minimalize([g[:v] + (g[v] - 1,) + g[v + 1 :] if g[v] else g for g in gens])
    return [
        a + b
        for a, b in itertools.zip_longest(_numerator(plus), [0] + _numerator(colon), fillvalue=0)
    ]


def hilbert_numerator(ideal):
    """Numerator of the Hilbert series of S/I over (1-t)^n, by Bigatti's
    pivot recursion.  Returned as {degree: coeff}."""
    _check_cap(ideal.generators)
    coeffs = _numerator([g.exps for g in ideal.generators])
    return {d: c for d, c in enumerate(coeffs) if c}


def _euler_check(table, ideal):
    """Alternating Betti sums must reproduce the Hilbert numerator of S/I."""
    from_betti = {0: 1}
    for (i, j), v in table.entries:
        s = -v if i % 2 == 0 else v
        from_betti[j] = from_betti.get(j, 0) + s
    from_betti = {d: c for d, c in from_betti.items() if c}
    numerator = hilbert_numerator(ideal)
    if from_betti != numerator:
        raise AssertionError(
            f"Euler/Hilbert consistency failed: betti gives {from_betti}, "
            f"the pivot recursion gives {numerator}"
        )


def betti_numbers(ideal):
    """Graded Betti table of the ideal (not of S/I), self-checked against
    the Hilbert numerator on every call."""
    if ideal.is_zero():
        return BettiTable((), -1, -1)
    graded = {}
    for (i, b), v in multigraded_betti(ideal).items():
        key = (i, b.degree())
        graded[key] = graded.get(key, 0) + v
    table = BettiTable.from_dict(graded)
    _euler_check(table, ideal)
    gen_row = table.generator_degrees()
    expected = {}
    for g in ideal.generators:
        expected[g.degree()] = expected.get(g.degree(), 0) + 1
    if gen_row != expected:
        raise AssertionError("beta_0 row does not match the minimal generators")
    return table


def has_linear_resolution(ideal):
    """True when beta_{i,j} vanishes for all j != i + d, where d is the
    common degree of the minimal generators."""
    if ideal.is_zero():
        return True
    degrees = {g.degree() for g in ideal.generators}
    if len(degrees) > 1:
        raise ValueError(f"mixed generator degrees {sorted(degrees)}")
    d = degrees.pop()
    return all(j == i + d for (i, j), _ in betti_numbers(ideal).entries)


def degree_component(ideal, d, nvars):
    """The monomial ideal generated by every degree-d monomial of the ideal."""
    slice_gens = set()
    for g in ideal.generators:
        room = d - g.degree()
        if room < 0:
            continue
        if room == 0:
            slice_gens.add(g)
            continue
        for extra in itertools.combinations_with_replacement(range(nvars), room):
            slice_gens.add(g.mul(Monomial.from_pairs([(i, 1) for i in extra], nvars)))
    # distinct monomials of one degree never divide each other: the slice is minimal
    return MonomialIdeal(tuple(sorted(slice_gens, key=lambda m: m.exps)))


def is_componentwise_linear(ideal, table=None):
    """I is componentwise linear exactly when reg(I) <= D, the largest
    degree of a minimal generator, and the component I_<d> has a d-linear
    resolution for every d < D.  For d >= D every element of I of degree
    at least d is a multiple of one of degree d, so I_<d> = I_{>=d}, whose
    regularity is max(d, reg I) (Eisenbud & Goto, J. Algebra 88, 1984;
    Herzog & Hibi, Nagoya Math. J. 153, 1999).

    table, when given, must be betti_numbers(ideal); only its regularity
    is read."""
    if ideal.is_zero():
        return True
    if table is None:
        table = betti_numbers(ideal)
    degrees = [g.degree() for g in ideal.generators]
    top = max(degrees)
    if table.regularity > top:
        return False
    nvars = len(ideal.generators[0].exps)
    for d in range(min(degrees), top):
        if not has_linear_resolution(degree_component(ideal, d, nvars)):
            return False
    return True
