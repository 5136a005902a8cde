"""Brute-force homological oracle for monomial ideals.

Multigraded Betti numbers are computed from scratch as ranks of reduced
simplicial homology, over Q, of the upper Koszul complexes of the ideal:
for a multidegree b, the complex has a face tau (a subset of supp(b))
exactly when x^(b-tau) still lies in the ideal, and beta_{i,b} is the
rank of the (i-1)-st reduced homology.  Only multidegrees that are lcms
of generator subsets can contribute, so the oracle enumerates those.

Every call cross-checks itself against the Hilbert series numerator
obtained by inclusion-exclusion; a mismatch is a bug, not data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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

    def as_dict(self):
        return dict(self.entries)

    def get(self, i, j):
        return self.as_dict().get((i, j), 0)

    def generator_degrees(self):
        """Degree distribution of the beta_0 row."""
        return {j: v for (i, j), v in self.entries if i == 0}


def _check_cap(generators):
    if len(generators) > GENERATOR_CAP:
        raise ScaleExceeded(
            f"oracle handles at most {GENERATOR_CAP} generators, got {len(generators)}"
        )


def _subset_lcms(generators):
    """All lcms of nonempty generator subsets, deduplicated incrementally."""
    acc = set()
    for g in generators:
        acc |= {g} | {m.lcm(g) for m in acc}
    return acc


def _koszul_faces(ideal, b):
    """Faces of the upper Koszul complex at multidegree b, as index tuples."""
    supp = b.support()
    faces = []
    for size in range(len(supp) + 1):
        for tau in itertools.combinations(supp, size):
            exps = list(b.exps)
            for v in tau:
                exps[v] -= 1
            if ideal.contains(Monomial(tuple(exps))):
                faces.append(tau)
    return faces


def _is_cone(faces):
    """A vertex contained in every maximal face makes the complex contractible."""
    if not faces:
        return False
    face_set = set(faces)
    vertices = set()
    for f in faces:
        vertices.update(f)
    for v in vertices:
        if all(tuple(sorted(set(f) | {v})) in face_set for f in faces):
            return True
    return False


def matrix_rank(rows):
    """Rank over Q by Gaussian elimination; rows are lists of Fractions."""
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def _reduced_homology_ranks(faces):
    """Ranks of reduced homology H~_d for d = -1 .. top, over Q.

    faces must include the empty face and be closed under subsets.
    """
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for fs in by_dim.values():
        fs.sort()
    top = max(by_dim)
    dims = {d: len(by_dim.get(d, ())) for d in range(-1, top + 1)}

    ranks = {}
    for d in range(0, top + 1):
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d, [])
        if not lower or not upper:
            ranks[d] = 0
            continue
        index = {f: i for i, f in enumerate(lower)}
        rows = [[Fraction(0)] * len(upper) for _ in lower]
        for c, f in enumerate(upper):
            for k in range(len(f)):
                sub = f[:k] + f[k + 1 :]
                rows[index[sub]][c] = Fraction(-1 if k % 2 else 1)
        ranks[d] = matrix_rank(rows)

    homology = {}
    for d in range(-1, top + 1):
        homology[d] = dims[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return homology


def multigraded_betti(ideal):
    """beta_{i,b} of the ideal for every contributing multidegree b."""
    _check_cap(ideal.generators)
    out = {}
    for b in sorted(_subset_lcms(ideal.generators), key=lambda m: (m.degree(), m.exps)):
        faces = _koszul_faces(ideal, b)
        if _is_cone(faces):
            continue
        homology = _reduced_homology_ranks(faces)
        for d, rank in homology.items():
            if rank:
                out[(d + 1, b)] = rank
    return out


def hilbert_numerator(ideal):
    """Numerator of the Hilbert series of S/I over (1-t)^n, by
    inclusion-exclusion on generator subsets.  Returned as {degree: coeff}."""
    _check_cap(ideal.generators)
    gens = ideal.generators
    coeffs = {}

    def rec(i, current, sign):
        if i == len(gens):
            deg = 0 if current is None else current.degree()
            coeffs[deg] = coeffs.get(deg, 0) + sign
            return
        rec(i + 1, current, sign)
        nxt = gens[i] if current is None else current.lcm(gens[i])
        rec(i + 1, nxt, -sign)

    rec(0, None, 1)
    return {d: c for d, c in coeffs.items() if c}


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
            f"inclusion-exclusion gives {numerator}"
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


def has_linear_resolution(ideal, d=None):
    """True when beta_{i,j} vanishes for all j != i + d, where d is the
    common degree of the minimal generators."""
    if ideal.is_zero():
        return True
    degrees = {g.degree() for g in ideal.generators}
    if len(degrees) > 1:
        raise ValueError(f"mixed generator degrees {sorted(degrees)}")
    gen_deg = degrees.pop()
    if d is not None and d != gen_deg:
        raise ValueError(f"generators have degree {gen_deg}, not {d}")
    table = betti_numbers(ideal)
    return all(j == i + gen_deg for (i, j), _ in table.entries)


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
    return MonomialIdeal.make(slice_gens)


def is_componentwise_linear(ideal):
    """Check d-linearity of every degree component from the least generator
    degree up to the regularity; higher components are multiples of the
    regularity component by the maximal ideal and stay linear."""
    if ideal.is_zero():
        return True
    table = betti_numbers(ideal)
    nvars = len(ideal.generators[0].exps)
    dmin = min(g.degree() for g in ideal.generators)
    for d in range(dmin, table.regularity + 1):
        component = degree_component(ideal, d, nvars)
        if component.is_zero():
            continue
        if len(component.generators) > GENERATOR_CAP:
            raise ScaleExceeded(
                f"degree-{d} component has {len(component.generators)} generators"
            )
        if not has_linear_resolution(component, d):
            return False
    return True
