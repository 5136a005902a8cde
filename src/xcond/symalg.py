"""Edge modules of graphs and the symmetric-algebra side of linearity.

For a graph on [n] the edge module is presented by one relation
x_i e_j - x_j e_i per edge; its symmetric algebra is K[x, y] modulo the
linear forms those relations give under e_v -> y_v, the binomials
x_i y_j - x_j y_i.  Under the lex order with x_1 > ... > x_n > y_1 > ...
> y_n that ideal has a combinatorial reduced Groebner basis indexed by
admissible paths, which are the induced paths with every interior vertex
outside the endpoint interval, and the initial ideal is generated in
x-degree at most one exactly when the graph is chordal.  This module
builds both routes to that verdict and the rank and minor checks for the
length-r cycle resolution complex.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter

from .betti import matrix_rank
from .graphs import peo, relabel
from .groebner import (
    GroebnerBasis,
    Ideal,
    ScaleExceeded,
    packing_for,
    reduced_groebner_basis,
)
from .rees import BASE_BLOCK, FIBER_BLOCK, x_condition
from .ring import (
    Monomial,
    Polynomial,
    VarContext,
    compile_order,
    lex_order,
    poly_from_terms,
    render_monomial,
    render_polynomial,
)

SEARCH_CAP = 10
EQUIV_CAP = 8
RANK_SEED = 104729


def pair_context(n):
    """K[x_1..x_n, y_1..y_n] with the x-block listed (and compared) first.

    The x_i form the base block and the y_i the fiber block, the block
    names of a Rees presentation, so rees.x_condition reads either
    algebra's basis."""
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    return VarContext.make(xs + ys, blocks=((BASE_BLOCK, xs), (FIBER_BLOCK, ys)))


# ---------------------------------------------------------------------------
# edge modules and their symmetric algebras
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_packing(n):
    """pair_context(n), lex on it and the packing every basis there takes,
    built once per n."""
    ctx = pair_context(n)
    order = lex_order(*ctx.names)
    return ctx, order, packing_for(compile_order(order, ctx), 1)


def _binomial_entry(packing, n, i, j, k=0, e=0):
    """The entry of u * (x_i*y_j - x_j*y_i), i < j, u of key k and packed
    exponents e: x_i*y_j leads in lex, and so does its multiple by u."""
    units, width = packing.units, packing.width
    lead_k, tail_k = k + units[i] + units[n + j], k + units[j] + units[n + i]
    lead_e = e + (1 << width * i) + (1 << width * (n + j))
    tail_e = e + (1 << width * j) + (1 << width * (n + i))
    return (lead_e, lead_k, 1, ((tail_k, tail_e, -1),))


def edge_module(graph):
    """The ideal presenting the symmetric algebra of the edge module in
    K[x, y], its context pair_context(n) under lex: each edge a < b gives
    the relation x_a e_b - x_b e_a and the generator x_a*y_b - x_b*y_a,
    written straight as its packed entry from the packing's units, as
    x_a*y_b leads in lex."""
    n = graph.n
    ctx, order, packing = _pair_packing(n)
    entries = tuple(_binomial_entry(packing, n, a, b) for a, b in sorted(graph.edges))
    return Ideal(ctx, order, packing, entries)


# ---------------------------------------------------------------------------
# admissible paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissiblePath:
    """Induced path between endpoints i < j of a graph on n vertices whose
    interior vertices all lie below i or above j.  u_pi, the monomial
    multiplier it contributes to the basis, is built when read."""

    i: int
    j: int
    vertices: tuple
    n: int

    @property
    def interior(self):
        return self.vertices[1:-1]

    @property
    def u_pi(self):
        """x_v over interior v > j times y_v over interior v < i."""
        pairs = [(v if v > self.j else self.n + v, 1) for v in self.interior]
        return Monomial.from_pairs(pairs, 2 * self.n)


def admissible_paths(graph):
    """Every admissible path between every vertex pair, endpoints ascending.

    A path i = v_0, ..., v_r = j is admissible when its vertices are
    distinct, each interior vertex lies below i or above j, and no proper
    subsequence i, ..., j is a path.  The last condition says the path is
    induced: a chord v_p v_q with q >= p + 2 lets the subsequence skip
    v_{p+1} .. v_{q-1}, and conversely the first vertex a path-subsequence
    skips follows a v_p whose next kept vertex v_q is a chord.  So the
    walk never extends by a neighbour of an earlier trail vertex; a chord
    stays in every extension of its prefix, so nothing admissible is lost.
    In particular a detour between adjacent endpoints is never admissible.

    Vertex sets are bitmasks; neighbours are tried ascending, so the paths
    of each (i, j) come out sorted by their vertices.
    """
    n = graph.n
    if n > SEARCH_CAP:
        raise ScaleExceeded(f"path search is limited to {SEARCH_CAP} vertices")
    adj = graph.adjacency()
    nbrs = [sorted(a) for a in adj]
    amask = [sum(1 << w for w in a) for a in adj]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            allowed = (1 << i) - 1 | (1 << n) - (1 << (j + 1))

            def walk(v, trail, before, on):
                for w in nbrs[v]:
                    if amask[w] & before:
                        continue
                    if w == j:
                        out.append(AdmissiblePath(i, j, trail + (j,), n))
                    elif (allowed & ~on) >> w & 1:
                        walk(w, trail + (w,), on, on | 1 << w)

            walk(i, (i,), 0, 1 << i)
    return tuple(out)


def admissible_path_basis(graph):
    """The combinatorial basis u_pi * (x_i y_j - x_j y_i), one element per
    admissible path, each written straight into its packed entry
    (lm, K(lm), 1, ((K(tail), tail, -1),)) with u_pi packed from the
    path's interior, and sorted the way a reduced basis is sorted."""
    n = graph.n
    ctx, order, packing = _pair_packing(n)
    units, width = packing.units, packing.width
    entries = []
    for path in admissible_paths(graph):
        u_vars = [v if v > path.j else n + v for v in path.interior]
        k, e = sum(units[v] for v in u_vars), sum(1 << width * v for v in u_vars)
        entries.append(_binomial_entry(packing, n, path.i, path.j, k, e))
    entries.sort(key=itemgetter(1), reverse=True)
    return GroebnerBasis(ctx, order, packing, tuple(entries))


# ---------------------------------------------------------------------------
# the chordality equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Chordality against three independent linearity verdicts.

    x_condition: minimal generators of the computed initial ideal have
    x-degree at most one.  basis_x_condition: the same verdict read off
    the admissible-path basis alone: every leading monomial u_pi * x_i y_j
    has x-degree one, so no multiplier u_pi carries an x.
    colon_route_linear: generators of the initial ideal that are linear in
    y have a single-variable x-part, so the one-generator-at-a-time colon
    ideals are variable-generated.
    back_edges_match: the bidegree (1,1) generators are exactly x_i y_j
    over edges {i, j} with i < j.
    """

    chordal: bool
    labeling: tuple
    x_condition: bool
    violations: tuple
    basis_x_condition: bool
    basis_matches: bool
    colon_route_linear: bool
    back_edges_match: bool

    @property
    def routes_agree(self):
        return self.basis_x_condition == self.x_condition and self.basis_matches

    @property
    def equivalence_ok(self):
        return (
            self.x_condition == self.chordal
            and self.colon_route_linear == self.chordal
            and self.routes_agree
            and self.back_edges_match
        )


def equivalence_check(graph, config=None):
    """Verdicts for one labeling: the input one, or a perfect elimination
    relabeling when the graph is chordal."""
    if graph.n > EQUIV_CAP:
        raise ScaleExceeded(f"equivalence check is limited to {EQUIV_CAP} vertices")
    order_used = peo(graph)
    chordal = order_used is not None
    if chordal:
        working = relabel(graph, order_used)
    else:
        order_used = tuple(range(graph.n))
        working = graph
    labeling = tuple(graph.vertices[v] for v in order_used)

    ideal = edge_module(working)
    ctx = ideal.context
    n = working.n
    gb = reduced_groebner_basis(ideal, config)
    xc = x_condition(gb)

    basis = admissible_path_basis(working)
    # x-degree 1: the x-fields of a packed leading monomial hold one unit
    x_idx = ctx.block_indices(BASE_BLOCK)
    width, x_fields = basis.packing.width, basis.packing.fields(x_idx)
    x_units = {1 << (width * i) for i in x_idx}
    basis_x_condition = all(entry[0] & x_fields in x_units for entry in basis.entries)
    # both bases take the one cached packing of lex on pair_context(n)
    basis_matches = basis == gb

    # one bidegree pass over the reduced entries' leading monomials, the
    # minimal generators: the x-part is exps[:n] and the y-part exps[n:]
    colon_route_linear = True
    bilinear = set()
    for entry in gb.entries:
        exps = gb.packing.unpack(entry[0])
        xs, ys = exps[:n], exps[n:]
        if sum(ys) == 1:
            x_degree = sum(xs)
            colon_route_linear = colon_route_linear and x_degree <= 1
            if x_degree == 1:
                a, b = xs.index(1), ys.index(1)
                bilinear.add((min(a, b), max(a, b)))
    back_edges_match = bilinear == set(working.edges)

    return EquivalenceReport(
        chordal,
        labeling,
        xc.holds,
        tuple(render_monomial(m, ctx) for m in xc.violations),
        basis_x_condition,
        basis_matches,
        colon_route_linear,
        back_edges_match,
    )


# ---------------------------------------------------------------------------
# the cycle resolution complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleComplex:
    """The two maps of the length-r cycle's free resolution: phi1 with one
    column x_i e_{i+1} - x_{i+1} e_i per cycle edge, and the monomial
    column phi2 = (u_1 .. u_r)^T with u_i the product of all variables
    except the edge pair x_i x_{i+1} (indices wrapping)."""

    r: int
    context: object
    order: object
    phi1: tuple
    phi2: tuple


def cycle_complex(r):
    if not 4 <= r <= 7:
        raise ValueError("cycle length must be between 4 and 7")
    ctx = VarContext.make(tuple(f"x{i}" for i in range(1, r + 1)))
    order = lex_order(*ctx.names)
    key = compile_order(order, ctx)

    def entry(i, sign):
        return poly_from_terms([(Monomial.var(i, r), sign)], key)

    zero = Polynomial.zero()
    rows = [[zero] * r for _ in range(r)]
    for col in range(r - 1):
        rows[col][col] = entry(col + 1, -1)
        rows[col + 1][col] = entry(col, 1)
    rows[0][r - 1] = entry(r - 1, 1)
    rows[r - 1][r - 1] = entry(0, -1)
    phi1 = tuple(tuple(row) for row in rows)

    full = Monomial.from_pairs([(v, 1) for v in range(r)], r)
    phi2 = []
    for i in range(r):
        pair = Monomial.from_pairs([(i, 1), ((i + 1) % r, 1)], r)
        phi2.append(poly_from_terms([(full.div(pair), 1)], key))
    return CycleComplex(r, ctx, order, phi1, tuple(phi2))


def _det(rows, key):
    if len(rows) == 1:
        return rows[0][0]
    total = Polynomial.zero()
    sign = 1
    for t in range(len(rows)):
        pivot = rows[t][0]
        if not pivot.is_zero():
            minor = [row[1:] for s, row in enumerate(rows) if s != t]
            term = pivot.mul(_det(minor, key), key)
            total = total.add(term if sign > 0 else term.neg(), key)
        sign = -sign
    return total


def _evaluate(poly, point):
    value = Fraction(0)
    for mono, coeff in poly.terms:
        term = coeff
        for v, e in enumerate(mono.exps):
            if e:
                term *= point[v] ** e
        value += term
    return value


@dataclass(frozen=True)
class CycleComplexReport:
    """Acyclicity evidence for the cycle resolution complex and the Betti
    numbers it forces.  The witness minor drops the first row and last
    column of phi1 and must equal x_1 .. x_{r-1} up to sign; together with
    a squarefree-coprime phi2 column this pins ranks r-1 and 1, so the
    resolution has shape (r, r, 1) with a degree jump in the last step.
    """

    r: int
    product_zero: bool
    witness_minor: str
    minor_matches: bool
    gcd_one: bool
    det_phi1_zero: bool
    rank_phi1: int
    rank_phi2: int
    rank_by_evaluation: bool
    betti: tuple
    shifts: tuple

    @property
    def linear_resolution(self):
        return self.shifts[-1] == len(self.shifts)

    @property
    def ok(self):
        return (
            self.product_zero
            and self.minor_matches
            and self.gcd_one
            and self.det_phi1_zero
            and self.rank_phi1 == self.r - 1
            and self.rank_phi2 == 1
        )


def cycle_complex_checks(r):
    cc = cycle_complex(r)
    key = compile_order(cc.order, cc.context)

    product = []
    for row in cc.phi1:
        acc = Polynomial.zero()
        for entry, u in zip(row, cc.phi2):
            acc = acc.add(entry.mul(u, key), key)
        product.append(acc)
    product_zero = all(p.is_zero() for p in product)

    sub = [list(row[: r - 1]) for row in cc.phi1[1:]]
    minor = _det(sub, key)
    target = poly_from_terms(
        [(Monomial.from_pairs([(v, 1) for v in range(r - 1)], r), 1)], key
    )
    minor_matches = minor == target or minor == target.neg()

    gcd_mono = reduce(lambda a, b: a.gcd(b), (u.lm() for u in cc.phi2))
    gcd_one = gcd_mono.is_one()

    det_phi1_zero = _det([list(row) for row in cc.phi1], key).is_zero()

    rng = random.Random(RANK_SEED)
    point = [Fraction(rng.randint(2, 1000), rng.randint(1, 50)) for _ in range(r)]
    evaluated = matrix_rank([[_evaluate(p, point) for p in row] for row in cc.phi1])
    rank_by_evaluation = evaluated == r - 1
    # the symbolic witness minor is the fallback certificate for rank >= r-1
    rank_phi1 = r - 1 if (rank_by_evaluation or minor_matches) and det_phi1_zero else evaluated
    rank_phi2 = 1 if any(not u.is_zero() for u in cc.phi2) else 0

    return CycleComplexReport(
        r,
        product_zero,
        render_polynomial(minor, cc.context),
        minor_matches,
        gcd_one,
        det_phi1_zero,
        rank_phi1,
        rank_phi2,
        rank_by_evaluation,
        (r, r, 1),
        (1, 2, r),
    )
