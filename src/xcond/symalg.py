"""Edge modules of graphs and the symmetric-algebra side of linearity.

For a graph on [n] the edge module is presented by one relation
x_i e_j - x_j e_i per edge; its symmetric algebra is K[x, y] modulo the
ideal generated by the binomials x_i y_j - x_j y_i.  Under the lex order
with x_1 > ... > x_n > y_1 > ... > y_n that ideal has a combinatorial
reduced Groebner basis indexed by admissible paths, and the initial
ideal is generated in x-degree at most one exactly when the graph is
chordal.  This module builds both routes to that verdict and the rank
and minor checks for the length-r cycle resolution complex.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations

from .betti import matrix_rank
from .graphs import peo, relabel
from .groebner import (
    GroebnerBasis,
    Ideal,
    ScaleExceeded,
    initial_ideal,
    reduced_groebner_basis,
)
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
    """K[x_1..x_n, y_1..y_n] with the x-block listed (and compared) first."""
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    return VarContext.make(xs + ys, blocks=(("x", xs), ("y", ys)))


# ---------------------------------------------------------------------------
# edge modules and their symmetric algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeModulePresentation:
    """Relations x_i e_j - x_j e_i of the edge module, stored sparsely as
    ((slot, coefficient), (slot, coefficient)) pairs, together with the
    ideal presenting the symmetric algebra in K[x, y]."""

    graph: object
    context: object
    order: object
    relations: tuple
    sym_ideal: object


def edge_module(graph):
    n = graph.n
    ctx = pair_context(n)
    order = lex_order(*ctx.names)
    key = compile_order(order, ctx)
    relations = []
    gens = []
    for a, b in sorted(graph.edges):
        xa = poly_from_terms([(Monomial.var(a, 2 * n), 1)], key)
        xb = poly_from_terms([(Monomial.var(b, 2 * n), -1)], key)
        relations.append(((b, xa), (a, xb)))
        lead = Monomial.from_pairs([(a, 1), (n + b, 1)], 2 * n)
        tail = Monomial.from_pairs([(b, 1), (n + a, 1)], 2 * n)
        gens.append(poly_from_terms([(lead, 1), (tail, -1)], key))
    for rel, g in zip(relations, gens):
        image = Polynomial.zero()
        for slot, coeff in rel:
            image = image.add(coeff.term_mul(Monomial.var(n + slot, 2 * n)), key)
        if image != g:
            raise AssertionError("relation does not match its ideal generator")
    return EdgeModulePresentation(graph, ctx, order, tuple(relations), Ideal.make(gens, ctx))


# ---------------------------------------------------------------------------
# admissible paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissiblePath:
    """Simple path between endpoints i < j whose interior vertices all lie
    below i or above j and which admits no shortcut subsequence, tagged
    with the monomial multiplier it contributes to the basis."""

    i: int
    j: int
    vertices: tuple
    u_pi: object

    @property
    def interior(self):
        return self.vertices[1:-1]


def admissible_paths(graph):
    """Every admissible path between every vertex pair, endpoints ascending.

    An interior subsequence check rules out any path that can be shortened:
    in particular a detour between adjacent endpoints is never admissible,
    because the bare edge is already a path.
    """
    n = graph.n
    if n > SEARCH_CAP:
        raise ScaleExceeded(f"path search is limited to {SEARCH_CAP} vertices")
    adj = graph.adjacency()
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            allowed = {v for v in range(n) if v < i or v > j}
            found = []

            def walk(v, trail):
                for w in sorted(adj[v]):
                    if w == j:
                        found.append(trail + (j,))
                    elif w in allowed and w not in trail:
                        walk(w, trail + (w,))

            walk(i, (i,))
            for trail in found:
                interior = trail[1:-1]
                if any(
                    all(graph.has_edge(a, b) for a, b in zip(seq, seq[1:]))
                    for size in range(len(interior))
                    for sub in combinations(interior, size)
                    for seq in [(i,) + sub + (j,)]
                ):
                    continue
                pairs = [(v, 1) for v in interior if v > j]
                pairs += [(n + v, 1) for v in interior if v < i]
                out.append(
                    AdmissiblePath(i, j, trail, Monomial.from_pairs(pairs, 2 * n))
                )
    out.sort(key=lambda p: (p.i, p.j, p.vertices))
    return tuple(out)


def admissible_path_basis(graph):
    """The combinatorial basis u_pi * (x_i y_j - x_j y_i), one element per
    admissible path, sorted the way a reduced basis is sorted."""
    n = graph.n
    ctx = pair_context(n)
    order = lex_order(*ctx.names)
    key = compile_order(order, ctx)
    elements = []
    for path in admissible_paths(graph):
        lead = Monomial.from_pairs([(path.i, 1), (n + path.j, 1)], 2 * n)
        tail = Monomial.from_pairs([(path.j, 1), (n + path.i, 1)], 2 * n)
        f = poly_from_terms([(lead, 1), (tail, -1)], key)
        elements.append(f.term_mul(path.u_pi))
    elements.sort(key=lambda g: key.key(g.lm()), reverse=True)
    return GroebnerBasis(ctx, order, tuple(elements))


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

    presentation = edge_module(working)
    ctx = presentation.context
    n = working.n
    gb = reduced_groebner_basis(presentation.sym_ideal, presentation.order, config)
    gens = initial_ideal(gb).generators
    x_idx = ctx.block_indices("x")
    y_idx = ctx.block_indices("y")

    violations = tuple(
        render_monomial(m, ctx) for m in gens if m.degree_on(x_idx) > 1
    )
    x_condition = not violations

    basis = admissible_path_basis(working)
    basis_x_condition = all(g.lm().degree_on(x_idx) == 1 for g in basis.elements)
    basis_matches = basis == gb

    colon_route_linear = all(
        m.degree_on(x_idx) <= 1 for m in gens if m.degree_on(y_idx) == 1
    )

    bilinear = set()
    for m in gens:
        if m.degree_on(x_idx) == 1 and m.degree_on(y_idx) == 1:
            a = next(v for v in m.support() if v < n)
            b = next(v - n for v in m.support() if v >= n)
            bilinear.add((min(a, b), max(a, b)))
    back_edges_match = bilinear == set(working.edges)

    return EquivalenceReport(
        chordal,
        labeling,
        x_condition,
        violations,
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


def cycle_complex_checks(r, seed=RANK_SEED):
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

    rng = random.Random(seed)
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
