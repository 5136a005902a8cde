"""Candidate Groebner bases read off the cover combinatorics of structured graphs.

For three graph families the kernel of the Rees presentation of the vertex
cover ideal has a generating set that can be written down directly: bicliques
with pendant edges, paths, and Cameron-Walker graphs (complete bipartite core,
pendant leaves on one side, pendant triangles on the other).  Each constructor
scans the descending-lex list of minimal covers u_1 > ... > u_s, emits every
binomial matching its family's divisibility patterns together with a
designated leading monomial, and catalogues the monomials expected to generate
the initial ideal.  ``verify_claim`` compares a candidate against the basis
computed from scratch.

Two hard guarantees are enforced at construction time: every predicted cover
is looked up by value in the actual cover list, and every designated leading
monomial is re-checked against the compiled order.  A failure of either is an
AssertionError, never a silently dropped element.
"""

from dataclasses import dataclass
from itertools import combinations

from .graphs import biclique_graph, minimal_vertex_covers, path_graph
from .groebner import (
    GroebnerBasis,
    MonomialIdeal,
    initial_ideal,
    is_spair_closed,
    membership,
    reduce_basis,
)
from .rees import (
    default_fiber_names,
    default_order,
    extended_context,
    kernel_member,
    presentation_order,
    rees_ideal,
)
from .ring import (
    Monomial,
    compile_order,
    lex_order,
    poly_from_terms,
    render_monomial,
    render_polynomial,
    revlex_order,
)


# ---------------------------------------------------------------------------
# claimed bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimedElement:
    """One emitted binomial with its designated leading monomial and the
    tag of the pattern that produced it."""

    polynomial: object
    initial: object
    tag: str


@dataclass(frozen=True)
class ClaimedBasis:
    family: str
    base: object
    gens: tuple
    fiber_names: tuple
    extended: object
    order: object
    elements: tuple
    claimed_initials: tuple

    def polynomials(self):
        return tuple(e.polynomial for e in self.elements)

    def distinct_polynomials(self):
        """Emission order, exact duplicates across patterns dropped."""
        return tuple(dict.fromkeys(self.polynomials()))

    def tag_counts(self):
        counts = {}
        for e in self.elements:
            counts[e.tag] = counts.get(e.tag, 0) + 1
        return counts

    def presentation(self, config=None):
        """The independently computed Rees presentation this claim is about."""
        return rees_ideal(
            self.base,
            self.gens,
            order=self.order,
            fiber_names=self.fiber_names,
            config=config,
        )


def _cover_sets(gens):
    return [frozenset(m.support()) for m in gens]


def _monomial(ext, nfiber, fiber, base_idx):
    """fiber entries are 1-based cover positions, base entries 0-based
    base-context indices."""
    pairs = [(r - 1, 1) for r in fiber] + [(nfiber + t, 1) for t in base_idx]
    return Monomial.from_pairs(pairs, ext.nvars)


def _element(key, ext, nfiber, tag, lead_fiber, lead_base, tail_fiber, tail_base):
    lead = _monomial(ext, nfiber, lead_fiber, lead_base)
    tail = _monomial(ext, nfiber, tail_fiber, tail_base)
    poly = poly_from_terms([(lead, 1), (tail, -1)], key)
    if poly.lm() != lead:
        raise AssertionError(
            f"designated initial is not leading in {tag}: {render_polynomial(poly, ext)}"
        )
    return ClaimedElement(poly, lead, tag)


def _locate(index_of, target, described):
    pos = index_of.get(frozenset(target))
    if pos is None:
        raise AssertionError(f"{described} is not a minimal cover")
    return pos


# ---------------------------------------------------------------------------
# bicliques with pendant edges
# ---------------------------------------------------------------------------


def biclique_fiber_names(p, q, r):
    """phi_i tracks the cover missing x_i, psi_j_k the cover missing y_j and
    z_k; the listing matches the descending cover order."""
    names = [f"phi{i}" for i in range(1, p + 1)]
    for j in range(1, q + 1):
        names.extend(f"psi{j}_{k}" for k in range(r, 0, -1))
    return tuple(names)


def biclique_claimed(p, q, r):
    """Four binomial patterns generate the kernel: the phi swap against the
    last psi, row moves y_j psi_j^k -> y_q psi_q^k, column moves
    z_k psi_j^k -> z_1 psi_j^1, and the two-by-two psi exchanges."""
    graph = biclique_graph(p, q, r)
    base = graph.context()
    gens = minimal_vertex_covers(graph).monomials()
    fiber = biclique_fiber_names(p, q, r)
    ext = extended_context(base, gens, fiber)
    order = presentation_order(lex_order(*fiber), lex_order(*base.names))
    key = compile_order(order, ext)
    nf = len(fiber)
    sets = _cover_sets(gens)

    xs = {i: base.index(f"x{i}") for i in range(1, p + 1)}
    ys = {j: base.index(f"y{j}") for j in range(1, q + 1)}
    zs = {k: base.index(f"z{k}") for k in range(1, r + 1)}
    everything = frozenset(xs.values()) | frozenset(ys.values()) | frozenset(zs.values())

    expected = {f"phi{i}": everything - {xs[i]} for i in range(1, p + 1)}
    for j in range(1, q + 1):
        for k in range(1, r + 1):
            expected[f"psi{j}_{k}"] = everything - {ys[j], zs[k]}
    for pos, name in enumerate(fiber):
        if sets[pos] != expected[name]:
            raise AssertionError("descending cover order broke the fiber naming")

    fpos = {name: t + 1 for t, name in enumerate(fiber)}

    def phi(i):
        return fpos[f"phi{i}"]

    def psi(j, k):
        return fpos[f"psi{j}_{k}"]

    elements = []
    for i in range(1, p + 1):
        elements.append(
            _element(key, ext, nf, "x-phi", [phi(i)], [xs[i]], [psi(q, 1)], [ys[q], zs[1]])
        )
    for j in range(1, q):
        for k in range(1, r + 1):
            elements.append(
                _element(key, ext, nf, "y-psi", [psi(j, k)], [ys[j]], [psi(q, k)], [ys[q]])
            )
    for j in range(1, q + 1):
        for k in range(2, r + 1):
            elements.append(
                _element(key, ext, nf, "z-psi", [psi(j, k)], [zs[k]], [psi(j, 1)], [zs[1]])
            )
    for j1, j2 in combinations(range(1, q + 1), 2):
        for k1, k2 in combinations(range(1, r + 1), 2):
            elements.append(
                _element(
                    key,
                    ext,
                    nf,
                    "psi-psi",
                    [psi(j1, k2), psi(j2, k1)],
                    [],
                    [psi(j1, k1), psi(j2, k2)],
                    [],
                )
            )

    return ClaimedBasis(
        "biclique",
        base,
        gens,
        fiber,
        ext,
        order,
        tuple(elements),
        tuple(dict.fromkeys(e.initial for e in elements)),
    )


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def path_claimed(n):
    """Five binomial patterns on the covers of a path.

    Boundary conditions read x_0 and x_{n+1} as formal symbols dividing every
    cover.  The catalogue of initial monomials is generated independently of
    the emissions and then checked to consist of designated leading terms.
    """
    if n < 3:
        raise ValueError("need a path on at least three vertices")
    graph = path_graph(n)
    base = graph.context()
    gens = minimal_vertex_covers(graph).monomials()
    s = len(gens)
    fiber = default_fiber_names(s)
    ext = extended_context(base, gens, fiber)
    order = default_order(ext)
    key = compile_order(order, ext)
    sets = _cover_sets(gens)
    index_of = {c: t + 1 for t, c in enumerate(sets)}

    def has(cover, i):
        # x_i divides the cover, with x_0 and x_{n+1} dividing everything
        return i < 1 or i > n or (i - 1) in cover

    elements = []

    def emit(tag, lead_f, lead_x, tail_f, tail_x):
        elements.append(
            _element(
                key,
                ext,
                s,
                tag,
                lead_f,
                [i - 1 for i in lead_x],
                tail_f,
                [i - 1 for i in tail_x],
            )
        )

    # single step: x_{i+1} y_j -> x_i y_k shifts one cover vertex right
    for j in range(1, s + 1):
        cj = sets[j - 1]
        for i in range(1, n - 2):
            if has(cj, i - 1) and has(cj, i) and not has(cj, i + 3):
                k = _locate(index_of, cj - {i - 1} | {i}, "single-step image")
                if not j < k:
                    raise AssertionError("single step must move down the cover list")
                emit("path-1", [j], [i + 1], [k], [i])
        if has(cj, n - 2) and has(cj, n - 1):
            k = _locate(index_of, cj - {n - 2} | {n - 1}, "end-step image")
            if not j < k:
                raise AssertionError("end step must move down the cover list")
            emit("path-1", [j], [n], [k], [n - 1])

    # double step: x_{i+1} y_j -> x_i x_{i+2} y_k merges two cover vertices
    for j in range(1, s + 1):
        cj = sets[j - 1]
        for i in range(1, n - 1):
            if has(cj, i - 1) and has(cj, i) and has(cj, i + 2) and has(cj, i + 3):
                k = _locate(index_of, cj - {i - 1, i + 1} | {i}, "double-step image")
                if not j < k:
                    raise AssertionError("double step must move down the cover list")
                emit("path-2", [j], [i + 1], [k], [i, i + 2])

    # prefix exchange: y_j y_k -> y_a y_b trades the covers' prefixes at x_{i-1}
    for j, k in combinations(range(1, s + 1), 2):
        cj, ck = sets[j - 1], sets[k - 1]
        for i in range(3, n):
            if not (i - 2 in cj and i - 1 in cj):
                continue
            if i - 3 in ck or i - 1 in ck:
                continue
            vj = {t for t in cj if t <= i - 4}
            vk = {t for t in ck if t <= i - 4}
            if vj == vk:
                continue
            wj = {t for t in cj if t >= i + 1}
            wk = {t for t in ck if t >= i}
            if cj != vj | {i - 2, i - 1} | wj or ck != vk | {i - 2} | wk:
                raise AssertionError("prefix exchange met an unexpected cover shape")
            a = _locate(index_of, vj | {i - 2} | wk, "prefix exchange image")
            b = _locate(index_of, vk | {i - 2, i - 1} | wj, "prefix exchange image")
            if not (j < a and j < b):
                raise AssertionError("prefix exchange must move down the cover list")
            emit("path-3", [j, k], [], [a, b], [])

    # straddle with the upper pair first: y_j y_k -> x_i y_a y_b
    for j, k in combinations(range(1, s + 1), 2):
        cj, ck = sets[j - 1], sets[k - 1]
        for i in range(3, n - 1):
            if not (i - 1 in cj and i in cj and i - 2 in ck and i - 1 in ck):
                continue
            vj = {t for t in cj if t <= i - 3}
            wj = {t for t in cj if t >= i + 2}
            vk = {t for t in ck if t <= i - 4}
            wk = {t for t in ck if t >= i + 1}
            if cj != vj | {i - 1, i} | wj or ck != vk | {i - 2, i - 1} | wk:
                raise AssertionError("straddle met an unexpected cover shape")
            a = _locate(index_of, vj | {i - 1} | wk, "straddle image")
            b = _locate(index_of, vk | {i - 2, i} | wj, "straddle image")
            if not (j < a and k < b):
                raise AssertionError("straddle must move down the cover list")
            emit("path-4", [j, k], [], [a, b], [i])

    # straddle with the lower pair first: y_j y_k -> x_i y_a y_b
    for j, k in combinations(range(1, s + 1), 2):
        cj, ck = sets[j - 1], sets[k - 1]
        for i in range(3, n - 1):
            if not (i - 2 in cj and i - 1 in cj and i - 1 in ck and i in ck):
                continue
            vj = {t for t in cj if t <= i - 4}
            wj = {t for t in cj if t >= i + 1}
            vk = {t for t in ck if t <= i - 3}
            wk = {t for t in ck if t >= i + 2}
            if cj != vj | {i - 2, i - 1} | wj or ck != vk | {i - 1, i} | wk:
                raise AssertionError("straddle met an unexpected cover shape")
            a = _locate(index_of, vj | {i - 2, i} | wk, "straddle image")
            b = _locate(index_of, vk | {i - 1} | wj, "straddle image")
            if not (j < a and k < b):
                raise AssertionError("straddle must move down the cover list")
            emit("path-5", [j, k], [], [a, b], [i])

    # initial-monomial catalogue, generated from the covers alone
    catalogue = []
    for j in range(1, s + 1):
        cj = sets[j - 1]
        for i in range(1, n):
            if has(cj, i - 1) and has(cj, i):
                catalogue.append(_monomial(ext, s, [j], [i]))
    for j, k in combinations(range(1, s + 1), 2):
        cj, ck = sets[j - 1], sets[k - 1]

        def bullet_one():
            for i in range(3, n):
                if (
                    i - 2 in cj
                    and i - 1 in cj
                    and i - 3 not in ck
                    and i - 1 not in ck
                    and {t for t in cj if t <= i - 4} != {t for t in ck if t <= i - 4}
                ):
                    return True
            return False

        def bullet_two():
            return any(
                i - 1 in cj and i in cj and i - 2 in ck and i - 1 in ck
                for i in range(3, n - 1)
            )

        def bullet_three():
            return any(
                i - 2 in cj and i - 1 in cj and i - 1 in ck and i in ck
                for i in range(3, n - 1)
            )

        if bullet_one() or bullet_two() or bullet_three():
            catalogue.append(_monomial(ext, s, [j, k], []))

    designated = {e.initial for e in elements}
    for m in catalogue:
        if m not in designated:
            raise AssertionError("catalogued initial without a matching binomial")

    return ClaimedBasis(
        "path",
        base,
        gens,
        fiber,
        ext,
        order,
        tuple(elements),
        tuple(dict.fromkeys(catalogue)),
    )


# ---------------------------------------------------------------------------
# Cameron-Walker graphs
# ---------------------------------------------------------------------------


def cw_claimed(graph):
    """Six binomial patterns on the covers of a Cameron-Walker graph.

    The fiber block is compared by graded reverse lex, so the paired
    patterns designate y_{r0} y_{r1} as leading against y_{r'0} y_{r'1}
    with r'0 > r0 > r1 > r'1.  All four index inequalities are asserted,
    as is cover membership of every predicted image.
    """
    if not graph.family or graph.family[0] != "cameron_walker":
        raise ValueError("expected a cameron_walker-tagged graph")
    _, p, q = graph.family
    n, m = len(p), len(q)
    base = graph.context()
    gens = minimal_vertex_covers(graph).monomials()
    s = len(gens)
    fiber = default_fiber_names(s)
    ext = extended_context(base, gens, fiber)
    order = presentation_order(revlex_order(*fiber), lex_order(*base.names))
    key = compile_order(order, ext)
    sets = _cover_sets(gens)
    index_of = {c: t + 1 for t, c in enumerate(sets)}

    xi = {i: base.index(f"xi{i}") for i in range(1, n + 1)}
    zeta = {j: base.index(f"zeta{j}") for j in range(1, m + 1)}
    leaves = {
        i: frozenset(base.index(f"a{i}_{k}") for k in range(1, p[i - 1] + 1))
        for i in range(1, n + 1)
    }
    bvar = {
        (j, k): base.index(f"b{j}_{k}")
        for j in range(1, m + 1)
        for k in range(1, q[j - 1] + 1)
    }
    cvar = {
        (j, k): base.index(f"c{j}_{k}")
        for j in range(1, m + 1)
        for k in range(1, q[j - 1] + 1)
    }
    all_xi = frozenset(xi.values())
    all_zeta = frozenset(zeta.values())
    slack = frozenset(zeta[j] for j in range(1, m + 1) if q[j - 1] == 0)

    # the slack zetas (no pendant triangle) are redundant once every xi is
    # present, so the lex-smallest cover drops them
    top = frozenset().union(*leaves.values()) | all_zeta | frozenset(bvar.values())
    bottom = all_xi | (all_zeta - slack) | frozenset(cvar.values())
    if sets[0] != top or sets[-1] != bottom:
        raise AssertionError("cover list does not start and end as expected")

    def w0_for(cover, i):
        # the slack zetas leave exactly when the swap completes the xi side
        if all(xi[i2] in cover for i2 in xi if i2 != i):
            return slack
        return frozenset()

    elements = []

    def emit(tag, lead_f, lead_b, tail_f, tail_b):
        elements.append(_element(key, ext, s, tag, lead_f, lead_b, tail_f, tail_b))

    # leaf swap: xi_i enters, its leaves and the slack zetas leave
    for r in range(1, s + 1):
        cov = sets[r - 1]
        for i in range(1, n + 1):
            if xi[i] in cov:
                continue
            w0 = w0_for(cov, i)
            if not (leaves[i] <= cov and w0 <= cov):
                raise AssertionError("leaf swap expects the leaves and slack present")
            rp = _locate(index_of, cov - leaves[i] - w0 | {xi[i]}, "leaf swap image")
            if not r < rp:
                raise AssertionError("leaf swap must move down the cover list")
            emit("cw-1", [r], [xi[i]], [rp], sorted(leaves[i] | w0))

    # triangle swap: zeta_j enters, its b-corners leave
    for r in range(1, s + 1):
        cov = sets[r - 1]
        for j in range(1, m + 1):
            if q[j - 1] == 0 or zeta[j] in cov:
                continue
            bset = frozenset(bvar[(j, k)] for k in range(1, q[j - 1] + 1))
            if not bset <= cov:
                raise AssertionError("triangle swap expects the b-corners present")
            rp = _locate(index_of, cov - bset | {zeta[j]}, "triangle swap image")
            if not r < rp:
                raise AssertionError("triangle swap must move down the cover list")
            emit("cw-2", [r], [zeta[j]], [rp], sorted(bset))

    # corner swap: c replaces b inside one pendant triangle
    for r in range(1, s + 1):
        cov = sets[r - 1]
        for jk in bvar:
            if cvar[jk] in cov:
                continue
            if bvar[jk] not in cov:
                raise AssertionError("corner swap expects the b-corner present")
            rp = _locate(index_of, cov - {bvar[jk]} | {cvar[jk]}, "corner swap image")
            if not r < rp:
                raise AssertionError("corner swap must move down the cover list")
            emit("cw-3", [r], [cvar[jk]], [rp], [bvar[jk]])

    # paired leaf swap: xi_i changes sides between two covers
    for i in range(1, n + 1):
        for r0 in range(1, s + 1):
            cov0 = sets[r0 - 1]
            if xi[i] in cov0:
                continue
            for r1 in range(1, r0):
                cov1 = sets[r1 - 1]
                if xi[i] not in cov1:
                    continue
                w0 = w0_for(cov0, i)
                rp0 = _locate(
                    index_of, cov0 - leaves[i] - w0 | {xi[i]}, "paired leaf image"
                )
                if leaves[i] & cov1:
                    raise AssertionError("paired leaf swap expects bare leaves")
                rp1 = _locate(index_of, cov1 - {xi[i]} | leaves[i], "paired leaf image")
                if not rp0 > r0 > r1 > rp1:
                    raise AssertionError("paired leaf swap order violated")
                emit("cw-4", [r0, r1], [], [rp0, rp1], sorted(w0))

    # paired corner swap: two covers trade b and c inside one triangle
    for jk in bvar:
        for r0 in range(1, s + 1):
            cov0 = sets[r0 - 1]
            if zeta[jk[0]] not in cov0 or bvar[jk] not in cov0:
                continue
            for r1 in range(1, r0):
                cov1 = sets[r1 - 1]
                if zeta[jk[0]] not in cov1 or cvar[jk] not in cov1:
                    continue
                rp0 = _locate(
                    index_of, cov0 - {bvar[jk]} | {cvar[jk]}, "paired corner image"
                )
                rp1 = _locate(
                    index_of, cov1 - {cvar[jk]} | {bvar[jk]}, "paired corner image"
                )
                if not rp0 > r0 > r1 > rp1:
                    raise AssertionError("paired corner swap order violated")
                emit("cw-5", [r0, r1], [], [rp0, rp1], [])

    # paired triangle swap on the all-xi stratum: zeta_j trades places with
    # the other cover's whole b/c selection
    stratum = [r for r in range(1, s + 1) if all_xi <= sets[r - 1]]
    for j in range(1, m + 1):
        bcj = frozenset(bvar[(j, k)] for k in range(1, q[j - 1] + 1)) | frozenset(
            cvar[(j, k)] for k in range(1, q[j - 1] + 1)
        )
        for r0 in stratum:
            cov0 = sets[r0 - 1]
            if zeta[j] in cov0:
                continue
            for r1 in stratum:
                cov1 = sets[r1 - 1]
                if r1 >= r0 or zeta[j] not in cov1:
                    continue
                if cov0 & bcj != bcj:
                    raise AssertionError("triangle trade expects every corner present")
                sel1 = cov1 & bcj
                rp0 = _locate(
                    index_of, cov0 - bcj | {zeta[j]} | sel1, "triangle trade image"
                )
                rp1 = _locate(
                    index_of, cov1 - {zeta[j]} - sel1 | bcj, "triangle trade image"
                )
                if not rp0 > r0 > r1 > rp1:
                    raise AssertionError("paired triangle swap order violated")
                emit("cw-6", [r0, r1], [], [rp0, rp1], [])

    return ClaimedBasis(
        "cameron_walker",
        base,
        gens,
        fiber,
        ext,
        order,
        tuple(elements),
        tuple(dict.fromkeys(e.initial for e in elements)),
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Four checks of a claim against the computed basis, plus diffs.

    membership_ok: every claimed binomial maps to zero and reduces to zero
    against the computed basis.  spair_ok: the claimed set passes the
    Buchberger criterion on its own.  initial_match: the catalogued initials
    minimally generate the computed initial ideal.  reduced_match: reducing
    the claimed set reproduces the computed reduced basis element by element.
    """

    membership_ok: bool
    spair_ok: bool
    initial_match: bool
    reduced_match: bool
    missing: tuple
    extra: tuple
    initial_missing: tuple
    initial_extra: tuple

    @property
    def ok(self):
        return (
            self.membership_ok
            and self.spair_ok
            and self.initial_match
            and self.reduced_match
        )


def verify_claim(claim, presentation, config=None):
    if claim.extended.names != presentation.extended.names:
        raise ValueError("claim and presentation disagree on variables")
    if claim.order != presentation.order:
        raise ValueError("claim and presentation disagree on the monomial order")
    ext = claim.extended
    polys = claim.distinct_polynomials()

    membership_ok = all(
        kernel_member(g, presentation.gens, ext) and membership(g, presentation.gb)
        for g in polys
    )
    spair_ok = is_spair_closed(polys, claim.order, ext, config)

    claimed_ini = MonomialIdeal.make(claim.claimed_initials)
    true_ini = initial_ideal(presentation.gb)
    claimed_gens = set(claimed_ini.generators)
    true_gens = set(true_ini.generators)
    initial_match = claimed_gens == true_gens
    initial_missing = tuple(
        render_monomial(u, ext) for u in true_ini.generators if u not in claimed_gens
    )
    initial_extra = tuple(
        render_monomial(u, ext) for u in claimed_ini.generators if u not in true_gens
    )

    reduced = reduce_basis(GroebnerBasis(ext, claim.order, polys, False))
    rset = set(reduced.elements)
    cset = set(presentation.gb.elements)
    reduced_match = rset == cset
    missing = tuple(
        render_polynomial(g, ext) for g in presentation.gb.elements if g not in rset
    )
    extra = tuple(render_polynomial(g, ext) for g in reduced.elements if g not in cset)

    return VerificationReport(
        membership_ok,
        spair_ok,
        initial_match,
        reduced_match,
        missing,
        extra,
        initial_missing,
        initial_extra,
    )
