"""Candidate Groebner bases read off the cover combinatorics of structured graphs.

For three graph families the kernel of the Rees presentation of the vertex
cover ideal has a generating set that can be written down directly: bicliques
with pendant edges, paths, and Cameron-Walker graphs (complete bipartite core,
pendant leaves on one side, pendant triangles on the other).  Each constructor
scans the descending-lex list of minimal covers u_1 > ... > u_s, emits every
binomial matching its family's divisibility patterns together with a
designated leading monomial, and catalogues the monomials expected to generate
the initial ideal.  ``fiber_names`` is the one place that names a graph's
fiber variables, for these claims and for the CLI's presentations alike.
``verify_claim`` compares a candidate against the basis computed from
scratch for the presentation the claim's own covers, fiber names and order
fix.

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
    is_spair_closed,
    membership,
    reduce_basis,
)
from .rees import (
    default_fiber_names,
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


def biclique_fiber_names(p, q, r):
    """phi_i tracks the cover missing x_i, psi_j_k the cover missing y_j and
    z_k; the listing matches the descending cover order."""
    names = [f"phi{i}" for i in range(1, p + 1)]
    for j in range(1, q + 1):
        names.extend(f"psi{j}_{k}" for k in range(r, 0, -1))
    return tuple(names)


def fiber_names(graph, count):
    """The fiber variables of graph's Rees presentation on its count covers:
    phi/psi for a biclique, y1..y_count for every other graph."""
    if graph.family and graph.family[0] == "biclique":
        return biclique_fiber_names(*graph.family[1:])
    return default_fiber_names(count)


class _Catalogue:
    """A claim under construction: graph's covers in descending order, its
    presentation (fiber_order on the fiber block, lex on the base) and the
    elements emitted so far."""

    def __init__(self, graph, fiber_order=lex_order):
        self.base = graph.context()
        covers = minimal_vertex_covers(graph)
        self.gens, self.sets = covers.monomials(), covers.covers
        self.index_of = {c: t + 1 for t, c in enumerate(self.sets)}
        self.fiber = fiber_names(graph, len(self.gens))
        self.ext = extended_context(self.base, self.gens, self.fiber)
        self.order = presentation_order(fiber_order(*self.fiber), lex_order(*self.base.names))
        self.key = compile_order(self.order, self.ext)
        self.elements = []

    def monomial(self, fiber, base):
        """fiber entries are 1-based cover positions, base entries 0-based
        base-context indices."""
        nf = len(self.fiber)
        pairs = [(r - 1, 1) for r in fiber] + [(nf + t, 1) for t in base]
        return Monomial.from_pairs(pairs, self.ext.nvars)

    def emit(self, tag, lead_fiber, lead_base, tail_fiber, tail_base):
        """Append lead - tail, lead re-checked as its leading monomial."""
        lead = self.monomial(lead_fiber, lead_base)
        tail = self.monomial(tail_fiber, tail_base)
        poly = poly_from_terms([(lead, 1), (tail, -1)], self.key)
        if poly.lm() != lead:
            raise AssertionError(
                f"designated initial is not leading in {tag}: {render_polynomial(poly, self.ext)}"
            )
        self.elements.append(ClaimedElement(poly, lead, tag))

    def locate(self, cover, what):
        """The 1-based position of cover in the cover list."""
        pos = self.index_of.get(frozenset(cover))
        if pos is None:
            raise AssertionError(f"{what} is not a minimal cover")
        return pos

    def move(self, tag, what, r, lead_base, cover, tail_base):
        """Emit y_r lead_base - y_r' tail_base, cover being u_r' with r < r'."""
        rp = self.locate(cover, f"{what} image")
        if not r < rp:
            raise AssertionError(f"{what} must move down the cover list")
        self.emit(tag, [r], lead_base, [rp], tail_base)

    def trade(self, tag, what, r0, r1, cover0, cover1, tail_base):
        """Emit y_r0 y_r1 - y_r'0 y_r'1 tail_base, cover0 and cover1 being
        u_r'0 and u_r'1 with r'0 > r0 > r1 > r'1."""
        rp0 = self.locate(cover0, f"{what} image")
        rp1 = self.locate(cover1, f"{what} image")
        if not rp0 > r0 > r1 > rp1:
            raise AssertionError(f"{what} order violated")
        self.emit(tag, [r0, r1], [], [rp0, rp1], tail_base)

    def claim(self, initials=None):
        """The frozen claim; its catalogued initials default to the
        designated ones, in emission order."""
        if initials is None:
            initials = (e.initial for e in self.elements)
        return ClaimedBasis(
            self.base,
            self.gens,
            self.fiber,
            self.ext,
            self.order,
            tuple(self.elements),
            tuple(dict.fromkeys(initials)),
        )


# ---------------------------------------------------------------------------
# bicliques with pendant edges
# ---------------------------------------------------------------------------


def biclique_claimed(p, q, r):
    """Four binomial patterns generate the kernel: the phi swap against the
    last psi, row moves y_j psi_j^k -> y_q psi_q^k, column moves
    z_k psi_j^k -> z_1 psi_j^1, and the two-by-two psi exchanges."""
    cat = _Catalogue(biclique_graph(p, q, r))
    base, sets, fiber = cat.base, cat.sets, cat.fiber

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

    for i in range(1, p + 1):
        cat.emit("x-phi", [phi(i)], [xs[i]], [psi(q, 1)], [ys[q], zs[1]])
    for j in range(1, q):
        for k in range(1, r + 1):
            cat.emit("y-psi", [psi(j, k)], [ys[j]], [psi(q, k)], [ys[q]])
    for j in range(1, q + 1):
        for k in range(2, r + 1):
            cat.emit("z-psi", [psi(j, k)], [zs[k]], [psi(j, 1)], [zs[1]])
    for j1, j2 in combinations(range(1, q + 1), 2):
        for k1, k2 in combinations(range(1, r + 1), 2):
            cat.emit("psi-psi", [psi(j1, k2), psi(j2, k1)], [], [psi(j1, k1), psi(j2, k2)], [])
    return cat.claim()


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
    cat = _Catalogue(path_graph(n))
    sets, s = cat.sets, len(cat.gens)

    # has reads x_i by its 1-based name; emit and monomial take x_i's
    # 0-based base index i - 1
    def has(cover, i):
        # x_i divides the cover, with x_0 and x_{n+1} dividing everything
        return i < 1 or i > n or (i - 1) in cover

    # single step: x_{i+1} y_j -> x_i y_k shifts one cover vertex right
    for j in range(1, s + 1):
        cj = sets[j - 1]
        for i in range(1, n - 2):
            if has(cj, i - 1) and has(cj, i) and not has(cj, i + 3):
                cat.move("path-1", "single step", j, [i], cj - {i - 1} | {i}, [i - 1])
        if has(cj, n - 2) and has(cj, n - 1):
            cat.move("path-1", "end step", j, [n - 1], cj - {n - 2} | {n - 1}, [n - 2])

    # double step: x_{i+1} y_j -> x_i x_{i+2} y_k merges two cover vertices
    for j in range(1, s + 1):
        cj = sets[j - 1]
        for i in range(1, n - 1):
            if has(cj, i - 1) and has(cj, i) and has(cj, i + 2) and has(cj, i + 3):
                gone = {i - 1, i + 1}
                cat.move("path-2", "double step", j, [i], cj - gone | {i}, sorted(gone))

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
            a = cat.locate(vj | {i - 2} | wk, "prefix exchange image")
            b = cat.locate(vk | {i - 2, i - 1} | wj, "prefix exchange image")
            if not (j < a and j < b):
                raise AssertionError("prefix exchange must move down the cover list")
            cat.emit("path-3", [j, k], [], [a, b], [])

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
            a = cat.locate(vj | {i - 1} | wk, "straddle image")
            b = cat.locate(vk | {i - 2, i} | wj, "straddle image")
            if not (j < a and k < b):
                raise AssertionError("straddle must move down the cover list")
            cat.emit("path-4", [j, k], [], [a, b], [i - 1])

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
            a = cat.locate(vj | {i - 2, i} | wk, "straddle image")
            b = cat.locate(vk | {i - 1} | wj, "straddle image")
            if not (j < a and k < b):
                raise AssertionError("straddle must move down the cover list")
            cat.emit("path-5", [j, k], [], [a, b], [i - 1])

    # initial-monomial catalogue, generated from the covers alone
    catalogue = []
    for j in range(1, s + 1):
        cj = sets[j - 1]
        for i in range(1, n):
            if has(cj, i - 1) and has(cj, i):
                catalogue.append(cat.monomial([j], [i]))
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
            catalogue.append(cat.monomial([j, k], []))

    designated = {e.initial for e in cat.elements}
    for m in catalogue:
        if m not in designated:
            raise AssertionError("catalogued initial without a matching binomial")
    return cat.claim(catalogue)


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
    cat = _Catalogue(graph, revlex_order)
    base, sets, s = cat.base, cat.sets, len(cat.gens)

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

    # leaf swap: xi_i enters, its leaves and the slack zetas leave
    for r in range(1, s + 1):
        cov = sets[r - 1]
        for i in range(1, n + 1):
            if xi[i] in cov:
                continue
            gone = leaves[i] | w0_for(cov, i)
            if not gone <= cov:
                raise AssertionError("leaf swap expects the leaves and slack present")
            cat.move("cw-1", "leaf swap", r, [xi[i]], cov - gone | {xi[i]}, sorted(gone))

    # triangle swap: zeta_j enters, its b-corners leave
    for r in range(1, s + 1):
        cov = sets[r - 1]
        for j in range(1, m + 1):
            if q[j - 1] == 0 or zeta[j] in cov:
                continue
            bset = frozenset(bvar[(j, k)] for k in range(1, q[j - 1] + 1))
            if not bset <= cov:
                raise AssertionError("triangle swap expects the b-corners present")
            cat.move("cw-2", "triangle swap", r, [zeta[j]], cov - bset | {zeta[j]}, sorted(bset))

    # corner swap: c replaces b inside one pendant triangle
    for r in range(1, s + 1):
        cov = sets[r - 1]
        for jk, b in bvar.items():
            c = cvar[jk]
            if c in cov:
                continue
            if b not in cov:
                raise AssertionError("corner swap expects the b-corner present")
            cat.move("cw-3", "corner swap", r, [c], cov - {b} | {c}, [b])

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
                if leaves[i] & cov1:
                    raise AssertionError("paired leaf swap expects bare leaves")
                w0 = w0_for(cov0, i)
                image0 = cov0 - leaves[i] - w0 | {xi[i]}
                image1 = cov1 - {xi[i]} | leaves[i]
                cat.trade("cw-4", "paired leaf swap", r0, r1, image0, image1, sorted(w0))

    # paired corner swap: two covers trade b and c inside one triangle
    for jk, b in bvar.items():
        c, z = cvar[jk], zeta[jk[0]]
        for r0 in range(1, s + 1):
            cov0 = sets[r0 - 1]
            if z not in cov0 or b not in cov0:
                continue
            for r1 in range(1, r0):
                cov1 = sets[r1 - 1]
                if z not in cov1 or c not in cov1:
                    continue
                image0, image1 = cov0 - {b} | {c}, cov1 - {c} | {b}
                cat.trade("cw-5", "paired corner swap", r0, r1, image0, image1, [])

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
                image0 = cov0 - bcj | {zeta[j]} | sel1
                image1 = cov1 - {zeta[j]} - sel1 | bcj
                cat.trade("cw-6", "paired triangle swap", r0, r1, image0, image1, [])
    return cat.claim()


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Sizes of the claim and of the computed basis, four checks of the one
    against the other, plus diffs.

    claimed: distinct claimed polynomials.  computed: elements of the
    computed reduced basis of the kernel.  membership_ok: every claimed
    binomial maps to zero and reduces to zero against the computed basis.
    spair_ok: the claimed set passes the Buchberger criterion on its own.
    initial_match: the catalogued initials minimally generate the computed
    initial ideal.  reduced_match: reducing the claimed set reproduces the
    computed reduced basis element by element.
    """

    claimed: int
    computed: int
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


def _compare(want, got, render):
    """want == got as sets, and the renderings of what only want, then only got, holds."""
    want_set, got_set = set(want), set(got)
    missing = tuple(render(u) for u in want if u not in got_set)
    extra = tuple(render(u) for u in got if u not in want_set)
    return want_set == got_set, missing, extra


def verify_claim(claim, config=None):
    """Check a claim against the Rees presentation its own data fix, the
    kernel basis computed from scratch under config's caps."""
    presentation = claim.presentation(config)
    ext = claim.extended
    polys = claim.distinct_polynomials()
    basis = presentation.gb.elements

    # the catalogues' exponents are at most 2, far inside the basis's fields
    membership_ok = all(
        kernel_member(g, presentation.gens, ext) and membership(g, presentation.gb)
        for g in polys
    )
    claimed = GroebnerBasis.of(polys, ext, claim.order)
    spair_ok = is_spair_closed(claimed, config)

    initial_match, initial_missing, initial_extra = _compare(
        presentation.gb.initial.generators,
        MonomialIdeal.make(claim.claimed_initials).generators,
        lambda u: render_monomial(u, ext),
    )
    reduced_match, missing, extra = _compare(
        basis, reduce_basis(claimed).elements, lambda g: render_polynomial(g, ext)
    )

    return VerificationReport(
        len(polys),
        len(basis),
        membership_ok,
        spair_ok,
        initial_match,
        reduced_match,
        missing,
        extra,
        initial_missing,
        initial_extra,
    )
