"""The benchmark's workloads: CLI invocations, their inputs, and the
answers each op is checked against.

Every reference answer comes from outside xcond: vertex-cover counts and
chordality by brute force over vertex subsets, Groebner bases from
sympy.groebner, and the verdicts the paper proves for the catalogued
families.  Checks run after the timed passes; sympy is imported only
then, so it inflates neither the timings nor the peak memory.
"""

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Op:
    """One CLI invocation.  ``check`` maps the parsed JSON payload to an
    error message, or None when the answer is right."""

    label: str
    argv: list
    check: object
    inputs: dict = field(default_factory=dict)  # file path -> text
    kernel_size: "int | None" = None  # expected Rees kernel size (traced runs)

    def key(self):
        """Identity of the op across runs: its label and its input bytes."""
        h = hashlib.sha256(self.label.encode())
        for path in sorted(self.inputs):
            h.update(self.inputs[path].encode())
        return f"{self.label} {h.hexdigest()[:16]}"


# ---------------------------------------------------------------------------
# graphs, built from their definitions, and brute-force invariants
# ---------------------------------------------------------------------------


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)], n


def biclique_edges(p, q, r):
    """Two cliques, on x + y and on x + z, sharing x (|x| = p)."""
    xs = list(range(p))
    ys = list(range(p, p + q))
    zs = list(range(p + q, p + q + r))
    edges = set()
    for side in (ys, zs):
        edges.update(itertools.combinations(xs + side, 2))
    return sorted(edges), p + q + r


def cw_edges(p, q):
    """Complete bipartite core xi_i -- zeta_j, p[i] leaves on xi_i and
    q[j] pendant triangles on zeta_j."""
    count = itertools.count()
    xi = [next(count) for _ in p]
    zeta = [next(count) for _ in q]
    edges = [(a, b) for a in xi for b in zeta]
    for i, leaves in enumerate(p):
        edges += [(xi[i], next(count)) for _ in range(leaves)]
    for j, triangles in enumerate(q):
        for _ in range(triangles):
            b, c = next(count), next(count)
            edges += [(zeta[j], b), (zeta[j], c), (b, c)]
    return edges, next(count)


def minimal_cover_count(edges, n):
    def covers(s):
        return all(s >> a & 1 or s >> b & 1 for a, b in edges)

    return sum(
        1
        for s in range(1 << n)
        if covers(s) and not any(s >> v & 1 and covers(s & ~(1 << v)) for v in range(n))
    )


def is_chordal(edges, n):
    """No vertex subset of size >= 4 induces a cycle."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    for s in range(1 << n):
        verts = [v for v in range(n) if s >> v & 1]
        if len(verts) < 4 or any(bin(adj[v] & s).count("1") != 2 for v in verts):
            continue
        seen, todo = 1 << verts[0], [verts[0]]
        while todo:
            v = todo.pop()
            nxt = adj[v] & s & ~seen
            seen |= nxt
            todo += [w for w in verts if nxt >> w & 1]
        if seen == s:
            return False
    return True


def _connected(edges, n):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _from_mask(pairs, mask):
    return [pairs[k] for k in range(len(pairs)) if mask >> k & 1]


def _images(edges, n, pairs):
    """Edge masks of every relabeling of the graph."""
    index = {pq: k for k, pq in enumerate(pairs)}
    for perm in itertools.permutations(range(n)):
        m = 0
        for a, b in edges:
            pa, pb = perm[a], perm[b]
            m |= 1 << index[(min(pa, pb), max(pa, pb))]
        yield m


def labeled_connected(n):
    """Every labeled connected graph on n vertices, by ascending edge mask."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = _from_mask(pairs, mask)
        if _connected(edges, n):
            yield edges


def representatives(n):
    """First graph, by ascending edge mask, of each connected isomorphism
    class on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    seen, reps = set(), []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        edges = _from_mask(pairs, mask)
        if _connected(edges, n):
            reps.append(edges)
            seen.update(_images(edges, n, pairs))
    return reps


def sampled_representatives(n, count, rng):
    """Seeded sample of distinct connected isomorphism classes on n
    vertices, each in its least-mask labeling, edge densities spread over
    sparse to dense."""
    pairs = list(itertools.combinations(range(n), 2))
    seen, out = set(), []
    while len(out) < count:
        density = 0.25 + 0.5 * len(out) / count
        edges = [pq for pq in pairs if rng.random() < density]
        if not _connected(edges, n):
            continue
        canon = min(_images(edges, n, pairs))
        if canon not in seen:
            seen.add(canon)
            out.append(_from_mask(pairs, canon))
    return out


def graph_text(edges):
    return "".join(f"v{a + 1} v{b + 1}\n" for a, b in edges)


# ---------------------------------------------------------------------------
# sympy references
# ---------------------------------------------------------------------------


def _sympy_gb(names, polys, order):
    import sympy

    gens = sympy.symbols(names)
    local = dict(zip(names, gens))
    exprs = [sympy.parse_expr(p.replace("^", "**"), local_dict=local) for p in polys]
    return gens, local, sympy.groebner(exprs, *gens, order=order, domain="QQ")


def _canon(expr, gens):
    """A polynomial up to a nonzero scalar."""
    import sympy

    poly = sympy.Poly(expr, *gens, domain="QQ").monic()
    return tuple(sorted(poly.terms()))


def _same_basis(rendered, names, polys, order):
    """Compare xcond's rendered basis with sympy's reduced basis of the
    same generators; None when they agree element for element up to
    scaling."""
    import sympy

    gens, local, ref = _sympy_gb(names, polys, order)
    got = {_canon(sympy.parse_expr(e.replace("^", "**"), local_dict=local), gens) for e in rendered}
    want = {_canon(g, gens) for g in ref.exprs}
    if len(rendered) != len(ref.exprs) or got != want:
        return f"basis differs from sympy.groebner ({len(rendered)} vs {len(ref.exprs)} elements)"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _rees_check(edges, n, certified):
    covers = minimal_cover_count(edges, n)

    def check(p):
        if p.get("generators") != covers:
            return f"generators {p.get('generators')} != {covers} minimal covers"
        if certified and p.get("certified") != "quadratic-initial":
            return f"certified {p.get('certified')!r}, expected 'quadratic-initial'"
        if certified and p.get("x_condition") is not True:
            return "x_condition does not hold"
        return None

    return check


def _verify_check(p):
    return None if p.get("ok") is True else "claimed basis not verified"


def rees_families(seed, inputs_dir):
    """Ignores the seed: relabelling P9's vertices took 5.9-21.4 s over six
    seeds and flipped the x-condition verdict, so a seeded relabelling
    would measure a different problem on every seed."""
    ops = []
    for n, size in ((7, None), (8, 26), (9, 46)):
        argv = ["rees", "--path", str(n), "--k", "2"]
        ops.append(Op(" ".join(argv), argv, _rees_check(*path_edges(n), True), kernel_size=size))
    # Known defect, kept visible: the biclique vertices y1..yq collide with
    # the default fiber names y1..ys, so the CLI reports "cap exceeded:
    # fiber names must be fresh" instead of a certificate.
    argv = ["rees", "--biclique", "2", "2", "2", "--k", "1"]
    ops.append(Op(" ".join(argv), argv, _rees_check(*biclique_edges(2, 2, 2), False)))
    for family in (
        ["--biclique", "2", "3", "2"],
        ["--cw", "p=1", "q=1"],
        ["--cw", "p=2", "q=1"],
        ["--cw", "p=1,1", "q=1"],
    ):
        argv = ["verify-family", *family]
        ops.append(Op(" ".join(argv), argv, _verify_check))
    return ops


def _powers_check(edges, n):
    covers = minimal_cover_count(edges, n)

    def check(p):
        if p.get("generators") != covers:
            return f"generators {p.get('generators')} != {covers} minimal covers"
        reports = p.get("reports") or []
        if p.get("kmax") != 3 or [r.get("k") for r in reports] != [1, 2, 3]:
            return "reports do not cover k = 1..3"
        for r in reports:
            if r.get("certified") and (
                r.get("oracle_componentwise") is False or r.get("oracle_betti_match") is False
            ):
                return f"k={r['k']}: certified {r['certified']!r} but the Betti oracle disagrees"
        return None

    return check


def powers_oracle(seed, inputs_dir):
    """Fixed catalogue instances; the seed is not used."""
    ops = []
    shapes = [(["--path", str(n)], path_edges(n)) for n in (5, 6, 7)]
    for p, q in (((1,), (1,)), ((2,), (1,)), ((1, 1), (0,))):
        cw = [f"p={','.join(map(str, p))}", f"q={','.join(map(str, q))}"]
        shapes.append((["--cw", *cw], cw_edges(p, q)))
    for family, (edges, n) in shapes:
        argv = ["powers", *family, "--kmax", "3"]
        ops.append(Op(" ".join(argv), argv, _powers_check(edges, n)))
    return ops


def _equivalence_check(edges, n):
    chordal = is_chordal(edges, n)

    def check(p):
        if p.get("vertices") != n or p.get("chordal") is not chordal:
            return f"chordal {p.get('chordal')}, expected {chordal}"
        if p.get("x_condition") is not chordal:
            return f"x_condition {p.get('x_condition')} on a graph with chordal={chordal}"
        if p.get("equivalence_ok") is not True:
            return "equivalence_ok is false"
        return None

    return check


def _listing_check(edges, n):
    def check(p):
        if p.get("vertices") != n or p.get("edges") != len(edges):
            return "vertex or edge count differs from the input"
        if p.get("matches_computed") is not True:
            return "admissible-path basis does not match the computed basis"
        names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
        gens = [f"x{a + 1}*y{b + 1} - x{b + 1}*y{a + 1}" for a, b in edges]
        return _same_basis(p.get("basis") or [], names, gens, "lex")

    return check


SAMPLE_7 = 16  # seeded 7-vertex classes per pass
# A fixed eight-vertex graph, about three times slower than any of 120
# sampled seven-vertex classes, so that the slowest op is always the same
# instance.  It is only checked, not listed, so that it is one op, and is
# checked ANCHOR_REPEATS times spread over each pass so that a run times
# it often enough to be steady.
ANCHOR_8 = [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
    (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3),
]
ANCHOR_REPEATS = 4


def edge_sweep(seed, inputs_dir):
    """Criterion 6 (every labeled connected graph on 2-5 vertices and the
    112 six-vertex classes), a seeded sample of seven-vertex classes, each
    also run in listing mode, and a fixed eight-vertex graph, repeated."""
    ops = []
    graphs = [
        (f"n{n}-{i:03d}", edges, n)
        for n in range(2, 6)
        for i, edges in enumerate(labeled_connected(n))
    ]
    graphs += [(f"n6-{i:03d}", edges, 6) for i, edges in enumerate(representatives(6))]
    sample = sampled_representatives(7, SAMPLE_7, random.Random(seed))
    graphs += [(f"n7-s{i:02d}", edges, 7) for i, edges in enumerate(sample)]
    graphs += [("n8-anchor", ANCHOR_8, 8)]
    for name, edges, n in graphs:
        path = str(inputs_dir / f"{name}.graph")
        inputs = {path: graph_text(edges)}
        argv = ["binomial-edge", "--graph", path, "--check", "mg"]
        check = _equivalence_check(edges, n)
        ops.append(Op(f"binomial-edge --check mg {name}", argv, check, inputs))
        if n == 7:
            argv = ["binomial-edge", "--graph", path]
            ops.append(Op(f"binomial-edge {name}", argv, _listing_check(edges, n), inputs))
    anchor = ops.pop()
    step = len(ops) // ANCHOR_REPEATS
    for k in reversed(range(ANCHOR_REPEATS)):
        ops.insert((k + 1) * step, anchor)
    return ops


def _dense_polys(names, degree, count, rng):
    """Every monomial of degree <= `degree` with a nonzero coefficient
    drawn from [-9, 9]."""
    monomials = [
        combo
        for d in range(degree + 1)
        for combo in itertools.combinations_with_replacement(names, d)
    ]
    polys = []
    for _ in range(count):
        terms = []
        for combo in monomials:
            c = rng.choice([v for v in range(-9, 10) if v])
            terms.append("*".join([str(c), *combo]))
        polys.append(" + ".join(terms).replace("+ -", "- "))
    return polys


def cyclic(n):
    xs = [f"x{i}" for i in range(1, n + 1)]
    polys = [
        " + ".join("*".join(xs[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    return xs, polys + ["*".join(xs) + " - 1"]


def katsura(n):
    us = [f"u{i}" for i in range(n + 1)]

    def u(i):
        return us[abs(i)] if abs(i) <= n else None

    polys = [" + ".join([us[0]] + [f"2*{v}" for v in us[1:]]) + " - 1"]
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)]
        polys.append(" + ".join(terms) + f" - {us[m]}")
    return us, polys


DENSE_SHAPES = ((3, 4, 2), (4, 4, 2), (3, 5, 2), (3, 3, 3))  # (polys, vars, degree)
DENSE_PER_SHAPE = 5
SYMPY_ORDER = {"revlex": "grevlex", "lex": "lex"}


def _gb_check(names, polys, order):
    def check(p):
        if p.get("vars") != names or p.get("reduced") is not True:
            return "variables or reduced flag differ from the input"
        return _same_basis(p.get("elements") or [], names, polys, SYMPY_ORDER[order])

    return check


def gb_dense(seed, inputs_dir):
    """Seeded dense ideals with non-unit rational arithmetic, plus three
    classic systems; the only workload that parses polynomials."""
    rng = random.Random(seed)
    ideals = []
    for count, nvars, degree in DENSE_SHAPES:
        names = [f"x{i}" for i in range(1, nvars + 1)]
        for i in range(DENSE_PER_SHAPE):
            polys = _dense_polys(names, degree, count, rng)
            ideals.append((f"dense-{count}x{nvars}d{degree}-{i}", names, polys, "revlex"))
    ideals.append(("cyclic5", *cyclic(5), "revlex"))
    ideals.append(("katsura4", *katsura(4), "revlex"))
    ideals.append(("katsura3", *katsura(3), "lex"))
    ops = []
    for name, names, polys, order in ideals:
        path = str(inputs_dir / f"{name}.ideal")
        text = f"vars: {', '.join(names)}\n{order}[{'>'.join(names)}]\n" + "".join(
            p + "\n" for p in polys
        )
        ops.append(Op(f"gb {name}", ["gb", path], _gb_check(names, polys, order), {path: text}))
    return ops


WORKLOADS = {
    "rees-families": rees_families,
    "powers-oracle": powers_oracle,
    "edge-sweep": edge_sweep,
    "gb-dense": gb_dense,
}


def build(name, seed, inputs_dir):
    """The workload's ops, with their input files written under inputs_dir."""
    inputs_dir = Path(inputs_dir)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for old in inputs_dir.iterdir():
        old.unlink()
    ops = WORKLOADS[name](seed, inputs_dir)
    for op in ops:
        for path, text in op.inputs.items():
            Path(path).write_text(text, encoding="utf-8")
    return ops
