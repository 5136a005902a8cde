"""Simple graphs, cover enumeration, chordality, and depth combinatorics.

The vertex tuple of a Graph is ordered: vertices[0] ranks highest in the
pure lex convention used to sort minimal vertex covers, so each family
constructor lists its vertices in the variable order its cover ideal is
presented in.  Minimal vertex covers are complements of maximal
independent sets and are returned in descending lex order of their
monomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groebner import ScaleExceeded
from .ring import Monomial, VarContext

PROFILE_CAP = 16


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: frozenset
    family: tuple | None = None

    @staticmethod
    def make(vertices, edge_pairs, family=None):
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertex names")
        edges = set()
        for a, b in edge_pairs:
            ia, ib = index[a], index[b]
            if ia == ib:
                raise ValueError(f"loop at {a!r}")
            edges.add((min(ia, ib), max(ia, ib)))
        return Graph(vertices, frozenset(edges), family)

    @property
    def n(self):
        return len(self.vertices)

    def adjacency(self):
        adj = [set() for _ in self.vertices]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    def context(self):
        return VarContext.make(self.vertices)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def path_graph(n):
    if n < 2:
        raise ValueError("path needs at least 2 vertices")
    names = [f"x{i}" for i in range(1, n + 1)]
    edges = [(f"x{i}", f"x{i+1}") for i in range(1, n)]
    return Graph.make(names, edges, family=("path", n))


def biclique_graph(p, q, r):
    """Union of two complete graphs sharing the clique x_1..x_p, one with
    y_1..y_q and one with z_1..z_r.  Vertex ranking y_q..y_1, z_1..z_r,
    x_p..x_1 matches the order the cover ideal is presented in."""
    if min(p, q, r) < 1:
        raise ValueError("biclique parameters must be at least 1")
    xs = [f"x{i}" for i in range(1, p + 1)]
    ys = [f"y{j}" for j in range(1, q + 1)]
    zs = [f"z{k}" for k in range(1, r + 1)]
    names = list(reversed(ys)) + zs + list(reversed(xs))
    edges = []
    for side in (ys, zs):
        clique = xs + side
        edges.extend(itertools.combinations(clique, 2))
    return Graph.make(names, set(edges), family=("biclique", p, q, r))


def cameron_walker_graph(p, q):
    """Complete bipartite core on xi_1..xi_n and zeta_1..zeta_m, with p[i]
    leaf vertices a{i}_k on each xi_i and q[j] pendant triangles
    (b{j}_k, c{j}_k) on each zeta_j."""
    p = tuple(int(v) for v in p)
    q = tuple(int(v) for v in q)
    n, m = len(p), len(q)
    if n < 1 or m < 1 or any(v < 1 for v in p) or any(v < 0 for v in q):
        raise ValueError("need p_i >= 1 for every leaf count and q_j >= 0")
    names = []
    for i, pi in enumerate(p, 1):
        names.extend(f"a{i}_{k}" for k in range(1, pi + 1))
    for j, qj in enumerate(q, 1):
        for k in range(1, qj + 1):
            names.extend((f"b{j}_{k}", f"c{j}_{k}"))
    names.extend(f"zeta{j}" for j in range(1, m + 1))
    names.extend(f"xi{i}" for i in range(1, n + 1))
    edges = []
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            edges.append((f"xi{i}", f"zeta{j}"))
    for i, pi in enumerate(p, 1):
        edges.extend((f"xi{i}", f"a{i}_{k}") for k in range(1, pi + 1))
    for j, qj in enumerate(q, 1):
        for k in range(1, qj + 1):
            edges.extend(
                (
                    (f"zeta{j}", f"b{j}_{k}"),
                    (f"zeta{j}", f"c{j}_{k}"),
                    (f"b{j}_{k}", f"c{j}_{k}"),
                )
            )
    return Graph.make(names, edges, family=("cameron_walker", p, q))


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverSet:
    graph: Graph
    covers: tuple

    def monomials(self):
        n = self.graph.n
        return tuple(
            Monomial(tuple(1 if i in c else 0 for i in range(n))) for c in self.covers
        )


def _maximal_cliques(adj, n):
    """Bron-Kerbosch with pivoting; deterministic branch order."""
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: (len(adj[v] & p), -v))
        for v in sorted(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(n)), set())
    return out


def minimal_vertex_covers(graph):
    """All minimal covers, as complements of maximal independent sets,
    sorted so the cover monomials descend in the vertex-order lex."""
    n = graph.n
    adj = graph.adjacency()
    comp_adj = [set(range(n)) - adj[v] - {v} for v in range(n)]
    independent = _maximal_cliques(comp_adj, n)
    everything = frozenset(range(n))
    covers = [everything - s for s in independent]
    for c in covers:
        for a, b in graph.edges:
            if a not in c and b not in c:
                raise AssertionError("cover misses an edge")
        for v in sorted(c):
            smaller = c - {v}
            if not any(a not in smaller and b not in smaller for a, b in graph.edges):
                raise AssertionError("cover is not minimal")
    covers.sort(key=lambda c: tuple(1 if i in c else 0 for i in range(n)), reverse=True)
    return CoverSet(graph, tuple(covers))


# ---------------------------------------------------------------------------
# chordality
# ---------------------------------------------------------------------------


def peo(graph):
    """Ordering v_1..v_n with each v_j simplicial in the graph induced on
    v_1..v_j, found by maximum cardinality search; None when no such
    ordering exists (the graph has a chordless cycle)."""
    n = graph.n
    adj = graph.adjacency()
    weights = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        v = max(
            (u for u in range(n) if not visited[u]),
            key=lambda u: (weights[u], -u),
        )
        visited[v] = True
        order.append(v)
        for u in adj[v]:
            if not visited[u]:
                weights[u] += 1
    try:
        back_degrees(graph, order)
    except ValueError:
        return None
    return tuple(order)


def is_chordal(graph):
    return peo(graph) is not None


def has_chordless_cycle(graph):
    """Exhaustive oracle: some vertex subset induces a cycle of length >= 4."""
    n = graph.n
    if n > 8:
        raise ScaleExceeded("exhaustive cycle search is limited to 8 vertices")
    adj = graph.adjacency()
    for size in range(4, n + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            degs = [len(adj[v] & inside) for v in subset]
            if any(d != 2 for d in degs):
                continue
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                v = frontier.pop()
                for u in adj[v] & inside:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == size:
                return True
    return False


def relabel(graph, order):
    """Graph with vertices permuted so order[j] becomes vertex j."""
    names = tuple(graph.vertices[v] for v in order)
    pos = {v: j for j, v in enumerate(order)}
    edges = {(min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in graph.edges}
    return Graph(names, frozenset(edges), None)


# ---------------------------------------------------------------------------
# depth combinatorics
# ---------------------------------------------------------------------------


def back_degrees(graph, labeling):
    """|N(v_j) restricted to v_1..v_{j-1}| for each j, verifying that the
    labeling is prefix-simplicial."""
    adj = graph.adjacency()
    placed = set()
    degs = []
    for v in labeling:
        back = adj[v] & placed
        for a, b in itertools.combinations(sorted(back), 2):
            if not graph.has_edge(a, b):
                raise ValueError("labeling is not a perfect elimination ordering")
        degs.append(len(back))
        placed.add(v)
    return tuple(degs)


def depth_bound_a(graph, labeling):
    return graph.n - max(back_degrees(graph, labeling))


def _component_count(adj, keep):
    seen = set()
    count = 0
    for start in keep:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in keep and u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def connectivity_profile(graph):
    """Connectivity extremes over all removal sets A: c(A) counts the
    components surviving in the graph induced on the complement of A."""
    n = graph.n
    if n > PROFILE_CAP:
        raise ScaleExceeded(f"profile enumeration is limited to {PROFILE_CAP} vertices")
    adj = graph.adjacency()
    everything = set(range(n))
    dim_sym = None
    printed_proper = None
    printed_all = None
    for mask in range(1 << n):
        a = {v for v in range(n) if mask >> v & 1}
        c = _component_count(adj, everything - a)
        value = n - len(a) + c
        dim_sym = value if dim_sym is None else max(dim_sym, value)
        printed = len(a) - c
        printed_all = printed if printed_all is None else max(printed_all, printed)
        if len(a) < n:
            printed_proper = printed if printed_proper is None else max(printed_proper, printed)
    return {
        "dim_sym": dim_sym,
        "limit_upper_printed": printed_proper,
        "limit_upper_printed_all": printed_all,
        "limit_upper_corrected": dim_sym - n,
    }


# ---------------------------------------------------------------------------
# enumeration (sweep support)
# ---------------------------------------------------------------------------


def is_connected(graph):
    if graph.n == 0:
        return True
    return _component_count(graph.adjacency(), set(range(graph.n))) == 1


def _graph_from_mask(n, pairs, mask):
    edges = frozenset(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
    return Graph(tuple(f"v{i+1}" for i in range(n)), edges, None)


def all_connected_graphs(n):
    """Every labeled connected graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = _graph_from_mask(n, pairs, mask)
        if is_connected(g):
            yield g


def connected_graph_representatives(n):
    """One labeled representative per isomorphism class of connected graphs."""
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {pq: k for k, pq in enumerate(pairs)}
    seen = set()
    reps = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        g = _graph_from_mask(n, pairs, mask)
        if not is_connected(g):
            continue
        reps.append(g)
        for perm in itertools.permutations(range(n)):
            pmask = 0
            for a, b in g.edges:
                pa, pb = perm[a], perm[b]
                pmask |= 1 << pair_index[(min(pa, pb), max(pa, pb))]
            seen.add(pmask)
    return reps
