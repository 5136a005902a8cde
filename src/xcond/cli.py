"""Command-line reports: reduced bases of raw ideals, Rees-power
certificates, claim verification, and graph/edge-module checks.

Every command prints one JSON document (sorted keys, compact separators)
so a fixed invocation is byte-reproducible; --pretty switches stdout to
an aligned two-column table and --out always receives the machine JSON.
A report command's JSON is its report's dataclass fields and verdict
properties (report_payload), plus the command's own counts.
The parser is built once per process and each command reads its parsed
arguments directly.

Exit status: 0 all checks pass; 1 a check failed, or a size cap was hit
(every size refusal raises ScaleExceeded, reported as "cap exceeded:");
2 unusable input (InputError or ParseError).  Any other exception is a
bug and propagates with its traceback.
"""

import argparse
import json
import sys
from dataclasses import fields

from .betti import BettiTable
from .families import (
    biclique_claimed,
    cw_claimed,
    fiber_names,
    path_claimed,
    verify_claim,
)
from .graphs import (
    PROFILE_CAP,
    Graph,
    biclique_graph,
    cameron_walker_graph,
    connectivity_profile,
    depth_bound_a,
    is_connected,
    minimal_vertex_covers,
    path_graph,
    peo,
)
from .groebner import (
    GBConfig,
    Ideal,
    ScaleExceeded,
    reduced_groebner_basis,
)
from .rees import (
    ELIM_VAR,
    componentwise_certificate,
    rees_ideal,
    x_condition,
)
from .ring import (
    NAME_RE,
    ParseError,
    VarContext,
    compile_order,
    parse_order_spec,
    parse_polynomial,
    render_monomial,
    render_order_spec,
    render_polynomial,
)
from .symalg import (
    EQUIV_CAP,
    admissible_path_basis,
    cycle_complex_checks,
    edge_module,
    equivalence_check,
)


class InputError(Exception):
    """Unusable command input; reported on stderr with exit status 2."""


def gb_config(args):
    """Buchberger caps: the defaults, unless a flag sets them."""
    caps = {"pair_cap": args.pair_cap, "degree_cap": args.degree_cap}
    try:
        return GBConfig(**{k: v for k, v in caps.items() if v is not None})
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# input readers
# ---------------------------------------------------------------------------


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    out = []
    for no, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append((no, stripped))
    return out


def read_ideal_file(path, override_text=None):
    """Header line `vars: a, b, c`, one order spec line, then one
    polynomial per line.  An override spec replaces the file's order."""
    lines = _read_lines(path)
    if not lines or not lines[0][1].startswith("vars:"):
        raise InputError(f"{path}: expected a 'vars:' header line")
    names = tuple(t.strip() for t in lines[0][1][len("vars:") :].split(","))
    if not all(names):
        raise InputError(f"{path}:{lines[0][0]}: empty variable name")
    for name in names:
        if not NAME_RE.fullmatch(name):
            raise InputError(f"{path}:{lines[0][0]}: bad variable name {name!r}")
    if len(set(names)) != len(names):
        raise InputError(f"{path}:{lines[0][0]}: duplicate variable name")
    ctx = VarContext.make(names)
    if len(lines) < 2:
        raise InputError(f"{path}: expected an order spec line")
    no, text = lines[1]
    try:
        spec = parse_order_spec(text)
    except ParseError as exc:
        raise InputError(f"{path}:{no}: {exc}") from None
    if override_text is not None:
        try:
            spec = parse_order_spec(override_text)
        except ParseError as exc:
            raise InputError(f"--order: {exc}") from None
    try:
        compiled = compile_order(spec, ctx)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    polys = []
    for no, text in lines[2:]:
        try:
            polys.append(parse_polynomial(text, ctx, compiled))
        except ParseError as exc:
            raise InputError(f"{path}:{no}: {exc}") from None
    return ctx, spec, tuple(polys)


def read_graph_file(path):
    """One edge per line as two whitespace-separated variable names."""
    edges = []
    names = set()
    for no, text in _read_lines(path):
        parts = text.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{no}: expected 'u v'")
        for name in parts:
            if not NAME_RE.fullmatch(name):
                raise InputError(f"{path}:{no}: bad vertex name {name!r}")
        u, v = parts
        if u == v:
            raise InputError(f"{path}:{no}: loop edge {u!r}")
        names.update(parts)
        edges.append((u, v))
    if not edges:
        raise InputError(f"{path}: no edges")
    return Graph.make(tuple(sorted(names)), edges)


def _parse_cw_part(text, prefix):
    head = f"{prefix}="
    if not text.startswith(head):
        raise InputError(f"expected {head}<ints>, got {text!r}")
    try:
        return tuple(int(t) for t in text[len(head) :].split(","))
    except ValueError:
        raise InputError(f"bad integer list in {text!r}") from None


def resolve_graph(args, allow_file=True):
    """The graph named by exactly one of --path/--biclique/--cw/--graph
    (allow_file=False: the command has no --graph).  Family graphs carry
    their parameters in Graph.family."""
    picks = [args.path, args.biclique, args.cw, args.graph]
    if sum(p is not None for p in picks) != 1:
        choices = "--path/--biclique/--cw" + ("/--graph" if allow_file else "")
        raise InputError(f"exactly one of {choices} is required")
    if args.graph is not None:
        return read_graph_file(args.graph)
    try:
        if args.path is not None:
            return path_graph(args.path)
        if args.biclique is not None:
            return biclique_graph(*args.biclique)
        return cameron_walker_graph(
            _parse_cw_part(args.cw[0], "p"), _parse_cw_part(args.cw[1], "q")
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None


def cover_presentation(args):
    g = resolve_graph(args)
    gens = minimal_vertex_covers(g).monomials()
    fiber = fiber_names(g, len(gens))
    clash = sorted(set(fiber) & set(g.vertices))
    if clash:
        raise InputError(
            f"vertex names {', '.join(clash)} clash with the fiber variables "
            f"{fiber[0]}..{fiber[-1]}"
        )
    if ELIM_VAR in g.vertices:
        raise InputError(f"vertex name {ELIM_VAR} is reserved for the elimination variable")
    return rees_ideal(g.context(), gens, fiber_names=fiber, config=gb_config(args))


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------


def betti_payload(table):
    return {
        "entries": [[i, j, b] for (i, j), b in table.entries],
        "projdim": table.projdim,
        "regularity": table.regularity,
    }


def _field_payload(value):
    if isinstance(value, BettiTable):
        return betti_payload(value)
    return list(value) if isinstance(value, tuple) else value


def report_payload(rep):
    """A report's JSON: every dataclass field and every verdict property
    (ok, routes_agree, ...), tuples as lists, Betti tables via betti_payload."""
    payload = {f.name: _field_payload(getattr(rep, f.name)) for f in fields(rep)}
    for name, attr in vars(type(rep)).items():
        if isinstance(attr, property):
            payload[name] = getattr(rep, name)
    return payload


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gb(args):
    ctx, spec, polys = read_ideal_file(args.ideal_file, args.order)
    gb = reduced_groebner_basis(Ideal.make(polys, ctx, spec), gb_config(args))
    payload = {
        "vars": list(ctx.names),
        "order": render_order_spec(spec),
        "elements": [render_polynomial(g, ctx) for g in gb.elements],
        "initial": [render_monomial(m, ctx) for m in gb.initial.generators],
        "reduced": True,
    }
    return payload, 0


def cmd_rees(args):
    if args.k < 1:
        raise InputError("--k must be at least 1")
    pres = cover_presentation(args)
    rep = componentwise_certificate(pres, args.k)
    return report_payload(rep) | {"generators": len(pres.gens)}, 0 if rep.certified else 1


def cmd_xcond(args):
    pres = cover_presentation(args)
    rep = x_condition(pres.gb)
    payload = {
        "x_condition": rep.holds,
        "violations": [render_monomial(m, pres.extended) for m in rep.violations],
        "initial_generators": len(pres.gb.initial.generators),
        "generators": len(pres.gens),
    }
    return payload, 0 if rep.holds else 1


def cmd_powers(args):
    if args.kmax < 0:
        raise InputError("--kmax must be nonnegative")
    pres = cover_presentation(args)
    reports = [componentwise_certificate(pres, k) for k in range(1, args.kmax + 1)]
    payload = {
        "kmax": args.kmax,
        "generators": len(pres.gens),
        "reports": [report_payload(rep) for rep in reports],
    }
    return payload, 0 if all(rep.certified for rep in reports) else 1


def cmd_verify_family(args):
    if args.path is not None and args.path < 3 and args.biclique is None and args.cw is None:
        # path_graph refuses --path 1 in its own words; the catalogue starts
        # at three vertices and refuses every shorter path alike
        raise InputError("need a path on at least three vertices")
    graph = resolve_graph(args, allow_file=False)
    kind, *params = graph.family
    try:
        if kind == "path":
            name, claim = f"path-{params[0]}", path_claimed(*params)
        elif kind == "biclique":
            name, claim = "biclique-{}-{}-{}".format(*params), biclique_claimed(*params)
        else:
            name = "cw-" + ";".join(",".join(map(str, side)) for side in params)
            claim = cw_claimed(graph)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    rep = verify_claim(claim, gb_config(args))
    payload = {"family": name, "tags": claim.tag_counts(), **report_payload(rep)}
    return payload, 0 if rep.ok else 1


def cmd_binomial_edge(args):
    g = read_graph_file(args.graph)
    if args.check is not None:
        rep = equivalence_check(g, gb_config(args))
        return report_payload(rep) | {"vertices": g.n}, 0 if rep.equivalence_ok else 1
    basis = admissible_path_basis(g)
    matches = None
    if g.n <= EQUIV_CAP:
        matches = basis == reduced_groebner_basis(edge_module(g), gb_config(args))
    payload = {
        "vertices": g.n,
        "edges": len(g.edges),
        "admissible_paths": len(basis.elements),
        "basis": [render_polynomial(p, basis.context) for p in basis.elements],
        "matches_computed": matches,
    }
    return payload, 0 if matches in (True, None) else 1


def cmd_cycle_complex(args):
    try:
        rep = cycle_complex_checks(args.r)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return report_payload(rep), 0 if rep.ok else 1


def cmd_graph_stats(args):
    g = resolve_graph(args)
    ctx = g.context()
    order = peo(g)
    covers = minimal_vertex_covers(g)
    payload = {
        "vertices": g.n,
        "edges": sorted([g.vertices[a], g.vertices[b]] for a, b in g.edges),
        "connected": is_connected(g),
        "chordal": order is not None,
        "peo": [g.vertices[v] for v in order] if order else None,
        "cover_count": len(covers.covers),
        "cover_ideal": [render_monomial(m, ctx) for m in covers.monomials()],
        "depth_lower_bound": depth_bound_a(g, order) if order else None,
        "profile": connectivity_profile(g) if g.n <= PROFILE_CAP else None,
    }
    return payload, 0


DISPATCH = {
    "gb": cmd_gb,
    "rees": cmd_rees,
    "xcond": cmd_xcond,
    "powers": cmd_powers,
    "verify-family": cmd_verify_family,
    "binomial-edge": cmd_binomial_edge,
    "cycle-complex": cmd_cycle_complex,
    "graph-stats": cmd_graph_stats,
}


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------


def render_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _scalar(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "-"
    return str(v)


def _rows(value, path=""):
    if isinstance(value, dict):
        if not value:
            yield path, "{}"
        for k in sorted(value):
            yield from _rows(value[k], f"{path}.{k}" if path else str(k))
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, v in enumerate(value):
            yield from _rows(v, f"{path}[{i}]")
    elif isinstance(value, list):
        yield path, ", ".join(_scalar(v) for v in value) if value else "(none)"
    else:
        yield path, _scalar(value)


def render_pretty(payload):
    rows = list(_rows(payload))
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_output(sp):
    sp.add_argument("--pretty", action="store_true", help="aligned table on stdout")
    sp.add_argument("--out", metavar="FILE", help="also write the JSON to FILE")


def _add_caps(sp):
    sp.add_argument("--pair-cap", type=int, metavar="N")
    sp.add_argument("--degree-cap", type=int, metavar="N")


def _add_family(sp, with_file=True):
    sp.add_argument("--path", type=int, metavar="N", help="path graph on N vertices")
    sp.add_argument("--biclique", type=int, nargs=3, metavar=("P", "Q", "R"))
    sp.add_argument("--cw", nargs=2, metavar=("p=1,2", "q=0,1"))
    if with_file:
        sp.add_argument("--graph", metavar="FILE", help="edge list, one 'u v' per line")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xcond",
        description="Reduced Groebner bases, Rees-power linearity certificates, "
        "and edge-module reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gb", help="reduced basis of an ideal file")
    sp.add_argument("ideal_file", metavar="FILE")
    sp.add_argument("--order", metavar="SPEC", help="override the file's order line")
    _add_caps(sp)
    _add_output(sp)

    for name, help_text in (
        ("rees", "single-power linearity certificate for a cover ideal"),
        ("xcond", "x-condition of a cover ideal's Rees presentation"),
        ("powers", "per-power certificates up to --kmax"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_family(sp)
        if name == "rees":
            sp.add_argument("--k", type=int, default=1)
        elif name == "powers":
            sp.add_argument("--kmax", type=int, required=True)
        _add_caps(sp)
        _add_output(sp)

    sp = sub.add_parser("verify-family", help="check a catalogued basis claim")
    _add_family(sp, with_file=False)
    _add_caps(sp)
    _add_output(sp)

    sp = sub.add_parser("binomial-edge", help="edge-module basis and checks")
    sp.add_argument("--graph", metavar="FILE", required=True)
    sp.add_argument(
        "--check",
        choices=("mg",),
        help="chordality/x-condition equivalence for the edge module M_G",
    )
    _add_caps(sp)
    _add_output(sp)

    sp = sub.add_parser("cycle-complex", help="length-r cycle resolution checks")
    sp.add_argument("--r", type=int, required=True)
    _add_output(sp)

    sp = sub.add_parser("graph-stats", help="covers, chordality, profile")
    _add_family(sp)
    _add_output(sp)

    # verify-family has no --graph; resolve_graph reads it everywhere
    parser.set_defaults(graph=None)
    return parser


def run(args):
    """Execute one parsed command line; print the report and return the
    exit status."""
    try:
        payload, code = DISPATCH[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ScaleExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 1
    text = render_json(payload)
    sys.stdout.write(render_pretty(payload) if args.pretty else text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    return code


PARSER = build_parser()


def main(argv=None):
    return run(PARSER.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
