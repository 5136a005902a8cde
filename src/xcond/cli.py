"""Command-line reports: reduced bases of raw ideals, Rees-power
certificates, claim verification, and graph/edge-module checks.

Every command prints one JSON document (sorted keys, compact separators)
so a fixed invocation is byte-reproducible; --pretty switches stdout to
an aligned two-column table and --out always receives the machine JSON.
Exit status: 0 all checks pass, 1 a check failed or a resource cap was
hit, 2 unusable input.
"""

import argparse
import sys
import json
from dataclasses import dataclass

from .families import (
    biclique_claimed,
    biclique_fiber_names,
    cw_claimed,
    path_claimed,
    verify_claim,
)
from .graphs import (
    Graph,
    biclique_graph,
    cameron_walker_graph,
    connectivity_profile,
    depth_bound_a,
    is_chordal,
    is_connected,
    minimal_vertex_covers,
    path_graph,
    peo,
)
from .groebner import (
    GBConfig,
    Ideal,
    ScaleExceeded,
    initial_ideal,
    reduced_groebner_basis,
)
from .rees import componentwise_certificate, default_fiber_names, rees_ideal, x_condition
from .ring import (
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
    RANK_SEED,
    admissible_path_basis,
    admissible_paths,
    cycle_complex_checks,
    edge_module,
    equivalence_check,
)

PROFILE_CAP = 16


class InputError(Exception):
    """Unusable command input; reported on stderr with exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one invocation; equal configs produce
    byte-identical output."""

    command: str
    ideal_file: "str | None" = None
    graph_file: "str | None" = None
    path: "int | None" = None
    biclique: "tuple | None" = None
    cw: "tuple | None" = None
    k: int = 1
    kmax: int = 0
    r: int = 4
    check: "str | None" = None
    order_text: "str | None" = None
    pretty: bool = False
    out: "str | None" = None
    pair_cap: "int | None" = None
    degree_cap: "int | None" = None
    seed: int = RANK_SEED

    def gb_config(self):
        overrides = {}
        if self.pair_cap is not None:
            overrides["pair_cap"] = self.pair_cap
        if self.degree_cap is not None:
            overrides["degree_cap"] = self.degree_cap
        try:
            return GBConfig.from_env(**overrides)
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
    if len(set(names)) != len(names):
        raise InputError(f"{path}:{lines[0][0]}: duplicate variable name")
    ctx = VarContext.make(names)
    if len(lines) < 2:
        raise InputError(f"{path}: expected an order spec line")
    no, text = lines[1]
    try:
        spec = parse_order_spec(text, ctx)
    except ParseError as exc:
        raise InputError(f"{path}:{no}: {exc}") from None
    if override_text is not None:
        try:
            spec = parse_order_spec(override_text, ctx)
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
    """One edge per line as two whitespace-separated vertex names."""
    edges = []
    names = set()
    for no, text in _read_lines(path):
        parts = text.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{no}: expected 'u v'")
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


def resolve_graph(config, allow_file=True):
    picks = [
        config.path is not None,
        config.biclique is not None,
        config.cw is not None,
        allow_file and config.graph_file is not None,
    ]
    if sum(picks) != 1:
        choices = "--path/--biclique/--cw" + ("/--graph" if allow_file else "")
        raise InputError(f"exactly one of {choices} is required")
    try:
        if config.path is not None:
            return path_graph(config.path)
        if config.biclique is not None:
            return biclique_graph(*config.biclique)
        if config.cw is not None:
            return cameron_walker_graph(*config.cw)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return read_graph_file(config.graph_file)


def cover_presentation(config):
    g = resolve_graph(config)
    gens = minimal_vertex_covers(g).monomials()
    if config.biclique is not None:
        fiber = biclique_fiber_names(*config.biclique)
    else:
        fiber = default_fiber_names(len(gens))
    clash = sorted(set(fiber) & set(g.vertices))
    if clash:
        raise InputError(
            f"vertex names {', '.join(clash)} clash with the fiber variables "
            f"{fiber[0]}..{fiber[-1]}"
        )
    return rees_ideal(g.context(), gens, fiber_names=fiber, config=config.gb_config())


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------


def betti_payload(table):
    if table is None:
        return None
    return {
        "entries": [[i, j, b] for (i, j), b in table.entries],
        "projdim": table.projdim,
        "regularity": table.regularity,
    }


def certificate_payload(rep):
    return {
        "k": rep.k,
        "x_condition": rep.x_condition,
        "quadratic": rep.quadratic,
        "minimal": rep.minimal,
        "linear_quotients": rep.linear_quotients,
        "nondecreasing": rep.nondecreasing,
        "weighted": rep.weighted,
        "certified": rep.certified,
        "betti_route": rep.betti_route,
        "betti": betti_payload(rep.betti),
        "oracle_componentwise": rep.oracle_componentwise,
        "oracle_betti_match": rep.oracle_betti_match,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gb(config):
    ctx, spec, polys = read_ideal_file(config.ideal_file, config.order_text)
    gb = reduced_groebner_basis(Ideal.make(polys, ctx), spec, config.gb_config())
    payload = {
        "vars": list(ctx.names),
        "order": render_order_spec(spec),
        "elements": [render_polynomial(g, ctx) for g in gb.elements],
        "initial": [render_monomial(m, ctx) for m in initial_ideal(gb).generators],
        "reduced": True,
    }
    return payload, 0


def cmd_rees(config):
    if config.k < 1:
        raise InputError("--k must be at least 1")
    pres = cover_presentation(config)
    rep = componentwise_certificate(pres, config.k)
    payload = certificate_payload(rep)
    payload["generators"] = len(pres.gens)
    return payload, 0 if rep.certified else 1


def cmd_xcond(config):
    pres = cover_presentation(config)
    rep = x_condition(pres)
    payload = {
        "x_condition": rep.holds,
        "violations": [render_monomial(m, pres.extended) for m in rep.violations],
        "initial_generators": len(pres.initial().generators),
        "generators": len(pres.gens),
    }
    return payload, 0 if rep.holds else 1


def cmd_powers(config):
    if config.kmax < 0:
        raise InputError("--kmax must be nonnegative")
    pres = cover_presentation(config)
    reports = [
        certificate_payload(componentwise_certificate(pres, k))
        for k in range(1, config.kmax + 1)
    ]
    payload = {
        "kmax": config.kmax,
        "generators": len(pres.gens),
        "reports": reports,
    }
    return payload, 0 if all(r["certified"] for r in reports) else 1


def _family_claim(config):
    try:
        if config.path is not None:
            return f"path-{config.path}", path_claimed(config.path)
        if config.biclique is not None:
            p, q, r = config.biclique
            return f"biclique-{p}-{q}-{r}", biclique_claimed(p, q, r)
        if config.cw is not None:
            p, q = config.cw
            graph = cameron_walker_graph(p, q)
            tag = "cw-" + ",".join(map(str, p)) + ";" + ",".join(map(str, q))
            return tag, cw_claimed(graph)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    raise InputError("exactly one of --path/--biclique/--cw is required")


def cmd_verify_family(config):
    name, claim = _family_claim(config)
    gbcfg = config.gb_config()
    pres = claim.presentation(gbcfg)
    rep = verify_claim(claim, pres, gbcfg)
    payload = {
        "family": name,
        "claimed": len(claim.distinct_polynomials()),
        "computed": len(pres.gb.elements),
        "tags": claim.tag_counts(),
        "membership_ok": rep.membership_ok,
        "spair_ok": rep.spair_ok,
        "initial_match": rep.initial_match,
        "reduced_match": rep.reduced_match,
        "missing": list(rep.missing),
        "extra": list(rep.extra),
        "initial_missing": list(rep.initial_missing),
        "initial_extra": list(rep.initial_extra),
        "ok": rep.ok,
    }
    return payload, 0 if rep.ok else 1


def cmd_binomial_edge(config):
    if config.graph_file is None:
        raise InputError("--graph is required")
    g = read_graph_file(config.graph_file)
    if config.check is not None:
        rep = equivalence_check(g)
        payload = {
            "vertices": g.n,
            "chordal": rep.chordal,
            "labeling": list(rep.labeling),
            "x_condition": rep.x_condition,
            "violations": list(rep.violations),
            "basis_x_condition": rep.basis_x_condition,
            "basis_matches": rep.basis_matches,
            "colon_route_linear": rep.colon_route_linear,
            "back_edges_match": rep.back_edges_match,
            "routes_agree": rep.routes_agree,
            "equivalence_ok": rep.equivalence_ok,
        }
        return payload, 0 if rep.equivalence_ok else 1
    em = edge_module(g)
    basis = admissible_path_basis(g)
    matches = None
    if g.n <= EQUIV_CAP:
        matches = basis == reduced_groebner_basis(em.sym_ideal, em.order)
    payload = {
        "vertices": g.n,
        "edges": len(g.edges),
        "admissible_paths": len(admissible_paths(g)),
        "basis": [render_polynomial(p, em.context) for p in basis.elements],
        "matches_computed": matches,
    }
    return payload, 0 if matches in (True, None) else 1


def cmd_cycle_complex(config):
    try:
        rep = cycle_complex_checks(config.r, config.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    payload = {
        "r": rep.r,
        "product_zero": rep.product_zero,
        "witness_minor": rep.witness_minor,
        "minor_matches": rep.minor_matches,
        "gcd_one": rep.gcd_one,
        "det_phi1_zero": rep.det_phi1_zero,
        "rank_phi1": rep.rank_phi1,
        "rank_phi2": rep.rank_phi2,
        "rank_by_evaluation": rep.rank_by_evaluation,
        "betti": list(rep.betti),
        "shifts": list(rep.shifts),
        "linear_resolution": rep.linear_resolution,
        "ok": rep.ok,
    }
    return payload, 0 if rep.ok else 1


def cmd_graph_stats(config):
    g = resolve_graph(config)
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

    for name, extra in (("rees", "--k"), ("xcond", None), ("powers", "--kmax")):
        sp = sub.add_parser(
            name,
            help={
                "rees": "single-power linearity certificate for a cover ideal",
                "xcond": "x-condition of a cover ideal's Rees presentation",
                "powers": "per-power certificates up to --kmax",
            }[name],
        )
        _add_family(sp)
        if extra == "--k":
            sp.add_argument("--k", type=int, default=1)
        elif extra == "--kmax":
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
        choices=("mg", "equivalence"),
        help="chordality/x-condition equivalence for the edge module M_G "
        "(both names run the same check)",
    )
    _add_caps(sp)
    _add_output(sp)

    sp = sub.add_parser("cycle-complex", help="length-r cycle resolution checks")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--seed", type=int, default=RANK_SEED)
    _add_output(sp)

    sp = sub.add_parser("graph-stats", help="covers, chordality, profile")
    _add_family(sp)
    _add_output(sp)

    return parser


def config_from_args(args):
    cw = None
    if getattr(args, "cw", None) is not None:
        cw = (_parse_cw_part(args.cw[0], "p"), _parse_cw_part(args.cw[1], "q"))
    return RunConfig(
        command=args.command,
        ideal_file=getattr(args, "ideal_file", None),
        graph_file=getattr(args, "graph", None),
        path=getattr(args, "path", None),
        biclique=tuple(args.biclique) if getattr(args, "biclique", None) else None,
        cw=cw,
        k=getattr(args, "k", 1),
        kmax=getattr(args, "kmax", 0),
        r=getattr(args, "r", 4),
        check=getattr(args, "check", None),
        order_text=getattr(args, "order", None),
        pretty=getattr(args, "pretty", False),
        out=getattr(args, "out", None),
        pair_cap=getattr(args, "pair_cap", None),
        degree_cap=getattr(args, "degree_cap", None),
        seed=getattr(args, "seed", RANK_SEED),
    )


def run(config):
    """Execute one config; print the report and return the exit status."""
    try:
        payload, code = DISPATCH[config.command](config)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ScaleExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # scale refusals from the edge-module routines
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 1
    text = render_json(payload)
    sys.stdout.write(render_pretty(payload) if config.pretty else text)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: cannot write {config.out}: {exc.strerror}", file=sys.stderr)
            return 2
    return code


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return run(config_from_args(args))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
