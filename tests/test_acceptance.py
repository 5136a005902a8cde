"""Ten end-to-end acceptance checks.

Each test prints one `CRITERION n: PASS/FAIL` line with capture
suspended and then asserts, so a plain pytest run shows the
scoreboard.  Criterion 1 compares the computed reduced basis for the
8-vertex path against a fixed hand-transcribed 24-element catalogue,
after its documented two-for-one replacement and a three-element
amendment: the transcription omits three of the six double-step
binomials that the catalogue's own pattern produces.  The test checks
the amendment itself (each added binomial lies in the kernel, and its
leading monomial is divisible by no transcribed leading monomial), so
the comparison stays exact set equality against fixed strings.
"""

import random
import sys
import time
from dataclasses import replace

import pytest

from xcond.betti import (
    betti_numbers,
    degree_component,
    has_linear_resolution,
    hilbert_numerator,
    is_componentwise_linear,
)
from xcond.families import biclique_claimed, cw_claimed, path_claimed, verify_claim
from xcond.graphs import (
    Graph,
    all_connected_graphs,
    biclique_graph,
    cameron_walker_graph,
    connected_graph_representatives,
    minimal_vertex_covers,
    path_graph,
)
from xcond.groebner import (
    Ideal,
    MonomialIdeal,
    reduced_groebner_basis,
)
from xcond.rees import (
    betti_from_quotients,
    colon_cross_check,
    componentwise_certificate,
    kernel_member,
    presentation_order,
    quotient_steps,
    rees_ideal,
    standard_monomials,
)
from xcond.ring import (
    Monomial,
    VarContext,
    block_order,
    compile_order,
    lex_order,
    parse_polynomial,
    render_monomial,
    render_polynomial,
    revlex_order,
    weighted_order,
)
from xcond.symalg import cycle_complex_checks, equivalence_check


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_scoreboard(request):
    # pytest's default fd capture swallows sys.__stdout__ too, so the
    # scoreboard line is emitted with capture suspended
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE = None


def announce(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"\nCRITERION {num}: {verdict} - {detail}\n"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()


def cover_presentation(graph, **kwargs):
    ctx = graph.context()
    gens = minimal_vertex_covers(graph).monomials()
    if "fiber_names" not in kwargs:
        prefix = "w" if any(n.startswith("y") for n in ctx.names) else "y"
        kwargs["fiber_names"] = tuple(
            f"{prefix}{j}" for j in range(1, len(gens) + 1)
        )
    return rees_ideal(ctx, gens, **kwargs)


# the hand-transcribed 9 covers and 24 basis binomials for the 8-vertex
# path, in catalogue order, plus the two-for-one replacement the claim
# applies to the repeated-initial pair and the three binomials the
# transcription omits (P8_OMITTED below)
P8_COVERS = [
    "x1*x3*x4*x6*x7",
    "x1*x3*x4*x6*x8",
    "x1*x3*x5*x6*x8",
    "x1*x3*x5*x7",
    "x2*x3*x5*x6*x8",
    "x2*x3*x5*x7",
    "x2*x4*x5*x7",
    "x2*x4*x6*x7",
    "x2*x4*x6*x8",
]

P8_LISTED = [
    "y1*x8 - y2*x7",
    "y2*x5 - y3*x4",
    "y3*x2 - y5*x1",
    "y4*x2 - y6*x1",
    "y6*x4 - y7*x3",
    "y7*x6 - y8*x5",
    "y8*x8 - y9*x7",
    "y3*x7 - y4*x6*x8",
    "y5*x4 - y9*x3*x5",
    "y5*x7 - y6*x6*x8",
    "y1*y9 - y2*y8",
    "y3*y6 - y4*y5",
    "y1*y3 - y2*y4*x6",
    "y1*y5 - y2*y6*x6",
    "y1*y5 - y3*y8*x3",
    "y1*y6 - y4*y8*x3",
    "y2*y5 - y3*y9*x3",
    "y2*y6 - y4*y9*x3",
    "y3*y7 - y4*y9*x5",
    "y5*y7 - y6*y9*x5",
    "y1*y7 - y4*y8*x4",
    "y2*y7 - y4*y9*x4",
    "y3*y8 - y4*y9*x6",
    "y5*y8 - y6*y9*x6",
]

P8_REPLACED = {"y1*y5 - y2*y6*x6", "y1*y5 - y3*y8*x3"}
P8_REPLACEMENT = "y1*y5 - y4*y9*x3*x6"

# Erratum to P8_LISTED.  The catalogue's "double step" binomials
# x_{i+1} y_j - x_i x_{i+2} y_k occur six times in the reduced basis;
# the transcription keeps three (y3*x7, y5*x4, y5*x7) and drops these,
# at i = 1, 4 and 1.  Each lies in the kernel, and its leading monomial
# is divisible by no leading monomial of the transcribed elements, so
# without them the catalogue is not a Groebner basis at all.  The
# closed form families.path_claimed(8) lists all three, and
# sympy.groebner (lex, t > y > x) gives the same 26 t-free elements.
P8_OMITTED = (
    "y1*x2 - y8*x1*x3",
    "y1*x5 - y4*x4*x6",
    "y2*x2 - y9*x1*x3",
)


def test_criterion_1_p8_golden():
    start = time.monotonic()
    g = path_graph(8)
    ctx = g.context()
    covers = [render_monomial(m, ctx) for m in minimal_vertex_covers(g).monomials()]

    pres = cover_presentation(g)
    computed = {render_polynomial(p, pres.extended) for p in pres.gb.elements}
    transcribed = {b for b in P8_LISTED if b not in P8_REPLACED} | {P8_REPLACEMENT}
    claimed = transcribed | set(P8_OMITTED)
    elapsed = time.monotonic() - start

    order = pres.gb.compiled()
    transcribed_lms = [
        parse_polynomial(b, pres.extended, order).lm() for b in transcribed
    ]
    amended = [parse_polynomial(b, pres.extended, order) for b in P8_OMITTED]
    members = [kernel_member(p, pres.gens, pres.extended) for p in amended]
    independent = [
        not any(m.divides(p.lm()) for m in transcribed_lms) for p in amended
    ]

    ok = (
        covers == P8_COVERS
        and computed == claimed
        and all(members)
        and all(independent)
        and elapsed < 120
    )
    announce(
        1,
        ok,
        f"covers {'match' if covers == P8_COVERS else 'differ'}; "
        f"computed basis has {len(computed)} elements vs {len(claimed)} claimed "
        f"({len(P8_LISTED)} listed, {len(P8_REPLACED)}→1 replaced, "
        f"{len(P8_OMITTED)} amended), "
        f"{len(computed - claimed)} missing from the claim ({elapsed:.1f}s)",
    )
    assert covers == P8_COVERS
    assert len(P8_LISTED) == 24 and len(transcribed) == 23
    assert len(P8_OMITTED) == 3 and len(claimed) == 26
    assert all(members), dict(zip(P8_OMITTED, members))
    assert all(independent), dict(zip(P8_OMITTED, independent))
    assert computed == claimed, (
        f"claim lacks {sorted(computed - claimed)}; "
        f"claim adds {sorted(claimed - computed)}"
    )
    assert elapsed < 120


def test_criterion_2_path_initials():
    start = time.monotonic()
    checked = []
    for n in range(3, 9):
        claim = path_claimed(n)
        pres = claim.presentation()
        true_ini = set(pres.gb.initial.generators)
        catalogue = set(claim.claimed_initials)
        checked.append(
            true_ini == catalogue and all(m.degree() == 2 for m in true_ini)
        )
    elapsed = time.monotonic() - start
    ok = all(checked) and elapsed < 600
    announce(2, ok, f"n=3..8 initial catalogues exact and quadratic ({elapsed:.1f}s)")
    assert all(checked)
    assert elapsed < 600


def test_criterion_3_biclique_reduced():
    start = time.monotonic()
    results = {}
    for shape in ((1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)):
        claim = biclique_claimed(*shape)
        rep = verify_claim(claim)
        results[shape] = (rep.reduced_match, len(claim.distinct_polynomials()))
    elapsed = time.monotonic() - start
    ok = all(m for m, _ in results.values()) and results[(2, 3, 2)][1] == 12
    announce(
        3,
        ok and elapsed < 300,
        f"reduced_match for 4 shapes, (2,3,2) count {results[(2, 3, 2)][1]} "
        f"({elapsed:.1f}s)",
    )
    for shape, (match, _) in results.items():
        assert match, shape
    assert results[(2, 3, 2)][1] == 12
    assert elapsed < 300


def test_criterion_4_cw_initials():
    start = time.monotonic()
    small_ok = []
    for p, q in (((1,), (1,)), ((2,), (1,)), ((1, 1), (0,))):
        g = cameron_walker_graph(p, q)
        assert g.n <= 12
        claim = cw_claimed(g)
        rep = verify_claim(claim)
        small_ok.append(rep.initial_match)

    big = cw_claimed(cameron_walker_graph((3, 1, 2, 1), (2, 0, 1)))
    catalogued = set(big.claimed_initials)
    nf = len(big.fiber_names)

    def fiber(positions, base_names=()):
        pairs = [(r - 1, 1) for r in positions]
        pairs += [(nf + big.base.index(v), 1) for v in base_names]
        return Monomial.from_pairs(pairs, big.extended.nvars)

    five = [
        fiber([76], ["xi2"]),
        fiber([76], ["c1_1"]),
        fiber([123], ["zeta1"]),
        fiber([107, 94]),
        fiber([123, 124]),
    ]
    big_ok = all(m in catalogued for m in five)
    elapsed = time.monotonic() - start
    ok = all(small_ok) and big_ok and elapsed < 600
    announce(
        4,
        ok,
        f"3 small instances initial_match, 5 catalogued monomials present "
        f"({elapsed:.1f}s)",
    )
    assert all(small_ok)
    assert big_ok
    assert elapsed < 600


def test_criterion_5_power_pipeline():
    start = time.monotonic()
    families = {
        "path5": cover_presentation(path_graph(5)),
        "path6": cover_presentation(path_graph(6)),
        "biclique222": cover_presentation(biclique_graph(2, 2, 2)),
    }
    oracle_hits = 0
    for name, pres in families.items():
        for k in (1, 2, 3):
            images = standard_monomials(pres, k).images()
            report = quotient_steps(images)
            ordered = quotient_steps(sorted(images, key=Monomial.degree))
            assert len(ordered.generators) == len(images), (name, k)
            assert report.ok and ordered.ok, (name, k)
            assert colon_cross_check(pres, k), (name, k)
            if len(images) <= 16:
                table = betti_from_quotients(ordered.steps)
                assert betti_numbers(MonomialIdeal.make(images)) == table, (name, k)
                oracle_hits += 1
    elapsed = time.monotonic() - start
    ok = oracle_hits >= 3
    announce(
        5,
        ok,
        f"3 families x k=1..3 minimal/linear/cross-checked, "
        f"{oracle_hits} closed-form tables confirmed by the oracle ({elapsed:.1f}s)",
    )
    assert oracle_hits >= 3


def test_criterion_6_equivalence_sweep():
    start = time.monotonic()
    count = 0
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            rep = equivalence_check(g)
            assert rep.equivalence_ok, sorted(g.edges)
            assert rep.x_condition == rep.chordal
            count += 1
    for g in connected_graph_representatives(6):
        rep = equivalence_check(g)
        assert rep.equivalence_ok, sorted(g.edges)
        assert rep.x_condition == rep.chordal
        count += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 900
    announce(
        6,
        ok,
        f"{count} graphs: x-condition iff chordal, path basis equals computed "
        f"basis ({elapsed:.1f}s)",
    )
    assert count == 771 + 112
    assert elapsed < 900


def test_criterion_7_nonminimal_counterexample():
    x1sq = Monomial.from_pairs([(0, 2)], 2)
    x1x2sq = Monomial.from_pairs([(0, 1), (1, 2)], 2)
    x2sq = Monomial.from_pairs([(1, 2)], 2)
    ctx = VarContext.make(("x1", "x2"))

    report = quotient_steps((x1sq, x1x2sq, x2sq))
    colons = [
        [render_monomial(m, ctx) for m in step.colon.generators]
        for step in report.steps
    ]
    # sorted by degree, x1*x2^2 is skipped: the minimal generators remain,
    # and their colon (x1^2) is not linear
    ordered = quotient_steps(sorted((x1sq, x1x2sq, x2sq), key=Monomial.degree))
    minimal = len(ordered.generators) == len(report.generators)
    ideal = MonomialIdeal.make((x1sq, x2sq))
    component = degree_component(ideal, 2, 2)
    beta14 = dict(betti_numbers(component).entries).get((1, 4), 0)

    ok = (
        report.ok
        and colons == [[], ["x1"], ["x1"]]
        and not minimal
        and not ordered.ok
        and beta14 != 0
        and not has_linear_resolution(component)
        and not is_componentwise_linear(ideal)
    )
    announce(
        7,
        ok,
        f"colons {colons[1:]} linear on a non-minimal sequence, "
        f"beta(1,4)={beta14} blocks componentwise linearity",
    )
    assert report.ok
    assert colons == [[], ["x1"], ["x1"]]
    assert ordered.generators == (x1sq, x2sq)
    assert not ordered.ok
    with pytest.raises(ValueError, match="decrease"):
        betti_from_quotients(report.steps)
    assert beta14 != 0
    assert not has_linear_resolution(component)
    assert not is_componentwise_linear(ideal)


def test_criterion_8_cycle_complexes():
    reports = {r: cycle_complex_checks(r) for r in (4, 5, 6)}
    ok = all(
        rep.product_zero
        and rep.minor_matches
        and rep.gcd_one
        and rep.rank_phi1 == r - 1
        and rep.rank_phi2 == 1
        and rep.betti == (r, r, 1)
        and not rep.linear_resolution
        for r, rep in reports.items()
    )
    announce(
        8,
        ok,
        "r=4,5,6: zero composition, witness minors, ranks, Betti (r,r,1), "
        "never linear",
    )
    for r, rep in reports.items():
        assert rep.product_zero and rep.minor_matches and rep.gcd_one, r
        assert (rep.rank_phi1, rep.rank_phi2) == (r - 1, 1), r
        assert rep.betti == (r, r, 1) and not rep.linear_resolution, r


def _random_monomial(rng, nvars, top=6):
    return Monomial(tuple(rng.randint(0, top) for _ in range(nvars)))


def _order_kinds():
    ctx = VarContext.make(
        ("a", "b", "c", "d"), blocks=(("u", ("a", "b")), ("v", ("c", "d")))
    )
    specs = {
        "lex": lex_order("a", "b", "c", "d"),
        "revlex": revlex_order("a", "b", "c", "d"),
        "block": block_order(
            ("u", lex_order("a", "b")), ("v", revlex_order("c", "d"))
        ),
        "weighted": weighted_order((3, 1, 4, 1), lex_order("a", "b", "c", "d")),
    }
    return ctx, specs


def _order_axiom_violations():
    ctx, specs = _order_kinds()
    one = Monomial.from_pairs([], 4)
    violations = 0
    for kind, spec in specs.items():
        key = compile_order(spec, ctx).key
        rng = random.Random(f"axioms-{kind}")
        k_one = key(one)
        for _ in range(10_000):
            a, b, c = (_random_monomial(rng, 4) for _ in range(3))
            ka, kb = key(a), key(b)
            if (ka == kb) != (a == b):
                violations += 1
            if ka < kb and not key(a.mul(c)) < key(b.mul(c)):
                violations += 1
            if not k_one <= ka:
                violations += 1
    return violations


def _fixed_ideals():
    t1 = VarContext.make(("a", "b", "c"))
    toy1 = Ideal.make(
        [parse_polynomial(s, t1) for s in ("a^2 - b", "a*b - c", "b^2 - a*c")],
        t1,
        lex_order("a", "b", "c"),
    )
    toy2 = Ideal.make(
        [parse_polynomial(s, t1) for s in ("a^2*b - c^2", "a*c - b^2", "b*c - a")],
        t1,
        revlex_order("a", "b", "c"),
    )
    c4 = Graph.make(
        ("v1", "v2", "v3", "v4"),
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")],
    )
    from xcond.symalg import edge_module

    p5 = path_claimed(5)
    b222 = biclique_claimed(2, 2, 2)
    return [
        toy1,
        toy2,
        edge_module(c4),
        Ideal.make(p5.distinct_polynomials(), p5.extended, p5.order),
        Ideal.make(b222.distinct_polynomials(), b222.extended, b222.order),
    ]


def _uniqueness_mismatches():
    mismatches = 0
    for idx, ideal in enumerate(_fixed_ideals()):
        base = reduced_groebner_basis(ideal)
        rng = random.Random(1000 + idx)
        for _ in range(100):
            shuffled = list(ideal.generators)
            rng.shuffle(shuffled)
            if reduced_groebner_basis(replace(ideal, generators=tuple(shuffled))) != base:
                mismatches += 1
    return mismatches


def _euler_hilbert_checks():
    rng = random.Random("euler")
    checked = 0
    for _ in range(30):
        gens = {_random_monomial(rng, 3, top=3) for _ in range(rng.randint(1, 5))}
        gens = {g for g in gens if not g.is_one()} or {
            Monomial.from_pairs([(0, 1)], 3)
        }
        ideal = MonomialIdeal.make(gens)
        table = betti_numbers(ideal)
        from_betti = {0: 1}
        for (i, j), v in table.entries:
            from_betti[j] = from_betti.get(j, 0) + (-v if i % 2 == 0 else v)
        from_betti = {d: c for d, c in from_betti.items() if c}
        assert from_betti == hilbert_numerator(ideal)
        checked += 1
    return checked


def _pi_soundness_count():
    presentations = [
        cover_presentation(path_graph(4)),
        cover_presentation(path_graph(5)),
        cover_presentation(biclique_graph(2, 2, 2)),
        cover_presentation(cameron_walker_graph((1,), (1,))),
    ]
    total = 0
    for pres in presentations:
        for g in pres.gb.elements:
            assert kernel_member(g, pres.gens, pres.extended)
            total += 1
    return total


def test_criterion_9_property_suites():
    violations = _order_axiom_violations()
    mismatches = _uniqueness_mismatches()
    euler_calls = _euler_hilbert_checks()
    sound = _pi_soundness_count()
    ok = violations == 0 and mismatches == 0
    announce(
        9,
        ok,
        f"order axioms {violations} violations; uniqueness {mismatches} "
        f"mismatches; Euler/Hilbert on {euler_calls} calls; {sound} kernel "
        "elements substitution-checked",
    )
    assert violations == 0
    assert mismatches == 0
    assert euler_calls == 30
    assert sound > 0


def test_criterion_10_weighted_route():
    g = path_graph(5)
    ctx = g.context()
    gens = tuple(sorted(minimal_vertex_covers(g).monomials(), key=Monomial.degree))
    names = tuple(f"y{j}" for j in range(1, len(gens) + 1))
    tie = lex_order(*reversed(names))
    order = presentation_order(
        weighted_order(tuple(m.degree() for m in gens), tie), lex_order(*ctx.names)
    )
    pres = rees_ideal(ctx, gens, order=order, fiber_names=names)
    results = []
    for k in (1, 2, 3):
        degrees = [h.degree() for h in standard_monomials(pres, k).images()]
        cert = componentwise_certificate(pres, k)
        results.append(
            degrees == sorted(degrees)
            and cert.minimal
            and cert.linear_quotients
            and cert.nondecreasing
            and cert.certified is not None
        )
    announce(10, all(results), "weighted order: images minimal, degrees nondecreasing "
             "and quotients linear for k=1..3")
    assert all(results)
