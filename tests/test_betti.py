"""Homological oracle: Betti tables, Hilbert numerators, linearity checks."""

import itertools
import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xcond import betti
from xcond.betti import (
    BettiTable,
    _reduced_homology_ranks,
    betti_numbers,
    degree_component,
    has_linear_resolution,
    hilbert_numerator,
    is_componentwise_linear,
    matrix_rank,
    multigraded_betti,
)
from xcond.cli import betti_payload, main
from xcond.graphs import biclique_graph, cameron_walker_graph, minimal_vertex_covers, path_graph
from xcond.groebner import MonomialIdeal, ScaleExceeded
from xcond.ring import Monomial


def I(*gens):
    return MonomialIdeal.make([Monomial(g) for g in gens])


# ---------------------------------------------------------------------------
# reference oracles: the straightforward algorithms the fast ones replace
# ---------------------------------------------------------------------------


def reference_numerator(ideal):
    """Hilbert numerator of S/I by inclusion-exclusion over all 2^r
    generator subsets: sum of (-1)^|A| t^deg lcm(A)."""
    coeffs = {}
    for size in range(len(ideal.generators) + 1):
        for subset in itertools.combinations(ideal.generators, size):
            deg = sum(max(column) for column in zip(*(g.exps for g in subset)))
            coeffs[deg] = coeffs.get(deg, 0) + (-1) ** size
    return {d: c for d, c in coeffs.items() if c}


def fraction_rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] / m[rank][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def reference_multigraded_betti(ideal):
    """beta_{i,b} from the upper Koszul complex at every lcm b, its faces
    tau found by testing x^(b - tau) for membership one subset at a time."""
    lcms = set()
    for g in ideal.generators:
        lcms |= {g} | {Monomial(tuple(map(max, m.exps, g.exps))) for m in lcms}
    out = {}
    for b in lcms:
        supp = b.support()
        faces = [
            tau
            for size in range(len(supp) + 1)
            for tau in itertools.combinations(supp, size)
            if ideal.contains(
                Monomial(tuple(e - (v in tau) for v, e in enumerate(b.exps)))
            )
        ]
        top = max(len(f) for f in faces) - 1
        by_dim = {d: [f for f in faces if len(f) == d + 1] for d in range(-1, top + 1)}
        ranks = {}
        for d in range(top + 1):
            index = {f: i for i, f in enumerate(by_dim[d - 1])}
            rows = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
            for c, f in enumerate(by_dim[d]):
                for k in range(len(f)):
                    rows[index[f[:k] + f[k + 1 :]]][c] = (-1) ** k
            ranks[d] = fraction_rank(rows)
        for d in range(-1, top + 1):
            rank = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            if rank:
                out[(d + 1, b)] = rank
    return out


def _is_linear(table, d):
    return all(j == i + d for (i, j), _ in table.entries)


def reference_componentwise(ideal, table=None):
    """Check d-linearity of every degree component from the least generator
    degree up to the regularity; higher components are multiples of the
    regularity component by the maximal ideal and stay linear.

    table, when given, must be betti_numbers(ideal); a component equal to
    the ideal is judged by it instead of a second computation."""
    if ideal.is_zero():
        return True
    if table is None:
        table = betti_numbers(ideal)
    nvars = len(ideal.generators[0].exps)
    dmin = min(g.degree() for g in ideal.generators)
    for d in range(dmin, table.regularity + 1):
        component = degree_component(ideal, d, nvars)
        if component.is_zero():
            continue
        if len(component.generators) > betti.GENERATOR_CAP:
            raise ScaleExceeded(
                f"degree-{d} component has {len(component.generators)} generators"
            )
        if component == ideal:
            if not _is_linear(table, d):
                return False
        elif not has_linear_resolution(component):
            return False
    return True


# up to 8 generators in up to 5 variables, exponents at most 3; an empty
# list is the zero ideal and an all-zero generator the unit ideal
random_ideals = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple), max_size=8
    ).map(lambda gens: MonomialIdeal.make(Monomial(g) for g in gens))
)

# up to 6 generators in 2 to 4 variables, exponents at most 3: small enough
# that the reference builds every component up to the regularity quickly
small_ideals = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple), max_size=6
    ).map(lambda gens: MonomialIdeal.make(Monomial(g) for g in gens))
)


@contextmanager
def cap_lifted():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "GENERATOR_CAP", math.inf)
        yield mp


class TestBettiNumbers:
    def test_principal_ideal(self):
        t = betti_numbers(I((1, 0, 0)))
        assert dict(t.entries) == {(0, 1): 1}
        assert (t.projdim, t.regularity) == (0, 1)

    def test_two_coprime_generators(self):
        t = betti_numbers(I((0, 1, 0), (1, 0, 1)))
        assert dict(t.entries) == {(0, 1): 1, (0, 2): 1, (1, 3): 1}
        assert (t.projdim, t.regularity) == (1, 2)

    def test_squares_regular_sequence(self):
        t = betti_numbers(I((2, 0), (0, 2)))
        assert dict(t.entries) == {(0, 2): 2, (1, 4): 1}

    def test_koszul_three_coprime(self):
        t = betti_numbers(I((2, 0, 0), (0, 3, 0), (0, 0, 1)))
        assert dict(t.entries) == {
            (0, 1): 1,
            (0, 2): 1,
            (0, 3): 1,
            (1, 3): 1,
            (1, 4): 1,
            (1, 5): 1,
            (2, 6): 1,
        }
        assert t.projdim == 2

    def test_five_cycle_edge_ideal(self):
        t = betti_numbers(
            I((1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1), (1, 0, 0, 0, 1))
        )
        assert dict(t.entries) == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
        assert (t.projdim, t.regularity) == (2, 3)

    def test_zero_ideal(self):
        t = betti_numbers(I())
        assert t.entries == ()

    def test_generator_cap(self):
        gens = [tuple(1 if j == i else 0 for j in range(17)) for i in range(17)]
        with pytest.raises(ScaleExceeded):
            betti_numbers(I(*gens))

    def test_multigraded_support_on_lcms(self):
        ideal = I((0, 1, 0), (1, 0, 1))
        mg = multigraded_betti(ideal)
        lcms = {Monomial((0, 1, 0)), Monomial((1, 0, 1)), Monomial((1, 1, 1))}
        assert all(b in lcms for _, b in mg)

    def test_beta0_matches_generators_random(self):
        rng = random.Random(5)
        for _ in range(30):
            gens = [
                tuple(rng.randint(0, 2) for _ in range(4))
                for _ in range(rng.randint(1, 6))
            ]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            ideal = I(*gens)
            t = betti_numbers(ideal)
            expected = {}
            for g in ideal.generators:
                d = g.degree()
                expected[d] = expected.get(d, 0) + 1
            assert t.generator_degrees() == expected


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(random_ideals)
    @example(I())
    @example(I((0, 0, 0)))
    @example(I((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    def test_hilbert_numerator(self, ideal):
        assert hilbert_numerator(ideal) == reference_numerator(ideal)

    @settings(max_examples=300, deadline=None)
    @given(random_ideals)
    @example(I())
    @example(I((0, 0, 0)))
    @example(I((2, 1, 0), (1, 2, 1), (0, 1, 2), (1, 1, 1)))
    @example(I((1000, 0, 1), (0, 2**20, 1), (3, 3, 0)))
    def test_multigraded_betti(self, ideal):
        assert multigraded_betti(ideal) == reference_multigraded_betti(ideal)


@st.composite
def matrices(draw):
    """A product of an nrows x r and an r x ncols factor, so of rank at
    most r, with integer or Fraction entries and some columns zeroed."""
    nrows, ncols, r = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    numbers = draw(
        st.sampled_from(
            [st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))]
        )
    )
    left = [[draw(numbers) for _ in range(r)] for _ in range(nrows)]
    right = [[draw(numbers) for _ in range(ncols)] for _ in range(r)]
    zeroed = draw(st.sets(st.integers(0, 6), max_size=2))
    return [
        [0 if c in zeroed else sum(row[t] * right[t][c] for t in range(r)) for c in range(ncols)]
        for row in left
    ]


class TestMatrixRank:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    @example([])
    @example([[]])
    @example([[0, 0], [0, 0]])
    @example([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])
    @example([[2, 3], [4, 5]])
    @example([[2, 4], [3, 6]])
    def test_against_fraction_elimination(self, rows):
        assert matrix_rank(rows) == fraction_rank(rows)

    def test_full_and_deficient(self):
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([[2, 4], [1, 2]]) == 1
        assert matrix_rank([[0, 1, 0], [0, 2, 0]]) == 1


def faces(*triples):
    """Bitmasks of faces given as strings of 1-based vertex digits."""
    return [sum(1 << (int(v) - 1) for v in t) for t in triples]


class TestReducedHomology:
    def test_real_projective_plane_acyclic_over_q(self):
        """The 6-vertex RP^2 has H_1 = Z/2, so its reduced homology over Q
        vanishes; a rank mod 2, or one that drops non-unit pivots, gives
        H~_1 = H~_2 = 1."""
        rp2 = faces("124", "126", "135", "136", "145", "234", "235", "256", "346", "456")
        assert _reduced_homology_ranks(rp2) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_tetrahedron_boundary_is_a_sphere(self):
        sphere = faces("123", "124", "134", "234")
        assert _reduced_homology_ranks(sphere) == {-1: 0, 0: 0, 1: 0, 2: 1}


class TestHilbertNumerator:
    def test_zero_ideal(self):
        assert hilbert_numerator(I()) == {0: 1}

    def test_principal(self):
        assert hilbert_numerator(I((1, 0))) == {0: 1, 1: -1}

    def test_two_coprime(self):
        assert hilbert_numerator(I((0, 1, 0), (1, 0, 1))) == {0: 1, 1: -1, 2: -1, 3: 1}

    def test_against_dimension_count(self):
        """Dual route: expand N(t)/(1-t)^n and compare with an exhaustive
        count of standard monomials degree by degree."""
        rng = random.Random(23)
        nvars, max_deg = 3, 8
        for _ in range(25):
            gens = [
                tuple(rng.randint(0, 3) for _ in range(nvars))
                for _ in range(rng.randint(1, 5))
            ]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            ideal = I(*gens)
            numerator = hilbert_numerator(ideal)
            for d in range(max_deg + 1):
                predicted = sum(
                    c * math.comb(nvars - 1 + d - j, nvars - 1)
                    for j, c in numerator.items()
                    if j <= d
                )
                actual = 0
                for combo in itertools.combinations_with_replacement(range(nvars), d):
                    exps = [0] * nvars
                    for i in combo:
                        exps[i] += 1
                    if not ideal.contains(Monomial(tuple(exps))):
                        actual += 1
                assert predicted == actual


class TestLinearResolution:
    def test_variables(self):
        assert has_linear_resolution(I((1, 0), (0, 1)))

    def test_squares_not_linear(self):
        assert not has_linear_resolution(I((2, 0), (0, 2)))

    def test_path4_cover_ideal_linear(self):
        assert has_linear_resolution(I((1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1)))

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            has_linear_resolution(I((1, 0), (0, 2)))


class TestComponentwise:
    def test_two_coprime_is_componentwise(self):
        assert is_componentwise_linear(I((0, 1, 0), (1, 0, 1)))

    def test_squares_not_componentwise(self):
        assert not is_componentwise_linear(I((2, 0), (0, 2)))

    def test_variable_generated(self):
        assert is_componentwise_linear(I((1, 0, 0), (0, 0, 1)))

    def test_degree_component_contents(self):
        ideal = I((0, 1, 0), (1, 0, 1))
        comp = degree_component(ideal, 2, 3)
        assert set(comp.generators) == {
            Monomial((1, 1, 0)),
            Monomial((0, 2, 0)),
            Monomial((0, 1, 1)),
            Monomial((1, 0, 1)),
        }

    def test_degree_component_below_generators_is_zero(self):
        ideal = I((2, 0), (0, 2))
        assert degree_component(ideal, 1, 2).is_zero()

    @settings(max_examples=200, deadline=None)
    @given(small_ideals)
    @example(I((2, 0), (0, 2)))  # reg 3 > D = 2
    @example(I((0, 2, 0), (0, 0, 2), (1, 1, 1)))  # reg 3 = D, (y^2, z^2) not linear
    @example(I((1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1)))  # equigenerated, linear
    def test_agrees_with_reference(self, ideal):
        with cap_lifted():
            assert is_componentwise_linear(ideal) == reference_componentwise(ideal)

    @settings(max_examples=100, deadline=None)
    @given(small_ideals)
    @example(I((2, 0), (0, 2)))
    @example(I((0, 2, 0), (0, 0, 2), (1, 1, 1)))
    @example(I((1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1)))
    def test_components_only_below_top_degree(self, ideal):
        """Components are built in ascending degree from the least generator
        degree, all below the top one D, none when reg > D or the ideal is
        equigenerated, and all of them when the verdict is True."""
        calls = []

        def counted(of, d, nvars):
            calls.append(d)
            return degree_component(of, d, nvars)

        with cap_lifted() as mp:
            mp.setattr(betti, "degree_component", counted)
            table = betti_numbers(ideal)
            verdict = is_componentwise_linear(ideal, table)
        if ideal.is_zero():
            assert calls == []
            return
        degrees = [g.degree() for g in ideal.generators]
        dmin, top = min(degrees), max(degrees)
        if table.regularity > top or dmin == top:
            assert calls == []
        elif verdict:
            assert calls == list(range(dmin, top))
        else:
            assert calls == list(range(dmin, dmin + len(calls)))
            assert calls and calls[-1] < top


def cover_power(graph, k):
    """The k-th power of graph's cover ideal, from products of its covers."""
    covers = minimal_vertex_covers(graph).monomials()
    products = itertools.combinations_with_replacement(covers, k)
    return MonomialIdeal.make(reduce(Monomial.mul, combo) for combo in products)


# the six powers whose verdict the generator cap hid before the oracle
# stopped building components at and above the top generator degree
NEWLY_JUDGED = (
    (("--path", "5"), path_graph(5), 2),
    (("--biclique", "2", "2", "2"), biclique_graph(2, 2, 2), 1),
    (("--path", "6"), path_graph(6), 1),
    (("--path", "8"), path_graph(8), 1),
    (("--cw", "p=2", "q=1"), cameron_walker_graph((2,), (1,)), 1),
    (("--cw", "p=1,1", "q=0"), cameron_walker_graph((1, 1), (0,)), 2),
)


@pytest.mark.parametrize(
    "argv, graph, k", NEWLY_JUDGED, ids=[f"{' '.join(a)} k={k}" for a, _, k in NEWLY_JUDGED]
)
def test_cli_verdict_matches_uncapped_reference(capsys, argv, graph, k):
    main(["rees", *argv, "--k", str(k)])
    verdict = json.loads(capsys.readouterr().out)["oracle_componentwise"]
    assert verdict is not None
    with cap_lifted():
        assert verdict == reference_componentwise(cover_power(graph, k))


# powers certified with a non-quadratic initial ideal: CW p=1,1 q=0 at
# k = 1 and CW p=1,1 q=1,1 have linear quotients in their printed
# nondecreasing degree, CW p=1,1 q=0 at k = 2, 3 only over the images
# sorted by degree with the redundant ones skipped
NEWLY_CERTIFIED = (
    *((("--cw", "p=1,1", "q=0"), cameron_walker_graph((1, 1), (0,)), k) for k in (1, 2, 3)),
    *((("--cw", "p=1,1", "q=1,1"), cameron_walker_graph((1, 1), (1, 1)), k) for k in (1, 2, 3)),
)


@pytest.mark.parametrize(
    "argv, graph, k", NEWLY_CERTIFIED, ids=[f"{' '.join(a)} k={k}" for a, _, k in NEWLY_CERTIFIED]
)
def test_new_route_agrees_with_uncapped_oracle(capsys, argv, graph, k):
    assert main(["rees", *argv, "--k", str(k)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] == "nondecreasing-linear-quotients"
    power = cover_power(graph, k)
    with cap_lifted():
        table = betti_numbers(power)
        assert is_componentwise_linear(power, table) is True
    assert out["betti"] == betti_payload(table)


class TestBettiTable:
    def test_from_dict_drops_zeros_and_sorts(self):
        t = BettiTable.from_dict({(1, 3): 0, (0, 2): 2, (1, 4): 1})
        assert t.entries == (((0, 2), 2), ((1, 4), 1))
        assert dict(t.entries)[(1, 4)] == 1
        assert (5, 5) not in dict(t.entries)
