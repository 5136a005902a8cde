"""Claimed bases for bicliques, paths, and Cameron-Walker graphs."""

import dataclasses
import hashlib

import pytest

from xcond.families import (
    biclique_claimed,
    biclique_fiber_names,
    cw_claimed,
    path_claimed,
    verify_claim,
)
from xcond.graphs import cameron_walker_graph, path_graph
from xcond.ring import Monomial, render_monomial, render_polynomial


def renders(claim):
    return sorted(
        render_polynomial(p, claim.extended) for p in claim.distinct_polynomials()
    )


def fiber_monomial(claim, positions, base_names=()):
    """Build a monomial from one-based cover positions and base variable names."""
    nf = len(claim.fiber_names)
    pairs = [(r - 1, 1) for r in positions]
    pairs += [(nf + claim.base.index(name), 1) for name in base_names]
    return Monomial.from_pairs(pairs, claim.extended.nvars)


def claim_digest(claim):
    """sha256 of the claim in emission order: its fiber names, each element's
    tag, polynomial and designated initial, then the catalogued initials."""
    ext = claim.extended
    lines = [",".join(claim.fiber_names)]
    lines += [
        f"{e.tag}|{render_polynomial(e.polynomial, ext)}|{render_monomial(e.initial, ext)}"
        for e in claim.elements
    ]
    lines += [render_monomial(m, ext) for m in claim.claimed_initials]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# every catalogue's output pinned element by element; a refactor of the
# builders that changes a name, a tag, an element or its position fails here
CLAIM_DIGESTS = [
    ("P3", lambda: path_claimed(3), "d5ca9b58f1470c69395abda7e99ac6158eae327846bebc538f447371becd2c60"),
    ("P4", lambda: path_claimed(4), "43298546b9d4d3f87315a9382579b2d2833cafe78546ad5595129ff9bb26986b"),
    ("P5", lambda: path_claimed(5), "0fd5ba98677edd31b6938513901431ee9a880d9f71d4b8dd54e199efe890c6dc"),
    ("P6", lambda: path_claimed(6), "9cab051fc14462769e2c3452d5321e73b67afc4fd0424d9509a2160cb87f677c"),
    ("P7", lambda: path_claimed(7), "70ba81d712197cea9e34d1a438effcd03e29cc22ee0f5ff457e07c9659a61d99"),
    ("P8", lambda: path_claimed(8), "c57bed7cfc3184bbd9639e5bf3863ea2dcd8c1a127b93f53d5440d1845ef3276"),
    ("P9", lambda: path_claimed(9), "4c1db56ecc2d6ac37ff51c9249f6e3a3e0a5ad04fe046238730986c568805318"),
    ("K111", lambda: biclique_claimed(1, 1, 1), "1c507cbb9ed240603ccb58534ab57bb78cdd94db0522331285c95d6fed4cb92d"),
    ("K222", lambda: biclique_claimed(2, 2, 2), "775e7ba73e4520451a0b53f137aae045df2ab08259b264ff8a097a9f05177d10"),
    ("K232", lambda: biclique_claimed(2, 3, 2), "c582e99c4a107d1b5b932c627ffaeac89e91e8e0410be515406738cc7f1119d8"),
    ("CW1-1", lambda: cw_claimed(cameron_walker_graph((1,), (1,))), "98b56821a4c9a9b06d3b002ce906f44d27d86c39f0ad120ea7a0c0d36703fa01"),
    ("CW2-1", lambda: cw_claimed(cameron_walker_graph((2,), (1,))), "6fed8e0edc0d89ef4c61ca5c7b80ea2c357d674989ef3c8da5b94a5b41677965"),
    ("CW11-0", lambda: cw_claimed(cameron_walker_graph((1, 1), (0,))), "15df8dbf811b98fda811c7de57b3264d1d8d587a8b8aed1a76e21e1e5ebd861d"),
    ("CW11-1", lambda: cw_claimed(cameron_walker_graph((1, 1), (1,))), "9f30ca23dbade58aa10671be087532f006cd39d990bf5e18f8af3a28975a6511"),
]


@pytest.mark.parametrize("build,digest", [c[1:] for c in CLAIM_DIGESTS], ids=[c[0] for c in CLAIM_DIGESTS])
def test_claim_is_pinned(build, digest):
    assert claim_digest(build()) == digest


class TestBiclique:
    def test_fiber_names_list_psi_with_descending_k(self):
        assert biclique_fiber_names(2, 2, 2) == (
            "phi1",
            "phi2",
            "psi1_2",
            "psi1_1",
            "psi2_2",
            "psi2_1",
        )

    def test_smallest_case_is_one_binomial(self):
        claim = biclique_claimed(1, 1, 1)
        assert renders(claim) == ["phi1*x1 - psi1_1*y1*z1"]
        assert claim.tag_counts() == {"x-phi": 1}

    @pytest.mark.parametrize(
        "shape,total,tags",
        [
            ((1, 1, 1), 1, {"x-phi": 1}),
            ((2, 2, 2), 7, {"x-phi": 2, "y-psi": 2, "z-psi": 2, "psi-psi": 1}),
            ((2, 3, 2), 12, {"x-phi": 2, "y-psi": 4, "z-psi": 3, "psi-psi": 3}),
            ((3, 2, 2), 8, {"x-phi": 3, "y-psi": 2, "z-psi": 2, "psi-psi": 1}),
        ],
    )
    def test_shapes_and_full_verification(self, shape, total, tags):
        claim = biclique_claimed(*shape)
        assert len(claim.elements) == total
        assert claim.tag_counts() == tags
        report = verify_claim(claim)
        assert report.membership_ok
        assert report.spair_ok
        assert report.initial_match
        assert report.reduced_match

    def test_every_element_is_a_distinct_binomial(self):
        claim = biclique_claimed(2, 3, 2)
        polys = claim.polynomials()
        assert len(set(polys)) == len(polys)
        assert all(len(p.terms) == 2 for p in polys)


class TestPath:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            path_claimed(2)

    def test_p3_single_double_step(self):
        claim = path_claimed(3)
        assert renders(claim) == ["y1*x2 - y2*x1*x3"]
        assert claim.tag_counts() == {"path-2": 1}

    def test_p4_p5_exact_lists(self):
        assert renders(path_claimed(4)) == [
            "y1*x2 - y2*x1",
            "y2*x4 - y3*x3",
        ]
        assert renders(path_claimed(5)) == [
            "y1*x2 - y4*x1*x3",
            "y1*x5 - y2*x4",
            "y1*y3 - y2*y4*x3",
            "y2*x2 - y3*x1",
            "y3*x4 - y4*x3*x5",
        ]

    @pytest.mark.parametrize(
        "n,tags",
        [
            (3, {"path-2": 1}),
            (4, {"path-1": 2}),
            (5, {"path-1": 2, "path-2": 2, "path-4": 1}),
            (6, {"path-1": 3, "path-2": 2, "path-4": 1, "path-5": 1}),
            (7, {"path-1": 6, "path-2": 3, "path-3": 1, "path-4": 4, "path-5": 1}),
            (8, {"path-1": 7, "path-2": 6, "path-3": 2, "path-4": 8, "path-5": 4}),
        ],
    )
    def test_tag_counts(self, n, tags):
        assert path_claimed(n).tag_counts() == tags

    @pytest.mark.parametrize("n", range(3, 9))
    def test_full_verification(self, n):
        claim = path_claimed(n)
        report = verify_claim(claim)
        assert report.membership_ok
        assert report.spair_ok
        assert report.initial_match
        assert report.reduced_match
        assert report.ok

    P8_CLAIMED = [
        "y1*x2 - y8*x1*x3",
        "y1*x5 - y4*x4*x6",
        "y1*x8 - y2*x7",
        "y1*y3 - y2*y4*x6",
        "y1*y5 - y2*y6*x6",
        "y1*y5 - y3*y8*x3",
        "y1*y6 - y4*y8*x3",
        "y1*y7 - y4*y8*x4",
        "y1*y9 - y2*y8",
        "y2*x2 - y9*x1*x3",
        "y2*x5 - y3*x4",
        "y2*y5 - y3*y9*x3",
        "y2*y6 - y4*y9*x3",
        "y2*y7 - y4*y9*x4",
        "y3*x2 - y5*x1",
        "y3*x7 - y4*x6*x8",
        "y3*y6 - y4*y5",
        "y3*y7 - y4*y9*x5",
        "y3*y8 - y4*y9*x6",
        "y4*x2 - y6*x1",
        "y5*x4 - y9*x3*x5",
        "y5*x7 - y6*x6*x8",
        "y5*y7 - y6*y9*x5",
        "y5*y8 - y6*y9*x6",
        "y6*x4 - y7*x3",
        "y7*x6 - y8*x5",
        "y8*x8 - y9*x7",
    ]

    def test_p8_exact_claimed_list(self):
        claim = path_claimed(8)
        assert renders(claim) == self.P8_CLAIMED
        assert len(claim.elements) == 27
        assert len(claim.claimed_initials) == 26

    def test_p8_reduction_collapses_the_shared_initial(self):
        # the two binomials with leading monomial y1*y5 collapse to a single
        # element whose tail is their difference, everything else survives
        claim = path_claimed(8)
        presentation = claim.presentation()
        reduced = sorted(
            render_polynomial(g, presentation.extended)
            for g in presentation.gb.elements
        )
        expected = sorted(
            set(self.P8_CLAIMED)
            - {"y1*y5 - y2*y6*x6", "y1*y5 - y3*y8*x3"}
            | {"y1*y5 - y4*y9*x3*x6"}
        )
        assert reduced == expected
        assert len(reduced) == 26

    def test_initials_are_all_quadratic_in_the_fiber_weighting(self):
        for n in range(3, 9):
            claim = path_claimed(n)
            nf = len(claim.fiber_names)
            for mono in claim.claimed_initials:
                fiber_deg = sum(mono.exps[:nf])
                base_deg = sum(mono.exps[nf:])
                assert (fiber_deg, base_deg) in {(1, 1), (2, 0)}


class TestCameronWalker:
    def test_requires_tagged_graph(self):
        with pytest.raises(ValueError):
            cw_claimed(path_graph(4))

    def test_one_leaf_one_triangle(self):
        claim = cw_claimed(cameron_walker_graph((1,), (1,)))
        assert renders(claim) == [
            "y1*c1_1 - y2*b1_1",
            "y1*xi1 - y4*a1_1",
            "y2*xi1 - y5*a1_1",
            "y2*y4 - y1*y5",
            "y3*zeta1 - y5*b1_1",
            "y4*c1_1 - y5*b1_1",
        ]
        assert claim.tag_counts() == {"cw-1": 2, "cw-2": 1, "cw-3": 2, "cw-5": 1}
        report = verify_claim(claim)
        assert report.ok

    def test_two_leaves_one_triangle(self):
        claim = cw_claimed(cameron_walker_graph((2,), (1,)))
        assert renders(claim) == [
            "y1*c1_1 - y2*b1_1",
            "y1*xi1 - y4*a1_1*a1_2",
            "y2*xi1 - y5*a1_1*a1_2",
            "y2*y4 - y1*y5",
            "y3*zeta1 - y5*b1_1",
            "y4*c1_1 - y5*b1_1",
        ]
        assert claim.tag_counts() == {"cw-1": 2, "cw-2": 1, "cw-3": 2, "cw-5": 1}
        report = verify_claim(claim)
        assert report.ok

    def test_two_legs_no_triangle_uses_the_slack_zeta(self):
        # once both xi enter a cover the zeta with no pendant triangle is
        # redundant, so the swap tail picks it up
        claim = cw_claimed(cameron_walker_graph((1, 1), (0,)))
        assert renders(claim) == [
            "y1*xi1 - y3*a1_1",
            "y1*xi2 - y2*a2_1",
            "y2*xi1 - y4*a1_1*zeta1",
            "y2*y3 - y1*y4*zeta1",
            "y3*xi2 - y4*a2_1*zeta1",
        ]
        assert claim.tag_counts() == {"cw-1": 4, "cw-4": 1}
        report = verify_claim(claim)
        assert report.ok

    def test_paired_patterns_order_their_four_indices(self):
        claim = cw_claimed(cameron_walker_graph((1,), (1,)))
        paired = [e for e in claim.elements if e.tag == "cw-5"]
        assert len(paired) == 1
        assert render_polynomial(paired[0].polynomial, claim.extended) == "y2*y4 - y1*y5"


@pytest.fixture(scope="module")
def big_cw():
    return cw_claimed(cameron_walker_graph((3, 1, 2, 1), (2, 0, 1)))


class TestBigCameronWalker:
    """The twenty-vertex instance with p = (3, 1, 2, 1), q = (2, 0, 1)."""

    def test_scale(self, big_cw):
        assert len(big_cw.gens) == 135
        assert len(big_cw.elements) == 11062
        assert big_cw.tag_counts() == {
            "cw-1": 256,
            "cw-2": 8,
            "cw-3": 197,
            "cw-4": 4352,
            "cw-5": 6229,
            "cw-6": 20,
        }
        assert len(big_cw.claimed_initials) == 6827

    @staticmethod
    def cover_position(claim, names):
        target = frozenset(claim.base.index(v) for v in names)
        for pos, mono in enumerate(claim.gens, start=1):
            if frozenset(mono.support()) == target:
                return pos
        raise AssertionError(f"no cover equals {names}")

    def test_named_covers_sit_where_expected(self, big_cw):
        r1 = self.cover_position(
            big_cw,
            ["xi1", "xi4", "zeta1", "zeta2", "zeta3", "a2_1", "a3_1", "a3_2", "b1_1", "c1_2", "c3_1"],
        )
        r2 = self.cover_position(
            big_cw,
            ["xi1", "xi2", "xi3", "xi4", "zeta3", "b1_1", "c1_1", "b1_2", "c1_2", "c3_1"],
        )
        r3 = self.cover_position(
            big_cw,
            ["xi1", "xi2", "xi4", "zeta1", "zeta2", "zeta3", "a3_1", "a3_2", "b1_1", "c1_2", "b3_1"],
        )
        r4 = self.cover_position(
            big_cw,
            ["xi1", "xi3", "xi4", "zeta1", "zeta2", "zeta3", "a2_1", "c1_1", "b1_2", "c3_1"],
        )
        r5 = self.cover_position(
            big_cw,
            ["xi1", "xi2", "xi3", "xi4", "zeta1", "b1_1", "b1_2", "b3_1", "c3_1"],
        )
        assert (r1, r2, r3, r4, r5) == (76, 123, 107, 94, 124)
        assert r3 > r4 and r2 < r5

    def test_expected_initials_are_claimed(self, big_cw):
        catalogued = set(big_cw.claimed_initials)
        assert fiber_monomial(big_cw, [76], ["xi2"]) in catalogued
        assert fiber_monomial(big_cw, [76], ["c1_1"]) in catalogued
        assert fiber_monomial(big_cw, [123], ["zeta1"]) in catalogued
        assert fiber_monomial(big_cw, [107, 94]) in catalogued
        assert fiber_monomial(big_cw, [123, 124]) in catalogued

    def test_leaf_pair_with_nontrivial_slack_tail(self, big_cw):
        lead = fiber_monomial(big_cw, [107, 94])
        hits = sorted(
            (e.tag, render_polynomial(e.polynomial, big_cw.extended))
            for e in big_cw.elements
            if e.initial == lead
        )
        assert hits == [
            ("cw-4", "y94*y107 - y78*y128*zeta2"),
            ("cw-5", "y94*y107 - y90*y111"),
            ("cw-5", "y94*y107 - y93*y108"),
        ]


class TestVerifyClaim:
    def test_sizes_count_the_claim_and_the_computed_basis(self):
        # a dropped element tells the two sizes apart: 4 claimed, 5 computed
        claim = path_claimed(5)
        computed = len(claim.presentation().gb.elements)
        for c in (claim, dataclasses.replace(claim, elements=claim.elements[:-1])):
            report = verify_claim(c)
            assert report.claimed == len(c.distinct_polynomials())
            assert report.computed == computed
        assert report.claimed == computed - 1

    def test_dropped_initial_breaks_only_the_initial_match(self):
        claim = path_claimed(5)
        tampered = dataclasses.replace(
            claim, claimed_initials=claim.claimed_initials[1:]
        )
        report = verify_claim(tampered)
        assert report.membership_ok and report.spair_ok
        assert not report.initial_match
        assert len(report.initial_missing) == 1
        assert report.initial_extra == ()
        assert not report.ok

    def test_dropped_element_breaks_the_reduction(self):
        claim = path_claimed(5)
        tampered = dataclasses.replace(claim, elements=claim.elements[:-1])
        report = verify_claim(tampered)
        assert report.membership_ok
        assert not report.reduced_match
        assert report.missing != ()

    def test_reports_imply_downward(self):
        # reduced_match implies initial_match implies membership and closure
        for build in (
            lambda: path_claimed(6),
            lambda: biclique_claimed(2, 2, 2),
            lambda: cw_claimed(cameron_walker_graph((1,), (1,))),
        ):
            claim = build()
            report = verify_claim(claim)
            if report.reduced_match:
                assert report.initial_match
            if report.initial_match:
                assert report.membership_ok and report.spair_ok
