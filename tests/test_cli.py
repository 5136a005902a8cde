"""End-to-end command tests: payload shapes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from xcond import cli
from xcond.betti import BettiTable
from xcond.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def run_module(*argv):
    """`python -m xcond` in a fresh interpreter that imports the same
    package as these tests, whether or not PYTHONPATH names it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "xcond", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


C4 = "v1 v2\nv2 v3\nv3 v4\nv1 v4\n"


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.graph"
    p.write_text(C4)
    return str(p)


class TestGb:
    def test_single_binomial(self, capsys, tmp_path):
        f = tmp_path / "p3.ideal"
        f.write_text(
            "vars: y1, y2, x1, x2, x3\nlex[y1>y2>x1>x2>x3]\ny1*x2 - y2*x1*x3\n"
        )
        code, payload = run_json(capsys, "gb", str(f))
        assert code == 0
        assert payload == {
            "elements": ["y1*x2 - y2*x1*x3"],
            "initial": ["y1*x2"],
            "order": "lex[y1>y2>x1>x2>x3]",
            "reduced": True,
            "vars": ["y1", "y2", "x1", "x2", "x3"],
        }

    def test_empty_ideal(self, capsys, tmp_path):
        f = tmp_path / "empty.ideal"
        f.write_text("vars: a, b\nlex[a>b]\n")
        code, payload = run_json(capsys, "gb", str(f))
        assert code == 0
        assert payload["elements"] == [] and payload["initial"] == []

    def test_malformed_polynomial(self, capsys, tmp_path):
        f = tmp_path / "bad.ideal"
        f.write_text("vars: a, b\nlex[a>b]\na^2 + $b\n")
        code, out, err = run_cli(capsys, "gb", str(f))
        assert code == 2 and out == ""
        assert "position 6" in err

    def test_zero_denominator(self, capsys, tmp_path):
        f = tmp_path / "zero.ideal"
        f.write_text("vars: a, b\nlex[a>b]\na - 1/0*b\n")
        code, out, err = run_cli(capsys, "gb", str(f))
        assert code == 2 and out == ""
        assert err == f"input error: {f}:3: zero denominator (at position 6)\n"

    def test_missing_header(self, capsys, tmp_path):
        f = tmp_path / "nohdr.ideal"
        f.write_text("lex[a>b]\na - b\n")
        code, _, err = run_cli(capsys, "gb", str(f))
        assert code == 2 and "vars:" in err

    @pytest.mark.parametrize("header,bad", [("vars: a, b-c", "b-c"), ("vars: a, 2b", "2b")])
    def test_unspellable_header_name(self, capsys, tmp_path, header, bad):
        # reported on the header line, not where the order first fails to spell it
        f = tmp_path / "names.ideal"
        f.write_text(f"{header}\nlex[a>b]\na\n")
        code, out, err = run_cli(capsys, "gb", str(f))
        assert code == 2 and out == ""
        assert err == f"input error: {f}:1: bad variable name {bad!r}\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gb", str(tmp_path / "absent.ideal"))
        assert code == 2 and "cannot read" in err

    def test_order_override(self, capsys, tmp_path):
        f = tmp_path / "two.ideal"
        f.write_text("vars: a, b\nlex[a>b]\na - b^3\n")
        code, payload = run_json(capsys, "gb", str(f), "--order", "lex[b>a]")
        assert code == 0
        assert payload["order"] == "lex[b>a]"
        assert payload["initial"] == ["b^3"]

    def test_uncompilable_order_is_input_error(self, capsys, tmp_path):
        # file contexts have a single block, so a two-block order can
        # never compile; that is bad input, not a cap
        f = tmp_path / "blocks.ideal"
        f.write_text("vars: a, b\nblock(u:lex[a]; v:lex[b])\na - b\n")
        code, _, err = run_cli(capsys, "gb", str(f))
        assert code == 2
        assert "input error" in err


class TestRees:
    def test_path5_square(self, capsys):
        code, payload = run_json(capsys, "rees", "--path", "5", "--k", "2")
        assert code == 0
        assert payload["certified"] == "quadratic-initial"
        assert payload["x_condition"] and payload["quadratic"]
        assert payload["minimal"] and payload["linear_quotients"]
        assert payload["betti"]["projdim"] == 2
        assert payload["oracle_betti_match"] is True
        assert payload["generators"] == 4

    @pytest.mark.parametrize(
        "family, k, code, images, report",
        [
            (
                ("--path", "10"),
                "3",
                0,
                246,
                {
                    "betti": {
                        "entries": [
                            [0, 15, 56], [0, 16, 63], [0, 17, 72], [0, 18, 55],
                            [1, 16, 105], [1, 17, 180], [1, 18, 224], [1, 19, 180],
                            [2, 17, 60], [2, 18, 180], [2, 19, 252], [2, 20, 216],
                            [3, 18, 10], [3, 19, 72], [3, 20, 120], [3, 21, 112],
                            [4, 20, 9], [4, 21, 20], [4, 22, 21],
                        ],
                        "projdim": 4,
                        "regularity": 18,
                    },
                    "certified": "quadratic-initial",
                    "generators": 16,
                    "k": 3,
                    "linear_quotients": True,
                    "minimal": True,
                    "nondecreasing": False,
                    "oracle_betti_match": None,
                    "oracle_componentwise": None,
                    "quadratic": True,
                    "x_condition": True,
                },
            ),
            (
                ("--cw", "p=1,1", "q=1,1"),
                "2",
                0,
                156,
                {
                    "betti": {
                        "entries": [
                            [0, 12, 156], [1, 13, 454], [2, 14, 521], [3, 15, 300],
                            [4, 16, 91], [5, 17, 14], [6, 18, 1],
                        ],
                        "projdim": 6,
                        "regularity": 12,
                    },
                    "certified": "nondecreasing-linear-quotients",
                    "generators": 21,
                    "k": 2,
                    "linear_quotients": True,
                    "minimal": True,
                    "nondecreasing": True,
                    "oracle_betti_match": None,
                    "oracle_componentwise": None,
                    "quadratic": False,
                    "x_condition": True,
                },
            ),
        ],
        ids=("p10-k3", "cw-p11-q11-k2"),
    )
    def test_larger_power_certificates(self, capsys, family, k, code, images, report):
        """Every field of two certificates on powers with hundreds of
        images, cheap since the colons run on packed exponents.  The Betti
        table's row 0 counts the images.  CW p=1,1 q=1,1 has no quadratic
        initial ideal, so its label is nondecreasing-linear-quotients."""
        got_code, payload = run_json(capsys, "rees", *family, "--k", k)
        assert (got_code, payload) == (code, report)
        assert sum(n for i, _, n in payload["betti"]["entries"] if i == 0) == images

    def test_k_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "rees", "--path", "5", "--k", "0")
        assert code == 2 and "--k" in err

    def test_cap_exit(self, capsys):
        code, out, err = run_cli(capsys, "rees", "--path", "5", "--pair-cap", "2")
        assert code == 1 and out == ""
        assert "cap exceeded" in err

    def test_biclique_uses_family_fiber_names(self, capsys):
        # the biclique's own vertices y1..yq must not collide with the fiber
        code, payload = run_json(capsys, "rees", "--biclique", "2", "2", "2", "--k", "1")
        assert code == 0
        assert payload["generators"] == 6
        assert payload["certified"] == "quadratic-initial"

    def test_graph_clashing_with_fiber_names(self, capsys, tmp_path):
        f = tmp_path / "clash.graph"
        f.write_text("y1 y2\ny2 y3\n")
        code, out, err = run_cli(capsys, "rees", "--graph", str(f))
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "y1, y2" in err

    def test_graph_using_the_elimination_variable(self, capsys, tmp_path):
        f = tmp_path / "elim.graph"
        f.write_text("_t a\na b\n")
        code, out, err = run_cli(capsys, "xcond", "--graph", str(f))
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "_t" in err


CYCLIC5 = """vars: x1, x2, x3, x4, x5
revlex[x1>x2>x3>x4>x5]
x1 + x2 + x3 + x4 + x5
x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x1
x1*x2*x3 + x2*x3*x4 + x3*x4*x5 + x4*x5*x1 + x5*x1*x2
x1*x2*x3*x4 + x2*x3*x4*x5 + x3*x4*x5*x1 + x4*x5*x1*x2 + x5*x1*x2*x3
x1*x2*x3*x4*x5 - 1
"""
KATSURA4 = """vars: u0, u1, u2, u3, u4
revlex[u0>u1>u2>u3>u4]
u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1
u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 - u0
2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 - u1
2*u0*u2 + u1^2 + 2*u1*u3 + 2*u2*u4 - u2
2*u0*u3 + 2*u1*u2 + 2*u1*u4 - u3
"""


# the fixed eight-vertex graph of the edge-sweep benchmark workload
ANCHOR_8 = "".join(
    f"v{a + 1} v{b + 1}\n"
    for a, b in (
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
        (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3),
    )
)


class TestPairCap:
    """The Gebauer-Moeller pruning and the pair selection fix how many
    S-pairs a run pops: 154 for the graded elimination behind P8, 342
    behind P9, and 107 and 28 for the inhomogeneous cyclic-5 and katsura-4
    under revlex, which keep the order's own selection.  On the Sym side,
    the edge module's basis pops 255 on the edge-sweep anchor graph and 8
    on the 4-cycle.  A cap one below fails loudly; a cap at the count
    gives the full answer."""

    def test_cap_below_the_pop_count_fails_loudly(self, capsys):
        code, out, err = run_cli(capsys, "rees", "--path", "8", "--k", "2", "--pair-cap", "153")
        assert code == 1 and out == ""
        assert err.startswith("cap exceeded: S-pair budget of 153 exhausted")

    def test_cap_at_the_pop_count_gives_the_full_answer(self, capsys):
        code, capped = run_json(capsys, "rees", "--path", "8", "--k", "2", "--pair-cap", "154")
        assert code == 0
        assert capped == run_json(capsys, "rees", "--path", "8", "--k", "2")[1]

    @pytest.mark.parametrize(
        "ideal, pops",
        [(None, 342), (CYCLIC5, 107), (KATSURA4, 28)],
        ids=("p9", "cyclic5", "katsura4"),
    )
    def test_pop_count(self, capsys, tmp_path, ideal, pops):
        argv = ["rees", "--path", "9", "--k", "2"]
        if ideal is not None:
            f = tmp_path / "input.ideal"
            f.write_text(ideal)
            argv = ["gb", str(f)]
        code, out, err = run_cli(capsys, *argv, "--pair-cap", str(pops - 1))
        assert code == 1 and out == ""
        assert err.startswith(f"cap exceeded: S-pair budget of {pops - 1} exhausted")
        code, capped = run_json(capsys, *argv, "--pair-cap", str(pops))
        assert code == 0
        assert capped == run_json(capsys, *argv)[1]

    @pytest.mark.parametrize(
        "ideal, cap, got",
        [(None, 153, "35 basis elements, degree 18"), (CYCLIC5, 106, "46 basis elements")],
        ids=("graded-p8", "cyclic5"),
    )
    def test_cap_message_says_how_far_the_run_got(self, capsys, tmp_path, ideal, cap, got):
        """A graded run also names the w-degree it was popping."""
        argv = ["rees", "--path", "8", "--k", "2"]
        if ideal is not None:
            f = tmp_path / "input.ideal"
            f.write_text(ideal)
            argv = ["gb", str(f)]
        code, out, err = run_cli(capsys, *argv, "--pair-cap", str(cap))
        assert (code, out) == (1, "")
        assert err == f"cap exceeded: S-pair budget of {cap} exhausted ({got})\n"

    @pytest.mark.parametrize("check", [(), ("--check", "mg")], ids=("listing", "mg"))
    @pytest.mark.parametrize(
        "graph, pops, got",
        [(ANCHOR_8, 255, "49 basis elements, degree 5"), (C4, 8, "6 basis elements, degree 4")],
        ids=("anchor8", "c4"),
    )
    def test_sym_pop_count(self, capsys, tmp_path, check, graph, pops, got):
        """binomial-edge pops as many pairs with or without --check mg."""
        f = tmp_path / "input.graph"
        f.write_text(graph)
        argv = ["binomial-edge", "--graph", str(f), *check]
        code, out, err = run_cli(capsys, *argv, "--pair-cap", str(pops - 1))
        assert (code, out) == (1, "")
        assert err == f"cap exceeded: S-pair budget of {pops - 1} exhausted ({got})\n"
        code, capped = run_json(capsys, *argv, "--pair-cap", str(pops))
        assert code == 0
        assert capped == run_json(capsys, *argv)[1]


class TestXcondCommand:
    @pytest.mark.parametrize(
        "family, generators, initials",
        [(("--path", "12"), 28, 276), (("--cw", "p=1,1", "q=1,1"), 21, 124)],
        ids=("p12", "cw-p11-q11"),
    )
    def test_reach_under_the_default_caps(self, capsys, family, generators, initials):
        """Graded pair selection brings these under the default 200k pair
        cap, in about a second each.  P12's 276 kernel elements agree with
        a saturation of Sym(I), an independent route to the same kernel."""
        code, payload = run_json(capsys, "xcond", *family)
        assert code == 0
        assert payload["generators"] == generators
        assert payload["initial_generators"] == initials

    def test_path_holds(self, capsys):
        code, payload = run_json(capsys, "xcond", "--path", "5")
        assert code == 0
        assert payload == {
            "generators": 4,
            "initial_generators": 5,
            "violations": [],
            "x_condition": True,
        }

    def test_conflicting_specs(self, capsys):
        code, _, err = run_cli(capsys, "xcond", "--path", "5", "--biclique", "1", "1", "1")
        assert code == 2 and "exactly one" in err

    def test_biclique_holds(self, capsys):
        code, payload = run_json(capsys, "xcond", "--biclique", "2", "2", "2")
        assert code == 0
        assert payload["x_condition"] is True
        assert payload["initial_generators"] == 7


class TestPowers:
    def test_kmax_zero(self, capsys):
        code, payload = run_json(capsys, "powers", "--path", "3", "--kmax", "0")
        assert code == 0 and payload["reports"] == []

    def test_path4_certified_through_k3(self, capsys):
        code, payload = run_json(capsys, "powers", "--path", "4", "--kmax", "3")
        assert code == 0
        assert [r["k"] for r in payload["reports"]] == [1, 2, 3]
        assert all(r["certified"] == "quadratic-initial" for r in payload["reports"])

    def test_cw_certificate_gap_closed(self, capsys):
        """The square and the cube of this cover ideal have redundant images
        whose printed degrees decrease.  The colon pass over the images
        sorted by degree keeps the power's minimal generators, and their
        quotients are linear, so every power through k = 3 is certified."""
        code, payload = run_json(capsys, "powers", "--cw", "p=1,1", "q=0", "--kmax", "3")
        assert code == 0
        first, square, cube = payload["reports"]
        assert [r["k"] for r in payload["reports"]] == [1, 2, 3]
        assert all(r["certified"] == "nondecreasing-linear-quotients" for r in payload["reports"])
        assert not square["minimal"] and not square["nondecreasing"]
        assert not cube["minimal"] and not cube["nondecreasing"]
        assert square["betti"] == {
            "entries": [
                [0, 4, 1], [0, 5, 3], [0, 6, 5], [1, 6, 4], [1, 7, 8], [2, 7, 1], [2, 8, 3],
            ],
            "projdim": 2,
            "regularity": 6,
        }
        assert (square["oracle_componentwise"], square["oracle_betti_match"]) == (True, True)
        assert cube["betti"] == {
            "entries": [
                [0, 6, 1], [0, 7, 3], [0, 8, 5], [0, 9, 7], [1, 8, 4], [1, 9, 8],
                [1, 10, 12], [2, 9, 1], [2, 10, 3], [2, 11, 5],
            ],
            "projdim": 2,
            "regularity": 9,
        }
        assert cube["oracle_betti_match"] is True


class TestVerifyFamily:
    def test_biclique(self, capsys):
        code, payload = run_json(capsys, "verify-family", "--biclique", "2", "3", "2")
        assert code == 0
        assert payload["ok"] and payload["claimed"] == 12
        assert payload["missing"] == [] and payload["initial_extra"] == []

    def test_path8_reduction(self, capsys):
        code, payload = run_json(capsys, "verify-family", "--path", "8")
        assert code == 0
        assert payload["ok"] and payload["reduced_match"]
        assert (payload["claimed"], payload["computed"]) == (27, 26)

    def test_cw(self, capsys):
        code, payload = run_json(capsys, "verify-family", "--cw", "p=1", "q=1")
        assert code == 0
        assert payload["initial_match"] and payload["family"] == "cw-1;1"
        assert payload["tags"] == {"cw-1": 2, "cw-2": 1, "cw-3": 2, "cw-5": 1}

    def test_requires_a_family(self, capsys):
        code, _, err = run_cli(capsys, "verify-family")
        assert code == 2 and "exactly one" in err

    def test_bad_cw_spec(self, capsys):
        code, _, err = run_cli(capsys, "verify-family", "--cw", "x=1", "q=1")
        assert code == 2 and "p=" in err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_short_path_is_one_input_error(self, capsys, n):
        code, out, err = run_cli(capsys, "verify-family", "--path", n)
        assert (code, out) == (2, "")
        assert err == "input error: need a path on at least three vertices\n"

    def test_short_path_with_a_second_family(self, capsys):
        code, _, err = run_cli(capsys, "verify-family", "--path", "1", "--cw", "p=1", "q=1")
        assert code == 2 and "exactly one" in err

    @pytest.mark.parametrize("argv", [("rees", "--path", "2"), ("graph-stats", "--path", "2")])
    def test_two_vertex_path_outside_the_catalogue(self, capsys, argv):
        code, payload = run_json(capsys, *argv)
        assert code == 0 and payload


class TestBinomialEdge:
    def test_equivalence_check(self, capsys, c4_file):
        code, payload = run_json(capsys, "binomial-edge", "--graph", c4_file, "--check", "mg")
        assert code == 0
        assert not payload["chordal"] and not payload["x_condition"]
        assert payload["violations"] == ["x1*x4*y3"]
        assert payload["equivalence_ok"] and payload["routes_agree"]

    def test_check_takes_only_mg(self, capsys, c4_file):
        """--check equivalence was an alias of --check mg; argparse now
        refuses it as an invalid choice, exit 2."""
        with pytest.raises(SystemExit) as exc:
            main(["binomial-edge", "--graph", c4_file, "--check", "equivalence"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "invalid choice: 'equivalence'" in captured.err

    def test_basis_listing(self, capsys, c4_file):
        code, payload = run_json(capsys, "binomial-edge", "--graph", c4_file)
        assert code == 0
        assert payload["admissible_paths"] == len(payload["basis"]) == 6
        assert payload["matches_computed"] is True
        assert "x1*x4*y3 - x3*x4*y1" in payload["basis"]

    def test_loop_edge_rejected(self, capsys, tmp_path):
        f = tmp_path / "loop.graph"
        f.write_text("v1 v1\n")
        code, _, err = run_cli(capsys, "binomial-edge", "--graph", str(f))
        assert code == 2 and "loop" in err

    def test_oversize_graph_is_a_cap(self, capsys, tmp_path):
        f = tmp_path / "long.graph"
        f.write_text("".join(f"v{i:02d} v{i + 1:02d}\n" for i in range(1, 11)))
        code, _, err = run_cli(capsys, "binomial-edge", "--graph", str(f))
        assert code == 1 and "cap exceeded" in err

    @pytest.mark.parametrize("check", [[], ["--check", "mg"]])
    def test_pair_cap_is_honoured(self, capsys, c4_file, check):
        code, out, err = run_cli(
            capsys, "binomial-edge", "--graph", c4_file, *check, "--pair-cap", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith("cap exceeded: ")


class TestCycleComplex:
    def test_r5(self, capsys):
        code, payload = run_json(capsys, "cycle-complex", "--r", "5")
        assert code == 0
        assert payload["ok"] and payload["witness_minor"] == "x1*x2*x3*x4"
        assert payload["betti"] == [5, 5, 1]
        assert payload["linear_resolution"] is False

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "cycle-complex", "--r", "3")
        assert code == 2 and "between 4 and 7" in err


class TestGraphStats:
    def test_path4(self, capsys):
        code, payload = run_json(capsys, "graph-stats", "--path", "4")
        assert code == 0
        assert payload["chordal"] and payload["connected"]
        assert payload["peo"] == ["x1", "x2", "x3", "x4"]
        assert payload["cover_ideal"] == ["x1*x3", "x2*x3", "x2*x4"]
        assert payload["depth_lower_bound"] == 3
        assert payload["profile"]["dim_sym"] == 5

    def test_graph_file_vertices_sorted(self, capsys, tmp_path):
        f = tmp_path / "star.graph"
        f.write_text("hub a\nhub b\n")
        code, payload = run_json(capsys, "graph-stats", "--graph", str(f))
        assert code == 0
        assert payload["chordal"]
        assert payload["edges"] == [["a", "hub"], ["b", "hub"]]

    @pytest.mark.parametrize(
        "text,name", [("a*b c\n", "a*b"), ("1 2\n2 3\n", "1"), ("x-1 y\n", "x-1")]
    )
    def test_vertex_name_must_be_a_variable_name(self, capsys, tmp_path, text, name):
        # a vertex becomes a variable of the cover ideal, which would print
        # "1*3" or "x-1" unreadably
        f = tmp_path / "bad.graph"
        f.write_text(text)
        code, out, err = run_cli(capsys, "graph-stats", "--graph", str(f))
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and f"bad vertex name {name!r}" in err


class TestOutput:
    def test_byte_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, "rees", "--path", "4", "--k", "2")
        code2, out2, _ = run_cli(capsys, "rees", "--path", "4", "--k", "2")
        assert (code1, out1) == (code2, out2)

    def test_out_file_matches_json(self, capsys, tmp_path):
        dest = tmp_path / "r4.json"
        code, out, _ = run_cli(capsys, "cycle-complex", "--r", "4", "--out", str(dest))
        assert code == 0
        assert dest.read_text() == out

    def test_report_payload_reads_fields_and_verdicts(self):
        @dataclass(frozen=True)
        class Report:
            labels: tuple
            betti: object
            route: object

            @property
            def ok(self):
                return not self.labels

        table = BettiTable.from_dict({(0, 2): 3, (1, 3): 2})
        assert cli.report_payload(Report(("a", "b"), table, None)) == {
            "labels": ["a", "b"],
            "betti": {"entries": [[0, 2, 3], [1, 3, 2]], "projdim": 1, "regularity": 2},
            "route": None,
            "ok": False,
        }

    def test_pretty_is_a_table(self, capsys, tmp_path):
        dest = tmp_path / "p.json"
        code, out, _ = run_cli(
            capsys, "graph-stats", "--path", "4", "--pretty", "--out", str(dest)
        )
        assert code == 0
        lines = out.splitlines()
        assert all("  " in line for line in lines)
        assert any(line.startswith("chordal") and line.endswith("true") for line in lines)
        assert json.loads(dest.read_text())["chordal"] is True

    def test_shared_parser_keeps_no_state(self, capsys, c4_file):
        calls = [
            ("verify-family", "--cw", "p=1", "q=1", "--pair-cap", "100000"),
            ("graph-stats", "--path", "4", "--pretty"),
            ("binomial-edge", "--graph", c4_file),
            ("rees", "--path", "5", "--pair-cap", "2"),
            ("verify-family", "--path", "5"),
        ]
        fresh = []
        for argv in calls:
            proc = run_module(*argv)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [run_cli(capsys, *argv) for argv in calls] == fresh

    def test_internal_errors_are_not_caps(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("internal bug")

        monkeypatch.setitem(cli.DISPATCH, "graph-stats", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["graph-stats", "--path", "4"])
        assert capsys.readouterr() == ("", "")

    def test_module_entry_point(self):
        proc = run_module("cycle-complex", "--r", "4")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True
