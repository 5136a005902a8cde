"""End-to-end command tests: payload shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from xcond.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.graph"
    p.write_text("v1 v2\nv2 v3\nv3 v4\nv1 v4\n")
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

    def test_missing_header(self, capsys, tmp_path):
        f = tmp_path / "nohdr.ideal"
        f.write_text("lex[a>b]\na - b\n")
        code, _, err = run_cli(capsys, "gb", str(f))
        assert code == 2 and "vars:" in err

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

    def test_k_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "rees", "--path", "5", "--k", "0")
        assert code == 2 and "--k" in err

    def test_cap_exit(self, capsys):
        code, out, err = run_cli(capsys, "rees", "--path", "5", "--pair-cap", "2")
        assert code == 1 and out == ""
        assert "cap exceeded" in err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("XCOND_PAIR_CAP", "2")
        code, _, err = run_cli(capsys, "rees", "--path", "5")
        assert code == 1 and "cap exceeded" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("XCOND_PAIR_CAP", "2")
        code, payload = run_json(
            capsys, "rees", "--path", "5", "--pair-cap", "100000"
        )
        assert code == 0 and payload["certified"]

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


class TestXcondCommand:
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


class TestBinomialEdge:
    def test_equivalence_check(self, capsys, c4_file):
        code, payload = run_json(capsys, "binomial-edge", "--graph", c4_file, "--check", "mg")
        assert code == 0
        assert not payload["chordal"] and not payload["x_condition"]
        assert payload["violations"] == ["x1*x4*y3"]
        assert payload["equivalence_ok"] and payload["routes_agree"]

    def test_basis_listing(self, capsys, c4_file):
        code, payload = run_json(capsys, "binomial-edge", "--graph", c4_file)
        assert code == 0
        assert payload["admissible_paths"] == 6
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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xcond", "cycle-complex", "--r", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True
