"""Every imported name in the package and its tests is referenced."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from xcond import cli
from xcond.graphs import path_graph
from xcond.groebner import Ideal
from xcond.symalg import edge_module

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "xcond").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _string_annotation_names(annotation):
    """Names inside the quoted parts of an annotation, e.g. "str | None"."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
        for annotation in annotations:
            used.update(_string_annotation_names(annotation))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a import b, c as d, e\n"
        "x: 'e | None' = sys.argv\n"
        "d()\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "b")]


# ---------------------------------------------------------------------------
# dead definitions: every module-level function, class or assigned name and
# every method in the package is referenced somewhere else in the package,
# or listed here with its reason
# ---------------------------------------------------------------------------

LIBRARY_ONLY = (
    ("has_chordless_cycle", "exhaustive chordality oracle for the criterion-6 tests"),
    ("all_connected_graphs", "labeled enumeration behind criterion 6"),
    ("connected_graph_representatives", "isomorphism classes behind criterion 6"),
    ("divide", "textbook division, the oracle for normal_form"),
    ("standard_rewrites", "the paper's rewrite check for standard monomials"),
    ("colon_cross_check", "the paper's colon-ideal check of linear quotients"),
    ("is_chordal", "kept only because the benchmark tracer wraps it; it is peo(graph) is not None"),
    ("Polynomial.is_binomial_pm1", "the toric shape the Rees kernel tests assert"),
    ("Polynomial.scale", "rescales the inputs of the reduced-basis uniqueness tests"),
)
PACKAGE = sorted((ROOT / "src" / "xcond").glob("*.py"))


def _referenced(nodes):
    """Names read by the nodes, an attribute as ".attr"; a name only bound
    (an assignment target, a dataclass field) is not a use."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield "." + sub.attr


def _uses(name):
    """The references that keep a definition alive: a module-level name
    read bare or as an attribute, a method "Class.method" only as an
    attribute, and either one by its listed name."""
    cls, _, method = name.rpartition(".")
    return {name, "." + method} if cls else {name, "." + name}


def _is_property(node):
    return any(
        isinstance(d, ast.Name) and d.id in ("property", "cached_property")
        for d in node.decorator_list
    )


def _defined(node):
    """(name, nodes) of each definition a module-level statement makes,
    nodes holding what the definition reads: a def or class, each method
    of a class body as "Class.method", or the plain names an assignment
    binds.  Dunders (__all__, __init__, ...) are called or read implicitly
    and properties reflectively, so they are not definitions; their reads
    belong to the class."""
    if isinstance(node, ast.FunctionDef):
        return [(node.name, [node])]
    if isinstance(node, ast.ClassDef):
        methods = [
            sub
            for sub in node.body
            if isinstance(sub, ast.FunctionDef)
            and not sub.name.startswith("__")
            and not _is_property(sub)
        ]
        rest = [sub for sub in node.body if sub not in methods]
        return [(node.name, rest + node.bases + node.decorator_list)] + [
            (f"{node.name}.{sub.name}", [sub]) for sub in methods
        ]
    if isinstance(node, ast.Assign | ast.AnnAssign):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            (sub.id, [node])
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not sub.id.startswith("__")
        ]
    return []


def dead_definitions(sources, allowed=()):
    """(module, name) of each module-level def, class, method or assigned
    name that nothing but itself or another dead definition references,
    repeated to a fixpoint."""
    defs = {}
    top_level = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            defined = _defined(node)
            if not defined:
                top_level.append(node)
            for name, nodes in defined:
                reads = set(_referenced(nodes)) - _uses(name)
                defs.setdefault((module, name), set()).update(reads)
    roots = set(_referenced(top_level)) | set(allowed)
    dead = set(defs)
    while True:
        live = roots.union(*(defs[d] for d in defs if d not in dead))
        still = {d for d in dead if not _uses(d[1]) & live}
        if still == dead:
            return sorted(dead)
        dead = still


def package_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}


def test_no_dead_definitions():
    assert dead_definitions(package_sources(), [name for name, _ in LIBRARY_ONLY]) == []


def test_every_exception_is_needed():
    # a listed name that the package itself starts to use leaves the list
    dead = {name for _, name in dead_definitions(package_sources())}
    assert [name for name, _ in LIBRARY_ONLY if name not in dead] == []


def test_dead_scan_follows_chains():
    sources = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    return 1\n\nused()\n",
        "b": "class Report:\n    pass\n\ndef report():\n    return Report()\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n",
    }
    assert dead_definitions(sources) == [("b", "Report"), ("b", "recursive"), ("b", "report")]
    assert dead_definitions(sources, ["report"]) == [("b", "recursive")]
    # a field or an assignment only binds the name: the function stays dead
    sources["c"] = (
        "class Verdict:\n    checked: bool\n\ndef checked():\n    return 1\n\n"
        "Verdict(checked=True)\nchecked = 2\n"
    )
    assert ("c", "checked") in dead_definitions(sources)
    assert ("c", "Verdict") not in dead_definitions(sources)
    # module-level assignments are definitions too: a pattern left behind
    # by a refactor is dead, and so is a constant only a dead one reads
    sources = {
        "d": 'import re\n__all__ = ["parse"]\nNAME = "[a-z]+"\n_NAME_RE = re.compile(NAME)\n'
        '_INT_RE, _WS_RE = re.compile("[0-9]+"), re.compile(" +")\n_TABLE: dict = {}\n'
        "def parse(text):\n    return _TABLE.get(text, _WS_RE.match(text))\n\nparse('')\n",
    }
    assert dead_definitions(sources) == [("d", "NAME"), ("d", "_INT_RE"), ("d", "_NAME_RE")]
    # methods are definitions too, kept alive only by an attribute of their
    # name (the module-level name unused does not keep Box.unused alive);
    # dunders and properties are not, since nothing calls them by name
    sources = {
        "e": "class Box:\n    def __init__(self):\n        self.v = self.reset()\n\n"
        "    def reset(self):\n        return 0\n\n"
        "    @property\n    def shown(self):\n        return self.v\n\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.orphan()\n\n"
        "    def orphan(self):\n        return 2\n\n"
        "unused = 0\nBox().used() + unused\n",
    }
    assert dead_definitions(sources) == [("e", "Box.orphan"), ("e", "Box.unused")]
    assert dead_definitions(sources, ["Box.unused"]) == []


# ---------------------------------------------------------------------------
# dead fields: every field of a package dataclass is read as an attribute
# somewhere in the package, or its class is listed here with its reason
# ---------------------------------------------------------------------------

PRINTED_FIELD_BY_FIELD = (
    ("VerificationReport", "verify-family's JSON: cli.report_payload prints every field"),
    ("CertificateReport", "rees and powers JSON: cli.report_payload prints every field"),
    ("EquivalenceReport", "binomial-edge --check JSON: cli.report_payload prints every field"),
    ("CycleComplexReport", "cycle-complex JSON: cli.report_payload prints every field"),
)


def _is_dataclass(node):
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def unread_fields(sources, exempt=()):
    """(module, "Class.field") of each field of a module-level dataclass,
    outside the exempt classes, that no source reads as an attribute of
    that name; assigning an attribute or passing a keyword is not a read."""
    fields = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name not in exempt:
                fields += [
                    (module, node.name, sub.target.id)
                    for sub in node.body
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                ]
    return sorted((module, f"{cls}.{name}") for module, cls, name in fields if name not in read)


def test_no_unread_fields():
    """A field counts as read when any attribute of its name is loaded
    anywhere in the package, so a field sharing its name with a read field
    of another class slips through: ClaimedBasis.family stayed unread
    because Graph.family is read."""
    exempt = [name for name, _ in PRINTED_FIELD_BY_FIELD]
    assert unread_fields(package_sources(), exempt) == []


def test_every_field_exemption_is_needed():
    # a listed class whose fields the package all reads leaves the list
    unread = {name.partition(".")[0] for _, name in unread_fields(package_sources())}
    assert [name for name, _ in PRINTED_FIELD_BY_FIELD if name not in unread] == []


def test_field_scan_reads_only_loads():
    sources = {
        "a": "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Shown:\n    kept: int\n    written: int\n"
        "    passed: int\n    LIMIT = 3\n\n"
        "@dataclass\nclass Printed:\n    silent: int\n\n"
        "class Plain:\n    untyped: int\n",
        "b": "def use(s, p):\n    s.written = s.kept\n    return Shown(1, 2, passed=3)\n",
    }
    assert unread_fields(sources) == [
        ("a", "Printed.silent"),
        ("a", "Shown.passed"),
        ("a", "Shown.written"),
    ]
    assert unread_fields(sources, ["Printed"]) == [("a", "Shown.passed"), ("a", "Shown.written")]


# ---------------------------------------------------------------------------
# self-checks survive python -O: the package raises AssertionError itself
# and has no assert statement, which -O strips
# ---------------------------------------------------------------------------


def bare_asserts(sources):
    """(module, line) of each assert statement."""
    return sorted(
        (module, node.lineno)
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    )


def test_no_bare_asserts():
    assert bare_asserts(package_sources()) == []


def test_assert_scan_flags_only_assert_statements():
    sources = {
        "a": "def check(x):\n    assert x, 'stripped by -O'\n"
        "    if not x:\n        raise AssertionError('kept under -O')\n",
    }
    assert bare_asserts(sources) == [("a", 2)]


# ---------------------------------------------------------------------------
# the benchmark tracer wraps package functions by name: a rename would
# leave its spans empty without an error, so every name it wraps resolves
# ---------------------------------------------------------------------------


def tracer_module():
    """perfbench/spans.py, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    spans = tracer_module()
    wrapped = [target[:2] for target in spans.TARGETS] + [spans.COUNTED]
    missing = [
        (module, name)
        for module, name in wrapped
        if not callable(getattr(importlib.import_module(f"xcond.{module}"), name, None))
    ]
    assert missing == []


def test_tracer_runs_the_cli(tmp_path, capsys):
    """A traced pass in miniature: under the tracer, gb, rees and
    binomial-edge --check mg run through cli.main; every
    groebner.buchberger span is sized by its op's generator count, the
    Rees kernel checks find nothing and no span raised."""
    spans = tracer_module()
    ideal = tmp_path / "toy.ideal"
    ideal.write_text("vars: a, b, c\nrevlex[a>b>c]\na*c - b^2\nb*c - a\n")
    c4 = tmp_path / "c4.graph"
    c4.write_text("v1 v2\nv2 v3\nv3 v4\nv1 v4\n")
    ops = (  # argv, generator count
        (["gb", str(ideal)], 2),
        (["rees", "--path", "5", "--k", "1"], 4),  # one y_j - u_j*t per minimal cover
        (["binomial-edge", "--graph", str(c4), "--check", "mg"], 4),  # one per edge
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, (argv, _) in enumerate(ops):
            tracer.op = i
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = tracer.spans
    buchberger = [s for s in recorded if s[spans.NAME] == "groebner.buchberger"]
    sizes = [(s[spans.OP], s[spans.IN_SIZE]) for s in buchberger]
    assert [op for op, _ in sizes] == [0, 1, 2]
    assert [size for _, size in sizes] == [count for _, count in ops]
    labelled = [SimpleNamespace(label=" ".join(argv), kernel_size=None) for argv, _ in ops]
    assert spans.kernel_checks(recorded, labelled) == []
    assert [s for s in recorded if s[spans.OUT_SIZE] == spans.RAISED] == []


def test_tracer_reads_ideal_generators():
    """groebner.buchberger's span sizes its input by len(ideal.generators)."""
    assert "generators" in {f.name for f in dataclasses.fields(Ideal)}
    ideal = edge_module(path_graph(4))
    assert tracer_module()._gb_input((ideal,), {}) == len(ideal.generators) == 3
