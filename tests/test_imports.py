"""Every imported name in the package and its tests is referenced."""

import ast
from pathlib import Path

import pytest

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
# dead definitions: every module-level function or class in the package is
# referenced somewhere else in the package, or listed here with its reason
# ---------------------------------------------------------------------------

LIBRARY_ONLY = (
    ("has_chordless_cycle", "exhaustive chordality oracle for the criterion-6 tests"),
    ("all_connected_graphs", "labeled enumeration behind criterion 6"),
    ("connected_graph_representatives", "isomorphism classes behind criterion 6"),
    ("divide", "textbook division, the oracle for normal_form"),
    ("standard_rewrites", "the paper's rewrite check for standard monomials"),
    ("colon_cross_check", "the paper's colon-ideal check of linear quotients"),
    ("weight_order", "builds the order of the weighted certificate route"),
    ("ascending_degree", "the weighted certificate route's sort"),
    ("is_chordal", "wrapped by the benchmark tracer; the oracle for peo"),
)
PACKAGE = sorted((ROOT / "src" / "xcond").glob("*.py"))


def _referenced(nodes):
    """Names read by the nodes; a name only bound (an assignment target, a
    dataclass field) is not a use."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


def _defined(node):
    """Names a module-level statement defines: a def or class, or the plain
    names an assignment binds, dunders (__all__, ...) excepted."""
    if isinstance(node, ast.FunctionDef | ast.ClassDef):
        return [node.name]
    if isinstance(node, ast.Assign | ast.AnnAssign):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            sub.id
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not sub.id.startswith("__")
        ]
    return []


def dead_definitions(sources, allowed=()):
    """(module, name) of each module-level def, class or assigned name that
    nothing but itself or another dead definition references, repeated to a
    fixpoint."""
    defs = {}
    top_level = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = _defined(node)
            if not names:
                top_level.append(node)
            for name in names:
                defs.setdefault((module, name), set()).update(set(_referenced([node])) - {name})
    roots = set(_referenced(top_level)) | set(allowed)
    dead = set(defs)
    while True:
        live = roots.union(*(defs[d] for d in defs if d not in dead))
        still = {d for d in dead if d[1] not in live}
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
