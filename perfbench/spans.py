"""Outside-in span tracing of xcond's layers.

The tracer replaces public functions of the xcond modules with timing
wrappers at every module-level name bound to them (``cli`` imports
``rees_ideal`` by name, so patching ``xcond.rees`` alone would miss it),
and restores the originals afterwards.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op, in_size, out_size, nf_calls]``:
``parent`` is the index of the enclosing span (-1 at the op root) and
``op`` the index of the op in its pass; ``out_size`` is RAISED when the
call raised.  ``nf_calls`` counts calls to
``groebner.normal_form`` made while the span was the innermost open one,
so on a ``groebner.buchberger`` span it is the number of S-pairs reduced.
Spans stay in memory; the runner writes them out when the run ends.
"""

import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, IN_SIZE, OUT_SIZE, NF_CALLS = range(8)
RAISED = -1  # out_size of a span whose call raised


def _gb_input(args, kwargs):
    ideal = args[0] if args else kwargs["ideal"]
    return len(ideal.generators)


# (module, function, span name, input size, output size)
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("rees", "rees_ideal", "rees.rees_ideal", None, lambda r: len(r.gb.elements)),
    ("rees", "componentwise_certificate", "rees.componentwise_certificate", None, None),
    ("rees", "standard_monomials", "rees.standard_monomials", None, None),
    ("rees", "kernel_member", "rees.kernel_member", None, None),
    ("groebner", "buchberger", "groebner.buchberger", _gb_input, lambda r: len(r.elements)),
    ("groebner", "reduce_basis", "groebner.reduce_basis", None, None),
    (
        "groebner",
        "reduced_groebner_basis",
        "groebner.reduced_groebner_basis",
        None,
        lambda r: len(r.elements),
    ),
    ("groebner", "eliminate", "groebner.eliminate", None, None),
    ("groebner", "is_spair_closed", "groebner.is_spair_closed", None, None),
    ("groebner", "membership", "groebner.membership", None, None),
    ("betti", "betti_numbers", "betti.betti_numbers", None, None),
    ("betti", "is_componentwise_linear", "betti.is_componentwise_linear", None, None),
    ("symalg", "equivalence_check", "symalg.equivalence_check", None, None),
    ("symalg", "admissible_paths", "symalg.admissible_paths", None, None),
    ("symalg", "admissible_path_basis", "symalg.admissible_path_basis", None, None),
    ("symalg", "edge_module", "symalg.edge_module", None, None),
    ("graphs", "peo", "graphs.peo", None, None),
    ("graphs", "is_chordal", "graphs.is_chordal", None, None),
    ("graphs", "minimal_vertex_covers", "graphs.minimal_vertex_covers", None, None),
    ("families", "path_claimed", "families.claim", None, None),
    ("families", "biclique_claimed", "families.claim", None, None),
    ("families", "cw_claimed", "families.claim", None, None),
    ("families", "verify_claim", "families.verify_claim", None, None),
    ("ring", "parse_polynomial", "ring.parse_polynomial", None, None),
    ("ring", "render_polynomial", "ring.render_polynomial", None, None),
)
COUNTED = ("groebner", "normal_form")


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def _span(self, name, fn, in_size, out_size):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, 0, 0]
            if in_size is not None:
                rec[IN_SIZE] = in_size(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[OUT_SIZE] = RAISED
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if out_size is not None:
                rec[OUT_SIZE] = out_size(result)
            return result

        return wrapper

    def _counter(self, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]][NF_CALLS] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "xcond"]
        replacements = {}
        for mod, fn, name, in_size, out_size in TARGETS:
            orig = getattr(sys.modules[f"xcond.{mod}"], fn)
            replacements[id(orig)] = (orig, self._span(name, orig, in_size, out_size))
        orig = getattr(sys.modules[f"xcond.{COUNTED[0]}"], COUNTED[1])
        replacements[id(orig)] = (orig, self._counter(orig))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._undo.append((module, key, value))

    def uninstall(self):
        for module, key, value in reversed(self._undo):
            setattr(module, key, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

# metric -> span name whose inclusive durations it sums
INCLUSIVE = {
    "groebner.eliminate_s": "groebner.eliminate",
    "groebner.buchberger_s": "groebner.buchberger",
    "groebner.reduce_basis_s": "groebner.reduce_basis",
    "groebner.is_spair_closed_s": "groebner.is_spair_closed",
    "groebner.membership_s": "groebner.membership",
    "rees.rees_ideal_s": "rees.rees_ideal",
    "rees.kernel_member_s": "rees.kernel_member",
    "rees.componentwise_certificate_s": "rees.componentwise_certificate",
    "rees.standard_monomials_s": "rees.standard_monomials",
    "betti.betti_numbers_s": "betti.betti_numbers",
    "betti.is_componentwise_linear_s": "betti.is_componentwise_linear",
    "symalg.admissible_paths_s": "symalg.admissible_paths",
    "symalg.admissible_path_basis_s": "symalg.admissible_path_basis",
    "symalg.edge_module_s": "symalg.edge_module",
    "graphs.peo_s": "graphs.peo",
    "graphs.is_chordal_s": "graphs.is_chordal",
    "graphs.minimal_vertex_covers_s": "graphs.minimal_vertex_covers",
    "families.claim_s": "families.claim",
    "ring.parse_polynomial_s": "ring.parse_polynomial",
    "ring.render_polynomial_s": "ring.render_polynomial",
}
# metric -> span name whose self time (duration minus child spans) it sums
SELF = {
    "rees.rees_ideal.self_s": "rees.rees_ideal",
    "symalg.equivalence_check.self_s": "symalg.equivalence_check",
    "families.verify_claim.self_s": "families.verify_claim",
    "cli.self_s": "cli.main",
}
# metric -> span name whose calls it counts
CALLS = {
    "rees.kernel_member_calls": "rees.kernel_member",
    "betti.calls": "betti.betti_numbers",
}


def _has_ancestor(spans, i, name):
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME] == name:
            return True
        i = spans[i][PARENT]
    return False


def layer_metrics(spans):
    """Per-layer totals of one pass: inclusive and self times, call counts,
    and the Buchberger work counters."""
    duration = [s[END] - s[START] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]] += duration[i]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    out = {m: sum(duration[i] for i in by_name[n]) for m, n in INCLUSIVE.items()}
    out.update(
        {m: sum(duration[i] - children[i] for i in by_name[n]) for m, n in SELF.items()}
    )
    out.update({m: len(by_name[n]) for m, n in CALLS.items()})

    bb = [spans[i] for i in by_name["groebner.buchberger"] if spans[i][OUT_SIZE] != RAISED]
    reduced = sum(s[NF_CALLS] for s in bb)
    added = sum(s[OUT_SIZE] - s[IN_SIZE] for s in bb)
    out["groebner.normal_form_calls"] = reduced
    out["groebner.elements_added"] = added
    out["groebner.zero_reduction_ratio"] = 1 - added / reduced if reduced else 0.0
    out["groebner.basis_peak"] = max((s[OUT_SIZE] for s in bb), default=0)
    out["groebner.reclose_s"] = sum(
        duration[i]
        for i in by_name["groebner.reduced_groebner_basis"]
        if spans[spans[i][PARENT]][NAME] == "rees.rees_ideal"
    )
    # size of every reduced basis an op's answer rests on: the Rees kernel
    # bases, plus reduced bases computed outside any Rees presentation
    out["groebner.reduced_size"] = sum(
        max(spans[i][OUT_SIZE], 0) for i in by_name["rees.rees_ideal"]
    ) + sum(
        max(spans[i][OUT_SIZE], 0)
        for i in by_name["groebner.reduced_groebner_basis"]
        if not _has_ancestor(spans, i, "rees.rees_ideal")
    )
    out["cli.ops"] = len(by_name["cli.main"])
    out["trace.spans"] = len(spans)
    return out


def kernel_checks(spans, ops):
    """Self-checks of the Rees layer, one list of errors per pass.

    Every Rees presentation must have run the kernel substitution check
    once per basis element, and the P8 and P9 kernels must have the sizes
    sympy.groebner confirms (26 and 46 elements)."""
    errors = []
    checks = defaultdict(int)
    for s in spans:
        if s[NAME] == "rees.kernel_member":
            j = s[PARENT]
            while j >= 0 and spans[j][NAME] != "rees.rees_ideal":
                j = spans[j][PARENT]
            if j >= 0:
                checks[j] += 1
    for i, s in enumerate(spans):
        if s[NAME] != "rees.rees_ideal" or s[OUT_SIZE] == RAISED:
            continue
        op = ops[s[OP]]
        if checks[i] != s[OUT_SIZE]:
            errors.append(
                f"{op.label}: {checks[i]} kernel_member calls for a basis of {s[OUT_SIZE]}"
            )
        if op.kernel_size is not None and s[OUT_SIZE] != op.kernel_size:
            errors.append(
                f"{op.label}: kernel basis has {s[OUT_SIZE]} elements, expected {op.kernel_size}"
            )
    return errors


def op_breakdown(spans, op_index):
    """Inclusive seconds per span name within one op."""
    out = defaultdict(float)
    for s in spans:
        if s[OP] == op_index:
            out[s[NAME]] += s[END] - s[START]
    return dict(out)
