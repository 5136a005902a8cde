"""Exact multivariate polynomial arithmetic over Q with configurable monomial orders.

Variables live in a VarContext that partitions them into named blocks
(base variables, fiber variables, elimination helpers).  Monomial orders
are declarative OrderSpec values: pure lex, graded reverse lex, block
orders that compare one block before the next, and weight-first orders
with a tie-break.  Each spec compiles to a key function so comparisons
reduce to tuple comparisons.  All values are immutable.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction


class ParseError(ValueError):
    """Rejected input text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# variable contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarContext:
    """Ordered variable universe, partitioned into named blocks.

    bidegrees assigns each variable a pair (a, b); base variables get
    (1, 0) and fiber variables get (deg u_j, 1) so that binomial
    relations of a Rees presentation are bihomogeneous.
    """

    names: tuple
    blocks: tuple
    bidegrees: tuple

    @staticmethod
    def make(names, blocks=None, bidegrees=None):
        names = tuple(names)
        if blocks is None:
            blocks = (("main", names),)
        else:
            blocks = tuple((bn, tuple(bv)) for bn, bv in blocks)
        if bidegrees is None:
            bidegrees = tuple((1, 0) for _ in names)
        else:
            bidegrees = tuple((int(a), int(b)) for a, b in bidegrees)
        return VarContext(names, blocks, bidegrees)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        flat = [v for _, vs in self.blocks for v in vs]
        if len(flat) != len(self.names) or set(flat) != set(self.names):
            raise ValueError("blocks must partition the variable set")
        if len(self.bidegrees) != len(self.names):
            raise ValueError("bidegrees length mismatch")
        if any(a < 0 or b < 0 for a, b in self.bidegrees):
            raise ValueError("bidegrees must be nonnegative")

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return _index_map(self)[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def block_names(self):
        return tuple(bn for bn, _ in self.blocks)

    def block_vars(self, block_name):
        for bn, vs in self.blocks:
            if bn == block_name:
                return vs
        raise KeyError(f"unknown block {block_name!r}")

    def block_indices(self, block_name):
        imap = _index_map(self)
        return tuple(imap[v] for v in self.block_vars(block_name))


@functools.lru_cache(maxsize=None)
def _index_map(ctx):
    return {n: i for i, n in enumerate(ctx.names)}


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """Exponent vector; the variable meaning comes from a VarContext."""

    exps: tuple

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError("negative exponent")

    @staticmethod
    def one(nvars):
        return Monomial((0,) * nvars)

    @staticmethod
    def var(i, nvars, power=1):
        e = [0] * nvars
        e[i] = power
        return Monomial(tuple(e))

    @staticmethod
    def from_pairs(pairs, nvars):
        e = [0] * nvars
        for i, p in pairs:
            e[i] += p
        return Monomial(tuple(e))

    def is_one(self):
        return not any(self.exps)

    def degree(self):
        return sum(self.exps)

    def degree_on(self, indices):
        return sum(self.exps[i] for i in indices)

    def mul(self, other):
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def div(self, other):
        """Quotient self / other; errors when other does not divide self."""
        if not other.divides(self):
            raise ArithmeticError("monomial quotient does not exist")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other):
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other):
        return Monomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def support(self):
        return tuple(i for i, e in enumerate(self.exps) if e)


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderSpec:
    """Declarative monomial order.

    kind "lex":      vars lists the variables in strictly descending rank.
    kind "revlex":   graded reverse lex on vars (descending rank).
    kind "block":    parts = ((block_name, sub_spec), ...); earlier parts
                     are compared first, later parts break ties.
    kind "weighted": weights (one per variable of the scope, in context
                     order) are compared first; tie breaks ties.
    """

    kind: str
    vars: tuple = ()
    parts: tuple = ()
    weights: tuple = ()
    tie: "OrderSpec | None" = None


def lex_order(*names):
    return OrderSpec("lex", vars=tuple(names))


def revlex_order(*names):
    return OrderSpec("revlex", vars=tuple(names))


def block_order(*parts):
    return OrderSpec("block", parts=tuple((bn, sub) for bn, sub in parts))


def weighted_order(weights, tie):
    return OrderSpec("weighted", weights=tuple(int(w) for w in weights), tie=tie)


class MonomialOrder:
    """OrderSpec compiled against a VarContext into a sort key."""

    __slots__ = ("spec", "context", "_kf", "_nvars")

    def __init__(self, spec, context, key_fn):
        self.spec = spec
        self.context = context
        self._kf = key_fn
        self._nvars = context.nvars

    def key(self, monomial):
        e = monomial.exps
        if len(e) != self._nvars:
            raise ValueError("monomial does not match the order's context")
        return self._kf(e)

    def compare(self, a, b):
        """Total comparison: -1, 0, or 1."""
        ka, kb = self.key(a), self.key(b)
        return -1 if ka < kb else (0 if ka == kb else 1)


def _build_key(spec, ctx, scope):
    """Compile spec to a key on raw exponent tuples; scope = variable names covered."""
    imap = _index_map(ctx)
    if spec.kind == "lex":
        if set(spec.vars) != set(scope) or len(spec.vars) != len(scope):
            raise ValueError("lex order must rank each variable of its scope exactly once")
        idx = tuple(imap[v] for v in spec.vars)
        return lambda e: tuple(e[i] for i in idx)
    if spec.kind == "revlex":
        if set(spec.vars) != set(scope) or len(spec.vars) != len(scope):
            raise ValueError("revlex order must rank each variable of its scope exactly once")
        idx = tuple(imap[v] for v in spec.vars)
        ridx = tuple(reversed(idx))
        return lambda e: (sum(e[i] for i in idx), tuple(-e[i] for i in ridx))
    if spec.kind == "block":
        part_names = [bn for bn, _ in spec.parts]
        if sorted(part_names) != sorted(ctx.block_names()):
            raise ValueError("block order must cover every context block exactly once")
        subs = tuple(_build_key(sub, ctx, ctx.block_vars(bn)) for bn, sub in spec.parts)
        return lambda e: tuple(k(e) for k in subs)
    if spec.kind == "weighted":
        scope_idx = tuple(imap[v] for v in ctx.names if v in set(scope))
        if len(spec.weights) != len(scope_idx):
            raise ValueError("weight vector length must match its scope")
        if any(w < 0 for w in spec.weights):
            raise ValueError("weights must be nonnegative")
        if spec.tie is None:
            raise ValueError("weighted order needs a tie-break")
        wpairs = tuple(zip(spec.weights, scope_idx))
        tie_key = _build_key(spec.tie, ctx, scope)
        return lambda e: (sum(w * e[i] for w, i in wpairs), tie_key(e))
    raise ValueError(f"unknown order kind {spec.kind!r}")


_ORDER_CACHE = {}


def compile_order(spec, ctx):
    cached = _ORDER_CACHE.get((spec, ctx))
    if cached is None:
        cached = MonomialOrder(spec, ctx, _build_key(spec, ctx, ctx.names))
        _ORDER_CACHE[(spec, ctx)] = cached
    return cached


def is_elimination_order(spec, ctx, elim_vars):
    """Structural check that elim_vars dominate every other variable.

    Holds when elim_vars are a prefix of a pure lex ranking, or when they
    are exactly the variables of the leading block(s) of a block order.
    """
    elim = set(elim_vars)
    if not elim:
        return True
    if spec.kind == "lex":
        return set(spec.vars[: len(elim)]) == elim
    if spec.kind == "block":
        covered = set()
        for bn, _sub in spec.parts:
            if covered == elim:
                return True
            covered |= set(ctx.block_vars(bn))
            if covered == elim:
                return True
            if not covered.issubset(elim):
                return False
        return covered == elim
    return False


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Terms (monomial, coefficient), coefficients nonzero, monomials
    pairwise distinct, stored strictly descending under the order the
    polynomial was built with."""

    terms: tuple

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash(frozenset((m.exps, c) for m, c in self.terms))

    @staticmethod
    def zero():
        return Polynomial(())

    def is_zero(self):
        return not self.terms

    def lm(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def lt(self):
        return self.terms[0]

    def degree(self):
        if not self.terms:
            return -1
        return max(m.degree() for m, _ in self.terms)

    def monomials(self):
        return tuple(m for m, _ in self.terms)

    def is_binomial_pm1(self):
        """Pure difference binomial u - v (or a single +-1 term)."""
        if len(self.terms) == 1:
            return abs(self.terms[0][1]) == 1
        if len(self.terms) != 2:
            return False
        (_, c1), (_, c2) = self.terms
        return abs(c1) == 1 and c1 == -c2

    # -- arithmetic (every op returns terms sorted under `order`) --

    def neg(self):
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple((m, c * a) for m, a in self.terms))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.lc())

    def term_mul(self, mono, coeff=_ONE):
        """Multiply by coeff * x^mono; preserves the descending term order."""
        coeff = Fraction(coeff)
        if coeff == 0:
            return Polynomial(())
        return Polynomial(tuple((m.mul(mono), coeff * c) for m, c in self.terms))

    def add(self, other, order):
        return _merge(self, other, _ONE, Monomial.one(len_of(self, other)), order)

    def sub(self, other, order):
        return _merge(self, other, Fraction(-1), Monomial.one(len_of(self, other)), order)

    def sub_mul(self, other, mono, coeff, order):
        """self - coeff * x^mono * other, by a single sorted merge."""
        return _merge(self, other, -Fraction(coeff), mono, order)

    def mul(self, other, order):
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1.mul(m2)
                acc[m] = acc.get(m, _ZERO) + c1 * c2
        return poly_from_dict(acc, order)


def len_of(f, g):
    if f.terms:
        return len(f.terms[0][0].exps)
    if g.terms:
        return len(g.terms[0][0].exps)
    return 0


def _merge(f, g, coeff, mono, order):
    """f + coeff * x^mono * g with both term lists descending under order."""
    if coeff == 0 or g.is_zero():
        return f
    kf = order.key
    out = []
    ft, gt = f.terms, g.terms
    i = j = 0
    shift_one = mono.is_one()
    while i < len(ft) and j < len(gt):
        mf = ft[i][0]
        mg = gt[j][0] if shift_one else gt[j][0].mul(mono)
        ka, kb = kf(mf), kf(mg)
        if ka > kb:
            out.append(ft[i])
            i += 1
        elif ka < kb:
            out.append((mg, coeff * gt[j][1]))
            j += 1
        else:
            c = ft[i][1] + coeff * gt[j][1]
            if c != 0:
                out.append((mf, c))
            i += 1
            j += 1
    out.extend(ft[i:])
    for m, c in gt[j:]:
        out.append((m if shift_one else m.mul(mono), coeff * c))
    return Polynomial(tuple(out))


def poly_from_dict(d, order):
    items = [(m, c) for m, c in d.items() if c != 0]
    items.sort(key=lambda t: order.key(t[0]), reverse=True)
    return Polynomial(tuple(items))


def poly_from_terms(pairs, order):
    acc = {}
    for m, c in pairs:
        acc[m] = acc.get(m, _ZERO) + Fraction(c)
    return poly_from_dict(acc, order)


def monomial_poly(mono, coeff=_ONE):
    coeff = Fraction(coeff)
    if coeff == 0:
        return Polynomial(())
    return Polynomial(((mono, coeff),))


# ---------------------------------------------------------------------------
# text format: polynomials
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def parse_polynomial(text, ctx, order=None):
    """Parse a signed sum of terms; a term is [rational *] var[^nat] (* var[^nat])*.

    Bare rationals ("0", "3/2") are constant terms.  Raises ParseError with
    a position on malformed input and on unknown variables.
    """
    if order is None:
        order = compile_order(lex_order(*ctx.names), ctx)
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    n = ctx.nvars
    acc = {}
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None, len(text))

    while i < len(tokens):
        sign = _ONE
        kind, val, pos = peek()
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            i += 1
            kind, val, pos = peek()
        coeff = sign
        exps = [0] * n
        saw_factor = False
        while True:
            kind, val, pos = peek()
            if kind == "num":
                i += 1
                num = int(val)
                kind2, val2, _ = peek()
                if kind2 == "op" and val2 == "/":
                    i += 1
                    kind3, val3, pos3 = peek()
                    if kind3 != "num":
                        raise ParseError("expected denominator", pos3)
                    i += 1
                    coeff *= Fraction(num, int(val3))
                else:
                    coeff *= num
            elif kind == "name":
                i += 1
                try:
                    vi = ctx.index(val)
                except KeyError:
                    raise ParseError(f"unknown variable {val!r}", pos) from None
                power = 1
                kind2, val2, _ = peek()
                if kind2 == "op" and val2 == "^":
                    i += 1
                    kind3, val3, pos3 = peek()
                    if kind3 != "num":
                        raise ParseError("expected exponent", pos3)
                    i += 1
                    power = int(val3)
                exps[vi] += power
            else:
                raise ParseError("expected a factor", pos)
            saw_factor = True
            kind, val, pos = peek()
            if kind == "op" and val == "*":
                i += 1
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", pos)
        kind, val, pos = peek()
        if kind is not None and not (kind == "op" and val in "+-"):
            raise ParseError(f"unexpected token {val!r}", pos)
        m = Monomial(tuple(exps))
        acc[m] = acc.get(m, _ZERO) + coeff
    return poly_from_dict(acc, order)


def render_monomial(m, ctx):
    if m.is_one():
        return "1"
    parts = []
    for i, e in enumerate(m.exps):
        if e == 1:
            parts.append(ctx.names[i])
        elif e > 1:
            parts.append(f"{ctx.names[i]}^{e}")
    return "*".join(parts)


def _render_coeff(c):
    return str(c)


def render_polynomial(p, ctx):
    if p.is_zero():
        return "0"
    out = []
    for k, (m, c) in enumerate(p.terms):
        neg = c < 0
        mag = -c if neg else c
        if m.is_one():
            body = _render_coeff(mag)
        elif mag == 1:
            body = render_monomial(m, ctx)
        else:
            body = f"{_render_coeff(mag)}*{render_monomial(m, ctx)}"
        if k == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# text format: order specs
# ---------------------------------------------------------------------------


def parse_order_spec(text, ctx):
    """Parse the order DSL.

    Grammar: lex[v1>v2>...], revlex[v1>...], block(name:spec; name:spec),
    weighted(w=[d1,d2,...]; tie=spec).
    """
    spec, pos = _parse_spec(text, 0, ctx)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing text after order spec", pos)
    return spec


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"\d+")


def _expect(text, pos, token):
    pos = _skip_ws(text, pos)
    if not text.startswith(token, pos):
        raise ParseError(f"expected {token!r}", pos)
    return pos + len(token)


def _parse_name(text, pos):
    pos = _skip_ws(text, pos)
    m = _NAME_RE.match(text, pos)
    if m is None:
        raise ParseError("expected a name", pos)
    return m.group(), m.end()


def _parse_varlist(text, pos):
    names = []
    name, pos = _parse_name(text, pos)
    names.append(name)
    while True:
        p = _skip_ws(text, pos)
        if p < len(text) and text[p] == ">":
            name, pos = _parse_name(text, p + 1)
            names.append(name)
        else:
            return names, pos


def _parse_spec(text, pos, ctx):
    head, pos = _parse_name(text, pos)
    if head in ("lex", "revlex"):
        pos = _expect(text, pos, "[")
        names, pos = _parse_varlist(text, pos)
        pos = _expect(text, pos, "]")
        return OrderSpec(head, vars=tuple(names)), pos
    if head == "block":
        pos = _expect(text, pos, "(")
        parts = []
        while True:
            bname, pos = _parse_name(text, pos)
            pos = _expect(text, pos, ":")
            sub, pos = _parse_spec(text, pos, ctx)
            parts.append((bname, sub))
            p = _skip_ws(text, pos)
            if p < len(text) and text[p] == ";":
                pos = p + 1
                continue
            pos = _expect(text, pos, ")")
            return block_order(*parts), pos
    if head == "weighted":
        pos = _expect(text, pos, "(")
        pos = _expect(text, pos, "w")
        pos = _expect(text, pos, "=")
        pos = _expect(text, pos, "[")
        weights = []
        while True:
            p = _skip_ws(text, pos)
            m = _INT_RE.match(text, p)
            if m is None:
                raise ParseError("expected a weight", p)
            weights.append(int(m.group()))
            pos = m.end()
            p = _skip_ws(text, pos)
            if p < len(text) and text[p] == ",":
                pos = p + 1
                continue
            pos = _expect(text, pos, "]")
            break
        pos = _expect(text, pos, ";")
        pos = _expect(text, pos, "tie")
        pos = _expect(text, pos, "=")
        tie, pos = _parse_spec(text, pos, ctx)
        pos = _expect(text, pos, ")")
        return weighted_order(weights, tie), pos
    raise ParseError(f"unknown order kind {head!r}", pos - len(head))


def render_order_spec(spec):
    if spec.kind in ("lex", "revlex"):
        return f"{spec.kind}[{'>'.join(spec.vars)}]"
    if spec.kind == "block":
        inner = "; ".join(f"{bn}:{render_order_spec(sub)}" for bn, sub in spec.parts)
        return f"block({inner})"
    if spec.kind == "weighted":
        w = ",".join(str(x) for x in spec.weights)
        return f"weighted(w=[{w}]; tie={render_order_spec(spec.tie)})"
    raise ValueError(f"unknown order kind {spec.kind!r}")
