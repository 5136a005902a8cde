"""Exact multivariate polynomial arithmetic over Q with configurable monomial orders.

Variables live in a VarContext that partitions them into named blocks
(base variables, fiber variables, elimination helpers).  Monomial orders
are declarative OrderSpec values: pure lex, graded reverse lex, block
orders that compare one block before the next, and weight-first orders
with a tie-break.  Each spec compiles to one matrix of integer rows; the
dot products of the rows with an exponent vector are its key, so a
comparison is a tuple comparison.  All values are immutable.
Polynomials and order specs are read from text by one tokenizer and one
token cursor; the two grammars differ only in their punctuation.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub


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
    """Ordered variable universe, partitioned into named blocks."""

    names: tuple
    blocks: tuple

    @staticmethod
    def make(names, blocks=None):
        names = tuple(names)
        if blocks is None:
            blocks = (("main", names),)
        else:
            blocks = tuple((bn, tuple(bv)) for bn, bv in blocks)
        return VarContext(names, blocks)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        flat = [v for _, vs in self.blocks for v in vs]
        if len(flat) != len(self.names) or set(flat) != set(self.names):
            raise ValueError("blocks must partition the variable set")

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
        if min(self.exps, default=0) < 0:
            raise ValueError("negative exponent")

    @staticmethod
    def var(i, nvars):
        e = [0] * nvars
        e[i] = 1
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
        return Monomial(tuple(map(add, self.exps, other.exps)))

    def divides(self, other):
        return all(map(le, self.exps, other.exps))

    def div(self, other):
        """Quotient self / other; errors when other does not divide self."""
        if not other.divides(self):
            raise ArithmeticError("monomial quotient does not exist")
        return Monomial(tuple(map(sub, self.exps, other.exps)))

    def gcd(self, other):
        return Monomial(tuple(map(min, self.exps, other.exps)))

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
    """OrderSpec compiled against a VarContext into its matrix: one row of
    integer weights per entry of the key, so every order here is a matrix
    order.

    key(m) is the tuple of the dot products row . e over the rows, e the
    exponent vector of m, and compares as the order; exps_key is the same
    key taken on a raw exponent tuple, without the length check, for loops
    that hold exponents instead of Monomials.
    """

    __slots__ = ("spec", "context", "matrix", "_sparse")

    def __init__(self, spec, context, matrix):
        self.spec = spec
        self.context = context
        self.matrix = matrix
        # each row's nonzero entries (index, weight): most rows are units
        self._sparse = tuple(tuple((i, w) for i, w in enumerate(row) if w) for row in matrix)

    def exps_key(self, e):
        return tuple([sum([w * e[i] for i, w in row]) for row in self._sparse])

    def key(self, monomial):
        e = monomial.exps
        if len(e) != self.context.nvars:
            raise ValueError("monomial does not match the order's context")
        return self.exps_key(e)


def _unit(i, n, value=1):
    row = [0] * n
    row[i] = value
    return tuple(row)


def _rows(spec, ctx, scope):
    """The matrix rows of spec on a context; scope = variable names covered."""
    imap = _index_map(ctx)
    n = ctx.nvars
    if spec.kind in ("lex", "revlex"):
        if set(spec.vars) != set(scope) or len(spec.vars) != len(scope):
            raise ValueError(f"{spec.kind} order must rank each variable of its scope exactly once")
        idx = tuple(imap[v] for v in spec.vars)
        if spec.kind == "lex":
            return tuple(_unit(i, n) for i in idx)
        degree = tuple(int(i in idx) for i in range(n))
        return (degree,) + tuple(_unit(i, n, -1) for i in idx[::-1])
    if spec.kind == "block":
        if set(scope) != set(ctx.names):
            raise ValueError("block order must span the whole context, not one block part")
        part_names = [bn for bn, _ in spec.parts]
        if sorted(part_names) != sorted(ctx.block_names()):
            raise ValueError("block order must cover every context block exactly once")
        return tuple(row for bn, sub in spec.parts for row in _rows(sub, ctx, ctx.block_vars(bn)))
    if spec.kind == "weighted":
        scope_idx = tuple(imap[v] for v in ctx.names if v in set(scope))
        if len(spec.weights) != len(scope_idx):
            raise ValueError("weight vector length must match its scope")
        if any(w < 0 for w in spec.weights):
            raise ValueError("weights must be nonnegative")
        if spec.tie is None:
            raise ValueError("weighted order needs a tie-break")
        row = [0] * n
        for i, w in zip(scope_idx, spec.weights):
            row[i] = w
        return (tuple(row),) + _rows(spec.tie, ctx, scope)
    raise ValueError(f"unknown order kind {spec.kind!r}")


@functools.lru_cache(maxsize=None)
def compile_order(spec, ctx, /):
    """spec compiled against ctx, one object per equal (spec, ctx), since
    groebner.order_packing caches each packing on that object."""
    return MonomialOrder(spec, ctx, _rows(spec, ctx, ctx.names))


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

    def term_mul(self, mono, coeff=_ONE):
        """Multiply by coeff * x^mono; preserves the descending term order."""
        if coeff == 1:
            return Polynomial(tuple((m.mul(mono), c) for m, c in self.terms))
        coeff = Fraction(coeff)
        if coeff == 0:
            return Polynomial(())
        return Polynomial(tuple((m.mul(mono), coeff * c) for m, c in self.terms))

    def add(self, other, order):
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, _ZERO) + c
        return poly_from_dict(acc, order)

    def sub(self, other, order):
        return self.add(other.neg(), order)

    def mul(self, other, order):
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1.mul(m2)
                acc[m] = acc.get(m, _ZERO) + c1 * c2
        return poly_from_dict(acc, order)


def poly_from_dict(d, order):
    items = [(m, c) for m, c in d.items() if c != 0]
    items.sort(key=lambda t: order.key(t[0]), reverse=True)
    return Polynomial(tuple(items))


def poly_from_terms(pairs, order):
    """Merge equal monomials, drop zero sums and sort under order; the
    pairs may come in any order, e.g. from a polynomial sorted under
    another one."""
    acc = {}
    for m, c in pairs:
        acc[m] = acc[m] + c if m in acc else Fraction(c)
    return poly_from_dict(acc, order)


def monomial_poly(mono, coeff=_ONE):
    coeff = Fraction(coeff)
    if coeff == 0:
        return Polynomial(())
    return Polynomial(((mono, coeff),))


# ---------------------------------------------------------------------------
# text formats: one tokenizer and one cursor for polynomials and order specs
# ---------------------------------------------------------------------------

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _lexer(punct):
    """Matcher of one token: whitespace, a natural number, a name or one of punct."""
    token = rf"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>{NAME_RE.pattern})|(?P<op>[{re.escape(punct)}])"
    return re.compile(token).match


_POLY_LEXER = _lexer("-+*/^")
_ORDER_LEXER = _lexer("[]();:=,>")


def _tokens(text, lexer):
    """(kind, value, position) of each token, lazily; whitespace is skipped."""
    pos = 0
    while pos < len(text):
        m = lexer(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            yield m.lastgroup, m.group(), pos
        pos = m.end()


class _Cursor:
    """One token of lookahead, pulled from the stream only when peeked, so
    a lazy stream is lexed no further than the grammar reads; past the last
    token the next one is (None, None, end)."""

    def __init__(self, tokens, end):
        self._tokens = iter(tokens)
        self._next = None
        self._end = (None, None, end)

    def peek(self):
        if self._next is None:
            self._next = next(self._tokens, self._end)
        return self._next

    def take(self, kind=None, message=None):
        """Consume the next token; ParseError(message) unless it has kind."""
        token = self.peek()
        if kind is not None and token[0] != kind:
            raise ParseError(message, token[2])
        self._next = None
        return token

    def accept(self, value):
        """Consume the next token when its text is value."""
        if self.peek()[1] == value:
            self._next = None
            return True
        return False

    def expect(self, value):
        if not self.accept(value):
            raise ParseError(f"expected {value!r}", self._next[2])


def parse_polynomial(text, ctx, order=None):
    """Parse a signed sum of terms; a term is [rational *] var[^nat] (* var[^nat])*.

    Bare rationals ("0", "3/2") are constant terms.  Raises ParseError with
    a position on malformed input and on unknown variables.
    """
    if order is None:
        order = compile_order(lex_order(*ctx.names), ctx)
    # lexed up front: a stray character anywhere is the first error
    tokens = list(_tokens(text, _POLY_LEXER))
    if not tokens:
        raise ParseError("empty polynomial", 0)
    cur = _Cursor(tokens, len(text))
    acc = {}
    while cur.peek()[0] is not None:
        coeff = _ONE
        while cur.peek()[1] in ("+", "-"):
            if cur.take()[1] == "-":
                coeff = -coeff
        exps = [0] * ctx.nvars
        while True:
            kind, val, pos = cur.take()
            if kind == "num":
                if cur.accept("/"):
                    _, den, pos = cur.take("num", "expected denominator")
                    if int(den) == 0:
                        raise ParseError("zero denominator", pos)
                    coeff *= Fraction(int(val), int(den))
                else:
                    coeff *= int(val)
            elif kind == "name":
                try:
                    vi = ctx.index(val)
                except KeyError:
                    raise ParseError(f"unknown variable {val!r}", pos) from None
                exps[vi] += int(cur.take("num", "expected exponent")[1]) if cur.accept("^") else 1
            else:
                raise ParseError("expected a factor", pos)
            if not cur.accept("*"):
                break
        kind, val, pos = cur.peek()
        if kind is not None and val not in ("+", "-"):
            raise ParseError(f"unexpected token {val!r}", pos)
        m = Monomial(tuple(exps))
        acc[m] = acc.get(m, _ZERO) + coeff
    return poly_from_dict(acc, order)


def render_monomial(m, ctx):
    if m.is_one():
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(ctx.names, m.exps) if e)


def render_polynomial(p, ctx):
    if p.is_zero():
        return "0"
    out = []
    for k, (m, c) in enumerate(p.terms):
        neg = c < 0
        mag = -c if neg else c
        if m.is_one():
            body = str(mag)
        elif mag == 1:
            body = render_monomial(m, ctx)
        else:
            body = f"{mag}*{render_monomial(m, ctx)}"
        if k == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def parse_order_spec(text):
    """Parse the order DSL; whitespace may separate any two tokens.

    Grammar: lex[v1>v2>...], revlex[v1>...], block(name:spec; name:spec),
    weighted(w=[d1,d2,...]; tie=spec).
    """
    cur = _Cursor(_tokens(text, _ORDER_LEXER), len(text))
    spec = _parse_spec(cur)
    kind, _, pos = cur.peek()
    if kind is not None:
        raise ParseError("trailing text after order spec", pos)
    return spec


def _parse_spec(cur):
    _, head, pos = cur.take("name", "expected a name")
    if head in ("lex", "revlex"):
        cur.expect("[")
        names = []
        while not names or cur.accept(">"):
            names.append(cur.take("name", "expected a name")[1])
        cur.expect("]")
        return OrderSpec(head, vars=tuple(names))
    if head == "block":
        cur.expect("(")
        parts = []
        while not parts or cur.accept(";"):
            bname = cur.take("name", "expected a name")[1]
            cur.expect(":")
            parts.append((bname, _parse_spec(cur)))
        cur.expect(")")
        return block_order(*parts)
    if head == "weighted":
        for value in ("(", "w", "=", "["):
            cur.expect(value)
        weights = []
        while not weights or cur.accept(","):
            weights.append(int(cur.take("num", "expected a weight")[1]))
        for value in ("]", ";", "tie", "="):
            cur.expect(value)
        tie = _parse_spec(cur)
        cur.expect(")")
        return weighted_order(weights, tie)
    raise ParseError(f"unknown order kind {head!r}", pos)


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
