"""Recursive-descent parser for the workbench's term grammar:

    expr   := sign? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' sign? integer)?
    atom   := rational | ident | '(' expr ')'

Identifiers: s<k> radical generators, x<k> group/quantum generators, e the
group identity, z the root of unity, g the gamma series symbol.  g is
recognized by the grammar but has no finite representation, so every
evaluation context rejects it.  Parsing is context-gated (field, group,
twisted, quantum) so that diagnostics carry the offending position.

One fold, `_evaluate`, turns an accepted tree into a value in every context:
powers, products and sums go to the value type's own operators, so each type
decides what a negative power means and charges the work budget for powers,
and a per-context leaf function maps literals and symbols.  `to_field`,
`to_group`, `to_twisted` and `to_quantum` are those contexts.  In the quantum
context the fold is the only route to a normal form: `QPoly` products sort
their monomials in closed form, so `quantum nf` needs no word rewriting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .ordgroup import GroupElem

if TYPE_CHECKING:  # annotations only: a context loads its value types itself
    from .mqfield import MQElem, PrimeBasis
    from .qaffine import QAlgebra, QPoly
    from .twistring import TwistedElem

CONTEXTS = ("field", "group", "twisted", "quantum")

# Each parenthesis costs four frames of recursive descent; past this many
# open ones the parser stops with a ParseError instead of exhausting the
# interpreter's recursion limit.
MAX_NESTING = 200

_ALLOWED_SYMBOLS = {
    "field": {"radical"},
    "group": {"xgen", "identity"},
    "twisted": {"radical", "xgen", "identity"},
    "quantum": {"cyclo", "xgen"},
}


class ParseError(ValueError):
    """Syntax or context violation, with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# --- AST ----------------------------------------------------------------------


class Lit(NamedTuple):
    value: Fraction


class Sym(NamedTuple):
    kind: str  # "radical" | "xgen" | "cyclo" | "identity" | "gamma"
    index: Optional[int]


class Pow(NamedTuple):
    base: object
    exponent: int


class Mul(NamedTuple):
    factors: tuple


class Sum(NamedTuple):
    terms: tuple  # of (sign, node), sign in {1, -1}


# --- tokenizer -------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, line, col = 0, 1, 1
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --- parser ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], context: str):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.depth = 0  # parentheses currently open

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {kind!r}, found {tok.value!r}")
        return self.advance()

    # expr := sign? term (('+' | '-') term)*
    def expr(self):
        terms = []
        sign = 1
        tok = self.peek()
        if tok.kind in "+-":
            if self.context == "group":
                self.error("signs are not allowed in group context", tok)
            sign = -1 if tok.kind == "-" else 1
            self.advance()
        terms.append((sign, self.term()))
        while self.peek().kind in "+-":
            tok = self.advance()
            if self.context == "group":
                self.error("sums are not allowed in group context", tok)
            sign = -1 if tok.kind == "-" else 1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    # term := factor ('*' factor)*
    def term(self):
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))

    # factor := atom ('^' sign? integer)?
    def factor(self):
        atom = self.atom()
        if self.peek().kind != "^":
            return atom
        self.advance()
        sign = 1
        tok = self.peek()
        if tok.kind in "+-":
            sign = -1 if tok.kind == "-" else 1
            self.advance()
        tok = self.expect("INT")
        exponent = sign * int(tok.value)
        if (
            exponent < 0
            and self.context == "quantum"
            and isinstance(atom, Sym)
            and atom.kind == "xgen"
        ):
            self.error("negative exponents are not allowed on quantum generators", tok)
        return Pow(atom, exponent)

    # atom := rational | ident | '(' expr ')'
    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING} levels", tok)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "INT":
            self.advance()
            value = Fraction(int(tok.value))
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("INT")
                if int(den.value) == 0:
                    self.error("zero denominator", den)
                value = value / int(den.value)
            if self.context == "group":
                self.error("rational literals are not group elements", tok)
            return Lit(value)
        if tok.kind == "IDENT":
            self.advance()
            return self.ident(tok)
        self.error(f"expected an atom, found {tok.value!r}", tok)

    def ident(self, tok: _Token):
        name = tok.value
        if name == "g":
            self.error(
                "the gamma symbol has no finite representation in any "
                "evaluation context; use the gamma subcommands",
                tok,
            )
        if name == "z":
            sym = Sym("cyclo", None)
        elif name == "e":
            sym = Sym("identity", None)
        elif name[0] == "s" and name[1:].isdigit():
            sym = Sym("radical", int(name[1:]))
        elif name[0] == "x" and name[1:].isdigit():
            sym = Sym("xgen", int(name[1:]))
        else:
            self.error(f"unknown symbol {name!r}", tok)
        if sym.index is not None and sym.index < 1:
            self.error("generator indices start at 1", tok)
        if sym.kind not in _ALLOWED_SYMBOLS[self.context]:
            self.error(
                f"symbol {name!r} is not allowed in {self.context} context", tok
            )
        return sym


def parse(text: str, context: str):
    """Parse `text` in the given context; returns the AST or raises
    ParseError with the offending line and column."""
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}; pick one of {CONTEXTS}")
    parser = _Parser(_tokenize(text), context)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.error(f"unexpected trailing input {tok.value!r}", tok)
    return node


# --- AST helpers ------------------------------------------------------------------------


def _walk(node):
    yield node
    if isinstance(node, Pow):
        yield from _walk(node.base)
    elif isinstance(node, Mul):
        for f in node.factors:
            yield from _walk(f)
    elif isinstance(node, Sum):
        for _, t in node.terms:
            yield from _walk(t)


def max_symbol_index(node, kind: str) -> int:
    """Largest index of the given symbol kind in the tree (0 if absent)."""
    return max(
        (n.index for n in _walk(node) if isinstance(n, Sym) and n.kind == kind),
        default=0,
    )


# --- evaluators -------------------------------------------------------------------------


def _evaluate(node, leaf):
    """The one fold over a tree: powers, products and sums go to the value
    type's own operators, so each type decides what a negative power means
    and charges the budget for powers; `leaf` maps a Lit or Sym to a value
    and raises ValueError for a kind the context lacks.  Plain loops keep it
    at one frame per tree level, so every tree within MAX_NESTING evaluates
    (reduce over map costs C frames too)."""
    if isinstance(node, Pow):
        return _evaluate(node.base, leaf) ** node.exponent
    if isinstance(node, Mul):
        out = _evaluate(node.factors[0], leaf)
        for f in node.factors[1:]:
            out = out * _evaluate(f, leaf)  # factor order matters
        return out
    if isinstance(node, Sum):
        out = None
        for sign, t in node.terms:
            value = _evaluate(t, leaf)
            if sign < 0:
                value = -value
            out = value if out is None else out + value
        return out
    return leaf(node)


def to_field(node, basis: PrimeBasis) -> MQElem:
    def leaf(n):
        if isinstance(n, Lit):
            return basis.rational(n.value)
        if n.kind == "radical":
            return basis.radical(n.index)
        raise ValueError(f"symbol kind {n.kind!r} has no field value")

    return _evaluate(node, leaf)


def to_group(node) -> GroupElem:
    def leaf(n):
        if isinstance(n, Lit):
            raise ValueError("rational literals have no group value")
        if n.kind == "identity":
            return GroupElem.identity()
        if n.kind == "xgen":
            return GroupElem.generator(n.index)
        raise ValueError(f"symbol kind {n.kind!r} has no group value")

    return _evaluate(node, leaf)


def to_twisted(node, basis: PrimeBasis) -> TwistedElem:
    from .twistring import TwistedElem

    def leaf(n):
        if isinstance(n, Lit):
            return TwistedElem.from_scalar(basis.rational(n.value))
        if n.kind == "radical":
            return TwistedElem.from_scalar(basis.radical(n.index))
        if n.kind == "identity":
            return TwistedElem.one(basis)
        if n.kind == "xgen":
            return TwistedElem.from_group(basis, GroupElem.generator(n.index))
        raise ValueError(f"symbol kind {n.kind!r} has no twisted value")

    return _evaluate(node, leaf)


def to_quantum(node, algebra: QAlgebra) -> QPoly:
    def leaf(n):
        if isinstance(n, Lit):
            return algebra.scalar(algebra.field.rational(n.value))
        if n.kind == "cyclo":
            return algebra.scalar(algebra.field.zeta)
        if n.kind == "xgen":
            return algebra.generator(n.index)
        raise ValueError(f"symbol kind {n.kind!r} has no quantum value")

    return _evaluate(node, leaf)

