"""Recursive-descent parser for the workbench's term grammar:

    expr   := sign? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' sign? integer)?
    atom   := rational | ident | '(' expr ')'

Four parts.  A scanner, one compiled regular expression, reads ASCII digits,
ASCII identifiers, the seven operators and whitespace; any other character
is a ParseError at its line and column.  The parser builds the tree.  One
table, `_LEAVES` {context: {kind: leaf}}, holds each context's vocabulary:
a literal (`lit`: an int, or a Fraction for a/b), s<k> radicals
(`radical`), x<k> generators (`xgen`), z the root of unity (`cyclo`) and e
the group identity (`identity`).  g, the gamma series symbol, is recognized
but has no finite representation, so every context rejects it.  The parser
reads the table to reject a symbol or literal its context lacks, at the
offending position.

One fold, `_evaluate`, reads the same table to turn an accepted tree into a
value in every context: powers, products and sums go to the value type's own
operators, so each type decides what a negative power means and charges the
work budget for powers.  `to_field`, `to_group`, `to_twisted` and
`to_quantum` are its entry points.  In the quantum context the fold is the
only route to a normal form: `QPoly` products sort their monomials in closed
form, so `quantum nf` needs no word rewriting.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

if TYPE_CHECKING:  # annotations only: a context loads its value types itself
    from fractions import Fraction

    from .mqfield import MQElem, PrimeBasis
    from .ordgroup import GroupElem
    from .qaffine import QAlgebra, QPoly
    from .twistring import TwistedElem

# Each parenthesis costs four frames of recursive descent; past this many
# open ones the parser stops with a ParseError instead of exhausting the
# interpreter's recursion limit.
MAX_NESTING = 200


class ParseError(ValueError):
    """Syntax or context violation, with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# --- AST ----------------------------------------------------------------------


class Lit(NamedTuple):
    value: Union[int, Fraction]  # an int, unless the literal is a/b
    kind = "lit"  # a class attribute, not a field: the leaf table's key


class Sym(NamedTuple):
    kind: str  # "radical" | "xgen" | "cyclo" | "identity"
    index: Optional[int]


class Pow(NamedTuple):
    base: object
    exponent: int


class Mul(NamedTuple):
    factors: tuple


class Sum(NamedTuple):
    terms: tuple  # of (sign, node), sign in {1, -1}


# --- contexts -------------------------------------------------------------------


def _group():
    from .ordgroup import GroupElem  # loaded only when the group or twisted context runs

    return GroupElem


def _twisted():
    from .twistring import TwistedElem  # loaded only when the twisted context runs

    return TwistedElem


# Each context's leaves: kind -> (node, parent) -> value, the parent being
# the context's PrimeBasis or QAlgebra (None for the group).
_LEAVES = {
    "field": {
        "lit": lambda n, basis: basis.rational(n.value),
        "radical": lambda n, basis: basis.radical(n.index),
    },
    "group": {
        "xgen": lambda n, _: _group().generator(n.index),
        "identity": lambda n, _: _group().identity(),
    },
    "twisted": {
        "lit": lambda n, basis: _twisted().from_scalar(basis.rational(n.value)),
        "radical": lambda n, basis: _twisted().from_scalar(basis.radical(n.index)),
        "xgen": lambda n, basis: _twisted().from_group(basis, _group().generator(n.index)),
        "identity": lambda n, basis: _twisted().one(basis),
    },
    "quantum": {
        "lit": lambda n, alg: alg.scalar(alg.field.rational(n.value)),
        "cyclo": lambda n, alg: alg.scalar(alg.field.zeta),
        "xgen": lambda n, alg: alg.generator(n.index),
    },
}
CONTEXTS = tuple(_LEAVES)
# the identifiers of each kind: z and e, s<k> and x<k>
_NAMED = {"z": "cyclo", "e": "identity"}
_INDEXED = {"s": "radical", "x": "xgen"}


# --- scanner ----------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "INT", "IDENT", "EOF" or the operator character itself
    value: str
    offset: int  # of its first character in the text


# One token and the whitespace before it.  The scan stops at the last
# non-space character, so every match ends on a token.
_SCAN = re.compile(
    r"\s*(?:(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z][A-Za-z0-9]*)|(?P<OP>[-+*^/()])|(?P<BAD>\S))"
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of text[offset]; only '\\n' starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _SCAN.finditer(text, 0, len(text.rstrip())):
        kind, value = m.lastgroup, m[m.lastindex]
        if kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", *_position(text, m.start(kind)))
        tokens.append(_Token(value if kind == "OP" else kind, value, m.start(kind)))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# --- parser ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, context: str):
        self.text = text
        self.tokens = _tokenize(text)
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
        raise ParseError(message, *_position(self.text, tok.offset))

    def integer(self, tok: _Token) -> int:
        """An INT token's value; one past the interpreter's int-string limit
        is a ParseError at the token."""
        try:
            return int(tok.value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            self.error(f"integer of {len(tok.value)} digits: more than {limit}, the interpreter's limit", tok)

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
        exponent = sign * self.integer(tok)
        on_generator = isinstance(atom, Sym) and atom.kind == "xgen"
        if exponent < 0 and on_generator and self.context == "quantum":
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
            value = self.integer(tok)
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("INT")
                denominator = self.integer(den)
                if denominator == 0:
                    self.error("zero denominator", den)
                from fractions import Fraction  # only a literal a/b needs it

                value = Fraction(value, denominator)
            if "lit" not in _LEAVES[self.context]:
                self.error(f"rational literals are not {self.context} elements", tok)
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
        if name in _NAMED:
            sym = Sym(_NAMED[name], None)
        elif name[0] in _INDEXED and name[1:].isdigit():
            sym = Sym(_INDEXED[name[0]], int(name[1:]))
            if sym.index < 1:
                self.error("generator indices start at 1", tok)
        else:
            self.error(f"unknown symbol {name!r}", tok)
        if sym.kind not in _LEAVES[self.context]:
            self.error(f"symbol {name!r} is not allowed in {self.context} context", tok)
        return sym


def parse(text: str, context: str):
    """Parse `text` in the given context; returns the AST or raises
    ParseError with the offending line and column."""
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}; pick one of {CONTEXTS}")
    parser = _Parser(text, context)
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


# --- evaluation -------------------------------------------------------------------------


def _evaluate(node, context: str, parent):
    """The one fold over a tree: powers, products and sums go to the value
    type's own operators, so each type decides what a negative power means
    and charges the budget for powers; the context's leaf maps a Lit or Sym
    to a value, and a kind the context lacks (a tree parsed in another
    context) is a ValueError.  Plain loops keep it at one frame per tree
    level, so every tree within MAX_NESTING evaluates (reduce over map costs
    C frames too)."""
    if isinstance(node, Pow):
        return _evaluate(node.base, context, parent) ** node.exponent
    if isinstance(node, Mul):
        out = _evaluate(node.factors[0], context, parent)
        for f in node.factors[1:]:
            out = out * _evaluate(f, context, parent)  # factor order matters
        return out
    if isinstance(node, Sum):
        out = None
        for sign, t in node.terms:
            value = _evaluate(t, context, parent)
            if sign < 0:
                value = -value
            out = value if out is None else out + value
        return out
    leaf = _LEAVES[context].get(node.kind)
    if leaf is None:
        raise ValueError(f"symbol kind {node.kind!r} has no {context} value")
    return leaf(node, parent)


def to_field(node, basis: PrimeBasis) -> MQElem:
    return _evaluate(node, "field", basis)


def to_group(node) -> GroupElem:
    return _evaluate(node, "group", None)


def to_twisted(node, basis: PrimeBasis) -> TwistedElem:
    return _evaluate(node, "twisted", basis)


def to_quantum(node, algebra: QAlgebra) -> QPoly:
    return _evaluate(node, "quantum", algebra)
