"""Helpers shared by the element types of every ring in the workbench."""

from __future__ import annotations


def power(base, exponent: int, one):
    """base**exponent for exponent >= 0 by repeated squaring, with `one`
    returned for exponent 0.  Only powers of `base` are multiplied, so this
    is exact in noncommutative rings too."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if result is None else result


def render_terms(terms) -> str:
    """A sum as text, from (coefficient text, word) pairs in display order;
    the word is '' for the constant term.

    A coefficient with a sum inside is parenthesized and added; otherwise
    its sign joins the terms, a unit coefficient is dropped before a word,
    and the first term shows only a minus sign.  An empty sum is '0'."""
    out = ""
    for text, word in terms:
        if " + " in text or " - " in text:
            sign, body = "+", f"({text})*{word}" if word else f"({text})"
        else:
            sign, body = ("-", text[1:]) if text.startswith("-") else ("+", text)
            if word:
                body = word if body == "1" else f"{body}*{word}"
        if out:
            out += f" {sign} {body}"
        else:
            out = body if sign == "+" else "-" + body
    return out or "0"
