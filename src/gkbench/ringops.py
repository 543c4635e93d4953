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


def words(n: int) -> int:
    """Size of an integer in 64-bit words, the unit powers are charged in."""
    return n.bit_length() // 64 + 1


def charged_power(base, exponent: int, one):
    """base**exponent for any integer exponent, a negative one through
    base.inv().  The budget is charged |exponent| * base._words() first: a
    power's coefficients grow about that much, while every other operation
    yields at most the sum of its operands' sizes."""
    # imported here, on the first power: a module that only builds values
    # (a PrimeBasis, say) then starts without loading the meter
    from . import budget

    budget.charge(abs(exponent) * base._words())
    if exponent < 0:
        base, exponent = base.inv(), -exponent
    return power(base, exponent, one)


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
