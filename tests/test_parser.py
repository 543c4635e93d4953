"""Parser: grammar, context gating, diagnostics, and print/parse round-trips."""

import random
from fractions import Fraction

import pytest

from gkbench.cyclo import CycField
from gkbench.mqfield import MQElem, PrimeBasis
from gkbench.ordgroup import GroupElem
from gkbench.parser import (
    ParseError,
    max_symbol_index,
    parse,
    to_field,
    to_group,
    to_quantum,
    to_twisted,
)
from gkbench.qaffine import QAlgebra
from gkbench.sampling import (
    random_group,
    random_mq,
    random_twisted,
)
from gkbench.twistring import TwistedElem
from qsampling import random_qpoly

BASIS = PrimeBasis.first(4)
ALG = QAlgebra(3, CycField(2, 1))


# --- examples ------------------------------------------------------------------


def test_group_word():
    node = parse("x1^-1 * x2^-1", "group")
    assert to_group(node) == GroupElem({1: -1, 2: -1})


def test_field_expression():
    node = parse("1/2 + s1*s2", "field")
    assert to_field(node, BASIS) == MQElem(
        BASIS, {frozenset(): Fraction(1, 2), frozenset({1, 2}): 1}
    )


def test_twisted_factor_order_matters():
    # x1 * s1 multiplies with the twist: -s1 * x1
    value = to_twisted(parse("x1*s1", "twisted"), BASIS)
    assert value == TwistedElem(BASIS, {GroupElem.generator(1): -BASIS.radical(1)})
    flipped = to_twisted(parse("s1*x1", "twisted"), BASIS)
    assert flipped == TwistedElem(BASIS, {GroupElem.generator(1): BASIS.radical(1)})


def test_parenthesized_powers():
    assert to_field(parse("(1 + s1)^2", "field"), BASIS) == (
        BASIS.one() + BASIS.radical(1)
    ) ** 2
    value = to_twisted(parse("(2*x1)^-1", "twisted"), BASIS)
    assert to_twisted(parse("2*x1", "twisted"), BASIS) * value == TwistedElem.one(BASIS)


def test_group_identity_and_exponents():
    assert to_group(parse("e", "group")) == GroupElem.identity()
    assert to_group(parse("x3^-2 * x3", "group")) == GroupElem({3: -1})


def test_quantum_scalar_powers():
    assert to_quantum(parse("z^-1", "quantum"), ALG) == ALG.scalar(ALG.field.zeta.inv())
    assert to_quantum(parse("2^-2", "quantum"), ALG) == ALG.scalar(
        ALG.field.rational(Fraction(1, 4))
    )


# --- diagnostics ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,context",
    [
        ("g", "field"),
        ("g", "group"),
        ("g", "twisted"),
        ("g", "quantum"),
        ("x1", "field"),
        ("s1", "quantum"),
        ("s1", "group"),
        ("z", "twisted"),
        ("1 + x1", "group"),
        ("2", "group"),
        ("-x1", "group"),
        ("x1^-1", "quantum"),
        ("y1", "field"),
        ("x0", "group"),
    ],
)
def test_context_violations(text, context):
    with pytest.raises(ParseError):
        parse(text, context)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse("1/2 + + 3", "field")
    assert err.value.line == 1 and err.value.column == 7
    with pytest.raises(ParseError) as err:
        parse("s1 &", "field")
    assert err.value.column == 4


@pytest.mark.parametrize(
    "text, line, column, char",
    [
        ("\u0663*s1", 1, 1, "\u0663"),
        ("s\u0663", 1, 2, "\u0663"),
        ("2\u00b2", 1, 2, "\u00b2"),
        ("1 +\n  s\u00e9", 2, 4, "\u00e9"),
    ],
)
def test_non_ascii_digits_and_letters_are_unexpected_characters(text, line, column, char):
    with pytest.raises(ParseError) as err:
        parse(text, "field")
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"{line}:{column}: unexpected character {char!r}"


def test_any_whitespace_separates_tokens():
    assert parse("s1\u00a0+\u2028\t1", "field") == parse("s1 + 1", "field")
    with pytest.raises(ParseError) as err:
        parse("s1 +\n\u00a0 y1", "field")
    assert (err.value.line, err.value.column) == (2, 3)


@pytest.mark.parametrize(
    "text, source, evaluate, message",
    [
        ("1", "field", to_group, "symbol kind 'lit' has no group value"),
        ("s1", "field", lambda node: to_quantum(node, ALG), "symbol kind 'radical' has no quantum value"),
        ("z", "quantum", lambda node: to_field(node, BASIS), "symbol kind 'cyclo' has no field value"),
        ("x1", "group", lambda node: to_field(node, BASIS), "symbol kind 'xgen' has no field value"),
    ],
)
def test_tree_from_another_context_names_the_missing_kind(text, source, evaluate, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(parse(text, source))


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("s1 s2", "field")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(1 + s1", "field")


def test_unknown_context():
    with pytest.raises(ValueError):
        parse("1", "polynomial")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse("1/0", "field")


def test_max_symbol_index():
    node = parse("s1*s3 + 2*s2", "field")
    assert max_symbol_index(node, "radical") == 3
    assert max_symbol_index(node, "xgen") == 0


# --- round-trips --------------------------------------------------------------------


def test_field_round_trip_randomized():
    rng = random.Random(7)
    for _ in range(150):
        value = random_mq(rng, BASIS, max_terms=4)
        assert to_field(parse(str(value), "field"), BASIS) == value


def test_group_round_trip_randomized():
    rng = random.Random(8)
    for _ in range(150):
        value = random_group(rng, max_index=4, max_exp=5)
        assert to_group(parse(str(value), "group")) == value


def test_twisted_round_trip_randomized():
    rng = random.Random(9)
    for _ in range(150):
        value = random_twisted(rng, BASIS, max_terms=4)
        assert to_twisted(parse(str(value), "twisted"), BASIS) == value


def test_quantum_round_trip_randomized():
    rng = random.Random(10)
    for _ in range(150):
        value = random_qpoly(rng, ALG, max_terms=4)
        assert to_quantum(parse(str(value), "quantum"), ALG) == value


# --- nesting depth ------------------------------------------------------------------


def test_nesting_at_the_cap_parses():
    text = "(" * 200 + "s1 - 1/2" + ")" * 200
    assert to_field(parse(text, "field"), BASIS) == to_field(parse("s1 - 1/2", "field"), BASIS)


def test_nesting_past_the_cap_is_a_positioned_parse_error():
    for depth in (201, 3000):
        with pytest.raises(ParseError) as info:
            parse("(" * depth + "1" + ")" * depth, "field")
        assert (info.value.line, info.value.column) == (1, 201)
        assert "nested deeper than 200" in str(info.value)
