"""CLI contract on random expressions: `gkbench eval` in every context, and
`gkbench quantum nf`, end in exit 0 or 2 (one `error:` line) and never
raise."""

import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench import budget, cli

# valid atoms of each context, plus a few that are wrong in some context
ATOMS = {
    "field": ["0", "1", "2", "3/4", "s1", "s2", "s3", "s4"],
    "group": ["e", "x1", "x2", "x3"],
    "twisted": ["0", "1", "1/2", "s1", "s2", "x1", "x2", "e"],
    "quantum": ["0", "1", "2/3", "z", "x1", "x2", "x3"],
}
STRAY = ["g", "x0", "y1", "z", "e", "s1", "x1", "5"]
# non-ASCII digits, letters and whitespace: the scanner reads only ASCII
# digits and letters, and skips any whitespace
UNICODE = ["\u0663", "s\u0663", "2\u00b2", "\u00e9", "x1\u00a0", "\u2028e", "\u00a0"]


def _expr(context, depth):
    """Sums of products of powers, exponents in -9..9, parentheses nested at
    most `depth` deep: small enough that a missing power charge still fits
    in memory."""
    atom = st.sampled_from(ATOMS[context] * 8 + STRAY + UNICODE)
    if depth:
        atom = st.one_of(atom, _expr(context, depth - 1).map(lambda text: f"({text})"))
    power = st.one_of(st.just(""), st.integers(-9, 9).map(lambda e: f"^{e}"))
    factor = st.builds(str.__add__, atom, power)
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    if context == "group":
        return term  # no signs or sums in a group
    tail = st.lists(st.builds(str.__add__, st.sampled_from([" + ", " - "]), term), max_size=2)
    return st.builds(
        lambda sign, first, rest: sign + first + "".join(rest),
        st.sampled_from(["", "-"]), term, tail,
    )


@pytest.fixture
def small_cap():
    # a cap keeps each example quick; it does not change which exits are allowed
    saved = budget.cap()
    budget.set_cap(10**5)
    yield
    budget.set_cap(saved)


# the argv before the expression, by the context whose atoms it reads
COMMANDS = [
    pytest.param(context, ["eval", "--context", context], id=context)
    for context in sorted(ATOMS)
] + [pytest.param("quantum", ["quantum", "nf", "--n", "3"], id="quantum-nf")]


@pytest.mark.parametrize("context, command", COMMANDS)
def test_eval_exits_0_or_2_and_never_raises(small_cap, context, command):
    @given(_expr(context, 3))
    def check(text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--", text])
        assert code in (0, 2), (text, code)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (text, lines)
            assert out.getvalue() == ""
        else:
            assert err.getvalue() == ""

    check()
