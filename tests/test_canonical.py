"""Ring operations of the twisted layer build their results without the
validating constructors; every result must still be the canonical value the
public constructor would build, and the boundary checks must still hold."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkbench.campaigns import run_campaign
from gkbench.cyclo import CycField
from gkbench.mqfield import MQElem, PrimeBasis
from gkbench.ordgroup import GroupElem
from gkbench.qaffine import QAlgebra, QPoly
from gkbench.ringops import TermSum
from gkbench.twistring import TwistedElem

BASIS = PrimeBasis.first(4)  # 2, 3, 5, 7
ALG = QAlgebra(2, CycField(2, 1))  # q = zeta_4

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=4)
subsets_st = st.frozensets(st.integers(min_value=1, max_value=4), max_size=4)
# zero coefficients on purpose: the public constructor must drop them
mq_st = st.dictionaries(subsets_st, fractions_st, max_size=5).map(
    lambda coeffs: MQElem(BASIS, coeffs)
)
group_st = st.dictionaries(
    st.integers(min_value=1, max_value=4), st.integers(min_value=-3, max_value=3), max_size=3
).map(GroupElem)
twisted_st = st.dictionaries(group_st, mq_st, max_size=3).map(
    lambda terms: TwistedElem(BASIS, terms)
)
index_st = st.integers(min_value=1, max_value=4)
exponent_st = st.integers(min_value=-3, max_value=3)
cyc_st = st.lists(fractions_st, min_size=2, max_size=2).map(ALG.field.element)
exps_st = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
qpoly_st = st.dictionaries(exps_st, cyc_st, max_size=4).map(lambda terms: QPoly(ALG, terms))


def assert_canonical_mq(r):
    assert isinstance(r, MQElem) and r.basis == BASIS
    assert MQElem(r.basis, r.coeffs) == r
    for subset, value in r.coeffs.items():
        assert isinstance(subset, frozenset) and subset <= {1, 2, 3, 4}
        assert type(value) is Fraction and value != 0


def assert_canonical_twisted(r):
    assert isinstance(r, TwistedElem) and r.parent == BASIS
    assert TwistedElem(r.parent, r.terms) == r
    for g, coeff in r.terms.items():
        assert isinstance(g, GroupElem) and g.max_index() <= len(BASIS)
        assert coeff
        assert_canonical_mq(coeff)


def replay_twist(g, a):
    """g.twist(a) by applying f_i once for every odd exponent of g."""
    for i, e in g.exps.items():
        if e % 2:
            a = a.apply_f(i)
    return a


@given(mq_st, mq_st, index_st, group_st, exponent_st)
def test_mq_results_are_canonical(a, b, i, g, k):
    results = [a + b, a - b, a + b - b, -a, a * b, a.apply_f(i), g.twist(a)]
    if a:
        results.append(a.inv())
    if a or k >= 0:
        results.append(a**k)
    for r in results:
        assert_canonical_mq(r)
    assert g.twist(a) == replay_twist(g, a)


@given(twisted_st, twisted_st, exponent_st)
def test_twisted_results_are_canonical(x, y, k):
    results = [x + y, x - y, x + y - y, -x, x * y, x * y - y * x]
    if len(x.terms) == 1:
        results += [x.inv(), x**k]
    elif k >= 0:
        results.append(x**k)
    for r in results:
        assert_canonical_twisted(r)


@given(mq_st, mq_st, twisted_st, twisted_st)
def test_equal_values_hash_equal(a, b, x, y):
    assert hash(MQElem(BASIS, dict(reversed(list(a.coeffs.items()))))) == hash(a)
    assert hash(a * b) == hash(b * a) and hash(a + b) == hash(b + a)
    assert hash(TwistedElem(BASIS, dict(reversed(list(x.terms.items()))))) == hash(x)
    assert hash(x + y) == hash(y + x)


@given(mq_st)
def test_fixed_by_all_matches_the_automorphism_replay(a):
    assert a.fixed_by_all() == all(a.apply_f(i) == a for i in range(1, len(BASIS) + 1))


def test_boundary_checks_still_raise():
    other = PrimeBasis.first(3)
    with pytest.raises(TypeError):
        TwistedElem(BASIS, {"x1": BASIS.one()})
    with pytest.raises(ValueError):
        TwistedElem(BASIS, {GroupElem.identity(): other.one()})
    for a, b in ((BASIS.one(), other.one()), (TwistedElem.one(BASIS), TwistedElem.one(other))):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b


def test_twisted_support_must_lie_inside_the_basis():
    small = PrimeBasis.first(2)
    message = "group index 3 outside the coefficient basis range 1..2"
    with pytest.raises(IndexError, match=message):
        TwistedElem.from_group(small, GroupElem.generator(3))
    with pytest.raises(IndexError, match=message):
        TwistedElem(small, {GroupElem({1: 1, 3: -2}): small.one()})
    assert TwistedElem.from_group(small, GroupElem.generator(2)).max_index() == 2


def test_fixed_field_campaign_replays_the_automorphisms(monkeypatch):
    # with every f_i broken to the identity, the replay calls every value
    # fixed, so the campaign's reference route must disagree on the
    # non-rational draws
    monkeypatch.setattr(MQElem, "apply_f", lambda self, i: self)
    records = run_campaign("field-axioms", {"trials": 50}, seed=0)
    (fixed,) = [r for r in records if r.claim_id == "field.fixed_field"]
    assert not fixed.passed


@given(qpoly_st, qpoly_st, cyc_st)
def test_qpoly_results_are_canonical(p, q, c):
    for r in (p + q, p - q, p + q - q, -p, p.scale(c), p * q, p * q - q * p):
        assert isinstance(r, QPoly) and r.parent == ALG
        assert QPoly(ALG, r.terms) == r
        assert all(len(e) == ALG.n and coeff for e, coeff in r.terms.items())


SAMPLES = (
    BASIS.element({(1, 2): 3, (): Fraction(1, 2)}),
    TwistedElem(BASIS, {GroupElem.generator(1): BASIS.radical(2)}),
    ALG.generator(1) + ALG.one(),
)


def test_sparse_types_share_one_core():
    shared = ("_make", "__add__", "__neg__", "__sub__", "__eq__", "__bool__", "is_zero", "__repr__")
    for cls in (TwistedElem, QPoly):
        assert issubclass(cls, TermSum)
        assert not [name for name in cls.__dict__ if name in shared or name.startswith("_check")]
    assert "_words" not in TwistedElem.__dict__ and "_words" not in QPoly.__dict__
    # the integer kernel keeps one denominator beside `terms`, so MQElem
    # overrides exactly the methods that read it and inherits the rest
    assert issubclass(MQElem, TermSum)
    inherited = set(TermSum.__dict__) - {"__module__", "__doc__", "__slots__", "_mismatch"}
    overridden = inherited & set(MQElem.__dict__)
    assert overridden == {"_make", "__add__", "__neg__", "__eq__", "__hash__", "_words"}
    for value in SAMPLES:
        assert not hasattr(value, "__dict__")
        assert repr(value) == f"{type(value).__name__}({value})"


def test_public_names_are_read_only_views_of_the_storage():
    mq, twisted, poly = SAMPLES
    assert mq.basis is mq.parent is BASIS
    # the other sparse types keep one name for their parent
    assert not hasattr(twisted, "basis") and not hasattr(poly, "algebra")
    assert mq.coeffs == {frozenset({1, 2}): Fraction(3), frozenset(): Fraction(1, 2)}
    for value, name in ((mq, "basis"), (mq, "coeffs")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_qpoly_stays_unhashable():
    with pytest.raises(TypeError):
        hash(ALG.one())
    assert hash(SAMPLES[0]) == hash(MQElem(BASIS, SAMPLES[0].coeffs))


def test_mismatch_messages():
    other_basis = PrimeBasis.first(3)
    other_alg = QAlgebra(2, CycField(3, 1))
    pairs = (
        (SAMPLES[0], other_basis.one(), "prime basis mismatch"),
        (SAMPLES[1], TwistedElem.one(other_basis), "prime basis mismatch"),
        (SAMPLES[2], other_alg.one(), "algebra mismatch"),
    )
    for a, b, message in pairs:
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(ValueError, match=f"^{message}$"):
                op()
