import math

import pytest
from hypothesis import given, settings, strategies as st

from lcmf.factored import DigitBudgetError, FactoredNatural

from oracles import naive_factorization


def test_one_is_empty_map():
    assert FactoredNatural.one().factors == {}
    assert FactoredNatural.one().to_decimal() == "1"
    assert str(FactoredNatural.one()) == "1"


def test_from_integer_small_cases():
    assert FactoredNatural.from_integer(1).factors == {}
    assert FactoredNatural.from_integer(12).factors == {2: 2, 3: 1}
    f360 = FactoredNatural.from_integer(360)
    assert math.prod(p**e for p, e in f360.items()) == 360


def test_from_integer_rejects_zero():
    with pytest.raises(ValueError):
        FactoredNatural.from_integer(0)


def test_roundtrip_to_decimal():
    for n in range(1, 100_001):
        assert FactoredNatural.from_integer(n).to_decimal() == str(n)


def test_construction_canonicalizes():
    assert FactoredNatural({2: 0, 3: 1}).factors == {3: 1}
    with pytest.raises(ValueError):
        FactoredNatural({4: 1})
    with pytest.raises(ValueError):
        FactoredNatural({2: -1})


def test_equality_and_hash():
    a = FactoredNatural({2: 2, 3: 1})
    b = FactoredNatural.from_integer(12)
    assert a == b and hash(a) == hash(b)
    assert a != FactoredNatural.from_integer(24)


def test_lcm_pointwise_max():
    a = FactoredNatural({2: 2, 3: 1})
    b = FactoredNatural({2: 1, 5: 1})
    assert a.lcm(b).factors == {2: 2, 3: 1, 5: 1}
    assert FactoredNatural.one().lcm(a) == a
    assert FactoredNatural.one().multiply(FactoredNatural.one()) == FactoredNatural.one()


def test_valuation_examples():
    f10fact = FactoredNatural.from_integer(math.factorial(10))
    assert f10fact.valuation(2) == 8  # 5 + 2 + 1
    assert f10fact.valuation(11) == 0
    with pytest.raises(ValueError):
        f10fact.valuation(4)


def test_log_value_examples():
    assert FactoredNatural.one().log_value() == 0.0
    assert FactoredNatural({2: 1}).log_value() == pytest.approx(math.log(2))
    assert FactoredNatural.from_integer(360).log_value() == pytest.approx(math.log(360), abs=1e-12)


def test_to_decimal_examples_and_budget():
    assert FactoredNatural({2: 4, 3: 2, 5: 1}).to_decimal() == "720"
    big = FactoredNatural({2: 10**7})
    with pytest.raises(DigitBudgetError):
        big.to_decimal(digit_budget=1000)


def test_rendering():
    assert str(FactoredNatural({2: 3, 3: 2, 5: 1})) == "2^3 * 3^2 * 5"
    assert str(FactoredNatural({7: 1})) == "7"


def test_divides_brute_force():
    facs = [None] + [FactoredNatural.from_integer(n) for n in range(1, 2001)]
    for a in range(1, 2001):
        fa = facs[a]
        for b in range(1, 2001):
            assert fa.divides(facs[b]) == (b % a == 0), (a, b)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(deadline=None)
def test_multiply_matches_integers(n, m):
    fn, fm = FactoredNatural.from_integer(n), FactoredNatural.from_integer(m)
    assert fn.multiply(fm) == FactoredNatural.from_integer(n * m)
    assert fn.factors == naive_factorization(n)


@given(
    st.integers(min_value=1, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
)
@settings(deadline=None)
def test_lcm_properties(a, b, c):
    fa, fb, fc = (FactoredNatural.from_integer(v) for v in (a, b, c))
    assert fa.lcm(fb) == fb.lcm(fa)
    assert fa.lcm(fa) == fa
    assert fa.lcm(fb).lcm(fc) == fa.lcm(fb.lcm(fc))
    assert fa.lcm(fb) == FactoredNatural.from_integer(math.lcm(a, b))


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
@settings(deadline=None)
def test_valuation_additive_under_multiply(a, b, p):
    fa, fb = FactoredNatural.from_integer(a), FactoredNatural.from_integer(b)
    assert fa.multiply(fb).valuation(p) == fa.valuation(p) + fb.valuation(p)
