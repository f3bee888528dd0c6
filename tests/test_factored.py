import math

import pytest
from hypothesis import given, settings, strategies as st

from lcmf.factored import DigitBudgetError, FactoredNatural
from lcmf.primes import factorize

from oracles import naive_factorization


def test_one_is_empty_map():
    assert FactoredNatural.one().factors == {}
    assert FactoredNatural.one().to_decimal() == "1"
    assert str(FactoredNatural.one()) == "1"


def test_roundtrip_to_decimal():
    for n in range(1, 100_001):
        assert FactoredNatural(factorize(n)).to_decimal() == str(n)


def test_construction_canonicalizes():
    assert FactoredNatural({2: 0, 3: 1}).factors == {3: 1}
    with pytest.raises(ValueError):
        FactoredNatural({4: 1})
    with pytest.raises(ValueError):
        FactoredNatural({2: -1})


def test_equality_and_hash():
    a = FactoredNatural({2: 2, 3: 1})
    b = FactoredNatural(factorize(12))
    assert a == b and hash(a) == hash(b)
    assert a != FactoredNatural(factorize(24))


def test_valuation_examples():
    f10fact = FactoredNatural(factorize(math.factorial(10)))
    assert f10fact.valuation(2) == 8  # 5 + 2 + 1
    assert f10fact.valuation(11) == 0
    with pytest.raises(ValueError):
        f10fact.valuation(4)


def test_log_value_examples():
    assert FactoredNatural.one().log_value() == 0.0
    assert FactoredNatural({2: 1}).log_value() == pytest.approx(math.log(2))
    assert FactoredNatural(factorize(360)).log_value() == pytest.approx(math.log(360), abs=1e-12)


def test_to_decimal_examples_and_budget():
    assert FactoredNatural({2: 4, 3: 2, 5: 1}).to_decimal() == "720"
    big = FactoredNatural({2: 10**7})
    with pytest.raises(DigitBudgetError):
        big.to_decimal()


def test_rendering():
    assert str(FactoredNatural({2: 3, 3: 2, 5: 1})) == "2^3 * 3^2 * 5"
    assert str(FactoredNatural({7: 1})) == "7"


def test_divides_brute_force():
    facs = [None] + [FactoredNatural(factorize(n)) for n in range(1, 2001)]
    for a in range(1, 2001):
        fa = facs[a]
        for b in range(1, 2001):
            assert fa.divides(facs[b]) == (b % a == 0), (a, b)


@given(st.integers(min_value=1, max_value=10**6))
@settings(deadline=None)
def test_factors_match_naive_factorization(n):
    assert FactoredNatural(factorize(n)).factors == naive_factorization(n)
