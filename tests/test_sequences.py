import math

import pytest

from lcmf.factored import FactoredNatural
from lcmf.primes import default_table, factorial_valuation
from lcmf.sequences import (
    divisibility_chain,
    factorial_sandwich,
    quotient_primes,
    rho,
    sigma,
    sigma_ratio_valuation,
    split_sigma_over_factorial,
)

from oracles import naive_rho, naive_sigma


def test_rho_sigma_small_values():
    assert rho(1) == FactoredNatural.one()
    assert rho(6).factors == {2: 3, 3: 2, 5: 1}
    assert sigma(4).factors == {2: 4, 3: 2, 5: 1}
    assert sigma(6).to_decimal() == "60480"
    assert sigma(0) == FactoredNatural.one()


def test_rho_sigma_match_trial_division():
    for n in range(0, 201):
        assert int(rho(n).to_decimal()) == naive_rho(n)
        assert int(sigma(n).to_decimal()) == naive_sigma(n)


def test_divisibility_chain_cases():
    assert divisibility_chain(0) == (True, True, True, True)
    assert divisibility_chain(6) == (True, True, True, True)
    assert divisibility_chain(7) == (True, True, True, True)
    # explicit doubling instance: sigma(7) = 2 * sigma(6)
    assert int(sigma(7).to_decimal()) == 2 * int(sigma(6).to_decimal()) == 120960


def test_factorial_sandwich_cases():
    assert factorial_sandwich(0) == (True, True)
    assert factorial_sandwich(4) == (True, True)
    assert factorial_sandwich(6) == (True, True)
    # n = 4 numerically: 120 | 720 and 720 | 24 * 60
    s4 = int(sigma(4).to_decimal())
    assert s4 % math.factorial(5) == 0
    assert (math.factorial(4) * 60) % s4 == 0


def test_sigma_ratio_valuation_examples():
    rec = sigma_ratio_valuation(10, 11)
    assert rec.valuation == 1 and rec.witness_k == 1
    rec = sigma_ratio_valuation(10, 5)
    assert rec.valuation == 0 and rec.witness_k is None
    # p = n + 1 prime always carries valuation 1 via k = 1
    for n in (1, 2, 4, 6, 10, 12, 100):
        rec = sigma_ratio_valuation(n, n + 1)
        assert rec.valuation == 1 and rec.witness_k == 1


def test_sigma_ratio_valuation_rejects_out_of_range():
    with pytest.raises(ValueError):
        sigma_ratio_valuation(10, 3)  # 3*3 <= 11
    with pytest.raises(ValueError):
        sigma_ratio_valuation(10, 13)  # above n + 1
    with pytest.raises(ValueError):
        sigma_ratio_valuation(10, 9)  # not prime


def test_valuation_matches_definition():
    # the record's valuation equals the exponent of p in sigma(n)/n!
    t = default_table()
    for n in range(1, 401):
        sig = sigma(n)
        for p in t.primes_up_to(n + 1).tolist():
            if p * p <= n + 1:
                continue
            expected = sig.valuation(p) - factorial_valuation(n, p)
            assert sigma_ratio_valuation(n, p).valuation == expected, (n, p)


def test_quotient_primes_examples():
    assert sorted(quotient_primes(100).members) == [11, 13, 17, 101]
    assert quotient_primes(100).generating_k == {101: 1, 17: 6, 13: 8, 11: 10}
    assert sorted(quotient_primes(1).members) == [2]
    assert sorted(quotient_primes(10, wide=True).members) == [3, 11]


def test_quotient_values_distinct():
    import numpy as np

    for n in range(1, 100_001):
        r = math.isqrt(n) + 1
        ks = np.arange(1, r + 1)
        vals = n // ks
        assert len(np.unique(vals)) == r, n


def test_split_examples():
    small_log, large = split_sigma_over_factorial(10)
    assert large.factors == {11: 1}
    assert small_log == pytest.approx(math.log(12), abs=1e-12)
    small_log, large = split_sigma_over_factorial(1)
    assert large.factors == {2: 1}
    assert small_log == 0.0


def test_split_reassembles_sigma_over_factorial():
    for n in range(1, 120):
        small_log, large = split_sigma_over_factorial(n)
        ratio = int(sigma(n).to_decimal()) // math.factorial(n)
        assert ratio % int(large.to_decimal()) == 0
        small = ratio // int(large.to_decimal())
        assert math.log(small) == pytest.approx(small_log, abs=1e-9)
