import math

import numpy as np
import pytest

from lcmf.primes import (
    PrimeTable,
    default_table,
    digit_sum,
    divisors,
    factorial_valuation,
    factorize,
    is_probable_prime,
    _simple_sieve,
)

from oracles import naive_theta, trial_primes


@pytest.fixture(scope="module")
def table():
    return default_table()


def test_primes_up_to_small(table):
    assert table.primes_up_to(1.9).tolist() == []
    assert table.primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert table.primes_up_to(2).tolist() == [2]


def test_prime_counts(table):
    brute = trial_primes(10_000)
    assert table.pi(100) == len([p for p in brute if p <= 100]) == 25
    assert table.pi(10_000) == len(brute) == 1229
    assert table.pi(10**6) == 78498
    # three sieve blocks against the unsegmented sieve
    big = PrimeTable(limit=3 << 20)
    assert big.limit == 3 << 20
    assert np.array_equal(big.primes_up_to(3 << 20), np.flatnonzero(_simple_sieve(3 << 20)))


def test_bitmap_matches_trial_division(table):
    brute = set(trial_primes(10_000))
    mask = table.prime_mask(10_000)
    for n in range(10_001):
        assert bool(mask[n]) == (n in brute)


def test_theta_values(table):
    brute = trial_primes(10_000)
    assert table.theta(1.5) == 0.0
    assert table.theta(10) == pytest.approx(math.log(210), abs=1e-12)
    for x in (100, 1234, 9999):
        assert table.theta(x) == pytest.approx(naive_theta(x, brute), rel=1e-12)


def test_theta_chebyshev_sanity(table):
    for x in range(1000, 100_001, 7349):
        assert 0.8 < table.theta(x) / x < 1.2


def test_auto_extend():
    t = PrimeTable(limit=100)
    assert t.pi(10_000) == 1229  # grows transparently
    assert t.limit >= 10_000


def test_is_prime_beyond_limit():
    t = PrimeTable(limit=100)
    assert t.is_prime(104729)  # beyond the bitmap
    assert not t.is_prime(104731)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)


def test_digit_sum_examples():
    assert digit_sum(0, 7) == 0
    assert digit_sum(10, 2) == 2
    assert digit_sum(255, 16) == 30
    with pytest.raises(ValueError):
        digit_sum(10, 1)


def test_digit_sum_mod_property():
    for n in range(0, 5000, 37):
        for b in (2, 3, 7, 10, 16):
            assert digit_sum(n, b) % (b - 1) == n % (b - 1)


def test_factorial_valuation_examples(table):
    assert factorial_valuation(0, 5) == 0
    assert factorial_valuation(10, 2) == 8
    assert factorial_valuation(100, 5) == 24
    with pytest.raises(ValueError):
        factorial_valuation(10, 6)


def test_factorial_valuation_digit_identity(table):
    primes = [p for p in trial_primes(50)]
    for n in range(0, 2001, 13):
        for p in primes:
            v = factorial_valuation(n, p)
            assert v == (n - digit_sum(n, p)) // (p - 1)


def test_factorize_and_divisors():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**31 - 1) == {2**31 - 1: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    big = 10_000_019 * 10_000_079  # above the spf cap: trial-division path
    assert factorize(big) == {10_000_019: 1, 10_000_079: 1}
