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
    iroot,
    is_probable_prime,
    prime_powers,
    _MR_BASES,
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


def test_table_refuses_a_limit_over_physical_memory():
    # refused before anything is allocated: numpy would raise MemoryError
    with pytest.raises(ValueError, match="memory"):
        PrimeTable(10**13)
    t = PrimeTable(limit=100)
    with pytest.raises(ValueError, match="memory"):
        t.ensure(10**13)
    assert t.limit == 100 and t.pi(100) == 25


def test_is_prime_beyond_limit():
    t = PrimeTable(limit=100)
    assert t.is_prime(104729)  # beyond the bitmap
    assert not t.is_prime(104731)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)


# OEIS A014233: the least odd composite that is a strong pseudoprime to each of
# the first j prime bases, j = 1..13; the test's witness set changes at each
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_miller_rabin_rejects_every_witness_boundary():
    assert list(_MR_BASES) == trial_primes(43)  # the first j primes below bound j
    for n in A014233:
        assert not is_probable_prime(n), n
    # passes bases 2..37, so base 41 is what rejects it
    assert A014233[11] == 399165290221 * 798330580441
    assert is_probable_prime(399165290221) and is_probable_prime(798330580441)


def test_miller_rabin_matches_trial_division_near_the_small_boundaries():
    ps = np.flatnonzero(_simple_sieve(math.isqrt(A014233[3] + 2000)))
    for bound in A014233[:4]:
        xs = np.arange(bound - 2000, bound + 2000, dtype=np.int64)
        prime = np.ones(len(xs), dtype=bool)
        for p in ps[ps * ps <= xs[-1]]:
            prime &= (xs % p != 0) | (xs == p)
        assert [is_probable_prime(x) for x in xs.tolist()] == prime.tolist(), bound


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


def test_prime_powers_and_iroot_past_int64_squares():
    # 3037000507**2 > 2**63: the square of the last entry must not be formed
    top = 3_037_000_507
    ps = np.array([2, 3, 5, 7, top], dtype=np.int64)
    got = [pw.tolist() for pw in prime_powers(ps, top)]
    expected = []
    i = 1
    while any(p**i <= top for p in ps.tolist()):
        expected.append([p**i for p in ps.tolist() if p**i <= top])
        i += 1
    assert got == expected
    for n in (0, 1, 7, 8, 9, 10**18, 2**62 - 1, 2**62, 3**40 - 1, 3**40):
        for k in (1, 2, 3, 5):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
