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


def test_segments_equal_the_unsegmented_sieve():
    # one block, a segment across two block edges, one value, and the primes
    # up to sqrt(hi) themselves inside a segment; the table grows only to sqrt(hi)
    whole = _simple_sieve(3 << 20)
    for lo, hi in [(2, 100), (2, 3 << 20), ((1 << 20) - 5, (2 << 20) + 7), (999_983, 999_983)]:
        t = PrimeTable()
        assert t.segment(lo, hi) == whole[lo : hi + 1], (lo, hi)
        assert t.limit <= max(4, 2 * math.isqrt(hi)), (lo, hi)


def _numpy_sieve(limit: int) -> np.ndarray:
    """Primality bitmap over [0, limit] from one unsegmented numpy sieve,
    independent of the table's bytearray one."""
    bitmap = np.ones(limit + 1, dtype=bool)
    bitmap[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if bitmap[p]:
            bitmap[p * p :: p] = False
    return bitmap


@pytest.mark.parametrize("limit", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 << 20, None])
def test_table_views_equal_an_independent_numpy_sieve(limit):
    if limit is None:  # grown by ensure() from the least table, lists read in between
        t = PrimeTable()
        for bound in (4, 5, 1000, 70_001, 1 << 20):
            t.ensure(bound)
            assert t.prime_list(bound) == np.flatnonzero(_numpy_sieve(bound)).tolist()
    else:
        t = PrimeTable(limit)
    bitmap = _numpy_sieve(t.limit)
    ps = np.flatnonzero(bitmap)
    assert np.array_equal(t.prime_mask(t.limit), bitmap)
    assert np.array_equal(t.primes_up_to(t.limit), ps)
    assert t.prime_list(t.limit) == ps.tolist()
    assert [t.is_prime(n) for n in range(-3, 3000)] == [False] * 3 + bitmap[:3000].tolist()
    # the theta prefix, bit for bit: the logs summed in ascending order
    assert np.array_equal(t.theta_many(ps), np.cumsum(np.log(ps.astype(np.float64))))


def test_array_reads_derive_the_primes_only_as_far_as_they_read():
    # prime_mask derives nothing; primes_up_to, pi and theta_many derive the
    # primes and the theta prefix to twice what they read, or to the limit,
    # and again only past that, to the same bits as one derivation to the
    # end; a rebuild drops them
    t, full = PrimeTable(10**6), PrimeTable(10**6)
    full.primes_up_to(full.limit)
    assert int(t.prime_mask(10**6).sum()) == 78498 and t._arrays[0] == -1
    assert t.primes_up_to(100).tolist() == trial_primes(100) and t._arrays[0] == 200
    assert t.pi(200) == 46 and t._arrays[0] == 200
    assert t.pi(201) == 46 and t._arrays[0] == 402
    assert t.theta_many(np.array([1000, 7])).tolist() == full.theta_many(np.array([1000, 7])).tolist()
    xs = np.arange(2001)
    assert t._arrays[0] == 2000 and np.array_equal(t.theta_many(xs), full.theta_many(xs))
    assert np.array_equal(t.primes_up_to(600_000), full.primes_up_to(600_000))
    xs = np.arange(0, 10**6 + 1, 997)
    assert t._arrays[0] == 10**6 and np.array_equal(t.theta_many(xs), full.theta_many(xs))
    t.ensure(10**6 + 1)
    assert t._arrays[0] == -1 and t.pi(10**6) == 78498 and t._arrays[0] == t.limit


def test_bitmap_matches_trial_division(table):
    brute = set(trial_primes(10_000))
    mask = table.prime_mask(10_000)
    for n in range(10_001):
        assert bool(mask[n]) == (n in brute)


def test_theta_values(table):
    brute = trial_primes(10_000)
    table.ensure(10_000)  # theta_many reads arguments up to the table's limit
    zero, ten, *rest = table.theta_many(np.array([1, 10, 100, 1234, 9999])).tolist()
    assert zero == 0.0
    assert ten == pytest.approx(math.log(210), abs=1e-12)
    for x, theta in zip((100, 1234, 9999), rest):
        assert theta == pytest.approx(naive_theta(x, brute), rel=1e-12)


def test_theta_chebyshev_sanity(table):
    xs = np.arange(1000, 100_001, 7349)
    table.ensure(100_000)
    ratio = table.theta_many(xs) / xs
    assert np.all((0.8 < ratio) & (ratio < 1.2))


def test_theta_many_grows_the_table_past_its_end():
    # as primes_up_to, pi and prime_mask do: theta(1000) on a table up to 100
    t = PrimeTable(100)
    xs = np.array([7, 100, 101, 1000])
    assert t.theta_many(xs).tolist() == PrimeTable(1000).theta_many(xs).tolist()
    assert t.limit >= 1000
    assert t.theta_many(np.array([1000]))[0] == pytest.approx(naive_theta(1000, trial_primes(1000)))


def test_auto_extend():
    t = PrimeTable(limit=100)
    assert t.pi(10_000) == 1229  # grows transparently
    assert t.limit >= 10_000


def test_table_starts_at_its_least_limit():
    t = PrimeTable()
    assert t.limit == 4 and t.primes_up_to(4).tolist() == [2, 3]
    assert t.pi(1000) == 168 and t.limit == 1000
    t.ensure(1001)  # grows by at least doubling
    assert t.limit == 2000


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


def test_factorial_valuation_reports_routes_that_disagree(monkeypatch):
    # Legendre's sum read one too high at (10, 2): 9 against the digit form's 8
    from lcmf import primes

    real = primes._vfact
    monkeypatch.setattr(primes, "_vfact", lambda n, p: real(n, p) + ((n, p) == (10, 2)))
    with pytest.raises(AssertionError, match=r"^factorial valuation routes disagree at n=10, p=2$"):
        factorial_valuation(10, 2)
    assert factorial_valuation(10, 3) == 4


def test_factorize_and_divisors():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**31 - 1) == {2**31 - 1: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    big = 10_000_019 * 10_000_079  # above the spf cap: trial-division path
    assert factorize(big) == {10_000_019: 1, 10_000_079: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_iroot_past_int64_squares():
    for n in (0, 1, 7, 8, 9, 10**18, 2**62 - 1, 2**62, 3**40 - 1, 3**40):
        for k in (1, 2, 3, 5):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
