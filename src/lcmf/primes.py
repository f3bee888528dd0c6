"""Sieve-backed prime infrastructure.

Provides a growable prime table with the prime-counting function pi(x),
the Chebyshev log-sum theta(x) = sum of log p over primes p <= x,
base-b digit sums, and the exponent of a prime in n! (computed two
independent ways and cross-asserted).
"""

from __future__ import annotations

import bisect
import math
import os

import numpy as np

DEFAULT_LIMIT = 1 << 20
DEFAULT_BLOCK_SIZE = 1 << 20
SPF_CAP_DEFAULT = 10_000_000

# Miller-Rabin witnesses: with the first j primes as bases the test is
# deterministic below _MR_BOUNDS[j - 1], the least odd composite that is a
# strong pseudoprime to all of them (OEIS A014233).  Past the last bound no
# witness set is known to suffice; bases 2..43 then give a strong
# probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_MR_BOUNDS = (
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


def _env_default_limit() -> int:
    raw = os.environ.get("LCMF_SIEVE_LIMIT")
    if raw:
        try:
            return max(4, int(raw))
        except ValueError:
            raise ValueError(f"LCMF_SIEVE_LIMIT must be an integer, got {raw!r}") from None
    return DEFAULT_LIMIT


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3317044064679887385961981.

    It uses the fewest bases that are deterministic at the size of n, e.g.
    2, 3, 5 and 7 below 3215031751 (see _MR_BOUNDS).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES[: bisect.bisect_right(_MR_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, k: int) -> int:
    """The largest r >= 0 with r**k <= n, for n >= 0 and k >= 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    r = int(round(n ** (1.0 / k)))  # a float seed, then an exact correction
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def prime_powers(ps: np.ndarray, top: int):
    """Yield p**i over the prefix of ps with p**i <= top, for i = 1, 2, ...

    ps is ascending, so for each i the primes with p**i <= top are a prefix,
    which shrinks as i grows.  The next power is formed only on the prefix
    where p**i <= top // p, so no int64 product exceeds top.
    """
    pw = ps[: int(np.searchsorted(ps, top, side="right"))]
    while len(pw):
        yield pw
        k = int(np.count_nonzero(pw <= top // ps[: len(pw)]))
        pw = pw[:k] * ps[:k]


def _simple_sieve(limit: int) -> np.ndarray:
    """Boolean primality bitmap over [0, limit]."""
    if limit < 1:
        limit = 1
    bitmap = np.ones(limit + 1, dtype=bool)
    bitmap[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if bitmap[p]:
            bitmap[p * p :: p] = False
    return bitmap


class PrimeTable:
    """Primality bitmap plus the primes and their theta prefix, grown on demand.

    The bitmap is sieved block by block (DEFAULT_BLOCK_SIZE integers at a
    time); the per-prime prefix sums of log p back theta()/pi().  The table
    holds about 1 + 16 / ln(limit) bytes per integer; a limit whose arrays
    would not fit in physical memory is refused with ValueError.
    """

    def __init__(self, limit: int | None = None):
        if limit is None:
            limit = _env_default_limit()
        self._build(max(4, int(limit)))

    def _build(self, limit: int) -> None:
        # bitmap, the int64 primes and the float64 prefix; pi(x) < 1.26 x / ln x
        # (Rosser-Schoenfeld 1962) bounds the prime count
        need = limit + 1 + 16 * int(1.26 * limit / math.log(limit))
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise ValueError(
                f"a prime table up to {limit} needs about {need / 2**30:.1f} GiB, "
                f"more than this machine's {have / 2**30:.1f} GiB of memory"
            )
        bitmap = np.zeros(limit + 1, dtype=bool)
        base = _simple_sieve(math.isqrt(limit) + 1)
        base_primes = np.flatnonzero(base)
        lo = 0
        while lo <= limit:
            hi = min(lo + DEFAULT_BLOCK_SIZE, limit + 1)  # exclusive
            seg = np.ones(hi - lo, dtype=bool)
            if lo == 0:
                seg[: min(2, hi)] = False
            for p in base_primes:
                p = int(p)
                start = max(p * p, ((lo + p - 1) // p) * p)
                if start >= hi:
                    continue
                seg[start - lo :: p] = False
            bitmap[lo:hi] = seg
            lo = hi
        self.limit = limit
        self._is_prime = bitmap
        self._primes = np.flatnonzero(bitmap).astype(np.int64, copy=False)
        # prefix[i] = sum of log over the first i primes, ascending order; the
        # logs are summed in place, so the table holds no array of them
        prefix = np.empty(len(self._primes) + 1, dtype=np.float64)
        prefix[0] = 0.0
        np.log(self._primes, out=prefix[1:])
        np.cumsum(prefix[1:], out=prefix[1:])
        self._theta_prefix = prefix

    def ensure(self, limit: int) -> None:
        """Grow the table (at least doubling) so that limit is covered."""
        limit = int(limit)
        if limit > self.limit:
            self._build(max(limit, 2 * self.limit))

    # -- queries ------------------------------------------------------------

    def is_prime(self, n: int) -> bool:
        n = int(n)
        if n <= self.limit:
            return bool(self._is_prime[n]) if n >= 0 else False
        return is_probable_prime(n)

    def primes_up_to(self, x: float) -> np.ndarray:
        """Ascending int64 array of all primes <= floor(x)."""
        if x < 2:
            return self._primes[:0]
        bound = math.floor(x)
        self.ensure(bound)
        idx = int(np.searchsorted(self._primes, bound, side="right"))
        return self._primes[:idx]

    def primes_and_logs(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(primes <= x, their logs) as aligned arrays; the logs are taken on demand."""
        ps = self.primes_up_to(x)
        return ps, np.log(ps.astype(np.float64))

    def pi(self, x: float) -> int:
        """Number of primes <= x."""
        if x < 2:
            return 0
        bound = math.floor(x)
        self.ensure(bound)
        return int(np.searchsorted(self._primes, bound, side="right"))

    def theta(self, x: float) -> float:
        """Sum of log p over primes p <= x (ascending summation order)."""
        if x < 2:
            return 0.0
        bound = math.floor(x)
        self.ensure(bound)
        idx = int(np.searchsorted(self._primes, bound, side="right"))
        return float(self._theta_prefix[idx])

    def theta_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized theta over an array of integer arguments <= limit."""
        idx = np.searchsorted(self._primes, xs, side="right")
        return self._theta_prefix[idx]

    def prime_mask(self, limit: int) -> np.ndarray:
        """Primality bitmap view over [0, limit], for bulk membership tests."""
        self.ensure(limit)
        return self._is_prime[: limit + 1]


_default_table: PrimeTable | None = None


def default_table() -> PrimeTable:
    global _default_table
    if _default_table is None:
        _default_table = PrimeTable()
    return _default_table


def _table(table: PrimeTable | None) -> PrimeTable:
    return table if table is not None else default_table()


# -- digit sums and factorial valuations -------------------------------------


def digit_sum(n: int, base: int) -> int:
    """Sum of the base-b digits of n (n >= 0, b >= 2)."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    while n:
        n, r = divmod(n, base)
        total += r
    return total


def factorial_valuation(n: int, p: int, table: PrimeTable | None = None) -> int:
    """Exponent of the prime p in n!.

    Evaluates the floor-quotient sum over powers of p and cross-asserts it
    against the base-p digit form (n - digit_sum(n, p)) // (p - 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not _table(table).is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    alt, rem = divmod(n - digit_sum(n, p), p - 1)
    if rem != 0 or alt != total:
        raise AssertionError(f"factorial valuation routes disagree at n={n}, p={p}")
    return total


# -- factorization plumbing ---------------------------------------------------


class _SpfTable:
    """Smallest-prime-factor table, grown on demand up to a cap."""

    def __init__(self, cap: int = SPF_CAP_DEFAULT):
        self.cap = cap
        self.limit = 0
        self._spf = np.zeros(1, dtype=np.int32)

    def ensure(self, n: int) -> bool:
        if n <= self.limit:
            return True
        if n > self.cap:
            return False
        limit = min(self.cap, max(n, 2 * self.limit, 1 << 16))
        spf = np.zeros(limit + 1, dtype=np.int32)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == 0:
                sl = spf[p * p :: p]
                sl[sl == 0] = p
        ids = np.flatnonzero(spf[2:] == 0) + 2
        spf[ids] = ids
        self._spf = spf
        self.limit = limit
        return True

    def factorize(self, n: int) -> dict[int, int]:
        factors: dict[int, int] = {}
        spf = self._spf
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
        return factors


_spf = _SpfTable()


def factorize(n: int, table: PrimeTable | None = None) -> dict[int, int]:
    """Prime factorization of n >= 1 as an ascending {prime: exponent} dict.

    Uses the smallest-prime-factor table when n fits under its cap, and
    trial division by sieved primes otherwise.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return {}
    if _spf.ensure(n):
        return _spf.factorize(n)
    t = _table(table)
    factors: dict[int, int] = {}
    for p in t.primes_up_to(math.isqrt(n)):
        p = int(p)
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n > 1:
        factors[n] = 1
    return factors


def divisors(n: int) -> list[int]:
    """Ascending list of the positive divisors of n."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
