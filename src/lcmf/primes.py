"""Sieve-backed prime infrastructure.

Provides a growable prime table with the prime-counting function pi(x) and
the Chebyshev log-sum theta(x) = sum of log p over primes p <= x, taken at
an array of x; base-b digit sums; the exponent of a prime in n! (Legendre's
formula, cross-asserted against the digit form); and the largest e with p**e <= n.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported where an array is made, not at start-up
    import numpy as np

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
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """The Miller-Rabin rounds of is_probable_prime, for odd n above every base
    (callers rule out the small factors first)."""
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


def require_memory(need: int, what: str) -> None:
    """Raise ValueError when need bytes exceed this machine's physical memory,
    so that a request that cannot fit fails before anything is allocated."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.1f} GiB, "
            f"more than this machine's {have / 2**30:.1f} GiB of memory"
        )


def _table_bytes(limit: int, per_prime: int = 48) -> int:
    """About the bytes a PrimeTable up to limit holds, with per_prime bytes a
    prime more: its bitmap, a byte an integer, and 16 B a prime for the int64
    primes and float64 prefix derived to the end, which a read may never ask
    for.  The default, 48 B, is its prime_list to limit, by tracemalloc:
    each prime's int and its slot in the table's list, 40 B, and a slot in
    the one copy prime_list returns.  pi(x) < 1.26 x / ln x
    (Rosser-Schoenfeld 1962) bounds the prime count."""
    return limit + 1 + (16 + per_prime) * int(1.26 * limit / math.log(max(limit, 2)))


def _simple_sieve(limit: int) -> bytearray:
    """Primality bitmap over [0, limit], one byte per integer (1 for a prime)."""
    limit = max(limit, 1)
    bitmap = bytearray([1]) * (limit + 1)
    bitmap[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if bitmap[p]:
            bitmap[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return bitmap


def _cross_off(bitmap: bytearray, base: int, primes: list[int]) -> None:
    """Zero, in bitmap, whose byte i stands for the integer base + i, the byte
    of every multiple m >= p * p of each prime p of the ascending primes, a
    block of DEFAULT_BLOCK_SIZE integers at a time: the block loop of the
    table's build and of its segments."""
    end = base + len(bitmap)  # exclusive
    zeros = memoryview(bytes(min(DEFAULT_BLOCK_SIZE, len(bitmap)) // 2 + 1))
    for lo in range(base, end, DEFAULT_BLOCK_SIZE):
        hi = min(lo + DEFAULT_BLOCK_SIZE, end)  # exclusive
        for p in primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            bitmap[start - base : hi - base : p] = zeros[: (hi - 1 - start) // p + 1]


class PrimeTable:
    """Primality bitmap, grown on demand, with a scalar and an array view.

    The bitmap is a bytearray, one byte per integer, sieved block by block
    (DEFAULT_BLOCK_SIZE integers at a time) by the primes up to its square
    root.  The scalar reads need only the standard library: is_prime;
    prime_list, an ascending list of the primes kept as Python ints and
    extended from the bitmap as far as it is asked for; and segment, the
    bitmap of a range [lo, hi], which may lie past the table, sieved by the
    list up to sqrt(hi).  The array reads use numpy: prime_mask is a
    zero-copy view of the bitmap and derives nothing; primes_up_to, pi and
    theta_many read the int64 primes and the float64 per-prime prefix sums
    of log p, which are derived from the bitmap only as far as a read needs,
    at least twice as far as the last time (_derived).  So a command that
    reads no array never imports numpy, and a scan whose rows read the
    primes up to sqrt(n) alone derives them no further.

    A table made without a limit starts at the least one, 4, and ensure()
    grows it.  With its arrays derived to the end it holds about
    1 + 16 / ln(limit) bytes per integer; a limit whose bitmap and arrays
    would not fit in physical memory is refused with ValueError.
    """

    def __init__(self, limit: int | None = None):
        self._listed, self._list = 1, []  # the primes <= _listed, ascending
        self._build(max(4, int(limit or 0)))

    def _build(self, limit: int) -> None:
        require_memory(_table_bytes(limit, 0), f"a prime table up to {limit}")
        bitmap = bytearray([1]) * (limit + 1)
        bitmap[:2] = b"\0\0"
        base = _simple_sieve(math.isqrt(limit) + 1)
        _cross_off(bitmap, 0, list(itertools.compress(range(len(base)), base)))
        self.limit = limit
        self._bitmap = bitmap
        self._arrays = -1, None, None  # (reach, primes <= reach, theta prefix), by _derived

    def ensure(self, limit: int) -> None:
        """Grow the table (at least doubling) so that limit is covered."""
        limit = int(limit)
        if limit > self.limit:
            self._build(max(limit, 2 * self.limit))

    # -- scalar queries ------------------------------------------------------

    def is_prime(self, n: int) -> bool:
        n = int(n)
        if n <= self.limit:
            return n >= 0 and bool(self._bitmap[n])
        return is_probable_prime(n)

    def prime_list(self, x: float) -> list[int]:
        """Ascending list of all primes <= floor(x), as Python ints."""
        if x < 2:
            return []
        bound = math.floor(x)
        self.ensure(bound)
        if bound > self._listed:
            lo = self._listed + 1
            self._list += itertools.compress(range(lo, bound + 1), self._bitmap[lo : bound + 1])
            self._listed = bound
        return self._list[: bisect.bisect_right(self._list, bound)]

    def segment(self, lo: int, hi: int) -> bytearray:
        """Primality bitmap over [lo, hi], 2 <= lo <= hi, byte i for lo + i,
        sieved by the primes up to sqrt(hi), to which the table grows."""
        seg = bytearray([1]) * (hi - lo + 1)
        _cross_off(seg, lo, self.prime_list(math.isqrt(hi)))
        return seg

    # -- array queries -------------------------------------------------------

    def _derived(self, x: int):
        """(primes, theta prefix) over the bitmap up to at least x <= limit.
        When the last derivation stopped below x, both are derived again from
        the bitmap, as far as 2 x or the limit, so each derivation reaches at
        least twice as far as the last, and a run of reads up to x derives
        O(x) entries in all."""
        reach, primes, prefix = self._arrays
        if x > reach:
            import numpy as np

            reach = min(self.limit, 2 * x)
            primes = np.flatnonzero(self.prime_mask(reach)).astype(np.int64, copy=False)
            # prefix[i] = sum of log over the first i primes, ascending order; the
            # logs are summed in place, so the table holds no array of them
            prefix = np.empty(len(primes) + 1, dtype=np.float64)
            prefix[0] = 0.0
            np.log(primes, out=prefix[1:])
            np.cumsum(prefix[1:], out=prefix[1:])
            self._arrays = reach, primes, prefix
        return primes, prefix

    def primes_up_to(self, x: float) -> np.ndarray:
        """Ascending int64 array of all primes <= floor(x)."""
        bound = max(math.floor(x), 0)
        self.ensure(bound)  # first: it may grow the table, and so drop its arrays
        primes, _ = self._derived(bound)
        return primes[: primes.searchsorted(bound, side="right")]

    def pi(self, x: float) -> int:
        """Number of primes <= x."""
        return len(self.primes_up_to(x)) if x >= 2 else 0

    def theta_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized theta over an array of integer arguments, to the largest
        of which the table grows."""
        bound = int(xs.max(initial=0))
        self.ensure(bound)  # first: it may grow the table, and so drop its arrays
        primes, prefix = self._derived(bound)
        return prefix[primes.searchsorted(xs, side="right")]

    def prime_mask(self, limit: int) -> np.ndarray:
        """Primality bitmap view over [0, limit], for bulk membership tests."""
        import numpy as np

        self.ensure(limit)
        return np.frombuffer(self._bitmap, dtype=bool)[: limit + 1]


_default_table: PrimeTable | None = None


def default_table() -> PrimeTable:
    global _default_table
    if _default_table is None:
        _default_table = PrimeTable()
    return _default_table


def _table(table: PrimeTable | None) -> PrimeTable:
    return table if table is not None else default_table()


# -- digit sums and factorial valuations -------------------------------------


def _vfact(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula, the sum over e >= 1 of n // p**e."""
    v = 0
    while n >= p:
        n //= p
        v += n
    return v


def _log_floor(n: int, p: int) -> int:
    """The largest e >= 0 with p**e <= n, for n >= 1."""
    e, pw = 0, p
    while pw <= n:
        e, pw = e + 1, pw * p
    return e


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
    total = _vfact(n, p)
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
        self._spf = None  # allocated by the first ensure() past 1

    def ensure(self, n: int) -> bool:
        if n <= self.limit:
            return True
        if n > self.cap:
            return False
        import numpy as np

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
    for p in t.prime_list(math.isqrt(n)):
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
