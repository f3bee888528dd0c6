"""The rho and sigma sequences and their arithmetic structure.

rho(n) is the product over primes p of p**(n // p); sigma(n) the product of
p**(n // (p - 1)): the weighted prime products of the products module at
x = n for the weights m and m - 1.  Both divide into a web of exact
relations — divisibility chains, factorial sandwiches, and a two-valued
valuation dichotomy for sigma(n)/n! at primes p with p*p > n + 1 — that
this module computes and cross-checks by independent routes.  The
divisibility facts of Propositions 2 and 3 are decided for a block of n at
once by chain_flags and sandwich_flags, from one 2-D Legendre kernel
(v_p(n!) for every n and p of the block); divisibility_chain and
factorial_sandwich are their one-n wrappers.

Boundary comparisons against sqrt(n + 1) are done in integer arithmetic
(p > sqrt(n+1) iff p*p > n+1), and the quotient values floor(n/k + 1) are
computed as (n + k) // k, so no float ever decides a sharp range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes as _primes
from .factored import FactoredNatural
from .primes import PrimeTable
from .products import WeightFunction, prime_exponents, weighted_prime_product


def _legendre(ns, ps: np.ndarray) -> np.ndarray:
    """v_p(n!) for every row n of ns and column p of ps (ascending): int64 array.

    Legendre's sum of n // p**i; each term past the first fills only the
    column prefix where p**i <= max(ns), as it is 0 elsewhere.
    """
    ns = np.asarray(ns, dtype=np.int64)[:, None]
    total = np.zeros((len(ns), len(ps)), dtype=np.int64)
    for pw in _primes.prime_powers(ps, int(ns.max(initial=0))):
        total[:, : len(pw)] += ns // pw
    return total


def _rows(ns) -> np.ndarray:
    ns = np.asarray(ns, dtype=np.int64).reshape(-1)
    if ns.min(initial=0) < 0:
        raise ValueError("n must be >= 0")
    return ns


def rho(n: int, table: PrimeTable | None = None) -> FactoredNatural:
    """Product over primes p <= n of p**(n // p): the weight m at x = n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return weighted_prime_product(WeightFunction.linear(), n, table)


def sigma(n: int, table: PrimeTable | None = None) -> FactoredNatural:
    """Product over primes p <= n + 1 of p**(n // (p - 1)): the weight m-1 at x = n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return weighted_prime_product(WeightFunction.shifted(), n, table)


# -- divisibility checks ----------------------------------------------------------


def chain_flags(ns, table: PrimeTable | None = None) -> np.ndarray:
    """Four exact facts about rho/sigma at each n of ns: a (len(ns), 4) bool array.

    Columns, False being data:
    (a) rho(n) | rho(n+1), sigma(n) | sigma(n+1), rho(n) | sigma(n);
    (b) rho(n) | n!;
    (c) n! | sigma(n) and sigma(n) | (2n)!;
    (d) for odd n, sigma(n) = 2 * sigma(n-1)  (vacuously true for even n).
    Each is compared prime by prime over the primes up to max(2m, m + 2, 2),
    m = max(ns); a prime above a row's own bound has exponent 0 on both
    sides of every comparison, so one prime set serves the whole block.
    """
    ns = _rows(ns)
    top = int(ns.max(initial=0))
    ps = _primes._table(table).primes_up_to(max(2 * top, top + 2, 2))
    n = ns[:, None]
    # built in this order so that at most three (rows, primes) arrays are alive
    sig_n = n // (ps - 1)
    chain = np.all(sig_n <= (n + 1) // (ps - 1), axis=1)
    sandwich = np.all(sig_n <= _legendre(2 * ns, ps), axis=1)
    sig_prev = (n - 1) // (ps - 1)
    sig_prev += ps == 2
    doubling = (ns % 2 == 0) | np.all(sig_n == sig_prev, axis=1)
    del sig_prev
    fact_n = _legendre(ns, ps)
    sandwich &= np.all(fact_n <= sig_n, axis=1)
    rho_n = n // ps
    into_factorial = np.all(rho_n <= fact_n, axis=1)
    del fact_n
    chain &= np.all(rho_n <= (n + 1) // ps, axis=1) & np.all(rho_n <= sig_n, axis=1)
    return np.stack([chain, into_factorial, sandwich, doubling], axis=1)


def sandwich_flags(ns, table: PrimeTable | None = None) -> np.ndarray:
    """Whether (n+1)! | sigma(n) and sigma(n) | n! * lcm(1..n+1), per n of ns.

    A (len(ns), 2) bool array.  Checked prime by prime through the
    floor-quotient reduction: with e the largest exponent such that
    p**e <= n + 1,
        sum_i floor((n+1)/p**i)  <=  floor(n/(p-1))  <=  sum_i floor(n/p**i) + e,
    over the primes up to max(ns) + 1 (all three sides are 0 above n + 1).
    """
    ns = _rows(ns)
    top = int(ns.max(initial=0)) + 1
    ps = _primes._table(table).primes_up_to(top)
    mid = ns[:, None] // (ps - 1)
    lower = np.all(_legendre(ns + 1, ps) <= mid, axis=1)
    right = _legendre(ns, ps)
    for pw in _primes.prime_powers(ps, top):  # adds e, the count of i with p**i <= n + 1
        right[:, : len(pw)] += ns[:, None] + 1 >= pw
    return np.stack([lower, np.all(mid <= right, axis=1)], axis=1)


def divisibility_chain(n: int, table: PrimeTable | None = None) -> tuple[bool, bool, bool, bool]:
    """The four facts of chain_flags at one n, as booleans.

    A one-row wrapper: chain_flags, over a block of n, is the route the
    verify drivers take.
    """
    return tuple(chain_flags([n], table)[0].tolist())


def factorial_sandwich(n: int, table: PrimeTable | None = None) -> tuple[bool, bool]:
    """Whether (n+1)! | sigma(n) and sigma(n) | n! * lcm(1..n+1), at one n.

    A one-row wrapper: sandwich_flags, over a block of n, is the route the
    verify drivers take.  With e the largest exponent such that
    p**e <= n + 1, prime by prime:
        sum_i floor((n+1)/p**i)  <=  floor(n/(p-1))  <=  sum_i floor(n/p**i) + e.
    """
    return tuple(sandwich_flags([n], table)[0].tolist())


# -- the valuation dichotomy -------------------------------------------------------


@dataclass(frozen=True)
class ValuationRecord:
    """Valuation of sigma(n)/n! at a prime p with p*p > n+1, p <= n+1.

    valuation is 0 or 1, and equals 1 exactly when p = floor(n/k + 1) for
    some positive k with (k-1)**2 <= n; witness_k is that k when present.
    """

    n: int
    p: int
    valuation: int
    witness_k: int | None

    def csv_row(self) -> str:
        w = "" if self.witness_k is None else str(self.witness_k)
        return f"{self.n},{self.p},{self.valuation},{w}"


VALUATION_CSV_HEADER = "n,p,v,witness_k"


def sigma_ratio_valuation(n: int, p: int, table: PrimeTable | None = None) -> ValuationRecord:
    """Compute the valuation of sigma(n)/n! at p by two independent routes.

    Route one reads the two base-p digits of n (n < p*p - 1 holds in range)
    and takes floor(digit sum / (p - 1)).  Route two searches for a witness
    k with p = (n + k) // k in the admissible k range.  The routes must
    agree; disagreement raises.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = _primes._table(table)
    if not t.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p * p <= n + 1 or p > n + 1:
        raise ValueError(f"p = {p} outside the range sqrt(n+1) < p <= n+1 for n = {n}")

    a1, a0 = divmod(n, p)
    v_digits = (a0 + a1) // (p - 1)

    witness = None
    k = 1
    while (k - 1) * (k - 1) <= n:
        if (n + k) // k == p:
            witness = k
            break
        k += 1
    v_witness = 1 if witness is not None else 0

    if v_digits != v_witness:
        raise ArithmeticError(
            f"valuation routes disagree at n={n}, p={p}: digits {v_digits}, witness {v_witness}"
        )
    return ValuationRecord(n=n, p=p, valuation=v_digits, witness_k=witness)


@dataclass(frozen=True)
class QuotientPrimes:
    """Primes of the form floor(n/k + 1) over a k range, with their k's.

    The narrow variant takes k <= sqrt(n); the wide one k < sqrt(n+1) + 1.
    The quotient values are pairwise distinct over the range, so the member
    count equals the number of qualifying k.
    """

    n: int
    wide: bool
    members: frozenset[int]
    generating_k: dict[int, int]


def quotient_primes(n: int, wide: bool = False, table: PrimeTable | None = None) -> QuotientPrimes:
    """The set of primes floor(n/k + 1) for k in the chosen range."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = _primes._table(table)
    t.ensure(n + 2)
    kmax = math.isqrt(n) + 1 if wide else math.isqrt(n)
    values = [(n + k) // k for k in range(1, kmax + 1)]
    if len(set(values)) != len(values):
        raise ArithmeticError(f"quotient values not distinct at n={n}")
    gen = {v: k for k, v in enumerate(values, start=1) if t.is_prime(v)}
    return QuotientPrimes(n=n, wide=wide, members=frozenset(gen), generating_k=gen)


def split_sigma_over_factorial(
    n: int, table: PrimeTable | None = None
) -> tuple[float, FactoredNatural]:
    """Split sigma(n)/n! at sqrt(n+1) into (log of small part, large part).

    The small part collects primes with p*p <= n+1; the large part is exactly
    the product of the wide quotient primes exceeding sqrt(n+1), each to the
    first power — this is asserted, not assumed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = _primes._table(table)
    ps, sig = prime_exponents(WeightFunction.shifted(), n, t)
    v = sig - _legendre([n], ps)[0]
    if v.min(initial=0) < 0:
        raise ArithmeticError(f"sigma({n}) is not a multiple of {n}!")
    small = ps * ps <= n + 1
    large_ps = ps[~small]
    large_v = v[~small]
    nonzero = large_v > 0
    if not np.all(large_v[nonzero] == 1):
        raise ArithmeticError(f"large-prime valuation above 1 at n={n}")
    got = set(large_ps[nonzero].tolist())
    expected = {
        p for p in quotient_primes(n, wide=True, table=t).members if p * p > n + 1
    }
    if got != expected:
        raise ArithmeticError(f"large part mismatch at n={n}: {got} vs {expected}")
    small_log = 0.0
    for p, e in zip(ps[small].tolist(), v[small].tolist()):
        if e:
            small_log += e * math.log(p)
    return small_log, FactoredNatural._trusted({p: 1 for p in sorted(got)})
