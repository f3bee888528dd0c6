"""The rho and sigma sequences and their arithmetic structure.

rho(n) is the product over primes p of p**(n // p); sigma(n) the product of
p**(n // (p - 1)): the weighted prime products of the products module at
x = n for the weights m and m - 1.  Both divide into a web of exact
relations — divisibility chains, factorial sandwiches, and a two-valued
valuation dichotomy for sigma(n)/n! at primes p with p*p > n + 1 — that
this module computes and cross-checks by independent routes.  Every
per-n check over a range of n is one walk on plain ints: for one prime p,
every side of every comparison is a step function of n that steps only at
a few residues mod p and p - 1, so it is evaluated once per interval that
_pieces yields between steps, about 7 n / p points for p rather than n.
chain_flags and sandwich_flags (Propositions 2 and 3) and _split_walk (the
split of sigma(n)/n!) are such walks, each with a one-n wrapper.

Boundary comparisons against sqrt(n + 1) are done in integer arithmetic
(p > sqrt(n+1) iff p*p > n+1), and the quotient values floor(n/k + 1) are
computed as (n + k) // k, so no float ever decides a sharp range.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from . import primes as _primes
from .primes import PrimeTable

if TYPE_CHECKING:  # imported by the functions that use it, not at start-up
    from .factored import FactoredNatural


def rho(n: int, table: PrimeTable | None = None) -> FactoredNatural:
    """Product over primes p <= n of p**(n // p): the weight m at x = n."""
    from .products import WeightFunction, weighted_prime_product

    if n < 0:
        raise ValueError("n must be >= 0")
    return weighted_prime_product(WeightFunction.linear(), n, table)


def sigma(n: int, table: PrimeTable | None = None) -> FactoredNatural:
    """Product over primes p <= n + 1 of p**(n // (p - 1)): the weight m-1 at x = n."""
    from .products import WeightFunction, weighted_prime_product

    if n < 0:
        raise ValueError("n must be >= 0")
    return weighted_prime_product(WeightFunction.shifted(), n, table)


# -- divisibility checks ----------------------------------------------------------


def _vfact(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
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


# the residues (modulus, residue) at which some term of a check steps, per prime
# p: n // p and v_p(n!) step at n = 0 (mod p); (n + 1) // p, v_p((n + 1)!) and
# e_p(n + 1) at n = -1 (mod p); v_p((2n)!) at n = 0 and n = (p + 1) / 2 (mod p),
# as (2n)! = (2n - 2)! (2n - 1) 2n; n // (p - 1), (n + 1) // (p - 1) and
# (n - 1) // (p - 1) at n = 0, -1 and 1 (mod p - 1).  For p = 2 the modulus
# p - 1 = 1 makes every n a step, as v_2((2n)!) needs.
def _chain_steps(p: int):
    return ((p, 0), (p, -1), (p, (p + 1) // 2), (p - 1, 0), (p - 1, -1), (p - 1, 1))


def _sandwich_steps(p: int):
    return ((p, 0), (p, -1), (p - 1, 0))


# split's large-prime valuation n // (p - 1) - n // p steps at n = 0 (mod p, p - 1)
def _split_steps(p: int):
    return ((p, 0), (p - 1, 0))


def _pieces(lo: int, hi: int, steps, p: int):
    """Each [b, e) of [lo, hi], ascending, with b lo or a step of p and no step
    in (b, e); a step is an n = r (mod m) for some (m, r) of steps.

    The steps are sorted one window of max(p*p, isqrt(hi - lo)) integers at
    a time: a window holds about p steps of each residue at least, and
    O(sqrt(hi - lo)) steps at most, so no list of all n is made.
    """
    if lo > hi:
        return
    width = max(p * p, math.isqrt(hi - lo))
    b = lo
    for start in range(lo + 1, hi + 1, width):
        top = min(start + width - 1, hi)
        window = set()
        for m, r in steps:
            window.update(range(start + (r - start) % m, top + 1, m))
        for n in sorted(window):
            yield b, n
            b = n
    yield b, hi + 1


def chain_flags(lo: int, hi: int, table: PrimeTable | None = None) -> list[bytearray]:
    """Where four exact facts about rho/sigma fail over [lo, hi]: one bytearray
    per fact, byte n - lo nonzero when the fact fails at n.

    The facts, a failure being data:
    (a) rho(n) | rho(n+1), sigma(n) | sigma(n+1), rho(n) | sigma(n);
    (b) rho(n) | n!;
    (c) n! | sigma(n) and sigma(n) | (2n)!;
    (d) for odd n, sigma(n) = 2 * sigma(n-1)  (vacuously true for even n).
    Each is compared prime by prime over the primes up to max(2 hi, hi + 2, 2);
    a prime above n's own bound has exponent 0 on both sides of every
    comparison.  For one prime every side is a step function of n
    (_chain_steps says where each steps), so each comparison is decided once
    per interval of _pieces, from scratch at the interval's first n; (d),
    which holds at every even n, at the interval's first odd n, for all of
    its odd n.
    """
    if lo < 0:
        raise ValueError("n must be >= 0")
    ps = _primes._table(table).prime_list(max(2 * hi, hi + 2, 2))
    fails = [bytearray(len(range(lo, hi + 1))) for _ in range(4)]
    for p in ps:
        q = p - 1
        for b, e in _pieces(lo, hi, _chain_steps(p), p):
            a, s, f = b // p, b // q, _vfact(b, p)
            if s > (b + 1) // q or a > (b + 1) // p or a > s:
                fails[0][b - lo : e - lo] = b"\1" * (e - b)
            if a > f:
                fails[1][b - lo : e - lo] = b"\1" * (e - b)
            if not f <= s <= _vfact(2 * b, p):
                fails[2][b - lo : e - lo] = b"\1" * (e - b)
            odd = b | 1
            if odd < e and odd // q != (odd - 1) // q + (p == 2):
                fails[3][odd - lo : e - lo : 2] = b"\1" * len(range(odd, e, 2))
    return fails


def sandwich_flags(lo: int, hi: int, table: PrimeTable | None = None) -> list[bytearray]:
    """Where (n+1)! | sigma(n) and sigma(n) | n! * lcm(1..n+1) fail over [lo, hi]:
    one bytearray per fact, byte n - lo nonzero when the fact fails at n.

    Checked prime by prime through the floor-quotient reduction: with e the
    largest exponent such that p**e <= n + 1,
        sum_i floor((n+1)/p**i)  <=  floor(n/(p-1))  <=  sum_i floor(n/p**i) + e,
    over the primes up to hi + 1 (all three sides are 0 above n + 1).  Each
    comparison is decided once per interval of _pieces between the steps of
    its sides (see _sandwich_steps), from scratch at its first n.
    """
    if lo < 0:
        raise ValueError("n must be >= 0")
    ps = _primes._table(table).prime_list(hi + 1)
    fails = [bytearray(len(range(lo, hi + 1))) for _ in range(2)]
    for p in ps:
        for b, e in _pieces(lo, hi, _sandwich_steps(p), p):
            mid = b // (p - 1)
            if _vfact(b + 1, p) > mid:
                fails[0][b - lo : e - lo] = b"\1" * (e - b)
            if mid > _vfact(b, p) + _log_floor(b + 1, p):
                fails[1][b - lo : e - lo] = b"\1" * (e - b)
    return fails


def divisibility_chain(n: int, table: PrimeTable | None = None) -> tuple[bool, bool, bool, bool]:
    """The four facts of chain_flags at one n, as booleans (True: the fact holds).

    A one-row wrapper: chain_flags, over a range of n, is the route the
    verify drivers take.
    """
    return tuple(not f[0] for f in chain_flags(n, n, table))


def factorial_sandwich(n: int, table: PrimeTable | None = None) -> tuple[bool, bool]:
    """Whether (n+1)! | sigma(n) and sigma(n) | n! * lcm(1..n+1), at one n.

    A one-row wrapper: sandwich_flags, over a range of n, is the route the
    verify drivers take.  With e the largest exponent such that
    p**e <= n + 1, prime by prime:
        sum_i floor((n+1)/p**i)  <=  floor(n/(p-1))  <=  sum_i floor(n/p**i) + e.
    """
    return tuple(not f[0] for f in sandwich_flags(n, n, table))


# -- the valuation dichotomy -------------------------------------------------------


class ValuationRecord(NamedTuple):
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


class QuotientPrimes(NamedTuple):
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
    # the values fall as k grows, by at least 1 while k (k + 1) <= n, which
    # holds for every pair of neighbours in the range but the last
    if kmax > 1 and n // (kmax - 1) == n // kmax:
        raise ArithmeticError(f"quotient values not distinct at n={n}")
    bitmap = t._bitmap  # every value is at most n + 1, inside the table
    gen = {v: k for k in range(1, kmax + 1) if bitmap[v := n // k + 1]}
    return QuotientPrimes(n=n, wide=wide, members=frozenset(gen), generating_k=gen)


def _split_walk(lo: int, hi: int, table: PrimeTable):
    """(n, small log, large primes, failure or None) per n of [lo, hi], lo >= 1.

    For p*p > n + 1, p's exponent in sigma(n)/n! is n // (p - 1) - n // p, so
    each p is walked over the n where it is large, [p - 1, p*p - 2], counting
    the primes of valuation 1 per n (as differences).  The large part is the
    wide quotient primes above sqrt(n + 1) exactly when there are as many of
    them as counted and each is a prime of valuation 1.
    """
    ps = table.prime_list(hi + 1)
    above = bytearray(len(range(lo, hi + 1)))  # a large valuation exceeds 1
    ones = [0] * (len(above) + 1)  # the primes of valuation 1, as differences
    for p in ps:
        for b, e in _pieces(max(lo, p - 1), min(hi, p * p - 2), _split_steps(p), p):
            v = b // (p - 1) - b // p
            if v == 1:
                ones[b - lo] += 1
                ones[e - lo] -= 1
            elif v > 1:
                above[b - lo : e - lo] = b"\1" * (e - b)
    bitmap = table._bitmap  # every prime walked is at most hi + 1, inside the table
    count = 0
    for n in range(lo, hi + 1):
        count += ones[n - lo]
        small_log, large, failure = 0.0, None, None
        for p in itertools.takewhile(lambda p: p * p <= n + 1, ps):  # ascending
            e = n // (p - 1) - _vfact(n, p)
            if e < 0:
                failure = f"sigma({n}) is not a multiple of {n}!"
                break
            if e:
                small_log += e * math.log(p)
        if failure is None and above[n - lo]:
            failure = f"large-prime valuation above 1 at n={n}"
        if failure is None:
            large = {p for p in quotient_primes(n, wide=True, table=table).members if p * p > n + 1}
            if len(large) != count or not all(
                n // (p - 1) - n // p == 1 and bitmap[p] for p in large
            ):
                got = {p for p in ps if p * p > n + 1 and n // (p - 1) - n // p}  # 0 past n + 1
                failure = f"large part mismatch at n={n}: {got} vs {large}"
        yield n, small_log, large, failure


def split_sigma_over_factorial(
    n: int, table: PrimeTable | None = None
) -> tuple[float, FactoredNatural]:
    """Split sigma(n)/n! at sqrt(n+1) into (log of small part, large part).

    The small part collects primes with p*p <= n+1; the large part is exactly
    the product of the wide quotient primes exceeding sqrt(n+1), each to the
    first power — this is asserted, not assumed (_split_walk at one n).
    """
    from .factored import FactoredNatural

    if n < 1:
        raise ValueError("n must be >= 1")
    [(_, small_log, large, failure)] = _split_walk(n, n, _primes._table(table))
    if failure is not None:
        raise ArithmeticError(failure)
    return small_log, FactoredNatural._trusted({p: 1 for p in sorted(large)})
