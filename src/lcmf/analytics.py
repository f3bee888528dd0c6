"""Analytic layer: the constant c, theta-sum identities, and scans.

The headline quantities are log rho(n) and log sigma(n).  Both admit exact
rewrites as sums of theta values over the ~2 sqrt(n) distinct quotients n//k,
and their gap is the log-sum over k of the prime quotient values
floor(n/k + 1).  A scan row takes every field from one array q = n // k,
summed by _rows on both routes below; the direct sums of (n // p) log p and
(n // (p-1)) log p over the primes (_prime_sums, behind log_rho/log_sigma)
are the check route.  Residuals subtract n log n - (c+1) n and n log n - n,
where c is the sum over primes of log p / (p (p-1)): scans take it from
analytic_constant(), the float of an analytic series, and
prime_series_constant() encloses it rigorously.

The route of a row depends on n alone.  Below LUCY_THRESHOLD (2^22) theta
and primality are lookups in a prime table up to n + 2, about
1 + 16 / ln n bytes per integer, taken for a block of n at a time
(_table_rows): a step:1 window near 2^20 takes about 0.07 ms a row.  From
it on, each row is a block of one (_lucy_row): theta at every quotient
comes from Lucy's sieve (_lucy) in O(n**(3/4)) time and O(sqrt n) memory,
with a table only up to sqrt(n) + 2: a row at 2^36 takes about 1.4 s and
64 MB.  Each row sums in a fixed order over its own arrays, so scan output
is reproducible bit for bit on one platform whatever the grid, its blocks
or the worker count.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import primes as _primes
from .primes import PrimeTable

DEFAULT_TAIL_CUT = 50_000_000
_ROUNDING_SLOP = 1e-11  # covers float accumulation error in the partial sums


class _Interval(NamedTuple):
    lo: float
    hi: float


class Enclosure(_Interval):
    """A closed interval [lo, hi] certified to contain a target constant."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if not (lo <= hi):
            raise ValueError("need lo <= hi")
        return super().__new__(cls, lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi


# c = sum over m >= 2 of mu(m) zeta'(m) / zeta(m), the float nearest to it
_ANALYTIC_C = float.fromhex("0x1.82bf699406611p-1")


def analytic_constant() -> Enclosure:
    """[c - 2**-52, c + 2**-52] from c = sum over m >= 2 of mu(m) zeta'(m)/zeta(m).

    The series is the Moebius inversion of -zeta'/zeta(s) = sum of
    log p * p**(-j s) over primes p and j >= 1 (H. Cohen, 1998).  Summed at
    80 bits until |zeta'/zeta(m)| < 2**-60, it rounds to the float literal
    _ANALYTIC_C; tests/test_analytics.py re-sums it at 80 bits and checks that.
    The last term bounds the whole tail, as each term Lambda(k) k**-s of
    -zeta'/zeta(s) is positive and at least halves when s grows by one, so
    2**-52 covers the tail, the rounding to float (half an ulp of c, 2**-54)
    and the evaluation error (about 2**-80 per term); c +- 2**-52 are exact
    floats.
    """
    return Enclosure(_ANALYTIC_C - 2.0**-52, _ANALYTIC_C + 2.0**-52)


def prime_series_constant(tail_cut: int, table: PrimeTable | None = None) -> Enclosure:
    """Enclose the constant sum over primes of log p / (p (p-1)).

    lo is the partial sum over primes p <= tail_cut = x.  The tail beyond is
    at most 2 (log x + 1) / x: log p/(p(p-1)) <= 2 log p/p**2, and since
    log t / t**2 decreases for t >= 2, the sum of 2 log m / m**2 over all
    integers m > x is at most 2 * integral of log t / t**2 from x to
    infinity.  The same comparison between two cuts makes the enclosures
    nest.  A small constant slop absorbs float round-off.
    """
    x = int(tail_cut)
    if x < 100:
        raise ValueError("tail cut must be >= 100")
    t = _primes._table(table)
    ps = t.primes_up_to(x).astype(np.float64)
    lo = float(np.sum(np.log(ps) / (ps * (ps - 1.0))))
    majorant = 2.0 * (math.log(x) + 1.0) / x
    return Enclosure(lo - _ROUNDING_SLOP, lo + majorant + _ROUNDING_SLOP)


@functools.cache
def default_constant() -> Enclosure:
    """Cached enclosure at the default tail cut (width under 1e-6)."""
    return prime_series_constant(DEFAULT_TAIL_CUT)


# -- exact log values and theta-sum identities ------------------------------------


def log_rho(n: int, table: PrimeTable | None = None) -> float:
    """log rho(n) as the sum of (n // p) log p over p <= n, summed pairwise in
    ascending p by the check route _prime_sums."""
    return _prime_sums([n], _primes._table(table), 0)[0]


def log_sigma(n: int, table: PrimeTable | None = None) -> float:
    """log sigma(n) as the sum of (n // (p-1)) log p over p <= n + 1, summed
    pairwise in ascending p by the check route _prime_sums."""
    return _prime_sums([n], _primes._table(table), 1)[0]


def _blocks(widths: Iterable[int]):
    """(a, b): consecutive ranges of rows with nondecreasing widths, each at
    most _TABLE_BLOCK_CELLS cells counted at its widest, last, row; a row
    wider than that is a block of its own.  The widths are read one by one."""
    a = b = 0
    for w in widths:  # of row b, the widest yet
        if b > a and (b + 1 - a) * w > _TABLE_BLOCK_CELLS:
            yield a, b
            a = b
        b += 1
    if b > a:
        yield a, b


def _prime_sums(ns: list[int], t: PrimeTable, shift: int) -> list[float]:
    """The sum over primes p <= n + shift of (n // (p - shift)) log p, for each n
    of the ascending ns: log rho(n) with shift 0, log sigma(n) with shift 1.

    The check route of the theta sums: no quotient of n by k, only the primes,
    cut at each n's own n + shift, for a block of n at a time (_blocks).  The
    quotients are floors of float64 divisions, exact for n < 2**53: n and d
    are floats, n/d lies in [n // d, n // d + 1 - 1/d], and fl(n/d) is within
    (n/d) 2**-53 < 1/d of it and, rounding being monotone, no less than the
    float n // d, so its floor is n // d.  Larger n, and n < 0, are refused
    with ValueError.  Each n sums with np.add.reduce, pairwise in ascending
    p, over its own slice of its row, so its value does not depend on ns.
    """
    if not ns:
        return []
    if ns[0] < 0:
        raise ValueError("n must be >= 0")
    if ns[-1] >= 1 << 53:
        raise ValueError("the check route's float64 quotients are exact only for n < 2**53")
    ps, logs = t.primes_and_logs(ns[-1] + shift)
    divisors = (ps - shift).astype(np.float64)
    counts = ps.searchsorted(np.array(ns, dtype=np.int64) + shift, side="right").tolist()
    out = []
    for a, b in _blocks(counts):
        w = counts[b - 1]
        q = np.divide(np.array(ns[a:b], dtype=np.float64)[:, None], divisors[:w])
        np.floor(q, out=q)
        q *= logs[:w]
        out += [float(np.add.reduce(row[:c])) for row, c in zip(q, counts[a:b])]
    return out


_Row = tuple[float, float, int, float, float]  # (log_rho, log_sigma, card_A, s1, s2)


def _rows(ns: list[int], q, rho_q, sigma_q, prime_q, rho_v, sigma_v, hit, hit_log) -> list[_Row]:
    """(log_rho, log_sigma, card_A, s1, s2) of each n of a block of ascending
    ns: the one row assembly of both scan routes.

    Row i of q holds n // k for k = 1..w, w = top + 1 of the widest row, with
    r = isqrt(n) and top = n // (r + 1).  rho_q, sigma_q and prime_q hold
    theta(n // k), theta(n // k + 1) and the primality of n // k + 1 for
    k <= r, in rows of their own stride; rho_v and sigma_v hold theta(v) and
    theta(v + 1) at index v < w, hit the v < w with v + 1 prime, as v - 1, and
    hit_log log(v + 1) at those.  The large quotients v <= top weigh
    mult = n // v - n // (v + 1), the number of k > r with n // k == v.  Each
    row sums with np.add.reduce over its own slices: the values and the order
    of a row do not depend on the block, so neither do its sums.
    """
    roots = [math.isqrt(n) for n in ns]
    tops = [n // (r + 1) for n, r in zip(ns, roots)]
    hits = hit.searchsorted(tops).tolist()  # how many large v with v + 1 prime, per row
    w, stride = q.shape[1], prime_q.shape[1]
    # card_A and s1: the flagged cells, row after row; row i's small
    # quotients are the cells from i stride to i stride + r
    flagged = np.flatnonzero(prime_q)
    logs = np.log(q[:, :stride].ravel()[flagged] + 1)
    bounds = [c for i, r in enumerate(roots) for c in (i * stride, i * stride + r)]
    cuts = flagged.searchsorted(bounds).tolist()
    mult = q[:, :-1] - q[:, 1:]  # at v = 1..w-1
    mult_rho, mult_sigma = mult * rho_v[1:w], mult * sigma_v[1:w]
    # s2: mult times log(v + 1) at the large v with v + 1 prime
    mult_s2 = mult[:, hit[: hits[-1]]] * hit_log[: hits[-1]]
    del mult
    return [
        (
            float(np.add.reduce(rho_q[i, :r]) + np.add.reduce(mult_rho[i, :top])),
            float(np.add.reduce(sigma_q[i, :r]) + np.add.reduce(mult_sigma[i, :top])),
            cuts[2 * i + 1] - cuts[2 * i],
            float(np.add.reduce(logs[cuts[2 * i] : cuts[2 * i + 1]])),
            float(np.add.reduce(mult_s2[i, :m])),
        )
        for i, (r, top, m) in enumerate(zip(roots, tops, hits))
    ]


def _table_rows(ns: list[int], t: PrimeTable) -> Iterator[_Row]:
    """(log_rho, log_sigma, card_A, s1, s2) of each n of the ascending ns in
    turn, from the prime table, grown to max(ns) + 2.

    theta at v and v + 1, and log(v + 1) where v + 1 is prime, depend on v
    alone, so they are taken once per call, from one running count of the
    bitmap.  The rest is taken a block of n at a time (_blocks): q = n // k
    is one array, pi at it one search of the primes, and the flags of
    n // k + 1 and the theta gathers one step each.  _rows sums each block,
    whose rows are yielded one by one, so that a caller holds no list of them.
    """
    if not ns:
        return
    mask = t.prime_mask(ns[-1] + 2)  # first: it may grow the table
    _, primes, prefix = t._derived()
    top = ns[-1] // (math.isqrt(ns[-1]) + 1)  # the largest top: it is nondecreasing in n
    theta = prefix[np.cumsum(mask[: top + 2])]  # theta(v) for v <= top + 1
    hit = np.flatnonzero(mask[2 : top + 2])  # the v <= top with v + 1 prime, as v - 1
    hit_log = np.log(hit + 2)
    for a, b in _blocks(n // (math.isqrt(n) + 1) + 1 for n in ns):
        w = ns[b - 1] // (math.isqrt(ns[b - 1]) + 1) + 1
        q = np.array(ns[a:b], dtype=np.int64)[:, None] // np.arange(1, w + 1, dtype=np.int64)
        prime_q = mask[1:][q]  # n // k + 1 prime
        at = primes.searchsorted(q, side="right")  # pi(n // k)
        rho_q = prefix[at]
        at += prime_q
        sigma_q = prefix[at]
        del at  # each array goes once used, so that a block holds few at a time
        yield from _rows(ns[a:b], q, rho_q, sigma_q, prime_q, theta, theta[1:], hit, hit_log)


# -- Lucy's sieve ---------------------------------------------------------------------

# Scan rows for n >= LUCY_THRESHOLD come from Lucy's sieve, rows below it from
# the prime table.  At 2^22 a Lucy row takes about 3 ms and a table row 0.19 ms
# alone or 0.14 ms in a step:1 window (2-vCPU VM), but only after a table up
# to n + 2, which takes 28 ms to build and holds 1 + 16 / ln n bytes per
# integer.  Dense step:1 windows near 2^20 stay on the table.  The route
# depends on n alone, so a row is the same whatever the grid.
LUCY_THRESHOLD = 1 << 22
_PREFILTER_PRIMES = 32  # trial-divide by this many primes, the 14 bases among them
_LUCY_BATCH_CELLS = 1 << 16  # start values, or phase-2 (p, k) pairs, per chunk of _lucy
# quotients of a block of table rows, or (n, p) pairs of a block of the check
# route, counted at the block's widest row (_blocks); a block's few arrays of
# 8-byte cells stay within _row_bytes's fixed term
_TABLE_BLOCK_CELLS = 1 << 13


def _row_bytes(n: int) -> int:
    """An upper estimate of a scan row's peak bytes at n, its table already built.

    The fixed term is ten int64 or float64 arrays of one _lucy chunk, the
    other the arrays of sqrt(n) or 2 sqrt(n) entries.  The tracemalloc peak
    of a row was 1.01 MB at 2^24, 4.8 MB at 2^28, 7.1 MB at 2^30, 15.3 MB
    at 2^34, and 28.2 and 34.4 MB at 2^36 and 1.5 * 2^36, 107 B more per
    sqrt(n) between those two: the chunk's arrays set the peak at the small
    n, the sqrt(n) arrays at the large.
    """
    return 80 * _LUCY_BATCH_CELLS + 125 * math.isqrt(n)


_LOG_FACTORIAL_CUT = 20  # log v! from a table below it, from Stirling's series at and above
_LOG_FACTORIALS = np.array([math.lgamma(v + 1) for v in range(_LOG_FACTORIAL_CUT)])


def _log_factorial(v: np.ndarray) -> np.ndarray:
    """log v! at each v of an int64 array v >= 0, within 2 units of 2**-52 v log v.

    Below _LOG_FACTORIAL_CUT the value is math.lgamma(v + 1), from a table.
    At and above it, Stirling's series

        log v! = v (log v - 1) + log(2 pi v) / 2
                 + 1/(12 v) - 1/(360 v**3) + 1/(1260 v**5) - 1/(1680 v**7) + R,

    where |R| is below the first term left out, 1/(1188 v**9), a tenth of a
    unit at v = 20 and less above; the float64 evaluation adds at most about
    1.2 units (tests/test_analytics.py measures both against mpmath).
    """
    x = np.maximum(v, _LOG_FACTORIAL_CUT).astype(np.float64)
    lx = np.log(x)
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680))))
    out = x * (lx - 1.0) + (0.5 * lx + (0.5 * math.log(2.0 * math.pi) + series))
    tabled = np.flatnonzero(v < _LOG_FACTORIAL_CUT)
    out[tabled] = _LOG_FACTORIALS[v[tabled]]
    return out


def _s1_budget(v, updates: int):
    """Budget on |S1(v) - theta(v)| after Lucy's sieve with `updates` primes (see _lucy)."""
    return 2.0**-52 * (16 * updates + 4) * v * np.log(np.maximum(v, 2))


def _lucy(n: int, t: PrimeTable, q: np.ndarray):
    """pi and theta at every quotient of n by Lucy's sieve, from q = n // k for
    k = 1..top + 1, top = n // (r + 1), r = isqrt(n): two pairs of arrays, pi
    then theta, each at the small quotients q[:r] and at v = 0..top.

    Lucy's sieve (Lagarias-Miller-Odlyzko 1985, Deleglise-Rivat 1996): S0(v)
    counts and S1(v) log-sums the integers 2..v with no prime factor below p.
    They start as v - 1 and log v! (_log_factorial); for each prime
    p <= sqrt(n) and each v >= p**2, the multiples of p with no smaller
    factor are removed:

        S0(v) -= S0(v/p) - S0(p-1)
        S1(v) -= log p * (S0(v/p) - S0(p-1)) + S1(v/p) - S1(p-1)

    after which S0 = pi and S1 = theta at every quotient, in O(n**(3/4)) time
    and O(sqrt n) memory.  It runs in two phases, split at the cube root of n
    (Deleglise-Rivat's split):

    1. each prime p with p**3 <= n updates the small and the large quotients
       in turn, one vectorised step per prime;
    2. the primes p in (cbrt n, sqrt n] update only S(n // k) with
       k <= n // p**2 < cbrt n, so every value they write exceeds n**(2/3),
       and every value they read, S(n // (k p)) and S(p - 1), lies below
       n / p < n**(2/3).  No prime above cbrt n changes S below n**(2/3), so
       those reads are already final after phase 1, and the writes never
       feed a read.  Phase 2 is therefore one batch: the (p, k) pairs are
       flattened, gathered and summed per k by np.bincount, then subtracted,
       in chunks of at most _LUCY_BATCH_CELLS pairs.

    S0 is int64, so exact; its bincount sums are integers below n, exact in
    float64.  S1 is float64.  At v every operand is at most log v! <= v log v,
    each of the pi(sqrt v) updates rounds four times, and S1(v) inherits the
    errors of the S1(v/p) it reads, whose weights fall off about as p**-1.5
    (summed over the primes, 0.85).  That gives the budget (_s1_budget)

        |S1(v) - theta(v)| <= 2**-52 (16 pi(sqrt n) + 4) v log v,

    about 8900 at v = n = 2^40, a relative 8e-9.  The start values take 2
    of the constant 4: each is within 2 units of 2**-52 v log v of log v!.
    The batch keeps within the budget:
    an update there rounds in log p * d0, in d1 and in their sum, and then
    once as bincount adds it to a running sum of positive terms, which never
    exceeds the log v! it is taken from; the one subtraction per chunk
    replaces the rounding of each update's own subtraction.  That is at most
    four roundings per update at magnitude <= v log v, as in phase 1, and no
    more.  Against an 80-bit run of the same recurrence the error stayed
    within 3.4 ulps of v log v up to 2^34; the table's theta prefix is within
    11 ulps of exact up to 2^26.

    The in-row check: at every v <= sqrt(n) + 1, S0 must equal the table's pi
    and S1 its theta within the budget, else ArithmeticError.
    """
    r, top = math.isqrt(n), len(q) - 1
    small = q[:r]
    # one array per sum, hi then lo, index 0 of each padding: hi[k] holds
    # S(n // k) and lo[v] S(v), so S(v) for v <= top is at r + 1 + v.  They
    # start as v - 1 and log v!, the latter _LUCY_BATCH_CELLS values at a time
    all0 = np.concatenate(([0], small, np.arange(top + 1, dtype=np.int64)))
    all1 = np.empty(len(all0))
    for a in range(0, len(all0), _LUCY_BATCH_CELLS):
        all1[a : a + _LUCY_BATCH_CELLS] = _log_factorial(all0[a : a + _LUCY_BATCH_CELLS])
    all0 -= 1
    hi0, lo0, hi1, lo1 = all0[: r + 1], all0[r + 1 :], all1[: r + 1], all1[r + 1 :]
    ps = t.primes_up_to(r)
    cut = int(np.searchsorted(ps, _primes.iroot(n, 3), side="right"))
    for p in ps[:cut].tolist():
        c0, c1, lp = lo0[p - 1], lo1[p - 1], math.log(p)
        kmax = min(r, n // (p * p))
        kd = min(kmax, r // p)  # k <= kd: n // (k p) is a small quotient, hi[k p]
        far = small[kd:kmax] // p  # n // (k p) = (n // k) // p, for k = kd+1..kmax
        d0 = np.concatenate((hi0[p : kd * p + 1 : p], lo0[far])) - c0
        d1 = np.concatenate((hi1[p : kd * p + 1 : p], lo1[far])) - c1
        hi1[1 : kmax + 1] -= lp * d0 + d1
        hi0[1 : kmax + 1] -= d0
        if p * p <= top:
            # v // p over v = p**2..top is j = p.., p times each: a (rows, p)
            # view of the full runs of p, then the tail of the last j
            rows = (top + 1 - p * p) // p
            e0 = lo0[p : p + rows + 1] - c0
            e1 = lp * e0 + (lo1[p : p + rows + 1] - c1)
            for lo, e in ((lo0, e0), (lo1, e1)):
                runs = lo[p * p : p * (p + rows)].reshape(rows, p)
                runs -= e[:rows, None]
                lo[p * (p + rows) :] -= e[rows]
    # phase 2: the pairs (p, k) with k <= n // p**2, p ascending then k,
    # taken _LUCY_BATCH_CELLS at a time
    big = ps[cut:]
    counts = n // (big * big)
    ends = np.cumsum(counts)
    starts, logs = ends - counts, np.log(big)
    total = int(ends[-1]) if len(big) else 0
    for a in range(0, total, _LUCY_BATCH_CELLS):
        b = min(a + _LUCY_BATCH_CELLS, total)
        # i: the index in big of each pair's prime
        i0 = np.searchsorted(ends, a, side="right")
        i1 = np.searchsorted(ends, b - 1, side="right") + 1
        i = np.repeat(
            np.arange(i0, i1), np.minimum(ends[i0:i1], b) - np.maximum(starts[i0:i1], a)
        )
        p, k = big[i], np.arange(a, b, dtype=np.int64) - starts[i] + 1
        m = k * p
        at = np.where(m <= r, m, r + 1 + n // m)  # S(n // m)
        d0 = all0[at] - all0[r + p]  # all0[r + 1 + (p - 1)] = S0(p - 1)
        d1 = all1[at] - all1[r + p]
        dec0, dec1 = np.bincount(k, weights=d0), np.bincount(k, weights=logs[i] * d0 + d1)
        hi0[: len(dec0)] -= dec0.astype(np.int64)
        hi1[: len(dec1)] -= dec1
    # the in-row check against the table, at every quotient v <= sqrt(n) + 1:
    # all the large ones (top <= r), and the small n // k with k > n // (r + 2)
    k0 = n // (r + 2)
    vs = np.concatenate((np.arange(1, top + 1, dtype=np.int64), small[k0:]))
    s0 = np.concatenate((lo0[1:], hi0[k0 + 1 :]))
    s1 = np.concatenate((lo1[1:], hi1[k0 + 1 :]))
    pi = np.searchsorted(t.primes_up_to(r + 1), vs, side="right")
    if np.any(s0 != pi) or np.any(np.abs(s1 - t.theta_many(vs)) > _s1_budget(vs, len(ps))):
        raise ArithmeticError(f"Lucy's sieve disagrees with the prime table at n={n}")
    return (hi0[1:], lo0), (hi1[1:], lo1)


def _prime_flags(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Primality of each x in xs, where ps holds the Miller-Rabin bases (the
    primes up to 43) and every x exceeds every prime in ps.

    Trial division by ps, vectorised, drops most composites; the survivors,
    odd and free of the bases' factors, go through the Miller-Rabin rounds.
    """
    flags = np.ones(len(xs), dtype=bool)
    for p in ps.tolist():
        flags &= xs // p * p != xs  # numpy divides by a scalar faster than it takes %
    idx = np.flatnonzero(flags)
    flags[idx] = list(map(_primes._miller_rabin, xs[idx].tolist()))
    return flags


def _one_row(n: int, table: PrimeTable | None) -> _Row:
    """_table_rows at the one n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return next(_table_rows([n], _primes._table(table)))


def theta_sum_rho(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k); identical to log rho(n) exactly."""
    return _one_row(n, table)[0]


def theta_sum_sigma(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k + 1); identical to log sigma(n)."""
    return _one_row(n, table)[1]


def s_split(n: int, table: PrimeTable | None = None) -> tuple[float, float, float]:
    """(s_total, s1, s2): log-sums of the prime quotient values floor(n/k+1).

    s1 runs over k <= sqrt(n), s2 over sqrt(n) < k <= n (grouped by equal
    quotients), and s_total = s1 + s2 by construction.  s_total equals
    log sigma(n) - log rho(n) up to float accumulation.
    """
    *_, s1, s2 = _one_row(n, table)
    return s1 + s2, s1, s2


def quotient_prime_count(n: int, table: PrimeTable | None = None) -> int:
    """Number of k <= sqrt(n) for which floor(n/k + 1) is prime (card_A)."""
    return _one_row(n, table)[2]


# -- scans --------------------------------------------------------------------------


CSV_HEADER = "n,log_rho,log_sigma,residual_rho,residual_sigma,card_A,conj2_stat,s1,s2"


class ScanRecord(NamedTuple):
    """Per-n measurements emitted by scan()."""

    n: int
    log_rho: float
    log_sigma: float
    residual_rho: float
    residual_sigma: float
    card_A: int
    conj2_stat: float
    s1: float
    s2: float

    def csv_row(self) -> str:
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in self)


assert CSV_HEADER == ",".join(ScanRecord._fields)


def _lucy_row(n: int, t: PrimeTable) -> _Row:
    """(log_rho, log_sigma, card_A, s1, s2) of n >= LUCY_THRESHOLD, by _rows as a
    block of one: theta from _lucy, and the primality of the n // k + 1 with
    k <= sqrt(n) from _prime_flags, so the table only needs to reach
    sqrt(n) + 2."""
    r = math.isqrt(n)
    t.ensure(r + 2)
    top = n // (r + 1)
    q = n // np.arange(1, top + 2, dtype=np.int64)
    _, (rho_q, rho_v) = _lucy(n, t, q)
    prime_q = _prime_flags(q[:r] + 1, t.primes_up_to(r)[:_PREFILTER_PRIMES])
    hit = np.flatnonzero(t.prime_mask(r + 1)[2 : top + 2])  # as in _table_rows
    hit_log = np.log(hit + 2)
    # theta(v + 1) = theta(v) + log(v + 1) when v + 1 is prime, in copies
    sigma_q, sigma_v = rho_q.copy(), rho_v.copy()
    sigma_q[prime_q] += np.log(q[:r][prime_q] + 1)
    sigma_v[hit + 1] += hit_log
    (row,) = _rows(
        [n], q[None], rho_q[None], sigma_q[None], prime_q[None], rho_v, sigma_v, hit, hit_log
    )
    return row


def _records(ns: list[int], c: float, t: PrimeTable) -> list[ScanRecord]:
    """The scan rows of the ascending ns: those below LUCY_THRESHOLD from one
    call of _table_rows, the others one _lucy_row each."""
    light = [n for n in ns if n < LUCY_THRESHOLD]
    rows = itertools.chain(_table_rows(light, t), (_lucy_row(n, t) for n in ns[len(light) :]))
    out = []
    for n, (lr, ls, card, s1, s2) in zip(ns, rows):
        if abs((ls - lr) - (s1 + s2)) > 1e-6 * max(1.0, n):
            raise ArithmeticError(f"quotient log split disagrees with log gap at n={n}")
        logn = math.log(n)
        out.append(
            ScanRecord(
                n=n,
                log_rho=lr,
                log_sigma=ls,
                residual_rho=lr - (n * logn - (c + 1.0) * n),
                residual_sigma=ls - (n * logn - n),
                card_A=card,
                conj2_stat=card * logn / math.sqrt(n),
                s1=s1,
                s2=s2,
            )
        )
    return out


_worker_table: PrimeTable | None = None  # the caller's table, in a scan worker


def _init_worker(table: PrimeTable) -> None:
    global _worker_table
    _worker_table = table


def _scan_chunk(args) -> list[ScanRecord]:
    ns, c = args
    return _records(ns, c, _worker_table)


def _scan_direct(ns: list[int], c: float, t: PrimeTable, workers: int) -> list[ScanRecord]:
    if workers <= 1 or len(ns) <= 1:
        return _records(ns, c, t)
    # each Lucy row is a task of its own, largest n (the most work) first, so
    # that the heavy rows spread over the workers; the table rows, far
    # lighter, follow in chunks of 16
    light = [n for n in ns if n < LUCY_THRESHOLD]
    chunks = [[n] for n in reversed(ns) if n >= LUCY_THRESHOLD]
    chunks += [light[i : i + 16] for i in range(0, len(light), 16)]
    try:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        # forked workers inherit the initializer's arguments, so the table,
        # already sieved to max(ns), reaches them without being pickled
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_init_worker, initargs=(t,)
        ) as pool:
            parts = list(pool.map(_scan_chunk, [(chunk, c) for chunk in chunks]))
    except (ValueError, OSError):  # fork unavailable: fall back, same numbers
        return _records(ns, c, t)
    return sorted((rec for part in parts for rec in part), key=lambda rec: rec.n)


def scan(
    ns,
    table: PrimeTable | None = None,
    c: float | None = None,
    workers: int = 1,
) -> list[ScanRecord]:
    """One ScanRecord per requested n, in ascending order.

    Each record is computed from n alone, optionally across a worker pool, so
    the row for a given n is byte-identical whatever the grid or the worker
    count: below LUCY_THRESHOLD in O(sqrt(n)) array work, from it on in
    O(n**(3/4)) time by Lucy's sieve.  c defaults to analytic_constant().
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1:
        raise ValueError("scan grid must be nonempty with n >= 1")
    t = _primes._table(table)
    top = ns[-1]
    rows = min(max(workers, 1), len(ns))  # the rows _scan_direct may hold at once
    what = f"a scan row at n = {top}" if rows == 1 else f"{rows} scan rows at once up to n = {top}"
    _primes.require_memory(rows * _row_bytes(top), what)
    # a table row needs the table to n + 2, a Lucy row to sqrt(n) + 2
    t.ensure(max([n + 2 for n in ns if n < LUCY_THRESHOLD] + [math.isqrt(top) + 2]))
    if c is None:
        c = analytic_constant().midpoint
    return _scan_direct(ns, c, t, workers)


# -- grids ---------------------------------------------------------------------------


def dyadic_grid(nmin: int, nmax: int) -> list[int]:
    """Powers of two in [nmin, nmax]."""
    if nmin < 1 or nmax < nmin:
        raise ValueError("need 1 <= nmin <= nmax")
    out = []
    n = 1
    while n <= nmax:
        if n >= nmin:
            out.append(n)
        n *= 2
    return out


def sampled_dyadic_grid(jmin: int, jmax: int, per_block: int = 8) -> list[int]:
    """per_block evenly spaced n inside each dyadic block [2^j, 2^(j+1))."""
    out = []
    for j in range(jmin, jmax + 1):
        base = 1 << j
        out.extend(base + (base // per_block) * i for i in range(per_block))
    return out


def parse_grid(spec: str, start: int, nmax: int) -> list[int]:
    """Grid specs: "dyadic", "step:K", or "list:1,2,3".  A grid with no n, or
    a list value above nmax, is refused."""
    if spec == "dyadic":
        ns = dyadic_grid(max(1, start), nmax)
    elif spec.startswith("step:"):
        step = int(spec[5:])
        if step < 1:
            raise ValueError("step must be >= 1")
        ns = list(range(max(1, start), nmax + 1, step))
    elif spec.startswith("list:"):
        ns = sorted({int(s) for s in spec[5:].split(",") if s})
        if ns and ns[0] < 1:
            raise ValueError("list grid values must be >= 1")
        if ns and ns[-1] > nmax:
            raise ValueError(f"list grid value {ns[-1]} is above nmax = {nmax}")
    else:
        raise ValueError(f"unknown grid spec {spec!r}")
    if not ns:
        raise ValueError(f"grid {spec!r} holds no n in [{max(1, start)}, {nmax}]")
    return ns


# -- output and envelopes -------------------------------------------------------------


def _opened(path):
    """path opened for writing, or path itself when it is an open text stream
    such as sys.stdout, which is then left open."""
    if hasattr(path, "write"):
        return contextlib.nullcontext(path)
    return open(path, "w", encoding="ascii", newline="\n")


def write_csv(records, path) -> None:
    """The header and one CSV row per record, to a file path or a text stream."""
    with _opened(path) as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_json(records, path) -> None:
    """The records as a JSON list of objects, to a file path or a text stream."""
    with _opened(path) as fh:
        json.dump([rec._asdict() for rec in records], fh, indent=1)
        fh.write("\n")


class BlockEnvelope(NamedTuple):
    """Per-dyadic-block extremes of the normalized residuals and statistics."""

    block: int  # records with 2**block <= n < 2**(block+1)
    sup_rho: float  # max |residual_rho| / sqrt(n)
    sup_sigma: float  # max |residual_sigma| / sqrt(n log n)
    conj2_min: float
    conj2_max: float


def block_envelopes(records) -> list[BlockEnvelope]:
    """Group records by dyadic block and report normalized sups and ranges."""
    by_block: dict[int, list[ScanRecord]] = {}
    for rec in records:
        by_block.setdefault(rec.n.bit_length() - 1, []).append(rec)
    out = []
    for j in sorted(by_block):
        recs = by_block[j]
        out.append(
            BlockEnvelope(
                block=j,
                sup_rho=max(abs(r.residual_rho) / math.sqrt(r.n) for r in recs),
                sup_sigma=max(
                    (abs(r.residual_sigma) / math.sqrt(r.n * math.log(r.n)) for r in recs if r.n > 1),
                    default=0.0,
                ),
                conj2_min=min(r.conj2_stat for r in recs),
                conj2_max=max(r.conj2_stat for r in recs),
            )
        )
    return out


def quotient_count_sup(records) -> float:
    """sup over records of card_A * sqrt(log n / n) (finite by inspection)."""
    return max(
        (r.card_A * math.sqrt(math.log(r.n) / r.n) for r in records if r.n > 1),
        default=0.0,
    )
