"""Analytic layer: the constant c, theta-sum identities, and scans.

The headline quantities are log rho(n) and log sigma(n).  Both admit exact
rewrites as sums of theta values over the ~2 sqrt(n) distinct quotients n//k,
and their gap is the log-sum over k of the prime quotient values
floor(n/k + 1).  A scan row takes every field from those quotients; the
direct sums of (n // p) log p in log_rho/log_sigma are the check route.
Residuals subtract n log n - (c+1) n and n log n - n, where c is the sum over
primes of log p / (p (p-1)): scans take it from analytic_constant(), the
float of an analytic series, and prime_series_constant() encloses it
rigorously.

The route of a row depends on n alone.  Below LUCY_THRESHOLD (2^22) theta
and primality are lookups in a prime table up to n + 2, about
1 + 16 / ln n bytes per integer.  From it on, theta at every quotient comes
from Lucy's sieve (_lucy) in O(n**(3/4)) time and O(sqrt n) memory, with a
table only up to sqrt(n) + 2: a row at 2^36 takes about 1.5 s and 67 MB.
Each row sums in a fixed order, so scan output is reproducible bit for bit
on one platform whatever the grid or worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields, asdict

import numpy as np

from . import primes as _primes
from .primes import PrimeTable

DEFAULT_TAIL_CUT = 50_000_000
_ROUNDING_SLOP = 1e-11  # covers float accumulation error in the partial sums


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] certified to contain a target constant."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError("need lo <= hi")

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
    _ANALYTIC_C; tests/test_analytics.py re-sums it in mpmath and checks that.
    The last term bounds the whole tail, as each term Lambda(k) k**-s of
    -zeta'/zeta(s) is positive and at least halves when s grows by one, so
    2**-52 covers the tail, the rounding to float (half an ulp of c, 2**-54)
    and the evaluation error (about 2**-80 per term); c +- 2**-52 are exact
    floats.
    """
    return Enclosure(_ANALYTIC_C - 2.0**-52, _ANALYTIC_C + 2.0**-52)


def prime_series_constant(tail_cut: int, table: PrimeTable | None = None) -> Enclosure:
    """Enclose the constant sum over primes of log p / (p (p-1)).

    lo is the partial sum over primes p <= tail_cut.  The tail beyond is
    majorized by 2 * (sum over all integers m in (x, 2x] of log m / m**2
    + integral of log t / t**2 from 2x to infinity): the factor 2 covers
    log p/(p(p-1)) <= 2 log p/p**2, the integer sum dominates the primes in
    (x, 2x], and the integral, evaluated in closed form as (log 2x + 1)/(2x),
    dominates the rest.  A small constant slop absorbs float round-off.
    """
    x = int(tail_cut)
    if x < 100:
        raise ValueError("tail cut must be >= 100")
    t = _primes._table(table)
    ps = t.primes_up_to(x).astype(np.float64)
    lo = float(np.sum(np.log(ps) / (ps * (ps - 1.0))))

    integer_sum = 0.0
    m0 = x + 1
    chunk = 1 << 22
    while m0 <= 2 * x:
        m1 = min(m0 + chunk - 1, 2 * x)
        mm = np.arange(m0, m1 + 1, dtype=np.float64)
        integer_sum += float(np.sum(np.log(mm) / (mm * mm)))
        m0 = m1 + 1
    integral_tail = (math.log(2 * x) + 1.0) / (2 * x)
    majorant = 2.0 * (integer_sum + integral_tail)
    return Enclosure(lo - _ROUNDING_SLOP, lo + majorant + _ROUNDING_SLOP)


@functools.cache
def default_constant() -> Enclosure:
    """Cached enclosure at the default tail cut (width under 1e-6)."""
    return prime_series_constant(DEFAULT_TAIL_CUT)


# -- exact log values and theta-sum identities ------------------------------------


def log_rho(n: int, table: PrimeTable | None = None) -> float:
    """log rho(n) as the fixed-order sum of (n // p) log p over p <= n."""
    t = _primes._table(table)
    ps, logs = t.primes_and_logs(n)
    if len(ps) == 0:
        return 0.0
    return float(np.sum((n // ps).astype(np.float64) * logs))


def log_sigma(n: int, table: PrimeTable | None = None) -> float:
    """log sigma(n) as the sum of (n // (p-1)) log p over p <= n + 1."""
    t = _primes._table(table)
    ps, logs = t.primes_and_logs(n + 1)
    if len(ps) == 0:
        return 0.0
    return float(np.sum((n // (ps - 1)).astype(np.float64) * logs))


def _quotients(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(small, large, mult): n // k for k <= r = isqrt(n), then each v <= n // (r+1)
    with mult = n // v - n // (v+1), the number of k (all > r) with n // k == v."""
    r = math.isqrt(n)
    small = n // np.arange(1, r + 1, dtype=np.int64)
    large = np.arange(1, n // (r + 1) + 1, dtype=np.int64)
    return small, large, n // large - n // (large + 1)


def _quotient_sum(quotients, at_small: np.ndarray, at_large: np.ndarray) -> float:
    """Sum over k = 1..n of g(n // k), from g at the small and at the large quotients."""
    return float(np.sum(at_small) + np.sum(quotients[2] * at_large))


def _theta_sum(t: PrimeTable, quotients, shift: int) -> float:
    """Sum over k = 1..n of theta(n // k + shift), from the table's theta prefix."""
    small, large, _ = quotients
    return _quotient_sum(quotients, t.theta_many(small + shift), t.theta_many(large + shift))


def _prime_quotients(quotients, small_prime, large_prime) -> tuple[int, float, float]:
    """(card_A, s1, s2) from the flags of the quotient values n // k + 1 that are prime."""
    small, large, mult = quotients
    hits = small[small_prime] + 1
    return (
        len(hits),
        float(np.sum(np.log(hits))),
        float(np.sum(mult[large_prime] * np.log(large[large_prime] + 1))),
    )


def _table_prime_quotients(t: PrimeTable, n: int, quotients) -> tuple[int, float, float]:
    small, large, _ = quotients
    mask = t.prime_mask(n + 2)
    return _prime_quotients(quotients, mask[small + 1], mask[large + 1])


# -- Lucy's sieve ---------------------------------------------------------------------

# Scan rows for n >= LUCY_THRESHOLD come from Lucy's sieve, rows below it from
# the prime table.  At 2^22 a Lucy row takes about 5 ms and a table row 1 ms,
# but only after a table up to n + 2, which takes 22 ms to build and holds
# 1 + 16 / ln n bytes per integer.  Dense step:1 windows near 2^20 stay on the
# table.  The route depends on n alone, so a row is the same whatever the grid.
LUCY_THRESHOLD = 1 << 22
_PREFILTER_PRIMES = 32  # trial-divide by this many primes before Miller-Rabin
_LUCY_BATCH_CELLS = 1 << 16  # (p, k) pairs per chunk of _lucy's second phase


def _s1_budget(v, updates: int):
    """Budget on |S1(v) - theta(v)| after Lucy's sieve with `updates` primes (see _lucy)."""
    return 2.0**-52 * (16 * updates + 4) * v * np.log(np.maximum(v, 2))


def _lucy(n: int, t: PrimeTable, quotients):
    """pi and theta at every quotient of n by Lucy's sieve, as two pairs of arrays
    (at n // k for k <= r = isqrt(n), at v <= n // (r+1)), in _quotients' layout.

    Lucy's sieve (Lagarias-Miller-Odlyzko 1985, Deleglise-Rivat 1996): S0(v)
    counts and S1(v) log-sums the integers 2..v with no prime factor below p.
    They start as v - 1 and lgamma(v + 1); for each prime p <= sqrt(n) and
    each v >= p**2, the multiples of p with no smaller factor are removed:

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
    float64.  S1 is float64.  At v every operand is at most
    lgamma(v + 1) <= v log v, each of the pi(sqrt v) updates rounds four
    times, and S1(v) inherits the errors of the S1(v/p) it reads, whose
    weights fall off about as p**-1.5 (summed over the primes, 0.85).  That
    gives the budget (_s1_budget)

        |S1(v) - theta(v)| <= 2**-52 (16 pi(sqrt n) + 4) v log v,

    about 8900 at v = n = 2^40, a relative 8e-9.  The batch keeps within it:
    an update there rounds in log p * d0, in d1 and in their sum, and then
    once as bincount adds it to a running sum of positive terms, which never
    exceeds the lgamma(v + 1) it is taken from; the one subtraction per chunk
    replaces the rounding of each update's own subtraction.  That is at most
    four roundings per update at magnitude <= v log v, as in phase 1, and no
    more.  Against an 80-bit run of the same recurrence the error stayed
    within 3.4 ulps of v log v up to 2^34; the table's theta prefix is within
    11 ulps of exact up to 2^26.

    The in-row check: at every v <= sqrt(n) + 1, S0 must equal the table's pi
    and S1 its theta within the budget, else ArithmeticError.
    """
    small, large, _ = quotients
    r, top = len(small), len(large)
    # one array per sum, hi then lo, index 0 of each padding: hi[k] holds
    # S(n // k) and lo[v] S(v), so S(v) for v <= top is at r + 1 + v
    all0 = np.concatenate(([0], small - 1, np.arange(-1, top, dtype=np.int64)))
    all1 = np.fromiter(
        map(math.lgamma, itertools.chain([1], (small + 1).tolist(), range(1, top + 2))),
        np.float64,
        r + top + 2,
    )
    hi0, lo0, hi1, lo1 = all0[: r + 1], all0[r + 1 :], all1[: r + 1], all1[r + 1 :]
    ps = t.primes_up_to(r)
    cut = int(np.searchsorted(ps, _primes.iroot(n, 3), side="right"))
    for p in ps[:cut].tolist():
        c0, c1, lp = lo0[p - 1], lo1[p - 1], math.log(p)
        kmax = min(r, n // (p * p))
        kd = min(kmax, r // p)  # k <= kd: n // (k p) is a small quotient, hi[k p]
        far = (n // p) // np.arange(kd + 1, kmax + 1, dtype=np.int64)
        d0 = np.concatenate((hi0[p : kd * p + 1 : p], lo0[far])) - c0
        d1 = np.concatenate((hi1[p : kd * p + 1 : p], lo1[far])) - c1
        hi1[1 : kmax + 1] -= lp * d0 + d1
        hi0[1 : kmax + 1] -= d0
        if p * p <= top:
            # v // p over v = p**2..top: each j = p..top // p repeated p times
            j, cells = slice(p, top // p + 1), top + 1 - p * p
            e0 = np.repeat(lo0[j] - c0, p)[:cells]
            lo1[p * p :] -= lp * e0 + np.repeat(lo1[j] - c1, p)[:cells]
            lo0[p * p :] -= e0
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
    # the in-row check against the table, at every quotient v <= sqrt(n) + 1
    vs = np.concatenate((large, small))
    low = vs <= r + 1
    vs = vs[low]
    s0 = np.concatenate((lo0[1:], hi0[1:]))[low]
    s1 = np.concatenate((lo1[1:], hi1[1:]))[low]
    pi = np.searchsorted(t.primes_up_to(r + 1), vs, side="right")
    if np.any(s0 != pi) or np.any(np.abs(s1 - t.theta_many(vs)) > _s1_budget(vs, len(ps))):
        raise ArithmeticError(f"Lucy's sieve disagrees with the prime table at n={n}")
    return (hi0[1:], lo0[1:]), (hi1[1:], lo1[1:])


def _prime_flags(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Primality of each x in xs, where every x exceeds every prime in ps.

    Trial division by ps, vectorised, drops most composites; the survivors go
    through the deterministic Miller-Rabin test.
    """
    flags = np.ones(len(xs), dtype=bool)
    for p in ps.tolist():
        flags &= xs % p != 0
    idx = np.flatnonzero(flags)
    flags[idx] = [_primes.is_probable_prime(x) for x in xs[idx].tolist()]
    return flags


def theta_sum_rho(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k); identical to log rho(n) exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = _primes._table(table)
    t.ensure(n + 1)
    return _theta_sum(t, _quotients(n), 0)


def theta_sum_sigma(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k + 1); identical to log sigma(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = _primes._table(table)
    t.ensure(n + 2)
    return _theta_sum(t, _quotients(n), 1)


def s_split(n: int, table: PrimeTable | None = None) -> tuple[float, float, float]:
    """(s_total, s1, s2): log-sums of the prime quotient values floor(n/k+1).

    s1 runs over k <= sqrt(n), s2 over sqrt(n) < k <= n (grouped by equal
    quotients), and s_total = s1 + s2 by construction.  s_total equals
    log sigma(n) - log rho(n) up to float accumulation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, s1, s2 = _table_prime_quotients(_primes._table(table), n, _quotients(n))
    return s1 + s2, s1, s2


def quotient_prime_count(n: int, table: PrimeTable | None = None) -> int:
    """Number of k <= sqrt(n) for which floor(n/k + 1) is prime (card_A)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _table_prime_quotients(_primes._table(table), n, _quotients(n))[0]


# -- scans --------------------------------------------------------------------------


CSV_HEADER = "n,log_rho,log_sigma,residual_rho,residual_sigma,card_A,conj2_stat,s1,s2"


@dataclass(frozen=True)
class ScanRecord:
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
        return ",".join(
            repr(v) if isinstance(v, float) else str(v)
            for v in (
                self.n,
                self.log_rho,
                self.log_sigma,
                self.residual_rho,
                self.residual_sigma,
                self.card_A,
                self.conj2_stat,
                self.s1,
                self.s2,
            )
        )


assert CSV_HEADER == ",".join(f.name for f in fields(ScanRecord))


def _record(n: int, c: float, t: PrimeTable) -> ScanRecord:
    """The scan row for n, every field from one set of quotient arrays.

    From LUCY_THRESHOLD on, theta comes from _lucy and the primality of the
    n // k + 1 with k <= sqrt(n) from _prime_flags, so the table only needs
    to reach sqrt(n) + 2.
    """
    quotients = small, large, _ = _quotients(n)
    if n < LUCY_THRESHOLD:
        t.ensure(n + 2)
        lr, ls = _theta_sum(t, quotients, 0), _theta_sum(t, quotients, 1)
        card, s1, s2 = _table_prime_quotients(t, n, quotients)
    else:
        t.ensure(math.isqrt(n) + 2)
        _, (at_small, at_large) = _lucy(n, t, quotients)
        small_prime = _prime_flags(small + 1, t.primes_up_to(len(small))[:_PREFILTER_PRIMES])
        large_prime = t.prime_mask(len(small) + 1)[large + 1]
        lr = _quotient_sum(quotients, at_small, at_large)
        # theta(v + 1) = theta(v) + log(v + 1) when v + 1 is prime
        ls = _quotient_sum(
            quotients,
            at_small + np.where(small_prime, np.log(small + 1), 0.0),
            at_large + np.where(large_prime, np.log(large + 1), 0.0),
        )
        card, s1, s2 = _prime_quotients(quotients, small_prime, large_prime)
    if abs((ls - lr) - (s1 + s2)) > 1e-6 * max(1.0, n):
        raise ArithmeticError(f"quotient log split disagrees with log gap at n={n}")
    logn = math.log(n)
    return ScanRecord(
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


_worker_table: PrimeTable | None = None  # the caller's table, in a scan worker


def _init_worker(table: PrimeTable) -> None:
    global _worker_table
    _worker_table = table


def _scan_chunk(args) -> list[ScanRecord]:
    ns, c = args
    return [_record(n, c, _worker_table) for n in ns]


def _scan_direct(ns: list[int], c: float, t: PrimeTable, workers: int) -> list[ScanRecord]:
    if workers <= 1 or len(ns) <= 1:
        return [_record(n, c, t) for n in ns]
    chunks = [ns[i : i + 16] for i in range(0, len(ns), 16)]
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
        return [_record(n, c, t) for n in ns]
    return [rec for part in parts for rec in part]


def scan(
    ns,
    table: PrimeTable | None = None,
    c: float | None = None,
    workers: int = 1,
) -> list[ScanRecord]:
    """One ScanRecord per requested n, in ascending order.

    Each record is computed from n alone in O(sqrt(n)) array work, optionally
    across a worker pool, so the row for a given n is byte-identical whatever
    the grid or the worker count.  c defaults to analytic_constant().
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1:
        raise ValueError("scan grid must be nonempty with n >= 1")
    t = _primes._table(table)
    # a table row needs the table to n + 2, a Lucy row to sqrt(n) + 2
    t.ensure(max([n + 2 for n in ns if n < LUCY_THRESHOLD] + [math.isqrt(ns[-1]) + 2]))
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
    """Grid specs: "dyadic", "step:K", or "list:1,2,3"."""
    if spec == "dyadic":
        return dyadic_grid(max(1, start), nmax)
    if spec.startswith("step:"):
        step = int(spec[5:])
        if step < 1:
            raise ValueError("step must be >= 1")
        return list(range(max(1, start), nmax + 1, step))
    if spec.startswith("list:"):
        ns = [int(s) for s in spec[5:].split(",") if s]
        if not ns:
            raise ValueError("empty list grid")
        if min(ns) < 1:
            raise ValueError("list grid values must be >= 1")
        return sorted(set(ns))
    raise ValueError(f"unknown grid spec {spec!r}")


# -- output and envelopes -------------------------------------------------------------


def write_csv(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_json(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump([asdict(rec) for rec in records], fh, indent=1)
        fh.write("\n")


@dataclass(frozen=True)
class BlockEnvelope:
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
