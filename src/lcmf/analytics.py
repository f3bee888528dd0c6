"""Analytic layer: the constant c, theta-sum identities, and scans.

The headline quantities are log rho(n) and log sigma(n).  Both admit exact
rewrites as sums of theta values over the ~2 sqrt(n) distinct quotients n//k,
and their gap is the log-sum over k of the prime quotient values
floor(n/k + 1).  A scan row takes every field from those quotients; the
direct sums of (n // p) log p in log_rho/log_sigma are the check route.
Residuals subtract n log n - (c+1) n and n log n - n, where c is the sum over
primes of log p / (p (p-1)): scans take it from the analytic series in
analytic_constant(), and prime_series_constant() encloses it rigorously.

Each row depends on n alone and sums in a fixed order, so scan output is
reproducible bit for bit on one platform whatever the grid or worker count.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, asdict

import mpmath
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


@functools.cache
def analytic_constant() -> Enclosure:
    """[c - delta, c + delta] from c = sum over m >= 2 of mu(m) zeta'(m)/zeta(m).

    The series is the Moebius inversion of -zeta'/zeta(s) = sum of
    log p * p**(-j s) over primes p and j >= 1 (H. Cohen, 1998).  It is summed
    in mpmath at 80 bits until |zeta'/zeta(m)| < 2**-60; that term bounds the
    whole tail, as each term Lambda(k) k**-s of -zeta'/zeta(s) is positive and
    at least halves when s grows by one.  delta = 2**-52 covers the tail, the
    rounding to float (half an ulp of c, 2**-54) and mpmath's evaluation error
    (about 2**-80 per term); c +- delta are exact floats.
    """
    total, ratio, m = mpmath.mpf(0), 1, 1
    with mpmath.workprec(80):
        while abs(ratio) >= 2.0**-60:
            m += 1
            ratio = mpmath.zeta(m, 1, 1) / mpmath.zeta(m)
            exponents = _primes.factorize(m).values()
            if max(exponents) == 1:
                total += (-1) ** len(exponents) * ratio
        c = float(total)
    return Enclosure(c - 2.0**-52, c + 2.0**-52)


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


def _theta_sum(t: PrimeTable, quotients, shift: int) -> float:
    """Sum over k = 1..n of theta(n // k + shift), from the grouped quotients."""
    small, large, mult = quotients
    return float(np.sum(t.theta_many(small + shift)) + np.sum(mult * t.theta_many(large + shift)))


def _prime_quotients(t: PrimeTable, n: int, quotients) -> tuple[int, float, float]:
    """(card_A, s1, s2) from the quotient values n // k + 1 that are prime."""
    small, large, mult = quotients
    mask = t.prime_mask(n + 2)
    hits = small[mask[small + 1]] + 1
    big = mask[large + 1]
    return len(hits), float(np.sum(np.log(hits))), float(np.sum(mult[big] * np.log(large[big] + 1)))


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
    _, s1, s2 = _prime_quotients(_primes._table(table), n, _quotients(n))
    return s1 + s2, s1, s2


def quotient_prime_count(n: int, table: PrimeTable | None = None) -> int:
    """Number of k <= sqrt(n) for which floor(n/k + 1) is prime (card_A)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _prime_quotients(_primes._table(table), n, _quotients(n))[0]


def higher_power_residual(n: int, c: float | None = None, table: PrimeTable | None = None) -> float:
    """Residual of the square-and-higher prime-power log sum against c * n.

    The sum of (n // p**2 + n // p**3 + ...) log p over primes equals
    log(n!) - log rho(n); both routes are evaluated and cross-asserted
    before returning (sum - c * n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if c is None:
        c = analytic_constant().midpoint
    t = _primes._table(table)
    ps, logs = t.primes_and_logs(math.isqrt(n))
    total = 0.0
    for p, lg in zip(ps.tolist(), logs.tolist()):
        q = p * p
        e = 0
        while q <= n:
            e += n // q
            q *= p
        total += e * lg
    via_factorial = math.lgamma(n + 1) - log_rho(n, t)
    if abs(total - via_factorial) > 1e-6 * max(1.0, n):
        raise ArithmeticError(f"higher-power log sum mismatch at n={n}")
    return total - c * n


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
    """The scan row for n, every field from one set of quotient arrays."""
    t.ensure(n + 2)
    quotients = _quotients(n)
    lr = _theta_sum(t, quotients, 0)
    ls = _theta_sum(t, quotients, 1)
    card, s1, s2 = _prime_quotients(t, n, quotients)
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
    t.ensure(ns[-1] + 2)
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
