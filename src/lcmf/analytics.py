"""Analytic layer: the constant c, the rows of scans and theta sums, and their check.

The headline quantities are log rho(n) and log sigma(n).  Both admit exact
rewrites as sums of theta values over the ~2 sqrt(n) distinct quotients n//k,
and their gap is the log-sum over k of the prime quotient values
floor(n/k + 1).  _checked cuts the grid into blocks of n once (_blocks),
and a block's rows, their log rho and their check are plain functions of
it.  One function, _rows, assembles every row from the block's one array of
quotients n // k: card_A, s1 and s2 through _prime_quotients, log sigma as
log rho + (s1 + s2), and log rho by the route that the caller picks.  The
check route, Legendre's formula for n! over the prime powers
(_factorial_sums), needs the primes up to sqrt(n) + 1 alone; _checked
compares every row of scan, verify eq14-16 and the one-n functions with it,
log rho and log sigma within stated budgets, s1 + s2 with its gap and card_A
with its exact count, so its own primality tests, which share no code with
the row's, check the flags behind s1 and card_A.  Residuals subtract
n log n - (c+1) n and n log n - n, where c is the sum over primes of
log p / (p (p-1)): scans take it from analytic_constant(), the float of an
analytic series, and prime_series_constant() encloses it rigorously.

Each route decides the primality of every n // k + 1 in one function, by
its own flag rule: the row in _row_flags, the check route in
_route_carried.  How far the table reaches, which is where both stop
reading its bitmap, is _checked's table rule.  The log rho route is the
caller's, a _RowKind with its budget and price.  A scan row, and the one-n
functions that read no theta (s_split, quotient_prime_count), take
_SCAN_ROWS at every n, in O(sqrt n) per row: Legendre's formula
(_legendre_rho), one term per prime up to sqrt(n).  Of the table such a row
reads the bitmap, as far as _checked grew it, and the primes up to
sqrt(n) + 1 alone.  verify eq14-16 and theta_sum_rho and theta_sum_sigma,
which check the theta sums themselves, take theta._THETA_ROWS, the sum of
theta(n // k) (lcmf.theta), which no scan imports.  Each row sums in a
fixed order over its own arrays, so scan output is reproducible bit for bit
on one platform whatever the grid or its blocks.  A scan is one stream of
records in n order, made and checked a block at a time in the calling
thread (_records), which the writers take as it comes.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# the lcmf modules before numpy, so that they compile before it loads (README)
from . import primes as _primes
from .primes import PrimeTable

import numpy as np

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


# -- exact log values and theta-sum identities ------------------------------------


def log_rho(n: int, table: PrimeTable | None = None) -> float:
    """log rho(n), the sum of (n // p) log p over primes p, by the check route
    _factorial_rho, which reads the primes up to sqrt(n) alone."""
    return float(_factorial_rho([n], _prime_powers(n, _primes._table(table)))[0])


def log_sigma(n: int, table: PrimeTable | None = None) -> float:
    """log sigma(n), the sum of (n // (p-1)) log p over primes p, by the check
    route _factorial_sums."""
    t = _primes._table(table)
    t.ensure(math.isqrt(max(n, 0)) + 1)  # first: the table grows once, as far as the route reads
    return float(_factorial_sums([n], t, _prime_powers(n, t))[1][0])


def _blocks(widths: Iterable[int]):
    """(a, b): consecutive ranges of rows with nondecreasing widths, each at
    most _TABLE_BLOCK_CELLS cells counted at its widest, last, row; a row
    wider than that is a block of its own.  The widths are read one by one.
    _checked's one cut of the grid, at top + 1 cells a row."""
    a = b = 0
    for w in widths:  # of row b, the widest yet
        if b > a and (b + 1 - a) * w > _TABLE_BLOCK_CELLS:
            yield a, b
            a = b
        b += 1
    if b > a:
        yield a, b


def _slice_sums(m: np.ndarray, widths: list[int]) -> np.ndarray:
    """np.add.reduce of each row i of the 2-D m over its first widths[i] cells.
    A run of rows of one width takes one call, which on rows laid out in C
    order sums each row as a call on it alone does, so no row's sum depends
    on another."""
    m, out, i = np.ascontiguousarray(m), [], 0
    for w, run in itertools.groupby(widths):
        j = i + len(list(run))
        out.append(np.add.reduce(m[i:j, :w], axis=1))
        i = j
    return np.concatenate(out)


def _prime_powers(top: int, t: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """(powers, logs): the prime powers p**e <= top with e >= 2, ascending,
    and log p of each; _factorial_rho's set-up, good for every n <= top.
    It refuses a top < 0, as log rho and log sigma refuse n < 0.

    For each e >= 2 with 2**e <= top, the primes up to iroot(top, e) give
    p**e, ascending.  Prime powers are distinct, so each takes its place at
    the number of powers below it: the squares below it, counted in their
    list, and the higher powers below it, counted in theirs once each higher
    power has taken its place among them the same way.  Neither a numpy sort
    nor an integer power runs: their code, mapped on first use, raised a
    scan-sparse list's peak RSS by about 0.3 and 0.15 MB.  It reads the
    primes up to sqrt(top) once.
    """
    if top < 0:
        raise ValueError("n must be >= 0")
    ps = t.primes_up_to(math.isqrt(top))
    parts = [ps * ps]  # p**e of the primes up to iroot(top, e), e = 2, 3, ...
    for e in range(3, max(top.bit_length(), 4)):  # e = 3 even below 8: parts[1:] is not empty
        m = int(ps.searchsorted(_primes.iroot(top, e), side="right"))
        parts.append(parts[-1][:m] * ps[:m])
    higher = np.concatenate(parts[1:])
    ordered = np.empty_like(higher)
    ordered[sum(part.searchsorted(higher) for part in parts[1:])] = higher
    powers, logs = np.concatenate(parts), np.log(ps)
    at = parts[0].searchsorted(powers) + ordered.searchsorted(powers)
    out, out_logs = np.empty_like(powers), np.empty(len(powers))
    out[at], out_logs[at] = powers, np.concatenate([logs[: len(part)] for part in parts])
    return out, out_logs


def _factorial_rho(ns, powers) -> np.ndarray:
    """log rho(n) of each n of the nonempty ascending ns >= 0, one block, by
    Legendre's formula v_p(n!) = sum over e >= 1 of n // p**e, of which
    log rho(n) keeps e = 1:

        log rho(n) = log n! - sum over p**e <= n, e >= 2, of (n // p**e) log p.

    The check route of the theta sums, with _factorial_sums: it reads no
    theta and no table, only the powers and logs of _prime_powers at a top
    of at least max(ns), which _checked builds once for its grid.  The
    quotients n // p**e are int64, exact at every n; converting one to
    float64 as it is multiplied by log p is exact below 2**53, and above it
    within the half unit that _factorial_budget's five units per term allow
    for it.  Each n sums its own prime powers in ascending order
    (_slice_sums), so its value does not depend on ns or on how far the
    powers reach; it is within _factorial_budget(n) of log rho(n).
    """
    powers, logs = powers
    counts = powers.searchsorted(ns, side="right").tolist()  # the prime powers <= n
    nb, w = np.array(ns, dtype=np.int64), counts[-1]
    return _log_factorial(nb) - _slice_sums(nb[:, None] // powers[:w] * logs[:w], counts)


class _Carry:
    """The primality of x = n // k + 1 at k = 1..isqrt(n) of the last row
    that one route made, and its n, handed from block to block of _checked:
    a row whose n is that n + 1 starts from them.  Before the first row n is
    -2, which no n >= 0 follows.  _row_flags updates one and _route_carried
    another."""

    __slots__ = ("n", "flags")

    def __init__(self):
        self.n, self.flags = -2, np.zeros(0, dtype=bool)


def _factorial_sums(
    ns, t: PrimeTable, powers, carry: _Carry | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log rho, log sigma, card_A) of each n of the nonempty ascending
    ns >= 0, one block: the check route of the theta sums.  log rho is
    _factorial_rho's on the powers, and with r = isqrt(n)

        log sigma(n) - log rho(n) = sum over primes p <= r + 1 of
            (n // (p-1) - n // p) log p + sum of log(v + 1) over the
            v = n // k > r with v + 1 prime,

    as for a prime p > r + 1, n // (p-1) - n // p is 1 when p - 1 is a
    quotient n // k, then with k <= r, and 0 otherwise.  It reads the primes
    up to sqrt(max(ns)) + 1 alone, and the flags of every v + 1 from
    _route_carried, exact and sharing no primality code with the row's.
    carry, if given, starts the block and is left at its last row.  Each n
    sums its own cells (_slice_sums); both values are within
    _factorial_budget(n) of the exact ones.  card_A, the number of k <= r
    with n // k + 1 prime, is exact.
    """
    ps = t.primes_up_to(math.isqrt(ns[-1]) + 1)
    rho = _factorial_rho(ns, powers)
    roots = [math.isqrt(n) for n in ns]
    nb = np.array(ns, dtype=np.int64)[:, None]
    cuts = ps.searchsorted(np.array(roots) + 1, side="right").tolist()  # pi(r + 1)
    d = (nb // (ps[: cuts[-1]] - 1) - nb // ps[: cuts[-1]]) * np.log(ps[: cuts[-1]])
    x = nb // np.arange(1, roots[-1] + 1, dtype=_K)
    x += 1  # v + 1 for v = n // k
    prime = _route_carried(ns, x, roots, t, carry or _Carry())
    hit = prime & (x > np.array(roots)[:, None] + 1)  # v > r; v + 1 <= r + 1 is in d
    cells = np.zeros(x.shape)
    cells[hit] = np.log(x[hit])
    gap = _slice_sums(d, cuts) + _slice_sums(cells, roots)
    return rho, rho + gap, _slice_sums(prime, roots)


def _route_steps(ns, before: int, x) -> tuple[np.ndarray, np.ndarray | None]:
    """(fresh, steps) of a block of ascending ns whose x = n // k + 1 at
    k = 1..w: fresh[i], that row i's n is not one more than the n before it,
    before's for row 0; steps[i, k - 1], that the remainder n - k (x - 1)
    of n by k is 0, where n // k is one more than (n - 1) // k and
    every other quotient is as it was, or None where every row is fresh.
    The check route's own change detection (_route_carried)."""
    nb = np.array(ns, dtype=np.int64)
    fresh = nb - np.concatenate(([before], nb[:-1])) != 1
    if fresh.all():
        return fresh, None
    rem = x - 1
    rem *= np.arange(1, x.shape[1] + 1, dtype=_K)
    np.subtract(nb[:, None], rem, out=rem)
    return fresh, rem == 0


def _route_carried(ns, x, roots, t: PrimeTable, carry: _Carry) -> np.ndarray:
    """The primality of each x = n // k + 1, k = 1..w, of a block of
    ascending ns, by the check route: its flag rule, cell by cell.

    An x <= t.limit is read on the bitmap.  The x past it are the prefix
    k <= n // t.limit of each row.  A row whose n follows no n - 1
    (_route_steps), before the block the carry's, tests them by its own
    window (_route_flags).  Any other keeps the flags of the row before it
    where x did not move, and tests the x that moved past the table, all
    the block's at once, by _route_tests.  carry is left at the block's
    last row."""
    fresh, steps = _route_steps(ns, carry.n, x)
    prime = x <= t.limit
    prime[prime] = t.prime_mask(t.limit)[x[prime]]
    if steps is not None:
        before = np.zeros(x.shape[1], dtype=bool)
        before[: len(carry.flags)] = carry.flags
        own = steps & (x > t.limit) & ~fresh[:, None]
        prime[own] = _route_tests(x[own], t.primes_up_to(roots[-1] + 1)[:_CARRY_PRIMES])
        kept = ~steps
    for i, (n, r) in enumerate(zip(ns, roots)):
        k = min(n // t.limit, r)  # x descends in k, past the table at k <= n // t.limit
        if not fresh[i]:
            np.copyto(prime[i], prime[i - 1] if i else before, where=kept[i])
        elif k:
            prime[i, :k] = _route_flags(n, x[i, :k], t)
    carry.n, carry.flags = ns[-1], prime[-1].copy()
    return prime


def _factorial_budget(n):
    """Budget on |_factorial_sums' log rho(n) or log sigma(n) - the exact value|
    at n >= 0, or an array of them, with u = 2**-52 and s = sqrt(n):

        u (3 n log(n + 1) + 3 (s + 6) (n + (s + 1) log(n + 1))).

    log n! is within 2 n log n units (_log_factorial); each term within 5
    units (np.log within 4 ulps, the conversion to float64 and the product
    half an ulp each); a sum of m nonnegative terms, in any order, within
    (m - 1) u / 2 of their total, and each closing sum within u / 2 of its
    value.  log rho subtracts at most s + n**(1/3) log2(n) terms (the perfect
    powers), of total under 0.755 n; log sigma adds under 2 s more, of total
    under 0.755 n + 1.39 (s + 1) + s log(n + 1), by
    n // (p-1) - n // p <= n / (p (p-1)) + 1, theta(x) < 1.39 x (Chebyshev)
    and log(v + 1) <= log(n + 1).  The formula covers the sum of these.
    """
    lg = np.log(n + 1.0)
    return 2.0**-52 * (3 * n * lg + 3 * (np.sqrt(n) + 6) * (n + (np.sqrt(n) + 1) * lg))


_Row = tuple[float, float, int, float, float]  # (log_rho, log_sigma, card_A, s1, s2)


def _prime_quotients(ns: list[int], q, prime_q, mask):
    """(card_A, s1, s2) of a block of ascending ns laid out as _rows takes
    it: the one sum of the prime quotient values n // k + 1, of every row.

    card_A counts and s1 sums log(n // k + 1) over the flagged cells of
    prime_q, row after row, row i's small quotients being the cells from
    i stride to i stride + r; s2 sums mult = n // v - n // (v + 1) times
    log(v + 1) over the large v <= top with v + 1 prime on mask.  Each row
    sums over its own cells, in a fixed order.
    """
    roots = [math.isqrt(n) for n in ns]
    tops = [n // (r + 1) for n, r in zip(ns, roots)]
    w, stride = q.shape[1], prime_q.shape[1]
    hit = np.flatnonzero(mask[2 : w + 1])  # the v < w with v + 1 prime, as v - 1
    hits = hit.searchsorted(tops).tolist()  # how many large v with v + 1 prime, per row
    flagged = np.flatnonzero(prime_q)
    logs = np.log(q[:, :stride].ravel()[flagged] + 1)
    bounds = [c for i, r in enumerate(roots) for c in (i * stride, i * stride + r)]
    cuts = flagged.searchsorted(bounds).tolist()
    s1 = [float(np.add.reduce(logs[cuts[i] : cuts[i + 1]])) for i in range(0, len(cuts), 2)]
    card = [cuts[i + 1] - cuts[i] for i in range(0, len(cuts), 2)]
    h = hit[: hits[-1]]  # v - 1 at each large v with v + 1 prime: mult is q[:, h] - q[:, h + 1]
    s2 = _slice_sums((q[:, h] - q[:, h + 1]) * np.log(h + 2), hits).tolist()
    return card, s1, s2


# -- rows ---------------------------------------------------------------------------

# LUCY_THRESHOLD picks the theta sums' route (theta._theta_rho) and bounds
# _checked's table rule, which _DENSE_GRID sets for scan grids.  Below it
# theta is looked up in the table, which needs the table up to n + 2 and its
# primes and theta prefix derived that far; from it on it is Lucy's sieve's,
# which needs the table only up to sqrt(n) + 2.  At 2^22 a Lucy row takes
# about 3 ms and a table row 0.19 ms alone or 0.14 ms in a step:1 window
# (2-vCPU VM), but only after a table up to n + 2, which takes 28 ms to build
# and holds 1 + 16 / ln n bytes per integer.  The route depends on n and on
# whether the caller reads theta sums, never on the grid.  Past the table a
# row carries its flags from n - 1 at about 11 fresh tests a row at 2^30
# (_row_flags, _route_carried), but pays a window where the grid holds no
# n - 1.  For k evenly spaced n up to N on a fresh table (scan_records, best
# of 5, one CPU of a 2-vCPU VM) the windows and the bitmap took the same
# time at N / (sum of isqrt(n)) of about 140 at N = 3 * 2^20, 170 at
# 3 * 2^19 and 240 at 3 * 2^18; at 3 * 2^20 the windows took 3.1 ms and the
# bitmap 8.9 ms at 4 rows, 21.3 and 12.5 ms at 32.
LUCY_THRESHOLD = 1 << 22
_DENSE_GRID = 128
_PREFILTER_PRIMES = 32  # trial-divide by this many primes, the row's 14 bases among them
# trial-divide the few x that a carried row tests afresh, about 11 a row at
# 2^30 and 119 a 16-row block at 2^20, by this many primes only: the row's
# tests took 34, 46, 60 and 136 us a row at 2^30 with 4, 8, 12 and 32 primes,
# the route's 30, 40, 52 and 110 us, and at 2^20 both were flat to 16
# (one CPU of a 2-vCPU VM); numpy's call per prime outweighs the Miller-Rabin
# rounds that the further primes spare
_CARRY_PRIMES = 4
# a row's window, past the bitmap: the n // k + 1 in [n // r + 1,
# n // r + 1 + _WINDOW_ROOTS r], r = isqrt(n), the k from about
# n / ((_WINDOW_ROOTS + 1) r) to r, which the row (_quotient_flags) and the
# check route (_route_flags) each sieve for themselves.  At 2^40 + 12345 the
# row's flags took 191, 140, 96, 90 and 158 ms at widths 2, 4, 8, 16 and
# 32 r (one CPU of a 2-vCPU VM); 16 r led 8 r by under a tenth at every n
# from 2^23 on, not worth twice the window's bytes
_WINDOW_ROOTS = 8
# the dtype of the k = 1..isqrt(n) that the check route divides n by and
# that both routes' change detection multiplies n // k by, exact: every k
# of an int64 n fits, and an int64 array of them, fresh at each row, made
# the route's n // k take 2.4 ms at 2^36 where it took 1.1 ms (one CPU of a
# 2-vCPU VM).  The row's own n // k keep int64 k: the row's window reuses
# the space they leave, and with uint32 k `scan --grid list:2^40` peaked
# 0.9 MB higher
_K = np.uint32
# the quotients n // k, k = 1..top + 1, of a block of rows, counted at its
# widest row (_blocks), where _checked cuts the grid once for the rows, their
# log rho and their check: a block's few arrays of 8-byte cells stay within
# _legendre_bytes' fixed term.  Each block pays fixed costs (_exponents,
# _log_factorial, the budget): the scan rows and check of a
# 1500-row step:1 window near 2^20 took 107 ms at 2^13 and 96 ms at 2^14
# (medians of 8 processes on one CPU of a 2-vCPU VM)
_TABLE_BLOCK_CELLS = 1 << 14


def _legendre_bytes(n: int) -> int:
    """An upper estimate of the peak bytes of a scan row at n (_rows with
    _legendre_rho's log rho) with its check, the table already built: the
    arrays of a block of _checked (_TABLE_BLOCK_CELLS), 30 B per sqrt(n)
    for the row and its check, and 2 B per sqrt(n) for the flags of the row
    before that the row and the route each carry (_Carry).  By tracemalloc,
    at 2^30 + 12345, 2^36 + 12345 and 2^40 + 12345, a row that takes its
    windows and its check peaked at 31.0, 27.5 and 27.3 B per sqrt(n), and
    a row that carries its flags from n - 1 and its check at 25.0, 23.0 and
    22.7 B, the carries of n - 1 not counted.  The row alone, its quotients,
    flags and sieved window, sets a fresh row's peak from 2^36 on; the check
    route (_factorial_sums) sieves its window a piece of at most
    DEFAULT_BLOCK_SIZE bytes at a time."""
    return 80 * _TABLE_BLOCK_CELLS + (30 + 2) * math.isqrt(n)


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


def _prime_flags(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Primality of each x in xs, where ps holds 2 and every x exceeds every
    prime in ps and every base that its Miller-Rabin round uses
    (primes._MR_BOUNDS): 2 alone below 2047, and never more than the 14
    primes up to 43.  It serves the row alone, at the n // k + 1 above its
    window (_quotient_flags) and at the cells a carried row tests afresh
    (_row_flags); the check route has its own (_route_tests).

    Trial division by ps, vectorised, drops most composites, and every
    composite x <= (r + 1)**2 when ps holds the primes up to r + 1; the
    survivors, odd, go through the rounds, exact at every x < 2**63.  A
    composite that a base divides fails that base's round.
    """
    flags = np.ones(len(xs), dtype=bool)
    for p in ps.tolist():
        flags &= xs // p * p != xs  # numpy divides by a scalar faster than it takes %
    idx = np.flatnonzero(flags)
    flags[idx] = list(map(_primes._miller_rabin, xs[idx].tolist()))
    return flags


def _quotient_flags(n: int, small: np.ndarray, t: PrimeTable) -> np.ndarray:
    """Primality of x = v + 1 at each v of small = n // k, k = 1..len(small)
    <= r = isqrt(n), with the table up to r + 2.

    The x in the row's window [n // r + 1, n // r + 1 + _WINDOW_ROOTS r],
    those of k > j = n // (window end), are read from one sieve of the span
    they cover (t.segment), by the table's primes up to the square root of
    its end, about 3 sqrt(r); the few x above it, of k <= j, go through
    _prime_flags.  Both are exact.
    """
    r = math.isqrt(n)
    end = n // r + 1 + _WINDOW_ROOTS * r
    j = min(n // end, len(small))
    flags = np.empty(len(small), dtype=bool)
    flags[:j] = _prime_flags(small[:j] + 1, t.primes_up_to(r)[:_PREFILTER_PRIMES])
    if j < len(small):
        lo = int(small[-1]) + 1
        flags[j:] = np.frombuffer(t.segment(lo, end), dtype=bool)[small[j:] + (1 - lo)]
    return flags


def _route_flags(n: int, xs: np.ndarray, t: PrimeTable) -> np.ndarray:
    """Primality of the descending xs = n // k + 1, k = 1..len(xs) <= r =
    isqrt(n), by the check route's own tests, which share no code with the
    row's (_quotient_flags), with the table up to r + 2.

    The x in the row's window [n // r + 1, n // r + 1 + _WINDOW_ROOTS r] are
    read from a numpy slice sieve of the span they cover, by the table's
    primes up to its square root, DEFAULT_BLOCK_SIZE integers at a time, so
    a row never holds its whole window.  The x above it go through trial
    division and _strong_probable_prime on _route_bases.  Both are exact at
    every x < 2**64.
    """
    r = math.isqrt(n)
    above = int(np.count_nonzero(xs > n // r + 1 + _WINDOW_ROOTS * r))
    flags = np.empty(len(xs), dtype=bool)
    flags[:above] = _route_tests(xs[:above], t.primes_up_to(r)[:_PREFILTER_PRIMES])  # x > 9 r
    w, out = xs[above:][::-1], flags[above:][::-1]  # ascending
    if len(w):
        step, last = _primes.DEFAULT_BLOCK_SIZE, int(w[-1])
        ps = t.primes_up_to(math.isqrt(last)).tolist()
        for a in range(int(w[0]), last + 1, step):
            b = min(a + step, last + 1)
            sieve = np.ones(b - a, dtype=bool)
            for p in itertools.takewhile(lambda p: p * p < b, ps):
                sieve[max(p * p, -(-a // p) * p) - a :: p] = False
            i, j = w.searchsorted([a, b]).tolist()
            out[i:j] = sieve[w[i:j] - a]
    return flags


def _route_tests(xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Primality of each x in xs, where every x exceeds every prime in ps
    and ps holds 2: trial division by ps, then _strong_probable_prime on
    _route_bases, exact at every x < 2**64.  The check route's tests above
    its windows (_route_flags) and at the cells its carry moves
    (_route_carried)."""
    keep = np.ones(len(xs), dtype=bool)
    for p in ps.tolist():
        keep &= xs % p != 0
    idx = np.flatnonzero(keep)
    keep[idx] = [_strong_probable_prime(x, _route_bases(x)) for x in xs[idx].tolist()]
    return keep


def _route_bases(x: int) -> tuple[int, ...]:
    """The check route's Miller-Rabin bases for x, none of them a set of the
    row's (primes._MR_BASES): 2, 7 and 61 below 4759123141, the least
    composite that is a strong pseudoprime to all three (G. Jaeschke, 1993),
    and at and above it J. Sinclair's seven bases, which leave no strong
    pseudoprime below 2**64 (2011)."""
    if x < 4_759_123_141:
        return 2, 7, 61
    return 2, 325, 9375, 28178, 450775, 9780504, 1795265022


def _strong_probable_prime(x: int, bases) -> bool:
    """Whether the odd x >= 3 is a strong probable prime to each base of
    bases, taken mod x.  A base that x divides tests nothing and is skipped:
    it is not a witness that x is composite."""
    s = ((x - 1) & (1 - x)).bit_length() - 1  # x - 1 = d * 2**s with d odd
    d = (x - 1) >> s
    for a in bases:
        if a % x == 0:
            continue
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _exponents(nb: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """e_p = sum over e >= 2 of n // p**e at each n of the column nb and each
    prime p of the ascending ps, int64, one row per n: n // p divided by p
    again and again.  As n // p**e falls as p grows and rises with n, the p
    with a nonzero quotient in any row are a prefix of ps, the last row's
    (nb ascends), and each step divides that prefix alone."""
    q, e, m = nb // ps, np.zeros((len(nb), len(ps)), dtype=np.int64), len(ps)
    while m:
        q = q[:, :m] // ps[:m]
        m = int(np.count_nonzero(q[-1]))
        e[:, :m] += q[:, :m]
    return e


def _legendre_rho(ns: Sequence[int], q: np.ndarray, t: PrimeTable) -> list[float]:
    """log rho(n) of each n of the ascending ns, one block whose quotients
    q = n // k _rows made, by Legendre's formula

        log rho(n) = log n! - sum over primes p <= sqrt(n) of e_p log p,

    with e_p from _exponents at q's first column, n // 1 = n, one term per
    prime, so the repeated division runs its steps once for the whole block.
    Each row sums its own terms (_slice_sums), so its value does not depend
    on the block."""
    roots = [math.isqrt(n) for n in ns]
    nb = q[:, :1]
    ps = t.primes_up_to(roots[-1])
    cuts = ps.searchsorted(roots, side="right").tolist()  # pi(sqrt n)
    sums = _slice_sums(_exponents(nb, ps) * np.log(ps), cuts)  # no product outlives it
    return (_log_factorial(nb[:, 0]) - sums).tolist()


def _row_steps(ns, before: int, q) -> tuple[np.ndarray, np.ndarray | None]:
    """(fresh, steps) of a block of ascending ns whose quotients are
    q = n // k, k = 1..w: fresh[i], that row i does not follow the row
    before it, before's n for row 0, by one; steps[i, k - 1], that k
    divides n, k (n // k) == n, the cells whose quotient moved
    from n - 1's, among them the new k = isqrt(n) where it stepped, at
    n = k**2, or None where every row is fresh.  The row's change detection
    (_row_flags)."""
    nb = np.array(ns, dtype=np.int64)
    fresh = np.diff(nb, prepend=before) != 1
    return fresh, None if fresh.all() else q * np.arange(1, q.shape[1] + 1, dtype=_K) == nb[:, None]


def _row_flags(ns, q, roots, t: PrimeTable, carry: _Carry) -> np.ndarray:
    """The primality of x = n // k + 1 at each quotient of q = n // k,
    k = 1..w, w = isqrt(max(ns)), of a block of ascending ns, by the row:
    its flag rule, cell by cell; the cells past a row's isqrt(n) are not
    read.

    An x <= t.limit is read on the bitmap.  The x past it are the prefix
    k <= n // t.limit of each row.  A row that follows no n - 1
    (_row_steps), before the block the carry's, takes them from its own
    window (_quotient_flags).  Any other keeps the flags of the row before
    it where x did not move, and tests the x that moved past the table,
    all the block's at once, by _prime_flags.  carry is left at the
    block's last row."""
    fresh, steps = _row_steps(ns, carry.n, q)
    flags = np.zeros(q.shape, dtype=bool)
    if steps is not None:
        before = np.zeros(q.shape[1], dtype=bool)
        before[: len(carry.flags)] = carry.flags
        i, k = np.divmod(np.flatnonzero(steps & ~fresh[:, None]), q.shape[1])  # the cells that moved
        past = q[i, k] >= t.limit
        i, k = i[past], k[past]
        flags[i, k] = _prime_flags(q[i, k] + 1, t.primes_up_to(roots[-1] + 1)[:_CARRY_PRIMES])
    for i, r in enumerate(roots):
        p = min(ns[i] // t.limit, r)  # x = n // k + 1 is past the table at k <= n // t.limit
        flags[i, p:r] = t.prime_mask(t.limit)[1:][q[i, p:r]]  # mask[v]: v + 1 is prime
        if not fresh[i]:
            np.copyto(flags[i], flags[i - 1] if i else before, where=~steps[i])
        elif p:
            flags[i, :p] = _quotient_flags(ns[i], q[i, :p], t)
    carry.n, carry.flags = ns[-1], flags[-1].copy()
    return flags


class _RowKind(NamedTuple):
    """The log rho of _checked's rows and what comes with it: rho(ns, q, t)
    of a block (_rows), budget(ns, rho, sigma, t) against the check route
    (_check_block), row_bytes(n) of one row, and table, whether the rows
    below LUCY_THRESHOLD read the table up to n + 2 (_checked)."""

    rho: Callable
    budget: Callable
    row_bytes: Callable[[int], int]
    table: bool


def _rows(ns: Sequence[int], t: PrimeTable, kind: _RowKind, carry: _Carry) -> list[_Row]:
    """(log_rho, log_sigma, card_A, s1, s2) of each n of the ascending ns >= 1,
    one block of _checked: the one row assembly, of the scan's rows (log rho
    from _legendre_rho) and the theta-sum rows (theta._theta_rho), by kind.

    q = n // k, k = 1..top + 1 of the last row, is made once for the block.
    card_A, s1 and s2 are _prime_quotients' over q, the flags of n // k + 1,
    k <= sqrt(n), by _row_flags, which leaves carry at the block's last
    row, and the bitmap up to sqrt(n) + 2 for the large v + 1.  Every flag
    source is exact, so a row's values depend neither on the source nor on
    the block, the grid or the table rule.  s1 + s2 is the log-sum of the
    prime n // k + 1 over k = 1..n, log sigma(n) - log rho(n), so log sigma
    = log rho + (s1 + s2).

    With _legendre_rho's log rho both values are within _factorial_budget(n)
    of the exact ones, by that budget's own count: log n! is the check
    route's; log rho subtracts pi(sqrt n) <= sqrt(n) terms of total under
    0.755 n, and s1 and s2 add at most sqrt(n) terms each, of total log
    sigma(n) - log rho(n), each term within 5 units (np.log, the conversion
    of e_p or mult, the product); the sums and the two closing sums round as
    the route's do.  theta._theta_budget bounds theta._theta_rho's.
    """
    nb, roots = np.array(ns, dtype=np.int64)[:, None], [math.isqrt(n) for n in ns]
    q, w = nb // np.arange(1, ns[-1] // (roots[-1] + 1) + 2, dtype=np.int64), roots[-1]
    rho = kind.rho(ns, q, t)
    flags = _row_flags(ns, q[:, :w], roots, t, carry)
    card, s1, s2 = _prime_quotients(ns, q, flags, t.prime_mask(roots[-1] + 1))
    return [(lr, lr + (x + y), c, x, y) for lr, c, x, y in zip(rho, card, s1, s2)]


def _one_row(n: int, table: PrimeTable | None, kind: _RowKind) -> ScanRecord:
    """The record of the one n at c = 0, checked (_records), a row of kind."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return next(_records(_checked([n], _primes._table(table), kind), 0.0))


def theta_sum_rho(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k); identical to log rho(n) exactly."""
    from .theta import _THETA_ROWS  # compiled by the theta sums alone

    return _one_row(n, table, _THETA_ROWS).log_rho


def theta_sum_sigma(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k + 1); identical to log sigma(n)."""
    from .theta import _THETA_ROWS

    return _one_row(n, table, _THETA_ROWS).log_sigma


def s_split(n: int, table: PrimeTable | None = None) -> tuple[float, float, float]:
    """(s_total, s1, s2): log-sums of the prime quotient values floor(n/k+1).

    s1 runs over k <= sqrt(n), s2 over sqrt(n) < k <= n (grouped by equal
    quotients), and s_total = s1 + s2 by construction.  s_total equals
    log sigma(n) - log rho(n) up to float accumulation.
    """
    rec = _one_row(n, table, _SCAN_ROWS)
    return rec.s1 + rec.s2, rec.s1, rec.s2


def quotient_prime_count(n: int, table: PrimeTable | None = None) -> int:
    """Number of k <= sqrt(n) for which floor(n/k + 1) is prime (card_A)."""
    return _one_row(n, table, _SCAN_ROWS).card_A


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
        """The fields joined by commas, str of the ints and repr of the floats."""
        return _CSV_ROW % self


_CSV_ROW = "%s,%r,%r,%r,%r,%s,%r,%r,%r"
assert CSV_HEADER == ",".join(ScanRecord._fields)


def _legendre_budget(ns, rho, sigma, t: PrimeTable) -> np.ndarray:
    """_SCAN_ROWS' budgets on |log rho(n) and log sigma(n) - _factorial_sums'
    values|, in columns 0 and 1, at each n of ns: the row and the route are
    each within _factorial_budget(n), so 2 _factorial_budget(n) in both, at
    most 1e-6 max(1, n), eq14-16's tolerance, which it passes from about 2^59."""
    n = np.array(ns, dtype=np.float64)
    budget = np.stack([2 * _factorial_budget(n)] * 2, 1)
    return np.minimum(budget, 1e-6 * np.maximum(1.0, n)[:, None])


_SCAN_ROWS = _RowKind(_legendre_rho, _legendre_budget, _legendre_bytes, False)


def _checked(ns, t: PrimeTable, kind: _RowKind):
    """An iterator of (block, rows, ratio, bound) per block of the ascending
    ns, cut once here (_blocks, top + 1 cells a row): the block's rows
    (_rows, with kind's log rho, the scan's or the theta sums') and its
    check route (_factorial_sums).  ratio[i] is row i's |difference| /
    bound[i] against the route, log rho and log sigma within kind's budget,
    s1 + s2 with the route's gap within 1e-6 max(1, n), and card_A with the
    route's exact count within 1/2, so that one flag of n // k + 1 wrong
    fails at any n.  The row and the route each keep a _Carry, the flags of
    the last row they made, from block to block, so a row whose n follows
    the last n of the block before carries its flags as one inside a block
    does; from about 2^30 on a block is one row.

    The grid's set-up is done at the call, before any block: it refuses a
    grid that is empty or has an n < 1, prices one row at max(ns), by
    kind's row_bytes, and builds the route's prime powers once, at max(ns)
    (_prime_powers).  Its table rule: t grows to sqrt(max(ns)) + 2, and to
    n + 2 for the last n below LUCY_THRESHOLD for the rows of a kind that
    reads it there, the theta rows, which look theta up in it, and for
    scan rows whose cells below it that pay a window, the sum of isqrt(n)
    over the n with no n - 1 before them, are at least that n / _DENSE_GRID.
    So a step:1 window, which pays one window, keeps a table up to
    sqrt(max(ns)) + 2, and step:K with K > 1, dyadic grids and lists of lone
    n pay one a row on it unless they are that dense.  Each route reads the
    bitmap as far as the table reaches (_row_flags, _route_carried); every
    flag source is exact, so the rule moves no byte of a row.  The rows
    derive the table's arrays only as far as they read them: a scan's and
    its check's to sqrt(max(ns)) + 1, the theta sums below LUCY_THRESHOLD
    (theta._theta_rho) to their largest n."""
    if not ns or ns[0] < 1:
        raise ValueError("scan grid must be nonempty with n >= 1")
    top, light = ns[-1], ns[: bisect.bisect_left(ns, LUCY_THRESHOLD)]
    _primes.require_memory(kind.row_bytes(top), f"a scan row at n = {top}")
    paying = (n for n, b in zip(light, itertools.chain([-1], light)) if n - b != 1)  # no n - 1 before
    cells = itertools.accumulate(map(math.isqrt, paying))
    dense = light and (kind.table or any(_DENSE_GRID * c >= light[-1] for c in cells))
    t.ensure(max(light[-1] + 2 if dense else 0, math.isqrt(top) + 2))
    powers, carries = _prime_powers(top, t), (_Carry(), _Carry())
    cuts = _blocks(n // (math.isqrt(n) + 1) + 1 for n in ns)
    return (_check_block(ns[a:b], t, kind, powers, carries) for a, b in cuts)


def _check_block(block, t: PrimeTable, kind: _RowKind, powers, carries):
    """_checked's (block, rows, ratio, bound) of one block, the row's and
    the route's carries handed on to the next."""
    rows = _rows(block, t, kind, carries[0])
    lr, ls, card, s1, s2 = np.array(rows).T
    rho, sigma, count = _factorial_sums(block, t, powers, carries[1])
    split = 1e-6 * np.maximum(1.0, np.array(block, dtype=np.float64))
    budget = kind.budget(block, lr, ls, t)
    bound = np.column_stack((budget, split, np.full(len(block), 0.5)))
    off = np.stack((lr - rho, ls - sigma, (s1 + s2) - (sigma - rho), card - count), 1)
    return block, rows, np.abs(off) / bound, bound


# _records' error for a row past each bound of _checked, in its order
_FAILURES = (
    "log rho disagrees with Legendre's formula",
    "log sigma disagrees with Legendre's formula",
    "quotient log split disagrees with log gap",
    "card_A disagrees with the check route's count of prime quotients",
)


def _records(checked, c: float) -> Iterator[ScanRecord]:
    """The records of _checked's blocks, the scan's rows or the theta-sum
    rows, a block at a time once all its rows are within their bounds;
    else ArithmeticError at the first row past one, naming its first
    failing comparison."""
    for part, rows, ratio, _ in checked:
        bad = np.argwhere(~(ratio <= 1.0))  # a NaN fails too
        if len(bad):
            i, j = bad[0].tolist()
            raise ArithmeticError(f"{_FAILURES[j]} at n={part[i]}")
        for n, (lr, ls, card, s1, s2) in zip(part, rows):
            logn = math.log(n)
            yield ScanRecord(
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


def scan_records(
    ns, table: PrimeTable | None = None, c: float | None = None
) -> Iterator[ScanRecord]:
    """One ScanRecord per requested n, in ascending order, as a stream.

    Each record's values are those of n alone, so the row for a given n is
    byte-identical whatever the grid: in O(sqrt(n)) time by Legendre's
    formula and the flags of n // k + 1 (_row_flags), a block of _checked
    at a time in this thread (_rows with _legendre_rho's log rho), on the
    table that _checked's table rule sets up.  No row reads theta at
    the quotients: that is for verify eq14-16 and
    theta_sum_rho/theta_sum_sigma (theta._theta_rho).  The records come in checked
    blocks (_records), so a caller that writes them as they come holds one
    block, not the scan; an ascending range stays a range.  The
    grid and its set-up (_checked) are settled before the first record is
    asked for.  c defaults to analytic_constant().
    """
    if not (isinstance(ns, range) and ns.step > 0):
        ns = sorted(set(int(n) for n in ns))
    checked = _checked(ns, _primes._table(table), _SCAN_ROWS)
    return _records(checked, analytic_constant().midpoint if c is None else c)


def scan(ns, table: PrimeTable | None = None, c: float | None = None) -> list[ScanRecord]:
    """The records of scan_records, as one list."""
    return list(scan_records(ns, table, c))


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
    """per_block evenly spaced n inside each dyadic block [2^j, 2^(j+1)), or
    each n of a block narrower than per_block."""
    out = []
    for j in range(jmin, jmax + 1):
        base = 1 << j
        out.extend(range(base, 2 * base, max(base // per_block, 1))[:per_block])
    return out


def parse_grid(spec: str, start: int, nmax: int) -> Sequence[int]:
    """Grid specs: "dyadic", "step:K", or "list:1,2,3", as an ascending list,
    or for "step:K" a range.  A grid with no n, or a list value above nmax,
    is refused."""
    if spec == "dyadic":
        ns = dyadic_grid(max(1, start), nmax)
    elif spec.startswith("step:"):
        step = int(spec[5:])
        if step < 1:
            raise ValueError("step must be >= 1")
        ns = range(max(1, start), nmax + 1, step)
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
    """The header and one CSV row per record, to a file path or a text
    stream, each line written as the iterable records yields its record."""
    with _opened(path) as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_json(records, path) -> None:
    """The records as a JSON list of objects, to a file path or a text
    stream, one object at a time: the bytes of json.dump(list, fh, indent=1)
    and a newline, each object json.dumps(indent=1) one level in."""
    import json  # only this writer reads it

    with _opened(path) as fh:
        sep = "[\n "
        for rec in records:
            fh.write(sep + json.dumps(rec._asdict(), indent=1).replace("\n", "\n "))
            sep = ",\n "
        fh.write("[]\n" if sep == "[\n " else "\n]\n")


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
