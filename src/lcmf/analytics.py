"""Analytic layer: the constant c, theta-sum identities, and scans.

The headline quantities are log rho(n) and log sigma(n).  Both admit exact
rewrites as sums of theta values over the ~2 sqrt(n) distinct quotients n//k,
and their gap is the log-sum over k of the prime quotient values
floor(n/k + 1).  The theta-sum routes below hand _rows theta at q = n // k
and the primality of q + 1; it sums log rho over theta, and card_A, s1 and
s2 through _prime_quotients.  Every row's log sigma is log rho + (s1 + s2).
The check route, Legendre's formula for n! over the prime powers
(_factorial_sums), needs the primes up to sqrt(n) + 1 alone; _checked
compares every row of scan, verify eq14-16 and the one-n functions with it,
log rho and log sigma within stated budgets and s1 + s2 with its gap, so
its own primality tests check the flags behind s1 and card_A.  Residuals
subtract n log n - (c+1) n and n log n - n, where c is the sum over primes
of log p / (p (p-1)): scans take it from analytic_constant(), the float of
an analytic series, and prime_series_constant() encloses it rigorously.

The route of a row depends on n and on what the caller reads (_scan_rows).
Below LUCY_THRESHOLD (2^22) theta and primality are lookups in a prime
table up to n + 2, about 1 + 16 / ln n bytes per integer, taken for a block
of n at a time (_table_rows), for every caller.  From it on, with a table
only up to sqrt(n) + 2, a scan row and the one-n functions that read no
theta (s_split, quotient_prime_count) take _legendre_row, in O(sqrt n):
log rho from Legendre's formula one prime at a time, and card_A, s1 and s2
from _prime_quotients, with the primality of n // k + 1 from one sieved
window above sqrt(n) and, for the few values past it, Miller-Rabin
(_quotient_flags).  verify eq14-16 and theta_sum_rho and theta_sum_sigma,
which check the theta sums themselves, take a block of one of _rows
(_lucy_row) with theta at every quotient from Lucy's sieve (_lucy), in
O(n**(3/4)) time and O(sqrt n) memory, and the same flags.  Each row sums
in a fixed order over its own arrays, so scan output is reproducible bit
for bit on one platform whatever the grid or its blocks.  A scan is one
stream of records in n order, made and checked a chunk of rows at a time
in the calling thread (_records), which the writers take as it comes.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    """log rho(n), the sum of (n // p) log p over primes p, by the check route
    _factorial_rho, which reads the primes up to sqrt(n) alone."""
    return float(_factorial_rho([n], _primes._table(table))[0])


def log_sigma(n: int, table: PrimeTable | None = None) -> float:
    """log sigma(n), the sum of (n // (p-1)) log p over primes p, by the check
    route _factorial_sums."""
    return float(_factorial_sums([n], _primes._table(table))[1][0])


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

    The squares ascend with p already.  The higher powers, of the few primes
    up to cbrt(top), are sorted in Python and merged in at their places.
    """
    ps = t.primes_up_to(math.isqrt(top))
    higher = []
    for i, p in enumerate(ps.tolist()):
        v = p * p * p
        if v > top:
            break
        while v <= top:
            higher.append((v, i))
            v *= p
    higher.sort()
    squares, hv = ps * ps, np.array([v for v, _ in higher], dtype=np.int64)
    at = squares.searchsorted(hv) + np.arange(len(hv))  # the squares and higher powers below v
    keep = np.ones(len(ps) + len(hv), dtype=bool)
    keep[at] = False
    powers, owner = np.empty(len(keep), dtype=np.int64), np.empty(len(keep), dtype=np.int64)
    powers[at], owner[at] = hv, [i for _, i in higher]
    powers[keep], owner[keep] = squares, np.arange(len(ps))
    return powers, np.log(ps)[owner]


def _factorial_rho(ns, t: PrimeTable) -> np.ndarray:
    """log rho(n) of each n of the nonempty ascending ns >= 0, by Legendre's
    formula v_p(n!) = sum over e >= 1 of n // p**e, of which log rho(n) keeps
    e = 1:

        log rho(n) = log n! - sum over p**e <= n, e >= 2, of (n // p**e) log p.

    The check route of the theta sums, with _factorial_sums: it reads no
    theta, and of the table the primes up to sqrt(max(ns)) alone, through
    _prime_powers(max(ns)), which each call builds.  The quotients n // p**e
    are int64, exact at every n; converting one to float64 as it is
    multiplied by log p is exact below 2**53, and above it within the half
    unit that _factorial_budget's five units per term allow for it.  Each n
    sums its own prime powers in ascending order (_slice_sums), a block of n
    at a time (_blocks), so its value does not depend on ns or on how far
    the powers reach; it is within _factorial_budget(n) of log rho(n).
    """
    if ns[0] < 0:
        raise ValueError("n must be >= 0")
    powers, logs = _prime_powers(ns[-1], t)
    counts = powers.searchsorted(ns, side="right").tolist()  # the prime powers <= n
    out = _log_factorial(np.array(ns, dtype=np.int64))
    for a, b in _blocks(counts):
        nb, w = np.array(ns[a:b], dtype=np.int64)[:, None], counts[b - 1]
        out[a:b] -= _slice_sums(nb // powers[:w] * logs[:w], counts[a:b])
    return out


def _factorial_sums(ns, t: PrimeTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log rho, log sigma, card_A) of each n of the nonempty ascending
    ns >= 0: the check route of the theta sums.  log rho is _factorial_rho's,
    and with r = isqrt(n)

        log sigma(n) - log rho(n) = sum over primes p <= r + 1 of
            (n // (p-1) - n // p) log p + sum of log(v + 1) over the
            v = n // k > r with v + 1 prime,

    as for a prime p > r + 1, n // (p-1) - n // p is 1 when p - 1 is a
    quotient n // k, then with k <= r, and 0 otherwise.  It reads the primes
    up to sqrt(max(ns)) + 1 alone, and tests v + 1 exactly, on the bitmap as
    far as the table reaches and past it by _prime_flags.  Each n sums its
    own cells (_slice_sums), a block of n at a time (_blocks); both values
    are within _factorial_budget(n) of the exact ones.  card_A, the number
    of k <= r with n // k + 1 prime, is exact: the v + 1 above counted, and
    r + 1 where it is n // r + 1, that is where n < r (r + 1).
    """
    ps = t.primes_up_to(math.isqrt(max(ns[-1], 0)) + 1)  # first: the table grows once
    rho = _factorial_rho(ns, t)  # it refuses an n < 0
    logs, mask, gap = np.log(ps), t.prime_mask(t.limit), np.empty(len(ns))
    count = np.empty(len(ns), dtype=np.int64)
    for a, b in _blocks(math.isqrt(n) for n in ns):
        nb, roots = np.array(ns[a:b], dtype=np.int64)[:, None], [math.isqrt(n) for n in ns[a:b]]
        cuts = ps.searchsorted(np.array(roots) + 1, side="right").tolist()  # pi(r + 1)
        d = (nb // (ps[: cuts[-1]] - 1) - nb // ps[: cuts[-1]]) * logs[: cuts[-1]]
        x = nb // np.arange(1, roots[-1] + 1, dtype=np.int64) + 1  # v + 1 for v = n // k
        hit, inside = x > np.array(roots)[:, None] + 1, x < len(mask)
        hit[hit & inside] = mask[x[hit & inside]]
        if not inside.all():  # none is past a table up to max(ns) + 1
            hit[hit & ~inside] = _prime_flags(x[hit & ~inside], ps[:_PREFILTER_PRIMES])
        cells = np.zeros(x.shape)
        cells[hit] = np.log(x[hit])
        gap[a:b] = _slice_sums(d, cuts) + _slice_sums(cells, roots)
        edge = [n < r * (r + 1) and mask[r + 1] for n, r in zip(ns[a:b], roots)]
        count[a:b] = _slice_sums(hit, roots) + edge
    return rho, rho + gap, count


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
    it: the one sum of the prime quotient values n // k + 1, which _rows and
    _legendre_row both call.

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


def _rows(ns: list[int], q, rho_q, prime_q, rho_v, mask) -> list[_Row]:
    """(log_rho, log_sigma, card_A, s1, s2) of each n of a block of ascending
    ns: the one row assembly of the theta-sum routes.

    Row i of q holds n // k for k = 1..w, w = top + 1 of the widest row, with
    r = isqrt(n) and top = n // (r + 1).  rho_q and prime_q hold theta(n // k)
    and the primality of n // k + 1 for k <= r, in rows of their own stride;
    rho_v holds theta(v) at index v < w, and mask the primality of 0..w or
    more.  The large quotients v <= top weigh mult = n // v - n // (v + 1),
    the number of k > r with n // k == v.  card_A, s1 and s2 are
    _prime_quotients'; s1 + s2 is the log-sum of the prime n // k + 1 over
    k = 1..n, log sigma(n) - log rho(n), so log sigma = log rho + (s1 + s2).
    Each row sums with np.add.reduce over its own slices (_slice_sums): the
    values and the order of a row do not depend on the block, so neither do
    its sums.
    """
    roots = [math.isqrt(n) for n in ns]
    tops = [n // (r + 1) for n, r in zip(ns, roots)]
    card, s1, s2 = _prime_quotients(ns, q, prime_q, mask)
    mult_rho = (q[:, :-1] - q[:, 1:]) * rho_v[1 : q.shape[1]]  # at v = 1..w-1
    rho = (_slice_sums(rho_q, roots) + _slice_sums(mult_rho, tops)).tolist()
    return [(lr, lr + (a + b), c, a, b) for lr, c, a, b in zip(rho, card, s1, s2)]


def _table_rows(ns: list[int], t: PrimeTable) -> Iterator[_Row]:
    """(log_rho, log_sigma, card_A, s1, s2) of each n of the ascending ns in
    turn, from the prime table, grown to max(ns) + 2.

    theta at v <= top depends on v alone, so it is taken once per call, from
    one running count of the bitmap.  The rest is taken a block of n at a
    time (_blocks): q = n // k is one array, theta at it one search of the
    primes and one gather, and the flags of n // k + 1 one step.  _rows sums
    each block, whose rows are yielded one by one, so that a caller holds no
    list of them.
    """
    if not ns:
        return
    mask = t.prime_mask(ns[-1] + 2)  # first: it may grow the table
    _, primes, prefix = t._derived()
    top = ns[-1] // (math.isqrt(ns[-1]) + 1)  # the largest top: it is nondecreasing in n
    theta = prefix[np.cumsum(mask[: top + 1])]  # theta(v) for v <= top
    for a, b in _blocks(n // (math.isqrt(n) + 1) + 1 for n in ns):
        w = ns[b - 1] // (math.isqrt(ns[b - 1]) + 1) + 1
        q = np.array(ns[a:b], dtype=np.int64)[:, None] // np.arange(1, w + 1, dtype=np.int64)
        rho_q = prefix[primes.searchsorted(q, side="right")]  # theta(n // k)
        yield from _rows(ns[a:b], q, rho_q, mask[1:][q], theta, mask)


# -- Lucy's sieve ---------------------------------------------------------------------

# Rows for n >= LUCY_THRESHOLD need a table only up to sqrt(n) + 2: a scan's
# from Legendre's formula (_legendre_row), the theta sums' from Lucy's sieve
# (_lucy_row); rows below it come from the prime table.  At 2^22 a Lucy row
# takes about 3 ms, a _legendre_row 0.8 ms and a table row 0.19 ms alone or
# 0.14 ms in a step:1 window (2-vCPU VM), but only after a table up to n + 2,
# which takes 28 ms to build and holds 1 + 16 / ln n bytes per integer.
# Dense step:1 windows near 2^20 stay on the table.  The route depends on n
# and on whether the caller reads theta sums, never on the grid.
LUCY_THRESHOLD = 1 << 22
_PREFILTER_PRIMES = 32  # trial-divide by this many primes, the 14 bases among them
# a row from LUCY_THRESHOLD on sieves the n // k + 1 in [n // r + 1,
# n // r + 1 + _WINDOW_ROOTS r], r = isqrt(n), the k from about
# n / ((_WINDOW_ROOTS + 1) r) to r.  At 2^40 + 12345 the flags took 191, 140,
# 96, 90 and 158 ms at widths 2, 4, 8, 16 and 32 r (one CPU of a 2-vCPU VM);
# 16 r led 8 r by under a tenth at every n from 2^23 on, not worth twice the
# window's bytes
_WINDOW_ROOTS = 8
_LUCY_BATCH_CELLS = 1 << 16  # start values, or phase-2 (p, k) pairs, per chunk of _lucy
# quotients of a block of table rows, or (n, prime power) and (n, k) cells of a
# block of the check route, counted at the block's widest row (_blocks); a
# block's few arrays of 8-byte cells stay within _row_bytes's fixed term
_TABLE_BLOCK_CELLS = 1 << 13
# rows that _checked compares at once before _records yields them: a chunk's
# records, about 390 B a row, weigh about as much as a block's arrays
_CHECK_ROWS = _TABLE_BLOCK_CELLS >> 5


def _row_bytes(n: int) -> int:
    """An upper estimate of a Lucy row's peak bytes at n, its table already built.

    The fixed term is ten int64 or float64 arrays of one _lucy chunk, the
    other the arrays of sqrt(n) or 2 sqrt(n) entries, 125 B per sqrt(n), and
    the sieved window of _quotient_flags, _WINDOW_ROOTS B more.  The
    tracemalloc peak of a row was 1.01 MB at 2^24, 4.8 MB at 2^28, 7.1 MB at
    2^30, 15.3 MB at 2^34, and 28.2 and 34.4 MB at 2^36 and 1.5 * 2^36, 107 B
    more per sqrt(n) between those two, with the window and without it: the
    chunk's arrays set the peak at the small n, _lucy's sqrt(n) arrays at the
    large, and the window, held after them, stays below it.  A row's check
    (_factorial_sums, _theta_budget with its one _row_budget) peaked at up to
    42 B per sqrt(n), below the row's own peak.
    """
    return 80 * _LUCY_BATCH_CELLS + (125 + _WINDOW_ROOTS) * math.isqrt(n)


def _legendre_bytes(n: int) -> int:
    """An upper estimate of the peak bytes of a _legendre_row at n with its
    check, the table already built: a block's arrays (_TABLE_BLOCK_CELLS)
    and 48 B per sqrt(n).  By tracemalloc a row and its check peaked at
    1.21 MB at 2^30 + 12345 and 7.71 MB at 2^36 + 12345, 36.9 and 29.4 B per
    sqrt(n), the check route's arrays (_factorial_sums) setting the peak;
    the row alone, its quotients, flags and sieved window, held 25 B."""
    return 80 * _TABLE_BLOCK_CELLS + 48 * math.isqrt(n)


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
    """Primality of each x in xs, where every x exceeds every prime in ps and
    ps holds every base that x's Miller-Rabin round uses (primes._MR_BOUNDS):
    2 alone below 2047, and never more than the 14 primes up to 43.  It
    serves the n // k + 1 above a row's window (_quotient_flags) and
    the v + 1 past the table in the check route (_factorial_sums).

    Trial division by ps, vectorised, drops most composites, and every
    composite x <= (r + 1)**2 when ps holds the primes up to r + 1; the
    survivors go through the rounds, exact at every x < 2**63.
    """
    flags = np.ones(len(xs), dtype=bool)
    for p in ps.tolist():
        flags &= xs // p * p != xs  # numpy divides by a scalar faster than it takes %
    idx = np.flatnonzero(flags)
    flags[idx] = list(map(_primes._miller_rabin, xs[idx].tolist()))
    return flags


def _quotient_flags(n: int, small: np.ndarray, t: PrimeTable) -> np.ndarray:
    """Primality of x = v + 1 at each v of small = n // k, k = 1..r, r = isqrt(n),
    with the table up to r + 2.

    The x in the window [n // r + 1, n // r + 1 + _WINDOW_ROOTS r], those of
    k > j = n // (window end), are read from one sieve of it (t.segment), by
    the table's primes up to the square root of its end, about 3 sqrt(r);
    the few x above it, of k <= j, go through _prime_flags.  Both are exact.
    """
    r = len(small)
    lo = n // r + 1
    end = lo + _WINDOW_ROOTS * r
    j = n // end
    flags = np.empty(r, dtype=bool)
    flags[:j] = _prime_flags(small[:j] + 1, t.primes_up_to(r)[:_PREFILTER_PRIMES])
    flags[j:] = np.frombuffer(t.segment(lo, end), dtype=bool)[small[j:] + (1 - lo)]
    return flags


def _scan_rows(ns: list[int], t: PrimeTable, theta: bool) -> Iterator[_Row]:
    """The rows of the ascending ns >= 1 in turn: those below LUCY_THRESHOLD
    from one call of _table_rows, the others one row each, a _lucy_row where
    theta sums are asked for (theta) and else a _legendre_row."""
    light = bisect.bisect_left(ns, LUCY_THRESHOLD)
    yield from _table_rows(ns[:light], t)
    row = _lucy_row if theta else _legendre_row
    for n in ns[light:]:
        yield row(n, t)


def _one_row(n: int, table: PrimeTable | None, theta: bool) -> ScanRecord:
    """The record of the one n at c = 0, checked (_records): a theta-sum row
    if theta, else the scan's row."""
    t = _primes._table(table)
    _scan_setup([n], t, theta)
    return next(_records([n], 0.0, t, theta))


def theta_sum_rho(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k); identical to log rho(n) exactly."""
    return _one_row(n, table, True).log_rho


def theta_sum_sigma(n: int, table: PrimeTable | None = None) -> float:
    """Sum over k = 1..n of theta(n / k + 1); identical to log sigma(n)."""
    return _one_row(n, table, True).log_sigma


def s_split(n: int, table: PrimeTable | None = None) -> tuple[float, float, float]:
    """(s_total, s1, s2): log-sums of the prime quotient values floor(n/k+1).

    s1 runs over k <= sqrt(n), s2 over sqrt(n) < k <= n (grouped by equal
    quotients), and s_total = s1 + s2 by construction.  s_total equals
    log sigma(n) - log rho(n) up to float accumulation.
    """
    rec = _one_row(n, table, False)
    return rec.s1 + rec.s2, rec.s1, rec.s2


def quotient_prime_count(n: int, table: PrimeTable | None = None) -> int:
    """Number of k <= sqrt(n) for which floor(n/k + 1) is prime (card_A)."""
    return _one_row(n, table, False).card_A


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


def _lucy_row(n: int, t: PrimeTable) -> _Row:
    """(log_rho, log_sigma, card_A, s1, s2) of n >= LUCY_THRESHOLD, by _rows as a
    block of one: theta from _lucy, the primality of the n // k + 1 with
    k <= sqrt(n) from _quotient_flags, a sieved window and _prime_flags above
    it, and that of the large v + 1 <= sqrt(n) + 1 from the table's bitmap,
    so the table only needs to reach sqrt(n) + 2 (_scan_setup).  Its log
    sigma is log rho + (s1 + s2), as on every row."""
    r = math.isqrt(n)
    q = n // np.arange(1, n // (r + 1) + 2, dtype=np.int64)
    _, (rho_q, rho_v) = _lucy(n, t, q)
    prime_q = _quotient_flags(n, q[:r], t)
    (row,) = _rows([n], q[None], rho_q[None], prime_q[None], rho_v, t.prime_mask(r + 1))
    return row


def _legendre_exponents(n: int, ps: np.ndarray) -> np.ndarray:
    """e_p = sum over e >= 2 of n // p**e at each prime p <= sqrt(n) of the
    ascending ps, int64: n // p divided by p again and again.  As n // p**e
    falls as p grows, the p with a nonzero quotient are a prefix of ps, and
    each step divides that prefix alone."""
    q, e, m = n // ps, np.zeros(len(ps), dtype=np.int64), len(ps)
    while m:
        q = q[:m] // ps[:m]
        m = int(np.count_nonzero(q))
        e[:m] += q[:m]
    return e


def _legendre_row(n: int, t: PrimeTable) -> _Row:
    """(log_rho, log_sigma, card_A, s1, s2) of n >= LUCY_THRESHOLD: the scan's
    row, in O(sqrt n), with the table up to sqrt(n) + 2 (_scan_setup).

    By Legendre's formula, log rho(n) = log n! - sum over primes p <= sqrt(n)
    of e_p log p (_legendre_exponents), one term per prime.  card_A, s1 and
    s2 are _prime_quotients' over the arrays that _lucy_row hands _rows: the
    primality of n // k + 1, k <= sqrt(n), from _quotient_flags, and of the
    large v + 1 <= sqrt(n) + 1 from the bitmap; so they equal _lucy_row's
    bit for bit.  log sigma is log rho + (s1 + s2), as _rows takes it.

    Both values are within _factorial_budget(n) of the exact ones, by that
    budget's own count: log n! is the check route's; log rho subtracts
    pi(sqrt n) <= sqrt(n) terms of total under 0.755 n, and s1 and s2 add
    at most sqrt(n) terms each, of total log sigma(n) - log rho(n), each
    term within 5 units (np.log, the conversion of e_p or mult, the
    product); the sums and the two closing sums round as the route's do.
    """
    r = math.isqrt(n)
    q = n // np.arange(1, n // (r + 1) + 2, dtype=np.int64)
    flags = _quotient_flags(n, q[:r], t)[None]
    (card,), (s1,), (s2,) = _prime_quotients([n], q[None], flags, t.prime_mask(r + 1))
    del q, flags
    ps = t.primes_up_to(r)
    lf = _log_factorial(np.array([n], dtype=np.int64))[0]
    rho = float(lf - np.add.reduce(_legendre_exponents(n, ps) * np.log(ps)))
    return rho, rho + (s1 + s2), card, s1, s2


def _row_budget(n: int, updates: int) -> float:
    """The sum over k = 1..n of _s1_budget(n // k, updates): the budget of a
    Lucy row's sum of theta(n // k) from the errors of its S1."""
    r = math.isqrt(n)
    q = n // np.arange(1, n // (r + 1) + 2, dtype=np.int64)
    small = np.add.reduce(_s1_budget(q[:r], updates))
    mult, top = q[:-1] - q[1:], len(q) - 1  # mult at v = 1..top
    del q
    at = _s1_budget(np.arange(1, top + 1, dtype=np.int64), updates)  # at v = 1..top
    return float(small + np.add.reduce(mult * at))


def _theta_budget(ns, rho, sigma, t: PrimeTable, theta: bool) -> np.ndarray:
    """Budgets on |a row's log rho(n) and log sigma(n) - _factorial_sums'
    values|, in columns 0 and 1, at each n >= 1 of ns, whose rows' values
    are rho and sigma.

    A theta-sum row's log rho is its sum of theta(n // k), k = 1..n, over
    m = r + top <= 2 sqrt(n) terms, r = isqrt(n) and top = n // (r + 1), and
    its log sigma is log rho + (s1 + s2) (_rows).  With u = 2**-52 and x the
    column's value, rho or sigma, the budget is the sum of

    - theta's error at w = n // k, by multiplicity: on a Lucy row
      _row_budget(n, pi(sqrt n)); on a table row, where theta(w) is the
      prefix of np.log p (within 4 ulps), u (4 + pi(w) / 2) theta(w)
      <= 0.7 u w (w + 8) (pi(w) <= w, theta(w) < 1.39 w), summed over
      w <= n / k under 0.7 u (1.645 n**2 + 8 n (1 + log n));
    - the row's rounding, u (2 sqrt(n) + 1) x;
    - the check route's error, _factorial_budget(n).

    log rho's m - 1 adds and its products mult theta(v) round by under
    u (m + 1) rho / 2, about half its share.  log sigma's error is log
    rho's, plus the split's, plus one add.  s1 + s2 sums at most m terms,
    each within 5 u of its value (np.log, the conversion of mult, the
    product), in m - 1 adds, so it is within u (m / 2 + 4.5) (s1 + s2); the
    add rounds by u sigma / 2.  As sigma = rho + (s1 + s2), u (2 sqrt(n) + 1)
    sigma covers the three roundings where m / 2 + 4 <= 2 sqrt(n), at every
    n >= 13; below it the rest, (m / 2 + 4 - 2 sqrt(n)) u (s1 + s2), under
    6.2 u (most at n = 4), is within the 6.3 u that the theta term counts
    at k = n, where theta(n // k) = theta(1) = 0 has no error.

    The rows from LUCY_THRESHOLD on are Lucy rows if theta, else
    _legendre_rows, whose budget is 2 _factorial_budget(n): the row and the
    check route are each within _factorial_budget(n) of the exact value.
    Every budget is at most 1e-6 max(1, n), eq14-16's tolerance, which a
    Lucy row's passes from about 2^45.
    """
    n = np.array(ns, dtype=np.float64)
    heavy = np.flatnonzero(n >= LUCY_THRESHOLD).tolist()
    err = 0.7 * 2.0**-52 * (1.645 * n * n + 8 * n * (1 + np.log(n)))
    if theta:
        for i in heavy:
            err[i] = _row_budget(ns[i], t.pi(math.isqrt(ns[i])))
    row, route = 2.0**-52 * (2 * np.sqrt(n) + 1), _factorial_budget(n)
    budget = np.stack([err + row * x + route for x in (rho, sigma)], 1)
    if not theta:
        budget[heavy] = 2 * route[heavy, None]
    return np.minimum(budget, 1e-6 * np.maximum(1.0, n)[:, None])


def _checked(ns, t: PrimeTable, theta: bool):
    """(part, rows, ratio, bound) per chunk of _CHECK_ROWS rows of the
    ascending ns (_scan_rows, theta-sum rows if theta): ratio[i] is row i's
    |difference| / bound[i] against the check route _factorial_sums, log rho
    and log sigma within _theta_budget, s1 + s2 with the route's gap within
    1e-6 max(1, n), and card_A with the route's exact count within 1/2, so
    that one flag of n // k + 1 wrong fails at any n.  The route builds its
    own prime powers for each chunk (_factorial_rho)."""
    rows = _scan_rows(ns, t, theta)
    for a in range(0, len(ns), _CHECK_ROWS):
        part = ns[a : a + _CHECK_ROWS]
        chunk = list(itertools.islice(rows, len(part)))
        lr, ls, card, s1, s2 = np.array(chunk).T
        rho, sigma, count = _factorial_sums(part, t)
        split = 1e-6 * np.maximum(1.0, np.array(part, dtype=np.float64))
        budget = _theta_budget(part, lr, ls, t, theta)
        bound = np.column_stack((budget, split, np.full(len(part), 0.5)))
        off = np.stack((lr - rho, ls - sigma, (s1 + s2) - (sigma - rho), card - count), 1)
        yield part, chunk, np.abs(off) / bound, bound


# _records' error for a row past each bound of _checked, in its order
_FAILURES = (
    "log rho disagrees with Legendre's formula",
    "log sigma disagrees with Legendre's formula",
    "quotient log split disagrees with log gap",
    "card_A disagrees with the check route's count of prime quotients",
)


def _records(ns, c: float, t: PrimeTable, theta: bool = False) -> Iterator[ScanRecord]:
    """The records of the ascending ns, the scan's rows or, if theta, the
    theta-sum rows, a chunk of _checked at a time once all its rows are
    within their bounds; else ArithmeticError at the first row past one,
    naming its first failing comparison."""
    for part, rows, ratio, _ in _checked(ns, t, theta):
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


def _scan_setup(ns, t: PrimeTable, theta: bool = False) -> None:
    """Set t up for _scan_rows over the ascending ns >= 1 (_checked's
    callers): price one row at max(ns), by _row_bytes for theta-sum rows and
    _legendre_bytes for the scan's, then grow t to n + 2 for the last n below
    LUCY_THRESHOLD and to sqrt(max(ns)) + 2.  The first row derives the
    table's arrays."""
    if not ns or ns[0] < 1:
        raise ValueError("scan grid must be nonempty with n >= 1")
    top = ns[-1]
    light = bisect.bisect_left(ns, LUCY_THRESHOLD)
    need = (_row_bytes if theta else _legendre_bytes)(top)
    _primes.require_memory(need, f"a scan row at n = {top}")
    t.ensure(max(ns[light - 1] + 2 if light else 0, math.isqrt(top) + 2))


def scan_records(
    ns, table: PrimeTable | None = None, c: float | None = None
) -> Iterator[ScanRecord]:
    """One ScanRecord per requested n, in ascending order, as a stream.

    Each record is computed from n alone, so the row for a given n is
    byte-identical whatever the grid: below LUCY_THRESHOLD in O(sqrt(n))
    array work on a table up to n + 2, from it on in O(sqrt(n)) time by
    Legendre's formula and the sieved flags of n // k + 1 (_legendre_row) on
    a table up to sqrt(n) + 2, one row after another in this thread
    (_scan_rows).  No row reads theta at the quotients: that is
    for verify eq14-16 and theta_sum_rho/theta_sum_sigma.  The records come
    in checked chunks (_records), so a caller that writes them as they come
    holds one chunk, not the scan; an ascending range stays a range.  The
    grid and _scan_setup are settled before the first record is asked for.
    c defaults to analytic_constant().
    """
    if not (isinstance(ns, range) and ns.step > 0):
        ns = sorted(set(int(n) for n in ns))
    t = _primes._table(table)
    _scan_setup(ns, t)
    if c is None:
        c = analytic_constant().midpoint
    return _records(ns, c, t)


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
