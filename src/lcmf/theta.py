"""Theta-sum rows: log rho(n) as the sum of theta(n // k) over k = 1..n.

verify eq14-16 and theta_sum_rho and theta_sum_sigma, which check the theta
sums themselves, take the rows of analytics._checked with this module's log
rho, _THETA_ROWS: _theta_rho, the sum of theta(n // k): below
analytics.LUCY_THRESHOLD lookups in a prime table up to n + 2, about
1 + 16 / ln n bytes per integer, at the block's quotients; from it on theta
at every quotient from Lucy's sieve (_lucy), in O(n**(3/4)) time and
O(sqrt n) memory, one n at a time.  The rows' other fields, their check
against Legendre's formula and the blocks are the scan's (analytics), with
this module's budget (_theta_budget) and price (_row_bytes).  No scan
imports this module, so none compiles it.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

# the lcmf modules before numpy, so that they compile before it loads (README)
from . import analytics
from . import primes as _primes
from .primes import PrimeTable

import numpy as np

_LUCY_BATCH_CELLS = 1 << 16  # start values, or phase-2 (p, k) pairs, per chunk of _lucy


def _row_bytes(n: int) -> int:
    """An upper estimate of the peak bytes of a theta-sum row at n from
    LUCY_THRESHOLD on, its table already built.

    The fixed term is ten int64 or float64 arrays of one _lucy chunk, the
    other the arrays of sqrt(n) or 2 sqrt(n) entries, 125 B per sqrt(n), and
    the sieved window of _quotient_flags, _WINDOW_ROOTS B more.  The
    tracemalloc peak of a row was 1.01 MB at 2^24, 4.8 MB at 2^28, 7.1 MB at
    2^30, 15.3 MB at 2^34, and 28.2 and 34.4 MB at 2^36 and 1.5 * 2^36, 107 B
    more per sqrt(n) between those two, with the window and without it: the
    chunk's arrays set the peak at the small n, _lucy's sqrt(n) arrays, its
    quotients the row of _rows' q, at the large, and _rows' flags and
    window, made once _theta_rho has let _lucy's arrays go, stay below it.
    A row's check (_factorial_sums, _theta_budget with its one _row_budget)
    peaked at up to 42 B per sqrt(n), below the row's own peak.
    """
    return 80 * _LUCY_BATCH_CELLS + (125 + analytics._WINDOW_ROOTS) * math.isqrt(n)


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
        all1[a : a + _LUCY_BATCH_CELLS] = analytics._log_factorial(all0[a : a + _LUCY_BATCH_CELLS])
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


def _theta_rho(ns: Sequence[int], q: np.ndarray, roots, tops, t: PrimeTable) -> list[float]:
    """log rho(n) of each n of the ascending ns >= 1, one block whose
    quotients q = n // k, k = 1..top + 1 of the last row, and whose
    r = isqrt(n) and top = n // (r + 1), roots and tops, _rows made, as the
    sum over k = 1..n of theta(n // k), eq. (14): theta at the r small
    quotients n // k, k <= r, and at each large v <= top, weighed by
    mult = n // v - n // (v + 1), the number of k > r with n // k == v.

    Below LUCY_THRESHOLD theta is looked up in the table, which _checked
    grows to n + 2, by theta_many at the block's q and at v <= top, for all
    the block's rows below it at once, over their own columns of q, up to
    top + 1 of the last of them; its primes and theta prefix are derived to
    n.  From it on theta at every quotient is _lucy's, from row i's
    q[i, :top + 1], in O(n**(3/4)) time and O(sqrt n) memory, one n at a
    time.  Each row sums its own slices (_slice_sums), so its value does
    not depend on the block.
    """
    light = bisect.bisect_left(ns, analytics.LUCY_THRESHOLD)
    out = []
    if light:
        w = tops[light - 1] + 1  # top + 1, nondecreasing in n
        theta_v = t.theta_many(np.arange(w))  # theta(v) for v <= top
        q_light = q[:light, :w]
        out = _theta_sums(roots[:light], tops[:light], q_light, t.theta_many(q_light), theta_v)
    for i, n in enumerate(ns[light:], light):
        row = q[i, : tops[i] + 1]
        theta_q, theta_v = _lucy(n, t, row)[1]
        out += _theta_sums([roots[i]], [tops[i]], row[None], theta_q[None], theta_v)
    return out


def _theta_sums(roots: list[int], tops: list[int], q, theta_q, theta_v) -> list[float]:
    """The sum of theta(n // k) over k = 1..n of each n of a block of ascending
    ns, whose r = isqrt(n) and top = n // (r + 1) are roots and tops: row i of
    q holds n // k at k = 1..w, w = top + 1 of the widest row, row i of
    theta_q theta(n // k) at its first r cells, and theta_v theta(v) at each
    v < w.  mult = n // v - n // (v + 1), q's neighbour difference at
    v = 1..w-1, is the number of k > r with n // k == v for v <= top.  Each
    row sums over its own slices (_slice_sums), so its sum does not depend
    on the block."""
    mult_theta = (q[:, :-1] - q[:, 1:]) * theta_v[1 : q.shape[1]]  # at v = 1..w-1
    return (analytics._slice_sums(theta_q, roots) + analytics._slice_sums(mult_theta, tops)).tolist()


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


def _theta_budget(ns, rho, sigma, t: PrimeTable) -> np.ndarray:
    """Budgets on |a theta-sum row's log rho(n) and log sigma(n) -
    _factorial_sums' values|, in columns 0 and 1, at each n >= 1 of ns, whose
    rows' values are rho and sigma.

    A theta-sum row's log rho is its sum of theta(n // k), k = 1..n, over
    m = r + top <= 2 sqrt(n) terms, r = isqrt(n) and top = n // (r + 1), and
    its log sigma is log rho + (s1 + s2) (_rows).  With u = 2**-52 and x the
    column's value, rho or sigma, the budget is the sum of

    - theta's error at w = n // k, by multiplicity: on a Lucy row, from
      LUCY_THRESHOLD on, _row_budget(n, pi(sqrt n)); on a table row, where
      theta(w) is the prefix of np.log p (within 4 ulps),
      u (4 + pi(w) / 2) theta(w) <= 0.7 u w (w + 8) (pi(w) <= w,
      theta(w) < 1.39 w), summed over w <= n / k under
      0.7 u (1.645 n**2 + 8 n (1 + log n));
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

    Every budget is at most 1e-6 max(1, n), eq14-16's tolerance, which a
    Lucy row's passes from about 2^45.
    """
    n = np.array(ns, dtype=np.float64)
    err = 0.7 * 2.0**-52 * (1.645 * n * n + 8 * n * (1 + np.log(n)))
    for i in np.flatnonzero(n >= analytics.LUCY_THRESHOLD).tolist():
        err[i] = _row_budget(ns[i], t.pi(math.isqrt(ns[i])))
    row, route = 2.0**-52 * (2 * np.sqrt(n) + 1), analytics._factorial_budget(n)
    budget = np.stack([err + row * x + route for x in (rho, sigma)], 1)
    return np.minimum(budget, 1e-6 * np.maximum(1.0, n)[:, None])


_THETA_ROWS = analytics._RowKind(_theta_rho, _theta_budget, _row_bytes, True)
