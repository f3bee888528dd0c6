"""The benchmark's own reference values and output checkers.

Nothing here imports lcmf: every expected value is computed from a separate
segmented sieve, exact integer arithmetic or brute force, so a wrong answer
from the program cannot be reproduced by a shared bug.

A checker takes what one command left behind (exit code and standard output)
and returns None when the output is right, or a one-line reason when it is
not.  A nonzero exit always fails.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_SEGMENT = 1 << 21
_SLOP = 1e-12  # float round-off allowance on the constant's partial sum


def _small_primes(limit: int) -> np.ndarray:
    mark = np.ones(limit + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark)


def primes_up_to(limit: int) -> np.ndarray:
    """Ascending int64 array of the primes <= limit, sieved segment by segment."""
    limit = max(2, int(limit))
    base = _small_primes(math.isqrt(limit) + 1)
    parts = []
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            seg[:2] = False
        for p in base.tolist():
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p)
            seg[first - lo :: p] = False
        parts.append(np.flatnonzero(seg) + lo)
    return np.concatenate(parts).astype(np.int64)


@dataclass(frozen=True)
class CEnclosure:
    """Rigorous interval for c = sum over primes of log p / (p (p - 1))."""

    lo: float
    hi: float


class PrimeReference:
    """pi, theta and the constant c from one sieve up to a fixed limit."""

    def __init__(self, limit: int):
        self.limit = max(int(limit), 10**4)
        self.primes = primes_up_to(self.limit)
        logs = np.log(self.primes.astype(np.float64))
        self._theta = np.concatenate(([0.0], np.cumsum(logs)))
        pf = self.primes.astype(np.float64)
        partial = math.fsum((logs / (pf * (pf - 1.0))).tolist())
        # tail over p > N: log p / (p (p-1)) <= 2 log m / m^2, and the sum of
        # log m / m^2 over m > N is at most (log N + 1) / N
        n = float(self.limit)
        self.c = CEnclosure(partial - _SLOP, partial + 2.0 * (math.log(n) + 1.0) / n + _SLOP)

    def _index(self, xs: np.ndarray) -> np.ndarray:
        if xs.size and int(xs.max()) > self.limit:
            raise ValueError(f"reference sieve holds {self.limit}, asked for {int(xs.max())}")
        return np.searchsorted(self.primes, xs, side="right")

    def theta(self, xs: np.ndarray) -> np.ndarray:
        return self._theta[self._index(xs)]

    def pi(self, xs: np.ndarray) -> np.ndarray:
        return self._index(xs)


# -- scan rows ---------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRef:
    """Expected scan values for one n."""

    n: int
    log_rho: float
    log_sigma: float
    card_a: int
    s1: float


def scan_ref(n: int, ref: PrimeReference) -> ScanRef:
    """log rho and log sigma as theta sums grouped by distinct floor quotients.

    log rho(n) = sum over k of theta(n // k), log sigma(n) = sum over k of
    theta(n // k + 1).  k <= sqrt(n) is taken one by one; beyond it, each
    quotient q is weighted by the number of k > sqrt(n) with n // k == q.
    card_A and s1 use pi at q and q + 1 for k <= sqrt(n).
    """
    r = math.isqrt(n)
    q_small = n // np.arange(1, r + 1, dtype=np.int64)
    q_big = np.arange(1, n // (r + 1) + 1, dtype=np.int64)
    count = n // q_big - np.maximum(n // (q_big + 1), r)
    count = np.maximum(count, 0).astype(np.float64)
    log_rho = math.fsum(ref.theta(q_small).tolist()) + math.fsum(
        (count * ref.theta(q_big)).tolist()
    )
    log_sigma = math.fsum(ref.theta(q_small + 1).tolist()) + math.fsum(
        (count * ref.theta(q_big + 1)).tolist()
    )
    hit = (ref.pi(q_small + 1) - ref.pi(q_small)) == 1
    s1 = math.fsum(math.log(m) for m in (q_small[hit] + 1).tolist())
    return ScanRef(n, log_rho, log_sigma, int(hit.sum()), s1)


SCAN_FIELDS = ("n", "log_rho", "log_sigma", "residual_rho", "residual_sigma",
               "card_A", "conj2_stat", "s1", "s2")


def check_scan(code: int, out: str, refs: list[ScanRef], c: CEnclosure) -> str | None:
    """Every requested n has one row, in order, within 1e-6 * n of the reference.

    residual_rho passes for any c inside the reference enclosure.
    """
    if code != 0:
        return f"exit {code}"
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines or lines[0].split(",") != list(SCAN_FIELDS):
        return "missing scan header"
    rows = lines[1:]
    if len(rows) != len(refs):
        return f"{len(rows)} rows for {len(refs)} n"
    for row, want in zip(rows, refs):
        cells = row.split(",")
        if len(cells) != len(SCAN_FIELDS):
            return f"bad row {row[:60]!r}"
        try:
            got = dict(zip(SCAN_FIELDS, (float(x) for x in cells)))
        except ValueError:
            return f"bad row {row[:60]!r}"
        n = want.n
        if got["n"] != n:
            return f"row for n={got['n']:.0f}, want {n}"
        tol = 1e-6 * n
        nlogn = n * math.log(n)
        lr, ls = want.log_rho, want.log_sigma
        checks = {
            "log_rho": abs(got["log_rho"] - lr) <= tol,
            "log_sigma": abs(got["log_sigma"] - ls) <= tol,
            "card_A": got["card_A"] == want.card_a,
            "s1": abs(got["s1"] - want.s1) <= tol,
            "s1+s2": abs(got["s1"] + got["s2"] - (ls - lr)) <= tol,
            "residual_sigma": abs(got["residual_sigma"] - (ls - (nlogn - n))) <= tol,
            "residual_rho": (
                lr - nlogn + (c.lo + 1.0) * n - tol
                <= got["residual_rho"]
                <= lr - nlogn + (c.hi + 1.0) * n + tol
            ),
            "conj2_stat": math.isclose(
                got["conj2_stat"], want.card_a * math.log(n) / math.sqrt(n),
                rel_tol=1e-9, abs_tol=1e-12,
            ),
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            return f"n={n}: {', '.join(bad)} off"
    return None


# -- factored values ---------------------------------------------------------------


@contextmanager
def _unlimited_int_str():
    """Lift CPython's int/str digit limit for the reference's own conversions."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def factored_rho(n: int, ps: list[int]) -> dict[int, int]:
    return {p: n // p for p in ps if p <= n}


def factored_sigma(n: int, ps: list[int]) -> dict[int, int]:
    return {p: n // (p - 1) for p in ps if p <= n + 1}


def factored_pif(kind: str, x: Fraction, ps: list[int]) -> dict[int, int]:
    """Exponents floor(x / f(p)) for the integer weights f(m) = m and m - 1."""
    weight = {"m": lambda p: p, "m-1": lambda p: p - 1}[kind]
    out = {}
    for p in ps:
        e = math.floor(x / weight(p))
        if e > 0:
            out[p] = e
    return out


def q_exponents(n: int, k: int, ps: list[int]) -> dict[int, int]:
    """Exponent map of q(n, k) by a per-prime knapsack.

    q(n, k) is the lcm of products of exactly k positive parts summing to at
    most n.  Dropping parts equal to 1, that is at most k parts >= 2 whose
    (part - 1) costs sum to at most n - k.  For each prime p the exponent is
    the largest total valuation such a multiset reaches; best[j][b] holds it
    for at most j parts and cost at most b.
    """
    budget = n - k
    out = {}
    for p in ps:
        if p - 1 > budget:
            break
        items = []
        m = p
        while m - 1 <= budget:
            v, t = 0, m
            while t % p == 0:
                t //= p
                v += 1
            items.append((m - 1, v))
            m += p
        best = [[0] * (budget + 1) for _ in range(k + 1)]
        for j in range(1, k + 1):
            prev, cur = best[j - 1], best[j]
            for b in range(budget + 1):
                top = prev[b]
                for cost, v in items:
                    if cost > b:
                        break
                    if prev[b - cost] + v > top:
                        top = prev[b - cost] + v
                cur[b] = top
        if best[k][budget]:
            out[p] = best[k][budget]
    return out


def render_factored(exps: dict[int, int]) -> tuple[str, str]:
    """(factored text, decimal text) in the CLI's "p^e * q = D" form."""
    text = " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in sorted(exps.items()))
    with _unlimited_int_str():
        value = 1
        for p, e in exps.items():
            value *= p**e
        return text, str(value)


def check_factored(code: int, out: str, exps: dict[int, int]) -> str | None:
    """One line: "1" for the empty product, else "p^e * ... = decimal"."""
    if code != 0:
        return f"exit {code}"
    line = out.strip()
    if not exps:
        return None if line == "1" else f"want 1, got {line[:40]!r}"
    text, decimal = render_factored(exps)
    left, sep, right = line.partition(" = ")
    if not sep:
        return f"no decimal in {line[:40]!r}"
    if left != text:
        return "factored form differs"
    if right != decimal:
        return "decimal value differs"
    return None


def triangle_rows(nmax: int, ps: list[int]) -> list[str]:
    rows = []
    for n in range(nmax + 1):
        cells = []
        for k in range(n + 1):
            cells.append(str(math.prod(p**e for p, e in q_exponents(n, k, ps).items())))
        rows.append(",".join(cells))
    return rows


def check_lines(code: int, out: str, want: list[str]) -> str | None:
    if code != 0:
        return f"exit {code}"
    return None if out.splitlines() == want else "rows differ from the reference"


def check_verify(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    if not any(ln.startswith("ok:") for ln in out.splitlines()):
        return "no ok: line"
    return None


# -- binding a command to its reference -----------------------------------------


def reference_limit(cmds) -> int:
    """Sieve bound the reference needs: every scan n + 1, and 10^7 for c."""
    ns = [n for cmd in cmds for n in cmd.ns]
    return max(max(ns) + 2, 10**7) if ns else 10**4


def checker_for(cmd, ref: PrimeReference):
    """A function (exit code, stdout) -> failure reason or None for this command."""
    a = cmd.argv
    if cmd.kind == "scan":
        refs = [scan_ref(n, ref) for n in cmd.ns]
        return lambda code, out: check_scan(code, out, refs, ref.c)
    if cmd.kind == "verify":
        return check_verify
    ps = ref.primes[ref.primes <= 10**4].tolist()
    if cmd.kind == "lines":
        rows = triangle_rows(int(a[a.index("--nmax") + 1]), ps)
        return lambda code, out: check_lines(code, out, rows)
    target = a[1]
    if target == "rho":
        exps = factored_rho(int(a[2]), ps)
    elif target == "sigma":
        exps = factored_sigma(int(a[2]), ps)
    elif target == "q":
        exps = q_exponents(int(a[2]), int(a[3]), ps)
    else:
        exps = factored_pif(a[a.index("--f") + 1], Fraction(a[a.index("--x") + 1]), ps)
    return lambda code, out: check_factored(code, out, exps)
