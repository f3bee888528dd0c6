"""Range verification drivers for the named identity checks.

Each checker sweeps a parameter range, returns every violation as data, and
never raises on a mathematical failure — a violation is a finding, not an
error.  The CLI maps its check ids onto these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics, primes as _primes, sequences, triangle
from .primes import PrimeTable
from .products import WeightFunction, multiset_lcms, weighted_prime_product


# prop2/prop3 decide a block of n at once over a (rows, primes) array; the
# rows per block are capped so that the array holds about this many cells
_BLOCK_CELLS = 1 << 18

# a theorem1 grid over this many points is refused, for every weight
GRID_MAX_POINTS = 10_000


@dataclass
class CheckResult:
    """Outcome of one sweep: cases tried, violations found, side data."""

    check_id: str
    cases: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def theorem1_grid(f: WeightFunction, xmax: float | None = None) -> list:
    """The x grid used for the product-vs-lcm equivalence sweep.

    For the log weight the grid is log m for m = 1..round(e**xmax) plus an
    off-lattice point for every fourth m, about 1.25 e**xmax points; for the
    other weights it is the 2 xmax + 1 half-integers in [0, xmax].  A grid
    over GRID_MAX_POINTS (10,000 points: xmax above about 8.987 for log,
    4999.5 otherwise) raises ValueError before anything is allocated.
    """
    # the mins keep exp and int finite: any xmax past them is far over the cap
    if f.kind == "log":
        top = int(round(math.exp(min(xmax, 60.0)))) if xmax is not None else 40
        points = top + (top + 1) // 4  # the two parts' sizes below
    else:
        if xmax is None:
            xmax = 12.0 if f.kind == "m^a" else 18.0
        steps = int(round(2 * min(xmax, GRID_MAX_POINTS)))
        points = steps + 1
    if points > GRID_MAX_POINTS:
        raise ValueError(f"the {f.spec} grid at xmax {xmax} exceeds {GRID_MAX_POINTS} points")
    if f.kind == "log":
        xs: list[float] = [float(math.log(m)) for m in range(1, top + 1)]
        # off-lattice points exercise the directed-rounding cutoff
        xs += [float(math.log(m)) + 0.3 for m in range(2, top, 4)]
        return xs
    return [i / 2 for i in range(steps + 1)]


def check_theorem1(
    f: WeightFunction,
    xmax: float | None = None,
    table: PrimeTable | None = None,
) -> CheckResult:
    """Prime-side product == multiset-lcm side, over the grid for f."""
    res = CheckResult(check_id=f"theorem1[{f.spec}]")
    xs = theorem1_grid(f, xmax)
    for x, rhs in zip(xs, multiset_lcms(f, xs)):
        res.cases += 1
        lhs = weighted_prime_product(f, x, table)
        if lhs != rhs:
            res.violations.append(f"f={f.spec} x={x}: product {lhs} != lcm {rhs}")
    return res


def check_prop1(nmax: int) -> CheckResult:
    """Diagonal divisibility d(n,k) | d(n,k+1) and freezing at k = n."""
    res = CheckResult(check_id="prop1")
    # k runs to 2n+1 for the chain and to n+5 for the freeze check
    ks = [range(max(2 * n + 2, n + 6)) for n in range(nmax + 1)]
    values = triangle.diagonals((n, k) for n in range(nmax + 1) for k in ks[n])
    for n in range(nmax + 1):
        d = [next(values) for _ in ks[n]]
        for k in range(1, 2 * n + 2):
            if not d[k - 1].divides(d[k]):
                res.violations.append(f"d({n},{k-1}) does not divide d({n},{k})")
        for k in range(n, n + 6):
            if d[k] != d[n]:
                res.violations.append(f"d({n},{k}) != d({n},{n})")
        res.cases += 2 * n + 2 + 6
    return res


def check_cor2(nmax: int, table: PrimeTable | None = None) -> CheckResult:
    """sigma(n) equals the frozen diagonal q(2n, n)."""
    res = CheckResult(check_id="cor2")
    frozen = triangle.diagonals((n, n) for n in range(nmax + 1))
    for n, d in zip(range(nmax + 1), frozen):
        res.cases += 1
        if sequences.sigma(n, table) != d:
            res.violations.append(f"sigma({n}) != q({2*n},{n})")
    return res


def _flag_sweep(check_id: str, nmax: int, flags, messages, bound: int, t) -> CheckResult:
    """One case per n <= nmax and one violation per False column of flags(ns, t).

    n runs in consecutive blocks whose rows times the primes up to bound (the
    widest block's columns) stay within _BLOCK_CELLS.
    """
    res = CheckResult(check_id=check_id)
    rows = max(1, _BLOCK_CELLS // max(1, len(t.primes_up_to(bound))))
    for lo in range(0, nmax + 1, rows):
        ns = np.arange(lo, min(lo + rows, nmax + 1), dtype=np.int64)
        res.cases += len(ns)
        for row, col in zip(*np.nonzero(~flags(ns, t))):
            res.violations.append(f"n={ns[row]}: {messages[col]}")
    return res


def check_prop2(nmax: int, table: PrimeTable | None = None) -> CheckResult:
    names = ("chain", "divides-factorial", "factorial-sandwich", "odd-doubling")
    messages = [f"{name} fails" for name in names]
    bound = max(2 * nmax, nmax + 2, 2)
    return _flag_sweep("prop2", nmax, sequences.chain_flags, messages, bound, _primes._table(table))


def check_prop3(nmax: int, table: PrimeTable | None = None) -> CheckResult:
    messages = ["(n+1)! does not divide sigma(n)", "sigma(n) does not divide n! lcm(1..n+1)"]
    return _flag_sweep(
        "prop3", nmax, sequences.sandwich_flags, messages, nmax + 1, _primes._table(table)
    )


def check_theorem2(nmax: int, table: PrimeTable | None = None) -> CheckResult:
    """Dual-route valuations agree and stay in {0, 1} for all in-range primes."""
    res = CheckResult(check_id="theorem2")
    t = _primes._table(table)
    t.ensure(nmax + 2)
    for n in range(1, nmax + 1):
        wide = sequences.quotient_primes(n, wide=True, table=t).members
        for p in t.primes_up_to(n + 1).tolist():
            if p * p <= n + 1:
                continue
            res.cases += 1
            a1, a0 = divmod(n, p)
            v_digits = (a0 + a1) // (p - 1)
            v_witness = 1 if p in wide else 0
            if v_digits != v_witness or v_digits not in (0, 1):
                res.violations.append(
                    f"n={n} p={p}: digit route {v_digits}, witness route {v_witness}"
                )
    return res


def check_theta_identities(
    nmax: int, points: int = 1000, table: PrimeTable | None = None
) -> CheckResult:
    """Theta-sum forms of log rho / log sigma and the quotient log gap.

    Absolute tolerance 1e-6 * max(1, n) per identity per grid point.
    """
    res = CheckResult(check_id="eq14-16")
    t = _primes._table(table)
    t.ensure(nmax + 2)
    grid = sorted(set(max(1, (i * nmax) // points) for i in range(1, points + 1)))
    for n in grid:
        res.cases += 1
        tol = 1e-6 * max(1.0, n)
        lr = analytics.log_rho(n, t)
        ls = analytics.log_sigma(n, t)
        if abs(analytics.theta_sum_rho(n, t) - lr) > tol:
            res.violations.append(f"n={n}: theta sum for rho off by more than {tol}")
        if abs(analytics.theta_sum_sigma(n, t) - ls) > tol:
            res.violations.append(f"n={n}: theta sum for sigma off by more than {tol}")
        s_total, _, _ = analytics.s_split(n, t)
        if abs(s_total - (ls - lr)) > tol:
            res.violations.append(f"n={n}: quotient log split off by more than {tol}")
    return res


def check_split(nmax: int, table: PrimeTable | None = None) -> CheckResult:
    """sigma(n)/n! splits exactly at sqrt(n+1); reports sup of small log / sqrt(n)."""
    res = CheckResult(check_id="split")
    t = _primes._table(table)
    t.ensure(nmax + 2)
    sup = 0.0
    sup_n = 1
    for n in range(1, nmax + 1):
        res.cases += 1
        try:
            small_log, _ = sequences.split_sigma_over_factorial(n, t)
        except ArithmeticError as exc:
            res.violations.append(str(exc))
            continue
        ratio = small_log / math.sqrt(n)
        if ratio > sup:
            sup, sup_n = ratio, n
    res.notes.append(f"sup of small-part log / sqrt(n) = {sup:.6f} at n = {sup_n}")
    return res
