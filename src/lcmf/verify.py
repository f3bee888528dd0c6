"""Range verification drivers for the named identity checks.

Each checker sweeps a parameter range, returns every violation as data, and
never raises on a mathematical failure — a violation is a finding, not an
error.  The CLI maps its check ids onto these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import analytics, primes as _primes, sequences, triangle
from .primes import PrimeTable
from .products import WeightFunction, multiset_lcm, weighted_prime_product


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
    """The x grid used for the product-vs-lcm equivalence sweep."""
    if f.kind == "log":
        top = int(round(math.exp(xmax))) if xmax is not None else 40
        xs: list[float] = [float(math.log(m)) for m in range(1, top + 1)]
        # off-lattice points exercise the directed-rounding cutoff
        xs += [float(math.log(m)) + 0.3 for m in range(2, top, 4)]
        return xs
    if xmax is None:
        xmax = 12.0 if f.kind == "m^a" else 18.0
    steps = int(round(2 * xmax))
    return [i / 2 for i in range(steps + 1)]


def check_theorem1(
    f: WeightFunction,
    xmax: float | None = None,
    table: PrimeTable | None = None,
) -> CheckResult:
    """Prime-side product == multiset-lcm side, over the grid for f."""
    res = CheckResult(check_id=f"theorem1[{f.spec}]")
    for x in theorem1_grid(f, xmax):
        res.cases += 1
        lhs = weighted_prime_product(f, x, table)
        rhs = multiset_lcm(f, x)
        if lhs != rhs:
            res.violations.append(f"f={f.spec} x={x}: product {lhs} != lcm {rhs}")
    return res


def check_prop1(nmax: int) -> CheckResult:
    """Diagonal divisibility d(n,k) | d(n,k+1) and freezing at k = n."""
    res = CheckResult(check_id="prop1")
    for n in range(nmax + 1):
        # k runs to 2n+1 for the chain and to n+5 for the freeze check
        d = [triangle.diagonal(n, k) for k in range(max(2 * n + 2, n + 6))]
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
    for n in range(nmax + 1):
        res.cases += 1
        if sequences.sigma(n, table) != triangle.sigma_from_diagonal(n):
            res.violations.append(f"sigma({n}) != q({2*n},{n})")
    return res


def check_prop2(nmax: int, table: PrimeTable | None = None) -> CheckResult:
    res = CheckResult(check_id="prop2")
    names = ("chain", "divides-factorial", "factorial-sandwich", "odd-doubling")
    for n in range(nmax + 1):
        res.cases += 1
        flags = sequences.divisibility_chain(n, table)
        for name, ok in zip(names, flags):
            if not ok:
                res.violations.append(f"n={n}: {name} fails")
    return res


def check_prop3(nmax: int, table: PrimeTable | None = None) -> CheckResult:
    res = CheckResult(check_id="prop3")
    for n in range(nmax + 1):
        res.cases += 1
        lower, upper = sequences.factorial_sandwich(n, table)
        if not lower:
            res.violations.append(f"n={n}: (n+1)! does not divide sigma(n)")
        if not upper:
            res.violations.append(f"n={n}: sigma(n) does not divide n! lcm(1..n+1)")
    return res


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
