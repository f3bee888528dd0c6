"""Range verification drivers for the named identity checks.

Each checker sweeps a parameter range, returns every violation as data, and
never raises on a mathematical failure — a violation is a finding, not an
error.  The CLI maps its check ids onto these functions; check_hypothesis,
which takes any weight, is the library's.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from typing import TYPE_CHECKING

from . import primes as _primes

if TYPE_CHECKING:  # products, sequences and triangle are imported by the checks that use them
    from .products import WeightFunction


# a theorem1 grid over this many points is refused, for every weight
GRID_MAX_POINTS = 10_000


class CheckResult:
    """Outcome of one sweep: cases tried, violations found, side data.

    Mutable, so unhashable; two results are equal when all fields are.
    """

    def __init__(self, check_id: str):
        self.check_id = check_id
        self.cases = 0
        self.violations: list[str] = []
        self.notes: list[str] = []

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        return f"CheckResult({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def passed(self) -> bool:
        return not self.violations


def check_hypothesis(f, bound: int) -> CheckResult:
    """Theorem 1's condition on the weight f, falsified up to bound.

    The condition: f(n)/log(n) must not decrease along any divisor pair
    a | b with 2 <= a < b <= bound.  Each pair is one case; a drop by more
    than a relative 1e-12 is a violation naming a and b, reported b
    ascending, then a.  A pass is evidence up to the bound, not a proof.  f
    is a WeightFunction, any object with value(m) and spec, or a callable.
    The check_id names f by its spec, else by its (or its type's)
    __qualname__.  It holds the list of the ratios, about 32 B a value, and
    visits the pairs a by a, over the multiples of a: at bound 10^5 about
    3.2 MB and 0.1-0.2 s of CPU.
    """
    if bound < 4:
        raise ValueError("bound must be >= 4")
    # a float and its list slot, by tracemalloc 32.0-32.5 B a value at 10^5 and 10^6
    _primes.require_memory(32 * bound, f"the weight's f(m) / log m up to {bound}")
    value = f if callable(f) else f.value
    ratio = [0.0, 0.0]  # f(m) / log(m) from m = 2 on
    for m in range(2, bound + 1):
        v = float(value(m))
        if v <= 0:
            raise ValueError(f"weight must be positive on m >= 2, got f({m}) = {v}")
        ratio.append(v / math.log(m))
    name = getattr(f, "spec", None) or getattr(f, "__qualname__", type(f).__qualname__)
    res = CheckResult(check_id=f"hypothesis[{name}]")
    drops = []  # (b, a) of each violation, rare, sorted once for the report
    for a in range(2, bound // 2 + 1):
        res.cases += bound // a - 1
        drops += ((b, a) for b in range(2 * a, bound + 1, a) if ratio[a] > ratio[b] * (1 + 1e-12))
    for b, a in sorted(drops):
        res.violations.append(f"{a} | {b}: f/log drops from {ratio[a]:.6g} to {ratio[b]:.6g}")
    return res


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


def check_theorem1(f: WeightFunction, xmax: float | None = None) -> CheckResult:
    """Prime-side product == multiset-lcm side, over the grid for f.

    Each point's budget (products._budget) is computed once and given to
    both sides: the lcm sweep and the prime exponents.
    """
    from . import products
    from .factored import FactoredNatural

    res = CheckResult(check_id=f"theorem1[{f.spec}]")
    xs = theorem1_grid(f, xmax)
    budgets = [products._budget(f, x) for x in xs]
    for x, budget, rhs in zip(xs, budgets, products._lcms_at(f, budgets)):
        res.cases += 1
        lhs = FactoredNatural._trusted(products.prime_exponents(f, budget))
        if lhs != rhs:
            res.violations.append(f"f={f.spec} x={x}: product {lhs} != lcm {rhs}")
    return res


def check_prop1(nmax: int) -> CheckResult:
    """Diagonal divisibility d(n,k) | d(n,k+1) and freezing at k = n."""
    from . import triangle

    res = CheckResult(check_id="prop1")
    # k runs to 2n+1 for the chain and to n+5 for the freeze check, d(n, k)
    # = q(n + k, k) streamed from one table at budget nmax
    ks = lambda n: range(max(2 * n + 2, n + 6))
    values = triangle._entries(((n + k, k) for n in range(nmax + 1) for k in ks(n)), nmax)
    for n in range(nmax + 1):
        d = [next(values) for _ in ks(n)]
        for k in range(1, 2 * n + 2):
            if not d[k - 1].divides(d[k]):
                res.violations.append(f"d({n},{k-1}) does not divide d({n},{k})")
        for k in range(n, n + 6):
            if d[k] != d[n]:
                res.violations.append(f"d({n},{k}) != d({n},{n})")
        res.cases += 2 * n + 2 + 6
    return res


def check_cor2(nmax: int) -> CheckResult:
    """sigma(n) equals the frozen diagonal q(2n, n)."""
    from . import sequences, triangle

    res = CheckResult(check_id="cor2")
    frozen = triangle._entries(((2 * n, n) for n in range(nmax + 1)), nmax)  # d(n, n), streamed
    for n, d in zip(range(nmax + 1), frozen):
        res.cases += 1
        if sequences.sigma(n) != d:
            res.violations.append(f"sigma({n}) != q({2*n},{n})")
    return res


def _flag_sweep(check_id: str, nmax: int, flags, messages) -> CheckResult:
    """One case per n <= nmax and one violation per fact that flags(0, nmax, t)
    marks failed at n, t the default prime table: n ascending, then in the
    order of the facts."""
    res = CheckResult(check_id=check_id)
    ns = range(nmax + 1)
    res.cases = len(ns)
    fails = flags(0, nmax, _primes.default_table())
    for n in sorted(set().union(*(itertools.compress(ns, f) for f in fails))):
        res.violations += (f"n={n}: {message}" for message, f in zip(messages, fails) if f[n])
    return res


def check_prop2(nmax: int) -> CheckResult:
    from . import sequences

    names = ("chain", "divides-factorial", "factorial-sandwich", "odd-doubling")
    messages = [f"{name} fails" for name in names]
    return _flag_sweep("prop2", nmax, sequences.chain_flags, messages)


def check_prop3(nmax: int) -> CheckResult:
    from . import sequences

    messages = ["(n+1)! does not divide sigma(n)", "sigma(n) does not divide n! lcm(1..n+1)"]
    return _flag_sweep("prop3", nmax, sequences.sandwich_flags, messages)


def check_theorem2(nmax: int) -> CheckResult:
    """Theorem 2 over the pairs (n, p) with sqrt(n+1) < p <= n+1: each
    valuation is 0 or 1, and 1 exactly at the wide quotient primes
    (_theorem2_walk).  The pairs are counted, not listed: their digit
    valuations are computed only at an n where the walk fails."""
    res = CheckResult(check_id="theorem2")
    collections.deque(_theorem2_walk(nmax, res), 0)
    return res


def _theorem2_walk(nmax: int, res: CheckResult):
    """(n, pairs, witness_k) per n of 1..nmax, once res has its pairs and
    violations: pairs the lazy _digit_pairs of n over the primes p in
    range, ascending, so each record keeps its own n; witness_k the k of the
    wide quotient primes, of witness-route valuation 1, the rest 0.

    The verdict is sequences._large_walk's, the walk of verify split, and
    its one prime list is the pairs' primes.  Only at an n where it fails
    are the two routes compared, pair by pair, to name each pair where they
    differ (a digit valuation above 1 differs from both); where none does,
    as for a composite member, the walk's own failure is the violation."""
    from . import sequences

    primes, walk = sequences._large_walk(1, nmax, _primes.default_table())
    for n, wide, _, failure in walk:
        lo, hi = bisect.bisect_right(primes, math.isqrt(n + 1)), bisect.bisect_right(primes, n + 1)
        res.cases += hi - lo
        pairs = _digit_pairs(n, itertools.islice(primes, lo, hi))
        if failure is not None:
            pairs = list(pairs)
            res.violations += [
                f"n={n} p={p}: digit route {v}, witness route {int(p in wide.members)}"
                for p, v in pairs if v != (p in wide.members)
            ] or [failure]
        yield n, pairs, wide.generating_k


def _digit_pairs(n: int, primes):
    """(p, digit-route valuation (n mod p + n div p) // (p - 1)) per p of
    primes, as it is read; n is bound at the call."""
    for p in primes:
        yield p, (n % p + n // p) // (p - 1)


def check_theta_identities(nmax: int, points: int = 1000) -> CheckResult:
    """Theta-sum forms of log rho / log sigma, the quotient log split and the
    quotient prime count, on the theta-sum rows of one analytics._checked
    call, which sets the table up for its grid: the scan's row assembly
    (analytics._rows) with log rho the sum of theta(n // k), from table
    lookups below 2^22 and Lucy's sieve from it on (theta._theta_rho),
    each within its bound in analytics._checked, at most 1e-6 * max(1, n);
    a note gives the worst |difference| / bound."""
    from . import theta, analytics  # numpy-backed; theta first, so both compile before numpy

    res = CheckResult(check_id="eq14-16")
    names = ("theta sum for rho", "theta sum for sigma", "quotient log split",
             "quotient prime count")
    t = _primes.default_table()
    grid = sorted({(i * nmax) // points for i in range(1, points + 1)} - {0})
    if not grid:  # nmax 0: no n >= 1 to check
        return res
    worst = (0.0, grid[0], names[0])  # |difference| / bound, n, comparison
    for part, _, ratio, bound in analytics._checked(grid, t, theta._THETA_ROWS):
        res.cases += len(part)
        for i, j in zip(*(~(ratio <= 1.0)).nonzero()):  # a NaN fails too
            res.violations.append(f"n={part[i]}: {names[j]} off by more than {bound[i, j]}")
        i, j = divmod(int(ratio.argmax()), len(names))
        worst = max(worst, (float(ratio[i, j]), part[i], names[j]))
    res.notes.append(f"worst |difference| / bound = {worst[0]:.3g}, {worst[2]} at n = {worst[1]}")
    return res


def check_split(nmax: int) -> CheckResult:
    """sigma(n)/n! splits exactly at sqrt(n+1); reports sup of small log / sqrt(n).

    One walk over n <= nmax (sequences._split_walk); a violation is the
    message split_sigma_over_factorial would raise at n.
    """
    from . import sequences

    res = CheckResult(check_id="split")
    sup = 0.0
    sup_n = 1
    for n, small_log, _, failure in sequences._split_walk(1, nmax, _primes.default_table()):
        res.cases += 1
        if failure is not None:
            res.violations.append(failure)
            continue
        ratio = small_log / math.sqrt(n)
        if ratio > sup:
            sup, sup_n = ratio, n
    if res.cases:
        res.notes.append(f"sup of small-part log / sqrt(n) = {sup:.6f} at n = {sup_n}")
    return res
