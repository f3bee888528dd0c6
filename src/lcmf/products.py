"""Prime-power products with floor-quotient exponents and their lcm form.

For an admissible weight f, the product over primes of p**floor(x / f(p))
equals the lcm of all products i_1 * ... * i_k taken over finite multisets
of integers >= 2 whose weights sum to at most x.  This module computes both
sides independently: the prime side from the sieve and the closed form, the
lcm side by a search per prime over the parts p**e that never uses the
closed form or the sieve, so that test runs can compare them through code
that shares only the check on x and, for the integer-valued weights, its
floor.  The prime side at f(m) = m and f(m) = m - 1 is the rho and sigma
sequences of the sequences module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from . import primes as _primes
from .factored import FactoredNatural
from .primes import PrimeTable


@dataclass(frozen=True)
class WeightFunction:
    """One of the supported weights: m, m-1, m**alpha (alpha >= 1), or log m."""

    kind: str  # "m" | "m-1" | "m^a" | "log"
    alpha: float | None = None

    _KINDS = ("m", "m-1", "m^a", "log")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "m^a":
            if self.alpha is None or self.alpha < 1:
                raise ValueError("power weight needs alpha >= 1")
        elif self.alpha is not None:
            raise ValueError("alpha only applies to the power weight")

    @classmethod
    def linear(cls) -> "WeightFunction":
        return cls("m")

    @classmethod
    def shifted(cls) -> "WeightFunction":
        return cls("m-1")

    @classmethod
    def power(cls, alpha: float) -> "WeightFunction":
        a = float(alpha)
        return cls("m^a", int(a) if a.is_integer() else a)

    @classmethod
    def log(cls) -> "WeightFunction":
        return cls("log")

    @classmethod
    def parse(cls, spec: str) -> "WeightFunction":
        """Parse a weight spec string: "m" | "m-1" | "m^A" | "log"."""
        spec = spec.strip()
        if spec == "m":
            return cls.linear()
        if spec == "m-1":
            return cls.shifted()
        if spec == "log":
            return cls.log()
        if spec.startswith("m^"):
            try:
                return cls.power(float(spec[2:]))
            except ValueError:
                pass
        raise ValueError(f"bad weight spec {spec!r} (want m, m-1, m^A, or log)")

    @property
    def spec(self) -> str:
        if self.kind == "m^a":
            return f"m^{self.alpha}"
        return self.kind

    @property
    def is_exact(self) -> bool:
        """True when the weight takes exact integer values on integers."""
        if self.kind in ("m", "m-1"):
            return True
        return self.kind == "m^a" and isinstance(self.alpha, int)

    def value(self, m: int):
        """f(m) for an integer m >= 1; int for exact kinds, float otherwise."""
        if m < 1:
            raise ValueError("m must be >= 1")
        if self.kind == "m":
            return m
        if self.kind == "m-1":
            return m - 1
        if self.kind == "log":
            return math.log(m)
        if isinstance(self.alpha, int):
            return m**self.alpha
        return float(m) ** self.alpha


# -- admissibility check -------------------------------------------------------


@dataclass
class HypothesisReport:
    """Finite-range falsifier result for the nondecreasing-ratio condition.

    The condition: f(n)/log(n) must not decrease along any divisor pair
    a | b with 2 <= a < b <= checked_bound.  A passing report is evidence
    up to the bound, not a proof.
    """

    weight_spec: str
    checked_bound: int
    divisor_pairs_checked: int = 0
    violations: list[tuple[int, int]] = field(default_factory=list)
    fast_path: str | None = None

    @property
    def passed(self) -> bool:
        return not self.violations


_REL_SLACK = 1e-12  # float comparisons treat near-ties as nondecreasing


def _weight_callable(f) -> Callable[[int], float]:
    if isinstance(f, WeightFunction):
        return f.value
    if callable(f):
        return f
    return f.value  # duck-typed weight object


def _nondecreasing(values: list[float]) -> bool:
    return all(b >= a * (1 - _REL_SLACK) for a, b in zip(values, values[1:]))


def check_hypothesis(f, bound: int) -> HypothesisReport:
    """Check the admissibility condition for f up to a finite bound.

    Fast paths: if f(n)/n is nondecreasing on [2, bound] the condition holds
    outright; failing that, it also holds when f(n)/log(n) is nondecreasing
    on [3, bound] and does not drop from n=2 to n=4.  Otherwise every divisor
    pair is checked explicitly and failures are returned as data.
    """
    if bound < 4:
        raise ValueError("bound must be >= 4")
    spec = f.spec if isinstance(f, WeightFunction) else getattr(f, "spec", repr(f))
    fv = _weight_callable(f)
    vals = {m: float(fv(m)) for m in range(2, bound + 1)}
    for m, v in vals.items():
        if v <= 0:
            raise ValueError(f"weight must be positive on m >= 2, got f({m}) = {v}")

    report = HypothesisReport(weight_spec=spec, checked_bound=bound)

    if _nondecreasing([vals[m] / m for m in range(2, bound + 1)]):
        report.fast_path = "ratio-monotone"
        return report

    tilde = {m: vals[m] / math.log(m) for m in range(2, bound + 1)}
    if (
        _nondecreasing([tilde[m] for m in range(3, bound + 1)])
        and tilde[2] <= tilde[4] * (1 + _REL_SLACK)
    ):
        report.fast_path = "tilde-monotone-from-3"
        return report

    for b in range(4, bound + 1):
        for a in _primes.divisors(b)[1:-1]:  # proper divisors >= 2
            report.divisor_pairs_checked += 1
            if tilde[a] > tilde[b] * (1 + _REL_SLACK):
                report.violations.append((a, b))
    return report


# -- exact boundary helpers ------------------------------------------------------


def exp_floor(x: float) -> int:
    """floor(e**x) for a float x >= 0, decided by interval arithmetic.

    Directed rounding avoids misclassifying x values that sit next to
    log(integer) boundaries, where a bare math.exp round-off would put the
    cutoff one integer too low or too high.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return 1
    import mpmath  # deferred: only the log weight needs it, so start-up skips it

    iv = mpmath.iv
    saved = iv.prec
    try:
        for prec in (80, 160, 320, 640, 1280):
            iv.prec = prec
            enc = iv.exp(iv.mpf(x))
            lo = int(mpmath.floor(enc.a))
            hi = int(mpmath.floor(enc.b))
            if lo == hi:
                return lo
    finally:
        iv.prec = saved
    raise ArithmeticError(f"could not separate exp({x}) from an integer")


def _amount(f: WeightFunction, x):
    """The bound x as each kind compares with it: floor(x) for the exact kinds.

    A sum of integer weights is <= x exactly when it is <= floor(x), and
    floor(x / w) = floor(floor(x) / w) for every integer w >= 1, so the
    exact kinds need only the integer floor(x); the others take a float.
    """
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError("x must be finite and >= 0")
    return math.floor(x) if f.is_exact else float(x)


def _integer_nth_root(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _ilog(cap: int, p: int) -> int:
    """Largest e >= 0 with p**e <= cap."""
    e = 0
    q = p
    while q <= cap:
        e += 1
        q *= p
    return e


# -- the prime side --------------------------------------------------------------


def prime_exponents(f: WeightFunction, X: int, table: PrimeTable | None = None):
    """(primes p, exponents X // f(p)) over the primes with f(p) <= X, for an
    exact weight f and an integer X >= 0, as aligned int64 arrays."""
    t = _primes._table(table)
    if f.kind == "m":
        ps = t.primes_up_to(X)
        return ps, X // ps
    if f.kind == "m-1":
        ps = t.primes_up_to(X + 1)
        return ps, X // (ps - 1)
    ps = t.primes_up_to(_integer_nth_root(X, f.alpha))
    return ps, X // ps**f.alpha


def weighted_prime_product(f: WeightFunction, x, table: PrimeTable | None = None) -> FactoredNatural:
    """Product over primes p of p**floor(x / f(p)), as a FactoredNatural.

    The integer-valued weights take their exponents from prime_exponents at
    floor(x); for the log weight the whole product reduces to primes up to
    the integer cutoff floor(e**x) with exponents floor(log cutoff / log p);
    for non-integer powers float arithmetic with boundary correction is used.
    """
    x = _amount(f, x)
    t = _primes._table(table)
    if f.is_exact:
        ps, exps = prime_exponents(f, x, t)
        return FactoredNatural._trusted(dict(zip(ps.tolist(), exps.tolist())))

    exps: dict[int, int] = {}
    if f.kind == "log":
        cap = exp_floor(x)
        for p in t.primes_up_to(cap):
            p = int(p)
            exps[p] = _ilog(cap, p)
        return FactoredNatural._trusted(exps)

    # non-integer power: float weights with an off-by-one correction loop
    xf = float(x)
    pmax = int(xf ** (1.0 / f.alpha)) + 2
    for p in t.primes_up_to(pmax):
        p = int(p)
        w = f.value(p)
        if w > xf:
            continue
        e = int(xf / w)
        while (e + 1) * w <= xf:
            e += 1
        while e > 0 and e * w > xf:
            e -= 1
        if e > 0:
            exps[p] = e
    return FactoredNatural._trusted(exps)


# -- the lcm side -----------------------------------------------------------------


def _max_valuation(p: int, cost, budget, max_parts: int | None, combine, empty) -> int:
    """Largest total p-valuation of at most max_parts parts p**e within the budget.

    best[v] is the least total cost of parts p**e (e >= 1) whose valuations
    sum to at least v; it is nondecreasing in v, so the search stops at the
    first v it prices over the budget.  A least-cost way to reach v uses at
    most v parts, so a part limit only binds below the unlimited answer,
    where best gains a parts dimension that is filled one part at a time.
    """
    items = []
    e, pe = 1, p
    while (c := cost(pe)) <= budget:
        items.append((e, c))
        e, pe = e + 1, pe * p
    best = [empty]
    while True:
        v = len(best)
        c = min(combine(ce, best[max(0, v - e)]) for e, ce in items)
        if c > budget:
            break
        best.append(c)
    top = len(best) - 1
    if max_parts is None or max_parts >= top:
        return top
    layer = [empty] + [None] * top  # at most j parts, j = 0, 1, ..., max_parts
    for _ in range(max_parts):
        nxt = list(layer)
        for v in range(1, top + 1):
            for e, ce in items:
                prev = layer[max(0, v - e)]
                if prev is not None:
                    c = combine(ce, prev)
                    if nxt[v] is None or c < nxt[v]:
                        nxt[v] = c
        layer = nxt
    return max(v for v, c in enumerate(layer) if c is not None and c <= budget)


def _lcm_exponents(
    cost: Callable[[int], object],
    budget,
    max_parts: int | None = None,
    combine: Callable = operator.add,
    empty=0,
) -> dict[int, int]:
    """lcm, as an exponent map, over products of multisets of parts >= 2.

    A multiset is admissible when the costs of its parts, folded with
    combine from empty, stay within budget (and it has at most max_parts
    parts when given).  cost must be nondecreasing in the part and combine
    must not decrease a total, so a part m with v_p(m) = e can be swapped
    for p**e, which divides m, at no extra cost.  The exponent of each prime
    is then a search over the parts p**e alone (_max_valuation).  Primes are
    found by primality tests, independently of any sieve.
    """
    exps: dict[int, int] = {}
    if max_parts == 0:
        return exps
    m = 2
    while cost(m) <= budget:
        if _primes.is_probable_prime(m):
            exps[m] = _max_valuation(m, cost, budget, max_parts, combine, empty)
        m += 1
    return exps


def multiset_lcm(f: WeightFunction, x) -> FactoredNatural:
    """lcm of i_1*...*i_k over multisets with f(i_1)+...+f(i_k) <= x.

    Parts equal to 1 are omitted: they change neither the product nor the
    weight constraint.  The empty multiset contributes 1, so the result is
    always >= 1.  For the log weight the additive constraint is evaluated in
    exact form as a product cap of floor(e**x): the parts' product must stay
    within the cap.
    """
    budget = _amount(f, x)
    if f.kind == "log":
        cap = exp_floor(budget)
        return FactoredNatural._trusted(_lcm_exponents(lambda m: m, cap, None, operator.mul, 1))
    return FactoredNatural._trusted(_lcm_exponents(f.value, budget))
