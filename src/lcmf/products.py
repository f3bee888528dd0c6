"""Prime-power products with floor-quotient exponents and their lcm form.

For an admissible weight f, the product over primes of p**floor(x / f(p))
equals the lcm of all products i_1 * ... * i_k taken over finite multisets
of integers >= 2 whose weights sum to at most x.  This module computes both
sides independently: the prime side from the sieve and the closed form, the
lcm side from per-prime step tables over the parts p**e, found by primality
tests and never by the closed form or the sieve.  A sweep over many x builds
one such table, at its largest budget, and reads each x from it
(multiset_lcms); multiset_lcm is its one-point case.  The two sides share
only _budget, the bound x sets: floor(x) for the integer-valued weights,
floor(e**x) for the log weight.  The prime side at f(m) = m and f(m) = m - 1
is the rho and sigma sequences of the sequences module.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

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


def _budget(f: WeightFunction, x):
    """The bound x sets for f, in the form both sides compare with.

    For the exact kinds it is floor(x): a sum of integer weights is <= x
    exactly when it is <= floor(x), and floor(x / w) = floor(floor(x) / w)
    for every integer w >= 1.  For the log weight it is floor(e**x), a cap
    on a product: log i_1 + ... + log i_k <= x exactly when the product of
    the i_j is at most that cap.  Non-integer powers compare with float x.
    """
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError("x must be finite and >= 0")
    if f.kind == "log":
        return exp_floor(float(x))
    return math.floor(x) if f.is_exact else float(x)


# -- the prime side --------------------------------------------------------------


def prime_exponents(f: WeightFunction, X: int, table: PrimeTable | None = None):
    """(primes p, exponents of p) over the primes with a positive exponent at
    the integer budget X >= 0 of an exact or log weight f, as aligned int64
    arrays.

    The exponent is X // f(p) for the exact kinds.  For the log weight X is
    the cap floor(e**x), and the exponent is the number of i >= 1 with
    p**i <= X, which is floor(x / log p).
    """
    t = _primes._table(table)
    if f.kind == "log":
        ps = t.primes_up_to(X)
        exps = np.zeros(len(ps), dtype=np.int64)
        for pw in _primes.prime_powers(ps, X):
            exps[: len(pw)] += 1
        return ps, exps
    if f.kind == "m":
        ps = t.primes_up_to(X)
        return ps, X // ps
    if f.kind == "m-1":
        ps = t.primes_up_to(X + 1)
        return ps, X // (ps - 1)
    ps = t.primes_up_to(_primes.iroot(X, f.alpha))
    return ps, X // ps**f.alpha


def weighted_prime_product(f: WeightFunction, x, table: PrimeTable | None = None) -> FactoredNatural:
    """Product over primes p of p**floor(x / f(p)), as a FactoredNatural.

    The exact and log weights take their exponents from prime_exponents at
    the budget x sets (_budget); for non-integer powers float arithmetic with
    boundary correction is used.
    """
    budget = _budget(f, x)
    t = _primes._table(table)
    if f.is_exact or f.kind == "log":
        ps, exps = prime_exponents(f, budget, t)
        return FactoredNatural._trusted(dict(zip(ps.tolist(), exps.tolist())))

    # non-integer power: float weights with an off-by-one correction loop
    exps: dict[int, int] = {}
    pmax = int(budget ** (1.0 / f.alpha)) + 2
    for p in t.primes_up_to(pmax):
        p = int(p)
        w = f.value(p)
        if w > budget:
            continue
        e = int(budget / w)
        while (e + 1) * w <= budget:
            e += 1
        while e > 0 and e * w > budget:
            e -= 1
        if e > 0:
            exps[p] = e
    return FactoredNatural._trusted(exps)


# -- the lcm side -----------------------------------------------------------------


class _LcmTable:
    """Per-prime step tables for the lcm over multisets of parts >= 2, built
    once at the largest budget of a sweep and read at any budget up to it.

    A multiset is admissible at budget b when the costs of its parts, folded
    with combine from empty, stay within b (and, when a lookup asks, it has at
    most k parts).  cost must be nondecreasing in the part and combine must
    not decrease a total, so a part m with v_p(m) = e can be swapped for
    p**e, which divides m, at no extra cost: the exponent of a prime p in the
    lcm is a search over the parts p**e alone.  The primes are found by
    primality tests, independently of any sieve.

    best[v] is the least total cost of parts p**e whose valuations sum to at
    least v; it is nondecreasing in v, so the exponent at budget b is the
    number of v >= 1 with best[v] <= b, one bisection.  A part that costs
    more than b never appears in a total <= b, so the table built at the
    largest budget gives every smaller budget the answer a table built at it
    would.  A least-cost way to reach v uses at most v parts, so a part limit
    k binds only below the unlimited answer; there layer k of p, the least
    cost that reaches v with at most k parts, is filled one part at a time
    the first time a lookup needs it.
    """

    def __init__(self, cost: Callable[[int], object], budget, combine=operator.add, empty=0):
        self._combine = combine
        self._primes, self._items, self._best, self._layers = [], [], [], []
        m = 2
        while cost(m) <= budget:
            if _primes.is_probable_prime(m):
                items = []  # (e, cost(m**e)) over the parts within the budget
                e, pe = 1, m
                while (c := cost(pe)) <= budget:
                    items.append((e, c))
                    e, pe = e + 1, pe * m
                best = [empty]
                while (
                    c := min(combine(ce, best[max(0, len(best) - e)]) for e, ce in items)
                ) <= budget:
                    best.append(c)
                self._primes.append(m)
                self._items.append(items)
                self._best.append(best)
                self._layers.append([[empty] + [math.inf] * (len(best) - 1)])
            m += 1
        self._costs = [best[1] for best in self._best]  # cost(p), nondecreasing in p

    def _layer(self, i: int, k: int) -> list:
        layers, items, combine = self._layers[i], self._items[i], self._combine
        while len(layers) <= k:
            prev = layers[-1]
            layers.append([
                min(prev[v], *(combine(ce, prev[max(0, v - e)]) for e, ce in items))
                for v in range(len(prev))
            ])
        return layers[k]

    def lcm(self, budget, parts: int | None = None) -> FactoredNatural:
        """The lcm over the multisets admissible at budget, with at most parts
        parts when given."""
        exps: dict[int, int] = {}
        for i in range(bisect.bisect_right(self._costs, budget)):
            v = bisect.bisect_right(self._best[i], budget) - 1
            if parts is not None and parts < v:
                v = bisect.bisect_right(self._layer(i, parts), budget) - 1
            if v:
                exps[self._primes[i]] = v
        return FactoredNatural._trusted(exps)


def multiset_lcms(f: WeightFunction, xs) -> Iterator[FactoredNatural]:
    """multiset_lcm(f, x) for each x of xs, in order, read one at a time from
    one table built at the largest budget."""
    budgets = [_budget(f, x) for x in xs]
    if f.kind == "log":  # the parts' product must stay within the cap
        table = _LcmTable(lambda m: m, max(budgets, default=1), operator.mul, 1)
    else:
        table = _LcmTable(f.value, max(budgets, default=0))
    return map(table.lcm, budgets)


def multiset_lcm(f: WeightFunction, x) -> FactoredNatural:
    """lcm of i_1*...*i_k over multisets with f(i_1)+...+f(i_k) <= x.

    Parts equal to 1 are omitted: they change neither the product nor the
    weight constraint.  The empty multiset contributes 1, so the result is
    always >= 1.  For the log weight the additive constraint is evaluated in
    exact form as a product cap of floor(e**x): the parts' product must stay
    within the cap.  This is the one-point case of multiset_lcms.
    """
    (value,) = multiset_lcms(f, [x])
    return value
