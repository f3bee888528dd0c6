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
floor(e**x) for the log weight, and x itself for a non-integer power, which
the lcm side restates in whole units of 2**-52 (_unit_budget) so that its
exact sums of float costs round once, as the prime side's e * f(p) does.
The prime side at f(m) = m and f(m) = m - 1 is the rho and sigma sequences
of the sequences module.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from typing import Callable, Iterator, NamedTuple

from . import primes as _primes
from .factored import FactoredNatural
from .primes import PrimeTable


class _Weight(NamedTuple):
    kind: str  # "m" | "m-1" | "m^a" | "log"
    alpha: float | None = None


class WeightFunction(_Weight):
    """One of the supported weights: m, m-1, m**alpha (1 <= alpha < 1024), or log m.

    An immutable, hashable pair (kind, alpha), checked as it is built.
    """

    __slots__ = ()
    _KINDS = ("m", "m-1", "m^a", "log")

    def __new__(cls, kind: str, alpha: float | None = None):
        if kind not in cls._KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        if kind == "m^a":
            if alpha is None or not 1 <= alpha < 1024:
                raise ValueError(
                    "power weight needs 1 <= alpha < 1024; from 1024 on, 2**alpha"
                    " overflows a float and exceeds every budget"
                )
        elif alpha is not None:
            raise ValueError("alpha only applies to the power weight")
        return super().__new__(cls, kind, alpha)

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
                alpha = float(spec[2:])
            except ValueError:
                pass
            else:  # power() refuses an alpha out of range, saying why
                return cls.power(alpha)
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
        """f(m) for an integer m >= 1; int for exact kinds, float otherwise,
        inf where m**alpha overflows a float, past every budget."""
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
        try:
            return float(m) ** self.alpha
        except OverflowError:
            return math.inf


# -- exact boundary helpers ------------------------------------------------------


# e**x overflows a float past log(float max) = 709.78..., a bound of the float format
_EXP_X_MAX = math.log(sys.float_info.max)


def exp_floor(x: float) -> int:
    """floor(e**x) for a float x from 0 up to 709.78..., past which math.exp overflows.

    decimal's exp is correctly rounded, so e**x lies strictly between the two
    neighbours of its value rounded to prec digits; once both have the same
    floor, that is floor(e**x).  Otherwise prec doubles.  For x > 0, e**x is
    irrational (Lindemann), so it is never an integer and the loop ends.  The
    digits needed grow with x, so a larger x raises ValueError.
    """
    if not 0 <= x <= _EXP_X_MAX:
        raise ValueError(f"x must be in [0, {_EXP_X_MAX!r}] for floor(e**x), got {x!r}")
    if x == 0:
        return 1
    import decimal  # only the log weight's budget needs it

    prec = int(x / math.log(10)) + 20  # the integer digits and 19 more
    while True:
        ctx = decimal.Context(prec=prec)
        r = ctx.exp(decimal.Decimal(x))
        lo, hi = int(ctx.next_minus(r)), int(ctx.next_plus(r))
        if lo == hi:
            return lo
        prec *= 2


def _budget(f: WeightFunction, x):
    """The bound x sets for f, in the form both sides compare with.

    For the exact kinds it is floor(x): a sum of integer weights is <= x
    exactly when it is <= floor(x), and floor(x / w) = floor(floor(x) / w)
    for every integer w >= 1.  For the log weight it is floor(e**x), a cap
    on a product: log i_1 + ... + log i_k <= x exactly when the product of
    the i_j is at most that cap.  Non-integer powers compare with float x,
    which the lcm side turns into units of 2**-52 (_unit_budget).
    """
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError("x must be finite and >= 0")
    if f.kind == "log":
        return exp_floor(float(x))
    return math.floor(x) if f.is_exact else float(x)


# -- the prime side --------------------------------------------------------------


def prime_exponents(f: WeightFunction, X, table: PrimeTable | None = None) -> dict[int, int]:
    """{p: exponent of p} over the primes with a positive exponent at the
    budget X of f (_budget), in ascending p, in plain ints.

    The exponent is X // f(p) for the exact kinds.  For the log weight X is
    the cap floor(e**x), and the exponent is the number of i >= 1 with
    p**i <= X, which is floor(x / log p).  For a non-integer power X is the
    float x, and the exponent is the largest e with e * f(p) <= x in float
    arithmetic, on the floats f.value(p) gives: floor(x / f(p)), corrected
    by one step either way for the rounding of the quotient.
    """
    t = _primes._table(table)
    if f.kind == "log":
        ps = t.prime_list(X)
        k = bisect.bisect_right(ps, math.isqrt(X))  # p * p > X past it: exponent 1
        exps = {p: _primes._log_floor(X, p) for p in ps[:k]}
        exps.update(dict.fromkeys(ps[k:], 1))
        return exps
    if f.kind == "m":
        return {p: X // p for p in t.prime_list(X)}
    if f.kind == "m-1":
        return {p: X // (p - 1) for p in t.prime_list(X + 1)}
    if f.is_exact:
        a = f.alpha
        return {p: X // p**a for p in t.prime_list(_primes.iroot(X, a))}
    exps = {}
    for p in t.prime_list(int(X ** (1.0 / f.alpha)) + 2):
        w = f.value(p)
        e = math.floor(X / w)
        e += (e + 1) * w <= X
        e -= e * w > X
        if not e:  # f(p) grows with p, so the positive exponents lead
            break
        exps[p] = e
    return exps


def weighted_prime_product(f: WeightFunction, x, table: PrimeTable | None = None) -> FactoredNatural:
    """Product over primes p of p**floor(x / f(p)), as a FactoredNatural:
    the exponents of prime_exponents at the budget x sets (_budget)."""
    return FactoredNatural._trusted(prime_exponents(f, _budget(f, x), table))


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
    primality tests, independently of any sieve.  The totals are combined
    exactly: ints for the integer-valued weights and the log weight's
    product, and whole units of 2**-52 for a non-integer power (_units),
    so a total is the exact sum of its parts' costs.

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
    return _lcms_at(f, [_budget(f, x) for x in xs])


def _lcms_at(f: WeightFunction, budgets: list) -> Iterator[FactoredNatural]:
    """The lcm side at each budget of f (_budget) in budgets, in order.  A
    non-integer power's table counts in units of 2**-52 (_units): the parts
    fit when their exact sum, rounded once, is <= x (_unit_budget), as
    e * f(p) does on the prime side."""
    if f.kind == "log":  # the parts' product must stay within the cap
        table = _LcmTable(lambda m: m, max(budgets, default=1), operator.mul, 1)
    elif f.is_exact:
        table = _LcmTable(f.value, max(budgets, default=0))
    else:  # _unit_budget is nondecreasing in x, so the largest x gives the largest S
        table = _LcmTable(lambda m: _units(f.value(m)), _unit_budget(max(budgets, default=0)))
        budgets = map(_unit_budget, budgets)
    return map(table.lcm, budgets)


def _units(w: float):
    """The float w >= 1 in units of 2**-52, a whole number of them; inf stays inf."""
    if w == math.inf:
        return w
    num, den = w.as_integer_ratio()  # den is a power of 2, at most 2**52 for w >= 1
    return num * (2**52 // den)


def _unit_budget(x: float) -> int:
    """The largest S whose S * 2**-52 rounds, to nearest with ties to even, to
    a float <= x; 0 below 1, where no part, at f(2) >= 2, fits either.  In
    integers: S * 2**-52 rounds to x or below until the midpoint between x
    and the float above, and at the midpoint when x's significand is even."""
    if x < 1:
        return 0
    units, ulp = _units(x), _units(math.ulp(x))
    return units + ulp // 2 - (ulp > 1 and units // ulp % 2)


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
