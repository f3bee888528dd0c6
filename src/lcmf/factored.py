"""Exact arithmetic on positive integers kept in factored form.

Values here routinely have millions of bits when expanded, so they are
stored as {prime: exponent} maps and only rendered to decimal on demand,
under an explicit digit budget.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Mapping

from . import primes as _primes

DIGIT_BUDGET_DEFAULT = 10**6
_LN10 = math.log(10.0)


class DigitBudgetError(ValueError):
    """Raised when a decimal rendering would exceed the digit budget."""


class FactoredNatural:
    """A positive integer as an immutable map prime -> exponent (>= 1).

    The integer 1 is the empty map.  Construction canonicalizes: zero
    exponents are dropped, non-prime keys and non-positive exponents are
    rejected.  Instances are hashable and compare equal iff their maps do.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        items = {}
        if factors:
            for p, e in dict(factors).items():
                p = int(p)
                e = int(e)
                if e == 0:
                    continue
                if e < 0:
                    raise ValueError(f"negative exponent {e} for prime {p}")
                if not _primes.is_probable_prime(p):
                    raise ValueError(f"{p} is not prime")
                items[p] = e
        self._factors = items

    @classmethod
    def _trusted(cls, factors: dict[int, int]) -> "FactoredNatural":
        # internal fast path: keys already known prime, exponents >= 1
        obj = cls.__new__(cls)
        obj._factors = factors
        return obj

    @classmethod
    def one(cls) -> "FactoredNatural":
        return cls._trusted({})

    @classmethod
    def from_integer(cls, n: int) -> "FactoredNatural":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls._trusted(_primes.factorize(n))

    # -- accessors ------------------------------------------------------------

    @property
    def factors(self) -> dict[int, int]:
        """Copy of the underlying {prime: exponent} map."""
        return dict(self._factors)

    def items(self):
        return self._factors.items()

    def is_one(self) -> bool:
        return not self._factors

    def valuation(self, p: int) -> int:
        """Exponent of the prime p (0 when p does not occur)."""
        if not _primes.is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        return self._factors.get(p, 0)

    # -- arithmetic -----------------------------------------------------------

    def multiply(self, other: "FactoredNatural") -> "FactoredNatural":
        out = dict(self._factors)
        for p, e in other._factors.items():
            out[p] = out.get(p, 0) + e
        return FactoredNatural._trusted(out)

    def lcm(self, other: "FactoredNatural") -> "FactoredNatural":
        out = dict(self._factors)
        for p, e in other._factors.items():
            if e > out.get(p, 0):
                out[p] = e
        return FactoredNatural._trusted(out)

    def divides(self, other: "FactoredNatural") -> bool:
        of = other._factors
        return all(e <= of.get(p, 0) for p, e in self._factors.items())

    def log_value(self) -> float:
        """Natural log of the value, summed over primes in ascending order."""
        total = 0.0
        for p in sorted(self._factors):
            total += self._factors[p] * math.log(p)
        return total

    def to_decimal(self, digit_budget: int | None = None) -> str:
        """Exact decimal expansion; refuses above the digit budget."""
        if digit_budget is None:
            digit_budget = DIGIT_BUDGET_DEFAULT
        estimate = self.log_value() / _LN10
        if estimate > digit_budget + 1:
            raise DigitBudgetError(
                f"about {estimate:.3g} digits exceeds the budget of {digit_budget}"
            )
        value = 1
        for p in sorted(self._factors):
            value *= p ** self._factors[p]
        if not hasattr(sys, "set_int_max_str_digits"):  # Pythons without the cap
            return str(value)
        # the digit budget bounds the size, so CPython's str(int) digit cap
        # (4300 digits by default) is lifted for this one conversion
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(saved)

    # -- protocol -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FactoredNatural):
            return self._factors == other._factors
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._factors.items()))

    def __str__(self) -> str:
        if not self._factors:
            return "1"
        parts = []
        for p in sorted(self._factors):
            e = self._factors[p]
            parts.append(f"{p}^{e}" if e > 1 else f"{p}")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"FactoredNatural({self._factors!r})"

