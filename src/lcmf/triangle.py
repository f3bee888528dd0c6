"""The arithmetic triangle q(n, k) of lcm values over k-part sums.

q(n, k) is the lcm of all products i_1 * ... * i_k over multisets of exactly
k positive integers with i_1 + ... + i_k <= n.  Dropping the parts equal to 1
turns this into the bounded-weight lcm of the products module: multisets of
parts >= 2, at most k of them, with the shifted weights (part - 1) summing to
at most n - k.  A sweep (qs, iter_rows, and verify's prop1 and cor2, which
stream their pairs to _entries) builds one per-prime step table at its
largest budget n - k, priced before it is built, and reads every entry
from it with its part limit k; q is qs' one-entry case.  The diagonals
d(n, k) = q(n + k, k) have budget n; they are nondecreasing in the
divisibility order and freeze at k = n, where they give the same value as
the shifted-weight prime product.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .factored import FactoredNatural
from .products import WeightFunction, _lcm_table


def _entries(pairs: Iterable[tuple[int, int]], budget: int) -> Iterator[FactoredNatural]:
    """q(n, k) for each (n, k) of pairs, 0 <= k <= n and n - k <= budget, in
    order, read one at a time from one table built at budget."""
    table = _lcm_table(WeightFunction.shifted(), budget)
    return (table.lcm(n - k, k) for n, k in pairs)


def qs(pairs: Iterable[tuple[int, int]]) -> Iterator[FactoredNatural]:
    """q(n, k) for each (n, k) of pairs, in order, read one at a time from
    one table built at the largest n - k."""
    pairs = list(pairs)
    for n, k in pairs:
        if n < 0 or k < 0:
            raise ValueError("n and k must be >= 0")
        if k > n:
            raise ValueError(f"k = {k} exceeds n = {n}")
    return _entries(pairs, max((n - k for n, k in pairs), default=0))


def q(n: int, k: int) -> FactoredNatural:
    """Triangle entry: lcm over exactly-k-part multisets with sum <= n."""
    (value,) = qs([(n, k)])
    return value


def diagonal(n: int, k: int) -> FactoredNatural:
    """d(n, k) = q(n + k, k), the k-th entry of the n-th diagonal."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    return q(n + k, k)


def sigma_from_diagonal(n: int) -> FactoredNatural:
    """The frozen diagonal value d(n, n) = q(2n, n).

    Equals the shifted-weight prime product at n (the sigma sequence), which
    makes it an lcm-side check of that sequence.
    """
    return diagonal(n, n)


def iter_rows(nmax: int) -> Iterator[Iterator[FactoredNatural]]:
    """Triangle rows q(n, 0), ..., q(n, n) for n = 0..nmax, from one table built
    at budget nmax, each row an iterator over one stream of entries, read
    from a stream of pairs, so that a reader holds one entry at a time: read
    each row before asking for the next."""
    values = _entries(((n, k) for n in range(nmax + 1) for k in range(n + 1)), nmax)
    return (itertools.islice(values, n + 1) for n in range(nmax + 1))


def rows_decimal(nmax: int) -> list[list[str]]:
    """Triangle rows rendered as decimal strings (entries stay small)."""
    return [[entry.to_decimal() for entry in row] for row in iter_rows(nmax)]
