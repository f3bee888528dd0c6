"""The arithmetic triangle q(n, k) of lcm values over k-part sums.

q(n, k) is the lcm of all products i_1 * ... * i_k over multisets of exactly
k positive integers with i_1 + ... + i_k <= n.  Dropping the parts equal to 1
turns this into the bounded-weight search of the products module: multisets
of parts >= 2, at most k of them, with the shifted weights (part - 1) summing
to at most n - k, which is searched one prime at a time with a part-count
limit of k.  The diagonals d(n, k) = q(n + k, k) are nondecreasing in the
divisibility order and freeze at k = n, where they give the same value as the
shifted-weight prime product.
"""

from __future__ import annotations

from .factored import FactoredNatural
from .products import _lcm_exponents


def q(n: int, k: int) -> FactoredNatural:
    """Triangle entry: lcm over exactly-k-part multisets with sum <= n."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k > n:
        raise ValueError(f"k = {k} exceeds n = {n}")
    return FactoredNatural._trusted(_lcm_exponents(lambda part: part - 1, n - k, max_parts=k))


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


def rows(nmax: int) -> list[list[FactoredNatural]]:
    """Triangle rows [q(n, 0), ..., q(n, n)] for n = 0..nmax."""
    return [[q(n, k) for k in range(n + 1)] for n in range(nmax + 1)]


def rows_decimal(nmax: int) -> list[list[str]]:
    """Triangle rows rendered as decimal strings (entries stay small)."""
    return [[entry.to_decimal() for entry in row] for row in rows(nmax)]
