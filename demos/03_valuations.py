"""The valuation dichotomy for sigma(n)/n! at large primes.

sigma(n) is a multiple of n!, and for every prime p with p*p > n + 1 the
quotient carries p to the power 0 or 1 — never more.  The power is 1 exactly
when p is a "quotient prime": p = floor(n/k + 1) for some k below roughly
sqrt(n).  This script shows the dichotomy in action, the witnesses k, and the
resulting clean split of sigma(n)/n! into a small-prime part and a squarefree
product of quotient primes.
"""

import math

from lcmf import (
    default_table,
    quotient_primes,
    sigma_ratio_valuation,
    split_sigma_over_factorial,
)


def main():
    n = 100
    t = default_table()
    print(f"== valuations of sigma({n})/{n}! at primes p with p*p > {n + 1} ==")
    for p in t.prime_list(n + 1):
        if p * p <= n + 1:
            continue
        rec = sigma_ratio_valuation(n, p)
        if rec.valuation:
            print(f"  p={p:4d}: v=1  (witness k={rec.witness_k}: floor({n}/{rec.witness_k}+1)={p})")
    print("  every other in-range prime has v=0")

    print("\n== quotient prime sets ==")
    for m in (10, 100, 1000):
        narrow = sorted(quotient_primes(m).members)
        wide = sorted(quotient_primes(m, wide=True).members)
        print(f"  n={m:5d}: k<=sqrt(n) gives {narrow}; wider k range gives {wide}")

    print("\n== splitting sigma(n)/n! at sqrt(n+1) ==")
    for m in (10, 48, 300, 2025):
        small_log, large = split_sigma_over_factorial(m)
        print(
            f"  n={m:5d}: large part = {large}  "
            f"small-part log = {small_log:8.4f}  (/sqrt(n) = {small_log / math.sqrt(m):.4f})"
        )


if __name__ == "__main__":
    main()
