"""Gallery: prime-power products meet their lcm form.

For each supported weight f, the product over primes p of p**floor(x/f(p))
equals the lcm of all products of integers >= 2 whose f-weights sum to at
most x.  This script evaluates both sides independently over small grids: the
product from the closed form over sieved primes, the lcm by a search per
prime that only ever uses the parts p**e (a part m with p**e exactly dividing
it can be swapped for p**e at no extra weight).  It also shows a few named
specializations:

  f(m) = log m   ->  lcm(1, 2, ..., floor(e**x))
  f(m) = m       ->  lcm of products of parts with bounded sum
  f(m) = m - 1   ->  the sigma sequence (see demo 03)
"""

import math

from lcmf import WeightFunction, check_hypothesis, multiset_lcm, weighted_prime_product

CATALOG = [
    WeightFunction.linear(),
    WeightFunction.shifted(),
    WeightFunction.power(2),
    WeightFunction.log(),
]


def main():
    print("== admissibility reports (finite-range falsifier) ==")
    for f in CATALOG:
        report = check_hypothesis(f, 200)
        print(f"  f = {f.spec:5s}  passed={report.passed}  divisor pairs={report.cases}")

    class Dip:
        """A deliberately inadmissible weight: f(4) dips below f(2)."""

        spec = "dip"

        @staticmethod
        def value(m):
            return {2: 3.0, 4: 1.0}.get(m, float(m))

    bad = check_hypothesis(Dip(), 30)
    print(f"  f = dip    passed={bad.passed}  first violations={bad.violations[:3]}")

    print("\n== the two sides agree (a few sample points) ==")
    for f in CATALOG:
        xs = [0, 2, 5.5, 9] if f.kind != "log" else [0.0, math.log(6), math.log(30)]
        for x in xs:
            lhs = weighted_prime_product(f, x)
            rhs = multiset_lcm(f, x)
            tick = "ok" if lhs == rhs else "MISMATCH"
            print(f"  f = {f.spec:5s} x = {x!s:20s} -> {lhs}  [{tick}]")

    print("\n== log weight collapses to lcm(1..N) ==")
    for m in (6, 12, 30):
        x = math.log(m)
        value = weighted_prime_product(WeightFunction.log(), x)
        direct = math.lcm(*range(1, m + 1))
        print(f"  x = log({m}): product = {value.to_decimal()}, lcm(1..{m}) = {direct}")


if __name__ == "__main__":
    main()
