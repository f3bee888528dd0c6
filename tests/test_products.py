import math
from fractions import Fraction

import pytest

from lcmf import primes
from lcmf.factored import FactoredNatural
from lcmf.products import (
    WeightFunction,
    check_hypothesis,
    exp_floor,
    multiset_lcm,
    multiset_lcms,
    weighted_prime_product,
)
from lcmf.sequences import sigma
from lcmf.triangle import q, qs, rows

from oracles import naive_weighted_lcm, trial_primes

CATALOG = [
    WeightFunction.linear(),
    WeightFunction.shifted(),
    WeightFunction.power(2),
    WeightFunction.log(),
]


def test_weight_values():
    assert WeightFunction.shifted().value(1) == 0
    assert WeightFunction.linear().value(7) == 7
    assert WeightFunction.log().value(8) == pytest.approx(3 * math.log(2))
    assert WeightFunction.power(2).value(5) == 25
    assert WeightFunction.power(1.5).value(4) == pytest.approx(8.0)


def test_weight_parse_roundtrip():
    for spec in ("m", "m-1", "m^2", "m^2.5", "log"):
        assert WeightFunction.parse(spec).spec == spec
    with pytest.raises(ValueError):
        WeightFunction.parse("n")
    with pytest.raises(ValueError):
        WeightFunction.parse("m^0.5")  # alpha below 1
    with pytest.raises(ValueError):
        WeightFunction("m^a")  # missing alpha


def test_hypothesis_catalog_passes():
    for f in CATALOG:
        report = check_hypothesis(f, 100)
        assert report.passed, f.spec
        assert report.fast_path is not None


def test_hypothesis_counterexample():
    class Dip:
        spec = "dip"

        @staticmethod
        def value(m):
            return {2: 3.0, 4: 1.0}.get(m, float(m))

    report = check_hypothesis(Dip(), 50)
    assert not report.passed
    assert (2, 4) in report.violations
    assert report.fast_path is None
    assert report.divisor_pairs_checked > 0


def test_prime_product_trivial_and_small():
    one = FactoredNatural.one()
    assert weighted_prime_product(WeightFunction.linear(), 0) == one
    assert weighted_prime_product(WeightFunction.shifted(), 2).factors == {2: 2, 3: 1}
    assert weighted_prime_product(WeightFunction.log(), math.log(6)).factors == {
        2: 2,
        3: 1,
        5: 1,
    }


def test_prime_product_rejects_bad_x():
    for f in CATALOG + [WeightFunction.power(1.5)]:
        for x in (-1, Fraction(-1, 2), -0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                weighted_prime_product(f, x)
            with pytest.raises(ValueError):
                multiset_lcm(f, x)


def test_prime_product_matches_direct_formula():
    # int, Fraction and float x all reach the exponents through floor(x)
    primes = trial_primes(70)
    weights = (
        (WeightFunction.linear(), lambda p: p),
        (WeightFunction.shifted(), lambda p: p - 1),
        (WeightFunction.power(2), lambda p: p * p),
    )
    for f, weight in weights:
        for x in (0, 1, 5, 17, 60, Fraction(35, 2), Fraction(7, 3), 0.5, 18.5, 59.999):
            got = weighted_prime_product(f, x).factors
            expected = {p: int(Fraction(x) // weight(p)) for p in primes}
            assert got == {p: e for p, e in expected.items() if e > 0}, (f.spec, x)
    for x in (0, 1, 2.5, 5.3, 7.7):  # e**7.7 < 2300
        got = weighted_prime_product(WeightFunction.log(), x).factors
        expected = {p: math.floor(x / math.log(p)) for p in trial_primes(2300)}
        assert got == {p: e for p, e in expected.items() if e > 0}, ("log", x)


def test_multiset_lcm_small_cases():
    assert multiset_lcm(WeightFunction.linear(), 3).to_decimal() == "6"
    assert multiset_lcm(WeightFunction.shifted(), 2).to_decimal() == "12"
    assert multiset_lcm(WeightFunction.linear(), 0) == FactoredNatural.one()


def test_multiset_lcm_against_naive():
    weights = (
        (WeightFunction.linear(), lambda m: m),
        (WeightFunction.shifted(), lambda m: m - 1),
        (WeightFunction.power(2), lambda m: m * m),
    )
    for x in [Fraction(i, 2) for i in range(0, 26)]:
        for f, weight in weights:
            got = int(multiset_lcm(f, x).to_decimal())
            assert got == naive_weighted_lcm(weight, x), (f.spec, x)


def test_multiset_lcm_beyond_enumeration_reach():
    # ranges an exhaustive search over multisets cannot reach
    f = WeightFunction.shifted()
    for x in range(0, 201):
        assert multiset_lcm(f, x) == weighted_prime_product(f, x), x
    for n in range(0, 101):
        assert q(2 * n, n) == sigma(n), n


def test_equivalence_on_fractional_points():
    for f in CATALOG[:3]:
        for x in (0.5, 3.5, 7.5, 11.5):
            assert weighted_prime_product(f, x) == multiset_lcm(f, x), (f.spec, x)


def test_log_weight_cutoffs():
    assert exp_floor(0.0) == 1
    for m in range(2, 60):
        cut = exp_floor(math.log(m))
        assert cut in (m - 1, m)
        x = math.log(m)
        assert weighted_prime_product(WeightFunction.log(), x) == multiset_lcm(
            WeightFunction.log(), x
        )


def test_monotone_in_x():
    for f in CATALOG:
        prev = weighted_prime_product(f, 0)
        for i in range(1, 25):
            cur = weighted_prime_product(f, i / 2)
            assert prev.divides(cur)
            prev = cur


def test_valuation_bound_for_catalog():
    # for any prime p <= 50 and integer a <= 2000:
    # (exponent of p in a) <= f(a) / f(p)
    primes = trial_primes(50)
    for a in range(2, 2001):
        fac = {}
        m = a
        for p in primes:
            while m % p == 0:
                fac[p] = fac.get(p, 0) + 1
                m //= p
        for f in CATALOG:
            fa = f.value(a)
            for p, e in fac.items():
                assert e <= fa / f.value(p) + 1e-9, (f.spec, a, p)


def test_non_integer_power_consistency():
    f = WeightFunction.power(1.5)
    for x in (0.0, 2.9, 5.2, 9.0):
        assert weighted_prime_product(f, x) == multiset_lcm(f, x)


def test_log_weight_at_boundary_neighbors():
    # one ulp on either side of log(m): both sides must stay consistent,
    # and the cutoff may only differ by whether m itself is included
    f = WeightFunction.log()
    for m in (7, 16, 31, 32):
        center = math.log(m)
        for x in (math.nextafter(center, 0.0), center, math.nextafter(center, math.inf)):
            assert weighted_prime_product(f, x) == multiset_lcm(f, x), (m, x)
        below = exp_floor(math.nextafter(center, 0.0))
        above = exp_floor(math.nextafter(center, math.inf))
        assert below <= above <= m
        assert above in (m - 1, m) and below in (m - 1, m)


def test_hypothesis_full_scan_can_pass():
    # breaks both fast paths (ratio dips at 4, tilde dips from 3 to 4) while
    # every divisor pair is still nondecreasing: the slow path must pass
    class Bump:
        spec = "bump"

        @staticmethod
        def value(m):
            return 3.5 if m == 3 else float(m)

    report = check_hypothesis(Bump(), 60)
    assert report.passed
    assert report.fast_path is None
    assert report.divisor_pairs_checked > 50


def test_equivalence_spot_checks_beyond_grid():
    for f, x in ((WeightFunction.shifted(), 25), (WeightFunction.linear(), 30)):
        assert weighted_prime_product(f, x) == multiset_lcm(f, x)


def _sweep_points(f):
    """Points for a one-table sweep, in no particular order: for log, x = log m
    and one ulp either side, else half-integers and off-lattice points."""
    if f.kind == "log":
        centers = [math.log(m) for m in range(1, 130)]
        xs = [y for c in centers for y in (math.nextafter(c, 0.0), c, math.nextafter(c, 9.0))]
        xs += [c + 0.3 for c in centers[::7]]
    else:
        xs = [i / 2 for i in range(61)] + [2.9, 5.2, 9.999, 17.25]
    return xs[::2] + xs[1::2][::-1]


@pytest.mark.parametrize("f", CATALOG + [WeightFunction.power(1.5)], ids=lambda f: f.spec)
def test_sweep_table_equals_one_point_lcm(f):
    # one table at the largest budget answers every smaller budget exactly
    xs = _sweep_points(f)
    assert list(multiset_lcms(f, xs)) == [multiset_lcm(f, x) for x in xs]


def test_lcm_side_reads_no_sieve(monkeypatch):
    class NoDefault:
        def __getattr__(self, name):
            raise AssertionError("the lcm side used the default table")

    weights = CATALOG + [WeightFunction.power(1.5)]
    xs = {f.spec: _sweep_points(f) for f in weights}
    expected = {f.spec: [weighted_prime_product(f, x) for x in xs[f.spec]] for f in weights}
    sigmas = [sigma(n) for n in range(30)]
    monkeypatch.setattr(primes, "_default_table", NoDefault())
    for f in weights:
        assert list(multiset_lcms(f, xs[f.spec])) == expected[f.spec], f.spec
        assert multiset_lcm(f, xs[f.spec][-1]) == expected[f.spec][-1], f.spec
    assert list(qs((2 * n, n) for n in range(30))) == sigmas
    assert q(40, 20) == sigmas[20]
    assert len(rows(9)) == 10
