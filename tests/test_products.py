import math
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lcmf import primes, products, verify
from lcmf.factored import FactoredNatural
from lcmf.products import (
    WeightFunction,
    exp_floor,
    multiset_lcm,
    multiset_lcms,
    prime_exponents,
    weighted_prime_product,
)
from lcmf.sequences import sigma
from lcmf.triangle import iter_rows, q, qs
from lcmf.verify import check_hypothesis

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
    for spec in ("m^0.5", "m^nan", "m^inf"):  # alpha below 1, NaN or infinite
        with pytest.raises(ValueError):
            WeightFunction.parse(spec)
    assert WeightFunction.parse("m^64").alpha == 64
    assert WeightFunction.parse("m^1023.9999999999999").alpha == 1023.9999999999999
    for spec in ("m^1024", "m^1e308"):  # 2**alpha overflows, past every budget: refused, saying why
        with pytest.raises(ValueError, match="alpha < 1024; from 1024 on, 2[*][*]alpha overflows"):
            WeightFunction.parse(spec)
    with pytest.raises(ValueError):
        WeightFunction("m^a")  # missing alpha


def test_weight_is_an_immutable_hashable_value():
    assert WeightFunction.parse("m^2") == WeightFunction.power(2)
    assert hash(WeightFunction.parse("m^2")) == hash(WeightFunction.power(2))
    assert WeightFunction.parse("m^2.5") != WeightFunction.power(2)
    assert len({WeightFunction.parse(spec) for spec in ("m", "m", "log", "m-1", "log")}) == 3
    f = WeightFunction.linear()
    with pytest.raises(AttributeError):
        f.kind = "log"
    with pytest.raises(AttributeError):
        f.alpha = 2
    assert f == WeightFunction("m")
    for kind, alpha in (("m", 2), ("log", 1.5), ("m^a", 0.5), ("m+1", None)):
        with pytest.raises(ValueError):
            WeightFunction(kind, alpha)


class Dip:
    """Inadmissible: f(2)/log 2 exceeds f(b)/log b at b = 4, 6 and 8."""

    spec = "dip"

    @staticmethod
    def value(m):
        return {2: 3.0, 4: 1.0}.get(m, float(m))


class Bump:
    """Admissible, although f(m)/m dips at 4 and f(m)/log m from 3 to 4:
    3 and 4 divide neither each other nor 2."""

    spec = "bump"

    @staticmethod
    def value(m):
        return 3.5 if m == 3 else float(m)


def _violating_pairs(result) -> list[tuple[int, int]]:
    return [tuple(map(int, re.match(r"(\d+) \| (\d+): ", v).groups())) for v in result.violations]


def _brute_force_hypothesis(value, bound: int):
    """(pairs checked, failing pairs (a, b)) over every a < b with b % a == 0."""
    ratio = {m: float(value(m)) / math.log(m) for m in range(2, bound + 1)}
    pairs = [(a, b) for b in range(2, bound + 1) for a in range(2, b) if b % a == 0]
    return len(pairs), [(a, b) for a, b in pairs if ratio[a] > ratio[b] * (1 + 1e-12)]


def test_hypothesis_catalog_passes():
    for f in CATALOG:
        report = check_hypothesis(f, 100)
        assert report.passed, f.spec
        assert report.check_id == f"hypothesis[{f.spec}]"
        assert report.cases == 283  # the pairs a | b with 2 <= a < b <= 100


def test_hypothesis_counterexample():
    report = check_hypothesis(Dip(), 50)
    assert not report.passed and report.check_id == "hypothesis[dip]"
    assert _violating_pairs(report) == [(2, 4), (2, 6), (2, 8)]
    assert report.cases == 108
    with pytest.raises(ValueError, match="bound must be >= 4"):
        check_hypothesis(Dip(), 3)
    with pytest.raises(ValueError, match="positive"):
        check_hypothesis(lambda m: m - 2.0, 10)


def test_hypothesis_names_a_callable_by_its_qualname():
    first, second = lambda m: float(m), lambda m: float(m)
    assert check_hypothesis(first, 40) == check_hypothesis(second, 40)
    assert check_hypothesis(first, 40).check_id.endswith(".<lambda>]")
    assert check_hypothesis(Dip(), 40).check_id == "hypothesis[dip]"
    weights = {m: float(m) for m in range(2, 41)}
    assert check_hypothesis(weights.__getitem__, 40).check_id == "hypothesis[dict.__getitem__]"


def test_hypothesis_matches_a_brute_force_oracle():
    rng = random.Random(13)
    jitter = {m: m * rng.uniform(0.5, 1.5) for m in range(2, 301)}  # a perturbation of m
    weights = [(f, f.value, bound) for f in CATALOG for bound in (4, 200)]
    weights += [(Dip(), Dip.value, 50), (Bump(), Bump.value, 60)]
    weights += [(jitter.__getitem__, jitter.__getitem__, 300)]
    for f, value, bound in weights:
        report = check_hypothesis(f, bound)
        assert (report.cases, _violating_pairs(report)) == _brute_force_hypothesis(value, bound)
    assert len(report.violations) > 20  # the perturbation fails at many pairs, in many a


def test_hypothesis_check_loads_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, lcmf\n"
        "class Dip:\n"
        "    spec = 'dip'\n"
        "    value = staticmethod(lambda m: {2: 3.0, 4: 1.0}.get(m, float(m)))\n"
        "print(lcmf.check_hypothesis(Dip(), 50).passed, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.split() == ["False", "False"], proc.stderr


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


def _exp_floor_oracle(x):
    """floor(e**x) from mpmath, working 400 bits past the binary point.  The
    floor is int() of the value: mpmath.floor would round it to the global
    53 bits."""
    import mpmath

    with mpmath.workprec(400 + int(x / math.log(2)) + 1):
        value, eps = mpmath.exp(mpmath.mpf(x)), mpmath.mpf(2) ** -390
        lo, hi = int(value - eps), int(value + eps)
    assert lo == hi, x  # the oracle is sure of its floor
    return lo


def test_exp_floor_on_the_log_lattice():
    for m in range(2, 2000):
        c = math.log(m)
        for x in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf), c + 0.3):
            assert exp_floor(x) == _exp_floor_oracle(x), (m, x)


def test_exp_floor_past_the_float_mantissa():
    # from x = 36.75 on e**x passes 2**53, so no float holds its floor
    assert exp_floor(40.0) == 235385266837019985
    for i in range(67_901):  # [30, 709] in steps of 0.01
        x = 30 + i / 100
        assert exp_floor(x) == _exp_floor_oracle(x), x


def test_exp_floor_doubles_a_precision_that_is_too_small(monkeypatch):
    # each precision exp_floor asks decimal for is cut to a sixteenth, so it
    # must see the neighbours straddle an integer and try again
    import decimal

    context = decimal.Context
    monkeypatch.setattr(decimal, "Context", lambda prec: context(prec=max(1, prec // 16)))
    for x in (1.0, math.log(7), math.nextafter(math.log(7), 0.0), 40.0, 300.5, 709.0):
        assert exp_floor(x) == _exp_floor_oracle(x), x


def test_log_weight_refuses_x_past_the_float_range(monkeypatch):
    assert exp_floor(709.0) == _exp_floor_oracle(709.0)
    top = math.log(sys.float_info.max)  # where math.exp overflows
    assert exp_floor(top) == _exp_floor_oracle(top)

    class NoDefault:
        def __getattr__(self, name):
            raise AssertionError("refused only after a prime table was asked for")

    monkeypatch.setattr(primes, "_default_table", NoDefault())
    f = WeightFunction.log()
    for x in (710.0, math.nextafter(top, math.inf), 1e6):
        with pytest.raises(ValueError):
            exp_floor(x)
        with pytest.raises(ValueError):
            weighted_prime_product(f, x)
        with pytest.raises(ValueError):
            multiset_lcm(f, x)


def _float_loop_exponents(f, x, ps):
    """The per-prime float loop that computed non-integer powers before
    prime_exponents took them, kept as the oracle."""
    exps = {}
    for p in ps:
        w = f.value(p)
        if w > x:
            continue
        e = int(x / w)
        while (e + 1) * w <= x:
            e += 1
        while e > 0 and e * w > x:
            e -= 1
        if e > 0:
            exps[p] = e
    return exps


@pytest.mark.parametrize("alpha", [1.5, 2.5, 1.1, 3.7])
def test_non_integer_power_exponents_match_the_float_loop(alpha):
    f = WeightFunction.power(alpha)
    ps = trial_primes(600)
    # a quarter-step grid, then e * f(p) and one ulp either side: there the
    # quotient x / f(p) rounds to e or e + 1 and the one-step corrections decide
    xs = [i / 4 for i in range(4001)]
    for p in ps[:12]:
        for e in range(1, 8):
            c = e * f.value(p)
            xs += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
    for x in xs:
        assert prime_exponents(f, float(x)) == _float_loop_exponents(f, x, ps), x
    assert verify.check_theorem1(f, 60).passed


def test_prime_side_takes_budgets_past_int64():
    # the exponents are plain ints at every budget: at 10^20 > 2^63, X // p**10
    # for m^10; at x = 2^63 for m^10.5, the largest e with e * p**10.5 <= x in
    # floats; and m^63 at 10^20 gives 2^10 on both sides
    assert prime_exponents(WeightFunction.power(10), 10**20) == {
        p: 10**20 // p**10 for p in trial_primes(100)
    }
    x = 2.0**63
    exps = prime_exponents(WeightFunction.power(10.5), x)
    assert sorted(exps) == [p for p in trial_primes(100) if float(p) ** 10.5 <= x]
    assert all(e * float(p) ** 10.5 <= x < (e + 1) * float(p) ** 10.5 for p, e in exps.items())
    f = WeightFunction.power(63)
    assert weighted_prime_product(f, 10**20) == multiset_lcm(f, 10**20) == FactoredNatural({2: 10})


def test_power_weights_whose_values_overflow_a_float():
    # below 1024 every alpha is taken: f(m) = m**alpha is inf where it
    # overflows a float, past every budget, so at m^600.5 both sides stop at
    # 4**600.5 = 2**1201 and at m^1023.5 at 3**1023.5
    assert WeightFunction.power(600.5).value(4) == math.inf
    for alpha, x, want in ((600.5, 5 * 2.0**600.5, {2: 5}), (1023.5, 1.2 * 2.0**1023.5, {2: 1})):
        f = WeightFunction.power(alpha)
        assert weighted_prime_product(f, x) == multiset_lcm(f, x) == FactoredNatural(want)


def test_non_integer_powers_agree_at_every_step_of_the_prime_side():
    # the prime side gives p the largest e with fl(e * f(p)) <= x, one
    # rounding; the lcm side must fit e copies of p at the same x, so its
    # totals are exact sums of the parts' floats, rounded once.  At
    # x = e * f(p) and one ulp either side, 1179 points in all, none may
    # differ; with float totals summed one rounding at a time, 78 did
    points = 0
    for alpha, ps in [(a, trial_primes(40)) for a in (1.1, 1.5, 2.5, 3.7)] + [
        (600.5, [2]), (1023.5, [2])
    ]:
        f = WeightFunction.power(alpha)
        xs = []
        for p in ps:
            for c in (e * f.value(p) for e in range(1, 9)):
                if math.isfinite(c):
                    xs += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
        for x, rhs in zip(xs, multiset_lcms(f, xs)):
            assert weighted_prime_product(f, x) == rhs, (alpha, x)
        points += len(xs)
    assert points == 1179
    f = WeightFunction.power(1.5)
    x = 7 * f.value(2)
    want = FactoredNatural({2: 7, 3: 3, 5: 1, 7: 1})
    assert multiset_lcm(f, x) == weighted_prime_product(f, x) == want


def test_lcm_table_steps_are_whole_multiples_of_each_primes_cost():
    # the cheapest parts of p reaching v are v copies of p, so a table's
    # best[v] is v * cost(p), and p**v for the log weight's product, at
    # every v where either is within the budget; non-integer powers cost
    # each part in whole units of 2**-52, where the float costs summed one
    # at a time gave 21 of m^1.5's 58 steps to 80 off by an ulp
    def power_units(a):
        return lambda m: products._units(WeightFunction.power(a).value(m))

    tables = [
        (WeightFunction.linear().value, 40),
        (WeightFunction.shifted().value, 40),
        (WeightFunction.power(2).value, 200),
        (power_units(1.5), products._unit_budget(80.0)),
        (power_units(2.5), products._unit_budget(300.0)),
    ]
    for cost, budget in tables:
        table = products._LcmTable(cost, budget)
        assert table._primes == trial_primes(table._primes[-1] + 1)
        for p, best in zip(table._primes, table._best):
            assert best == [v * cost(p) for v in range(budget // cost(p) + 1)], (budget, p)
    cap = exp_floor(5.0)
    table = products._LcmTable(lambda m: m, cap, operator.mul, 1)
    assert table._primes == trial_primes(cap)
    for p, best in zip(table._primes, table._best):
        assert best == [p**v for v in range(primes._log_floor(cap, p) + 1)], p


def test_unit_budget_rounds_once_to_nearest_with_ties_to_even():
    # S * 2**-52 rounds to a float <= x exactly for S up to _unit_budget(x):
    # at 1 <= x < 2, where the float grid is the unit, S = x in units; above,
    # the midpoint to the next float is in when x's significand is even; at
    # the largest float it is out, as that midpoint rounds to inf, which is
    # decided in integers without an overflow
    def fits(s, x):
        try:
            return float(Fraction(s, 2**52)) <= x
        except OverflowError:
            return False

    rng = random.Random(43)
    xs = [1.0, 1.5, math.nextafter(2.0, 0.0), 2.0, 3.0, 2.0**53, 7 * 2.0**1.5, sys.float_info.max]
    xs += [math.ldexp(1 + rng.random(), rng.randrange(0, 1024)) for _ in range(2000)]
    for x in xs:
        s = products._unit_budget(x)
        assert fits(s, x) and not fits(s + 1, x), x
    assert products._unit_budget(0.0) == products._unit_budget(0.999) == 0
    assert products._unit_budget(1.5) == 3 * 2**51  # the unit is the grid: no midpoint
    assert products._unit_budget(3.0) == 3 * 2**52 + 1  # 3 * 2**51 ulps, even: midpoint in
    above = math.nextafter(3.0, 4.0)  # 3 * 2**51 + 1 ulps, odd: midpoint out
    assert products._unit_budget(above) == 3 * 2**52 + 2
    assert products._units(math.inf) == math.inf
    f = WeightFunction.power(1023.5)  # f(2) is a float, f(3) is inf
    assert multiset_lcm(f, sys.float_info.max) == weighted_prime_product(f, sys.float_info.max)
    assert multiset_lcm(f, sys.float_info.max) == FactoredNatural({2: 1})


def test_check_theorem1_at_m_to_the_2_5():
    result = verify.check_theorem1(WeightFunction.power(2.5))
    assert result.passed and result.cases == 25
    assert verify.check_theorem1(WeightFunction.power(2.5), 4999.5).passed


def test_hypothesis_full_scan_can_pass():
    # f(m)/log m is not monotone, yet it does not decrease along any divisor pair
    report = check_hypothesis(Bump(), 60)
    assert report.passed
    assert report.cases == 142


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
    assert len([list(row) for row in iter_rows(9)]) == 10
