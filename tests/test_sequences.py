import math

import numpy as np
import pytest

from lcmf import sequences, verify
from lcmf.factored import FactoredNatural
from lcmf.primes import default_table, factorial_valuation
from lcmf.sequences import (
    _breakpoints,
    _chain_steps,
    _legendre,
    _sandwich_steps,
    chain_flags,
    divisibility_chain,
    factorial_sandwich,
    quotient_primes,
    rho,
    sandwich_flags,
    sigma,
    sigma_ratio_valuation,
    split_sigma_over_factorial,
)

from oracles import naive_rho, naive_sigma


def test_rho_sigma_small_values():
    assert rho(1) == FactoredNatural.one()
    assert rho(6).factors == {2: 3, 3: 2, 5: 1}
    assert sigma(4).factors == {2: 4, 3: 2, 5: 1}
    assert sigma(6).to_decimal() == "60480"
    assert sigma(0) == FactoredNatural.one()


def test_rho_sigma_match_trial_division():
    for n in range(0, 201):
        assert int(rho(n).to_decimal()) == naive_rho(n)
        assert int(sigma(n).to_decimal()) == naive_sigma(n)


def test_divisibility_chain_cases():
    assert divisibility_chain(0) == (True, True, True, True)
    assert divisibility_chain(6) == (True, True, True, True)
    assert divisibility_chain(7) == (True, True, True, True)
    # explicit doubling instance: sigma(7) = 2 * sigma(6)
    assert int(sigma(7).to_decimal()) == 2 * int(sigma(6).to_decimal()) == 120960


def test_factorial_sandwich_cases():
    assert factorial_sandwich(0) == (True, True)
    assert factorial_sandwich(4) == (True, True)
    assert factorial_sandwich(6) == (True, True)
    # n = 4 numerically: 120 | 720 and 720 | 24 * 60
    s4 = int(sigma(4).to_decimal())
    assert s4 % math.factorial(5) == 0
    assert (math.factorial(4) * 60) % s4 == 0


def test_legendre_kernel_matches_factorial_valuation():
    t = default_table()
    ps = t.primes_up_to(2 * 600 + 2)
    block = _legendre(np.arange(601), ps)  # one block: rows far below its max
    for n in range(601):
        cols = ps[ps <= 2 * n + 2]
        expected = [factorial_valuation(n, p) for p in cols.tolist()]
        assert block[n, : len(cols)].tolist() == expected, n
        assert _legendre([n], cols)[0].tolist() == expected, n


def _chain_terms(n, p):
    """Every side of chain_flags' comparisons at (n, p), from primes' Legendre route."""
    q = p - 1
    fact, fact_2n = factorial_valuation(n, p), factorial_valuation(2 * n, p)
    return n // p, (n + 1) // p, n // q, (n + 1) // q, (n - 1) // q, fact, fact_2n


def _sandwich_terms(n, p):
    """n // (p - 1), v_p((n + 1)!), v_p(n!) and e_p(n + 1), the sides of sandwich_flags'."""
    e = 0
    while p ** (e + 1) <= n + 1:
        e += 1
    return n // (p - 1), factorial_valuation(n + 1, p), factorial_valuation(n, p), e


def test_terms_step_only_at_breakpoints():
    # the flag routes decide each comparison once per interval between steps,
    # so no side may change at an n that is not a step of its prime
    nmax = 3000
    for p in default_table().prime_list(300):
        for steps, terms in ((_chain_steps, _chain_terms), (_sandwich_steps, _sandwich_terms)):
            cuts = set(_breakpoints(0, nmax, steps(p)))
            for lo in (0, 1, 7, p, nmax - 1, nmax):  # a later range start keeps the later steps
                assert _breakpoints(lo, nmax, steps(p)) == sorted(c for c in cuts if c > lo)
            prev = terms(0, p)
            for n in range(1, nmax + 1):
                cur = terms(n, p)
                assert n in cuts or cur == prev, (terms.__name__, p, n, prev, cur)
                prev = cur


def _oracle_chain(n):
    """chain_flags' four facts at n, prime by prime over n's own primes."""
    facts = [True] * 4
    for p in default_table().prime_list(max(2 * n, n + 2, 2)):
        rho_n, rho_next, sig_n, sig_next, sig_prev, fact_n, fact_2n = _chain_terms(n, p)
        facts[0] &= sig_n <= sig_next and rho_n <= rho_next and rho_n <= sig_n
        facts[1] &= rho_n <= fact_n
        facts[2] &= fact_n <= sig_n <= fact_2n
        facts[3] &= n % 2 == 0 or sig_n == sig_prev + (p == 2)
    return tuple(facts)


def _oracle_sandwich(n):
    lower = upper = True
    for p in default_table().prime_list(n + 1):
        mid, fact_next, fact_n, e = _sandwich_terms(n, p)
        lower &= fact_next <= mid
        upper &= mid <= fact_n + e
    return lower, upper


def test_flag_tables_match_the_per_prime_oracle():
    ns = list(range(601))
    assert chain_flags(ns) == [_oracle_chain(n) for n in ns]
    assert sandwich_flags(ns) == [_oracle_sandwich(n) for n in ns]
    sparse = [0, 1, 2, 255, 256, 257, 4095, 4096]
    chain, sandwich = chain_flags(sparse), sandwich_flags(sparse)
    assert chain == [_oracle_chain(n) for n in sparse]
    assert sandwich == [_oracle_sandwich(n) for n in sparse]
    assert chain_flags(sparse[::-1]) == chain[::-1]  # rows come in the order of ns
    for row, n in enumerate(sparse):
        assert divisibility_chain(n) == chain[row], n
        assert factorial_sandwich(n) == sandwich[row], n


def test_batch_flags_match_per_n_wrappers():
    ns = [0, 1, 2, 255, 256, 257, 4095, 4096]
    chain = chain_flags(ns)
    sandwich = sandwich_flags(ns)
    assert [len(row) for row in chain] == [4] * 8 and [len(row) for row in sandwich] == [2] * 8
    for row, n in enumerate(ns):
        assert chain[row] == divisibility_chain(n) == (True,) * 4, n
        assert sandwich[row] == factorial_sandwich(n) == (True, True), n
    with pytest.raises(ValueError):
        chain_flags([3, -1])
    with pytest.raises(ValueError):
        factorial_sandwich(-1)


@pytest.mark.parametrize("nmax", [0, 1, 255, 256, 257, 1000])
def test_prop_sweeps_count_every_n(nmax):
    for res in (verify.check_prop2(nmax), verify.check_prop3(nmax)):
        assert res.passed and res.cases == nmax + 1, (res.check_id, nmax)


def test_prop_sweeps_report_each_false_flag(monkeypatch):
    def falsify(rows, ns, n, cols):
        i = list(ns).index(n)
        rows[i] = tuple(ok and col not in cols for col, ok in enumerate(rows[i]))

    def chain(ns, table=None):
        rows = chain_flags(ns, table)
        falsify(rows, ns, 7, {0})
        falsify(rows, ns, 9, {3})
        return rows

    def sandwich(ns, table=None):
        rows = sandwich_flags(ns, table)
        falsify(rows, ns, 30, {0, 1})
        return rows

    monkeypatch.setattr(sequences, "chain_flags", chain)
    monkeypatch.setattr(sequences, "sandwich_flags", sandwich)
    res = verify.check_prop2(40)
    assert res.cases == 41
    assert res.violations == ["n=7: chain fails", "n=9: odd-doubling fails"]
    res = verify.check_prop3(40)
    assert res.cases == 41
    assert res.violations == [
        "n=30: (n+1)! does not divide sigma(n)",
        "n=30: sigma(n) does not divide n! lcm(1..n+1)",
    ]


def test_theorem2_reports_each_pair_a_dropped_witness_misses(monkeypatch):
    dropped = {40: 7, 100: 13}  # n: a wide quotient prime of n above sqrt(n + 1)

    def witness(n, wide=False, table=None):
        qp = quotient_primes(n, wide, table)
        return qp._replace(members=qp.members - {dropped.get(n)})

    assert verify.check_theorem2(200).passed
    monkeypatch.setattr(sequences, "quotient_primes", witness)
    res = verify.check_theorem2(200)
    assert res.cases == 4230
    assert res.violations == [
        "n=40 p=7: digit route 1, witness route 0",
        "n=100 p=13: digit route 1, witness route 0",
    ]


def test_sigma_ratio_valuation_examples():
    rec = sigma_ratio_valuation(10, 11)
    assert rec.valuation == 1 and rec.witness_k == 1
    rec = sigma_ratio_valuation(10, 5)
    assert rec.valuation == 0 and rec.witness_k is None
    # p = n + 1 prime always carries valuation 1 via k = 1
    for n in (1, 2, 4, 6, 10, 12, 100):
        rec = sigma_ratio_valuation(n, n + 1)
        assert rec.valuation == 1 and rec.witness_k == 1


def test_sigma_ratio_valuation_rejects_out_of_range():
    with pytest.raises(ValueError):
        sigma_ratio_valuation(10, 3)  # 3*3 <= 11
    with pytest.raises(ValueError):
        sigma_ratio_valuation(10, 13)  # above n + 1
    with pytest.raises(ValueError):
        sigma_ratio_valuation(10, 9)  # not prime


def test_valuation_matches_definition():
    # the record's valuation equals the exponent of p in sigma(n)/n!
    t = default_table()
    for n in range(1, 401):
        sig = sigma(n)
        for p in t.primes_up_to(n + 1).tolist():
            if p * p <= n + 1:
                continue
            expected = sig.valuation(p) - factorial_valuation(n, p)
            assert sigma_ratio_valuation(n, p).valuation == expected, (n, p)


def test_quotient_primes_examples():
    assert sorted(quotient_primes(100).members) == [11, 13, 17, 101]
    assert quotient_primes(100).generating_k == {101: 1, 17: 6, 13: 8, 11: 10}
    assert sorted(quotient_primes(1).members) == [2]
    assert sorted(quotient_primes(10, wide=True).members) == [3, 11]


def test_quotient_values_distinct():
    import numpy as np

    for n in range(1, 100_001):
        r = math.isqrt(n) + 1
        ks = np.arange(1, r + 1)
        vals = n // ks
        assert len(np.unique(vals)) == r, n


def test_split_examples():
    small_log, large = split_sigma_over_factorial(10)
    assert large.factors == {11: 1}
    assert small_log == pytest.approx(math.log(12), abs=1e-12)
    small_log, large = split_sigma_over_factorial(1)
    assert large.factors == {2: 1}
    assert small_log == 0.0


def test_split_reassembles_sigma_over_factorial():
    for n in range(1, 120):
        small_log, large = split_sigma_over_factorial(n)
        ratio = int(sigma(n).to_decimal()) // math.factorial(n)
        assert ratio % int(large.to_decimal()) == 0
        small = ratio // int(large.to_decimal())
        assert math.log(small) == pytest.approx(small_log, abs=1e-9)
