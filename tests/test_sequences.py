import math
import tracemalloc

import pytest

from lcmf import primes, sequences, verify
from lcmf.factored import FactoredNatural
from lcmf.primes import PrimeTable, default_table, factorial_valuation
from lcmf.sequences import (
    _chain_steps,
    _pieces,
    _sandwich_steps,
    _split_steps,
    _split_walk,
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


def _split_terms(n, p):
    """split's large-prime valuation n // (p - 1) - v_p(n!), one Legendre term for p*p > n."""
    return n // (p - 1) - factorial_valuation(n, p)


def test_terms_step_only_at_breakpoints():
    # the walks decide each comparison once per interval between steps, so no
    # side may change at an n that is not a step of its prime; split's
    # valuation is walked only where p is large, on [p - 1, p*p - 2]
    nmax = 3000
    for p in default_table().prime_list(300):
        for steps, terms, lo, hi in (
            (_chain_steps, _chain_terms, 0, nmax),
            (_sandwich_steps, _sandwich_terms, 0, nmax),
            (_split_steps, _split_terms, p - 1, min(nmax, p * p - 2)),
        ):
            cuts = {b for b, _ in _pieces(lo, hi, steps(p), p)}
            prev = terms(lo, p)
            for n in range(lo + 1, hi + 1):
                cur = terms(n, p)
                assert n in cuts or cur == prev, (terms.__name__, p, n, prev, cur)
                prev = cur


def _brute_pieces(lo, hi, steps):
    """[b, e) between consecutive steps of [lo, hi], from a test of every n."""
    if lo > hi:
        return []
    cuts = [n for n in range(lo + 1, hi + 1) if any((n - r) % m == 0 for m, r in steps)]
    bounds = [lo, *cuts, hi + 1]
    return list(zip(bounds, bounds[1:]))


def test_pieces_match_brute_force_intervals():
    # every n is a step of p = 2, and of the chain's p = 3; over [0, 3000] the
    # windows are 54 wide for p <= 7, so those ranges span many windows; and
    # 101**2 exceeds the range
    ranges = ((0, 0), (7, 7), (8, 7), (0, 1), (0, 3000), (777, 3000))
    for p in (2, 3, 5, 7, 11, 101):
        for steps in (_chain_steps(p), _sandwich_steps(p), _split_steps(p)):
            for lo, hi in (*ranges, (p - 1, p * p - 2)):
                got = list(_pieces(lo, hi, steps, p))
                assert got == _brute_pieces(lo, hi, steps), (p, steps, lo, hi)


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


def _flag_rows(fails):
    """Per n of the range, one bool per fact: whether it holds."""
    return [tuple(not f[i] for f in fails) for i in range(len(fails[0]))]


def test_flag_tables_match_the_per_prime_oracle():
    chain, sandwich = _flag_rows(chain_flags(0, 600)), _flag_rows(sandwich_flags(0, 600))
    assert chain == [_oracle_chain(n) for n in range(601)]
    assert sandwich == [_oracle_sandwich(n) for n in range(601)]
    # a later range start decides its first n from scratch
    assert _flag_rows(chain_flags(257, 600)) == chain[257:]
    assert _flag_rows(sandwich_flags(257, 600)) == sandwich[257:]
    for n in (0, 1, 2, 255, 256, 257, 4095, 4096):
        assert divisibility_chain(n) == _oracle_chain(n), n
        assert factorial_sandwich(n) == _oracle_sandwich(n), n


def test_batch_flags_match_per_n_wrappers():
    chain, sandwich = chain_flags(0, 4096), sandwich_flags(0, 4096)
    assert [len(f) for f in chain] == [4097] * 4 and [len(f) for f in sandwich] == [4097] * 2
    for n in (0, 1, 2, 255, 256, 257, 4095, 4096):
        assert tuple(not f[n] for f in chain) == divisibility_chain(n) == (True,) * 4, n
        assert tuple(not f[n] for f in sandwich) == factorial_sandwich(n) == (True, True), n
    assert chain_flags(5, 4) == [bytearray()] * 4 and sandwich_flags(5, 4) == [bytearray()] * 2
    with pytest.raises(ValueError):
        chain_flags(-1, 3)
    with pytest.raises(ValueError):
        factorial_sandwich(-1)


@pytest.mark.parametrize("nmax", [0, 1, 255, 256, 257, 1000])
def test_prop_sweeps_count_every_n(nmax):
    for res in (verify.check_prop2(nmax), verify.check_prop3(nmax)):
        assert res.passed and res.cases == nmax + 1, (res.check_id, nmax)


def test_prop_sweeps_report_each_false_flag(monkeypatch):
    def marking(flags, marks):
        def marked(lo, hi, table=None):
            fails = flags(lo, hi, table)
            for n, fact in marks:
                fails[fact][n - lo] = 1
            return fails

        return marked

    # marked out of order: the violations come n ascending, then in fact order
    chain = marking(chain_flags, [(9, 0), (7, 3), (7, 1)])
    monkeypatch.setattr(sequences, "chain_flags", chain)
    monkeypatch.setattr(sequences, "sandwich_flags", marking(sandwich_flags, [(30, 1), (30, 0)]))
    res = verify.check_prop2(40)
    assert res.cases == 41
    assert res.violations == [
        "n=7: divides-factorial fails",
        "n=7: odd-doubling fails",
        "n=9: chain fails",
    ]
    res = verify.check_prop3(40)
    assert res.cases == 41
    assert res.violations == [
        "n=30: (n+1)! does not divide sigma(n)",
        "n=30: sigma(n) does not divide n! lcm(1..n+1)",
    ]


class _Misread(int):
    """The prime p, except that n // p, and the quotient of divmod(n, p), read
    one too high at the one n = at: a single faulty division."""

    def __new__(cls, p, at):
        self = super().__new__(cls, p)
        self.at = at
        return self

    def __rfloordiv__(self, n):
        return int(n) // int(self) + (n == self.at)

    def __rdivmod__(self, n):
        quotient, rest = divmod(int(n), int(self))
        return quotient + (n == self.at), rest


def _list_primes_as(monkeypatch, change):
    """The default table, with change applied to every prime list it gives."""

    class Changed(PrimeTable):
        def prime_list(self, x):
            return change(super().prime_list(x))

    monkeypatch.setattr(primes, "_default_table", Changed())


def _vfact_reading(monkeypatch, at, value):
    """sequences' v_p(n!) reading value at the one (n, p) = at."""
    real = sequences._vfact
    monkeypatch.setattr(sequences, "_vfact", lambda n, p: value if (n, p) == at else real(n, p))


def test_prop2_and_prop3_report_a_faulty_factorial_valuation(monkeypatch):
    # v_7(13!) is 1; 13 and 14 are steps of 7 in both walks (n = -1 and 0 mod 7),
    # so the piece [13, 14) decides n = 13 alone, and [12, 13) n = 12
    assert verify.check_prop2(40).passed and verify.check_prop3(40).passed
    _vfact_reading(monkeypatch, (13, 7), -1)  # below 13 // 7, and below 13 // 6 less e = 1
    assert verify.check_prop2(40).violations == ["n=13: divides-factorial fails"]
    assert verify.check_prop3(40).violations == ["n=13: sigma(n) does not divide n! lcm(1..n+1)"]
    _vfact_reading(monkeypatch, (13, 7), 10**6)  # above 13 // 6, and as v_7((n+1)!) at 12, 12 // 6
    assert verify.check_prop2(40).violations == ["n=13: factorial-sandwich fails"]
    assert verify.check_prop3(40).violations == ["n=12: (n+1)! does not divide sigma(n)"]


def test_prop2_reports_a_composite_among_the_primes(monkeypatch):
    # sigma's exponent of 4 would be n // 3, which steps at every multiple of 3:
    # at an odd one, sigma(n) = 2 sigma(n - 1) fails.  No other fact can fail
    # at an integer p >= 2
    _list_primes_as(monkeypatch, lambda ps: sorted(ps + [4]))
    res = verify.check_prop2(40)
    assert res.cases == 41
    assert res.violations == [f"n={n}: odd-doubling fails" for n in range(3, 41, 6)]


def test_prop2_reports_a_faulty_quotient(monkeypatch):
    # 35 // 7 read as 6 makes rho(35) exceed rho(36) at 7 and v_7(35!), read
    # from the same quotient, exceed 35 // 6; 35 and 36 are steps of 7
    # (n = 0 mod 7 and 0 mod 6), so only n = 35 is decided by it
    _list_primes_as(monkeypatch, lambda ps: [_Misread(p, 35) if p == 7 else p for p in ps])
    assert verify.check_prop2(40).violations == ["n=35: chain fails", "n=35: factorial-sandwich fails"]


def test_flag_and_split_walks_hold_few_bytes_per_n():
    # the walks keep a failure byte per fact (and split a count) per n, and
    # O(sqrt(N)) steps at once; the table and its prime list are grown first.
    # tracemalloc slows the walks about tenfold, so N is kept at 5000
    n = 5000
    t = default_table()
    t.prime_list(2 * n + 2)
    for walk in (
        lambda: chain_flags(0, n, t),
        lambda: sandwich_flags(0, n, t),
        lambda: all(failure is None for *_, failure in _split_walk(1, n, t)),
    ):
        tracemalloc.start()
        try:
            assert walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n, peak / n


def test_chain_flags_read_the_primes_up_to_hi_plus_1():
    # no prime above hi + 1 can set a flag at n <= hi, so none is sieved
    t = PrimeTable()
    chain_flags(0, 5000, t)
    assert t.limit <= 5002


@pytest.mark.parametrize("check", [verify.check_theorem2, verify.check_split])
def test_theorem2_and_split_list_their_primes_once(monkeypatch, check):
    calls = []

    class Counted(PrimeTable):
        def prime_list(self, x):
            calls.append(x)
            return super().prime_list(x)

    monkeypatch.setattr(primes, "_default_table", Counted())
    assert check(500).passed
    assert len(calls) == 1, calls


def test_theorem2_records_keep_their_n_after_the_walk():
    res = verify.CheckResult(check_id="theorem2")
    records = list(verify._theorem2_walk(60, res))  # every record read after the walk
    assert [n for n, _, _ in records] == list(range(1, 61)) and res.passed
    count = 0
    for n, pairs, witness_k in records:
        for p, v in pairs:
            rec = sigma_ratio_valuation(n, p)
            assert (v, witness_k.get(p)) == (rec.valuation, rec.witness_k), (n, p)
            count += 1
    assert count == res.cases == 454


def test_theorem2_reports_each_pair_a_dropped_witness_misses(monkeypatch):
    dropped = {40: 7, 100: 13}  # n: a wide quotient prime of n above sqrt(n + 1)
    added = {150: 23}  # n: a prime above sqrt(n + 1) of digit valuation 0

    def witness(n, wide=False, table=None):
        qp = quotient_primes(n, wide, table)
        members = qp.members - {dropped.get(n)}
        return qp._replace(members=members | {added[n]} if n in added else members)

    assert verify.check_theorem2(200).passed
    monkeypatch.setattr(sequences, "quotient_primes", witness)
    res = verify.check_theorem2(200)
    assert res.cases == 4230
    assert res.violations == [
        "n=40 p=7: digit route 1, witness route 0",
        "n=100 p=13: digit route 1, witness route 0",
        "n=150 p=23: digit route 0, witness route 1",
    ]


def test_theorem2_reports_the_walks_failure_where_no_pair_differs(monkeypatch):
    # the composite 100 among n = 99's wide quotient primes is in no pair, so
    # the walk's own mismatch line, from its primality guard, is the violation
    _patch_quotient_primes(monkeypatch, {}, {99: {100}})
    res = verify.check_theorem2(200)
    assert res.cases == 4230
    assert res.violations == ["large part mismatch at n=99: {17, 13} vs {17, 100, 13}"]


def test_theorem2_and_split_report_a_valuation_above_1(monkeypatch):
    # 7 walked one n past its large range [6, 47], to 48 = 7^2 - 1, where its
    # valuation 48 // 6 - 48 // 7 is 2 (48 is a step of 7, n = 0 mod 6)
    real = sequences._pieces
    monkeypatch.setattr(sequences, "_pieces", lambda lo, hi, steps, p: real(lo, hi + (p == 7), steps, p))
    res = verify.check_theorem2(60)
    assert res.cases == 454 and res.violations == ["large-prime valuation above 1 at n=48"]
    res = verify.check_split(60)
    assert res.cases == 60 and res.violations == ["large-prime valuation above 1 at n=48"]


def test_split_reports_a_small_part_below_n_factorial(monkeypatch):
    # v_3(10!) read far above 10 // 2, the exponent of 3 in sigma(10), where 3
    # is small (3 * 3 <= 11)
    _vfact_reading(monkeypatch, (10, 3), 10**6)
    res = verify.check_split(20)
    assert res.cases == 20 and res.violations == ["sigma(10) is not a multiple of 10!"]
    with pytest.raises(ArithmeticError, match=r"^sigma\(10\) is not a multiple of 10!$"):
        split_sigma_over_factorial(10)


def test_sigma_ratio_valuation_reports_routes_that_disagree():
    # 11 read as 2 * 7 + 4, not 1 * 7 + 4: its digit sum 6 gives valuation 1,
    # where no k has (11 + k) // k = 7
    assert sigma_ratio_valuation(11, 7).valuation == 0
    with pytest.raises(ArithmeticError, match=r"^valuation routes disagree at n=11, p=7: digits 1, witness 0$"):
        sigma_ratio_valuation(11, _Misread(7, 11))
    assert sigma_ratio_valuation(12, _Misread(7, 11)) == sigma_ratio_valuation(12, 7)


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
    t = default_table()
    for n in range(1, 3000):
        for wide in (False, True):
            ks = range(1, math.isqrt(n) + 1 + wide)
            gen = {(n + k) // k: k for k in ks if t.is_prime((n + k) // k)}
            qp = quotient_primes(n, wide, t)
            assert (qp.members, qp.generating_k) == (frozenset(gen), gen), (n, wide)


def test_quotient_primes_refuses_repeated_values(monkeypatch):
    # a k range that runs past sqrt(n) + 1 repeats a value at its end
    t = PrimeTable(200)
    monkeypatch.setattr(sequences.math, "isqrt", lambda n: int(n**0.5) + 5)
    with pytest.raises(ArithmeticError, match="not distinct at n=100"):
        quotient_primes(100, wide=True, table=t)


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


def _split_oracle(n):
    """(small log, large primes) of sigma(n)/n! prime by prime over every
    p <= n + 1: the exponent n // (p - 1) less Legendre's full sum for n!."""
    small_log, large = 0.0, set()
    for p in default_table().prime_list(n + 1):
        q, fact = p, 0
        while q <= n:
            fact, q = fact + n // q, q * p
        v = n // (p - 1) - fact
        assert v >= 0, (n, p)
        if p * p <= n + 1:
            if v:
                small_log += v * math.log(p)
        elif v:
            assert v == 1, (n, p)
            large.add(p)
    return small_log, large


def test_split_walk_matches_the_per_prime_oracle():
    t = default_table()
    walked = list(_split_walk(1, 3000, t))
    # a prime p is large at p*p - 2 and small at p*p - 1: past 3000 = 55**2 - 25,
    # walk r*r - 2 .. r*r + 1 for every r < 100 and every prime r < 400
    for r in [*range(55, 100), *(p for p in t.prime_list(400) if p > 100)]:
        walked += _split_walk(r * r - 2, r * r + 1, t)
    assert len(walked) == 3000 + 4 * (45 + 53)
    for n, small_log, large, failure in walked:
        assert failure is None, failure
        assert (small_log, large) == _split_oracle(n), n
    small_log, large = split_sigma_over_factorial(2025, t)  # the walk's one-n case
    assert (small_log, set(large.factors)) == walked[2024][1:3]


def _patch_quotient_primes(monkeypatch, gone, added):
    def witness(n, wide=False, table=None):
        qp = quotient_primes(n, wide, table)
        return qp._replace(members=(qp.members - gone.get(n, set())) | added.get(n, set()))

    monkeypatch.setattr(sequences, "quotient_primes", witness)


_SPLIT_NOTE = ["sup of small-part log / sqrt(n) = 1.543577 at n = 48"]


def test_split_reports_a_dropped_quotient_prime(monkeypatch):
    _patch_quotient_primes(monkeypatch, {40: {7}, 100: {13}}, {})
    res = verify.check_split(200)
    assert res.cases == 200 and res.notes == _SPLIT_NOTE
    assert res.violations == [
        "large part mismatch at n=40: {41, 11, 7} vs {41, 11}",
        "large part mismatch at n=100: {17, 101, 11, 13} vs {17, 11, 101}",
    ]


def test_split_reports_an_added_non_member(monkeypatch):
    # at n = 100 the count differs; at 99 and 150 a member is swapped out, so
    # only the added value's valuation (23 has 0 at 150) or primality (100,
    # of valuation 1 at 99) tells the sets apart
    _patch_quotient_primes(monkeypatch, {99: {13}, 150: {151}}, {99: {100}, 100: {19}, 150: {23}})
    res = verify.check_split(200)
    assert res.cases == 200 and res.notes == _SPLIT_NOTE
    assert res.violations == [
        "large part mismatch at n=99: {17, 13} vs {17, 100}",
        "large part mismatch at n=100: {17, 101, 11, 13} vs {101, 11, 13, 17, 19}",
        "large part mismatch at n=150: {13, 17, 19, 151, 31} vs {13, 17, 19, 23, 31}",
    ]
