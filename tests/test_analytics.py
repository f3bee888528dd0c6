import json
import math
import types

import numpy as np
import pytest

from lcmf.analytics import (
    CSV_HEADER,
    LUCY_THRESHOLD,
    Enclosure,
    analytic_constant,
    block_envelopes,
    dyadic_grid,
    log_rho,
    log_sigma,
    parse_grid,
    prime_series_constant,
    quotient_count_sup,
    quotient_prime_count,
    s_split,
    sampled_dyadic_grid,
    scan,
    theta_sum_rho,
    theta_sum_sigma,
    write_csv,
    write_json,
)
from lcmf import analytics, cli, primes, theta, verify
from lcmf.primes import PrimeTable, default_table
from lcmf.sequences import rho, sigma

from oracles import trial_primes

SCAN, THETA = analytics._SCAN_ROWS, theta._THETA_ROWS  # the rows of scans and of theta sums


@pytest.fixture(scope="module")
def c_mid():
    return prime_series_constant(10**6).midpoint


def test_enclosure_basics():
    e = Enclosure(0.5, 0.75)
    assert e.width == 0.25 and e.midpoint == 0.625
    assert 0.6 in e and 0.8 not in e
    with pytest.raises(ValueError):
        Enclosure(1.0, 0.5)
    assert e == Enclosure(0.5, 0.75) and hash(e) == hash(Enclosure(0.5, 0.75))
    with pytest.raises(AttributeError):
        e.lo = 0.8


def test_constant_enclosure_wide_cut_contains_reported_value():
    enc = prime_series_constant(1000)
    assert 0.755 in enc
    with pytest.raises(ValueError):
        prime_series_constant(50)


def test_constant_enclosure_narrows_and_nests():
    cuts = [1000, 10_000, 100_000, 1_000_000]
    encs = [prime_series_constant(x) for x in cuts]
    for small, large in zip(encs, encs[1:]):
        assert large.lo >= small.lo
        assert large.hi <= small.hi
        assert large.width < small.width
    assert encs[-1].width < 3e-5
    analytic = analytic_constant()
    assert analytic.width / 2 <= 1e-15
    assert analytic.lo in encs[-1] and analytic.hi in encs[-1]


def _moebius_zeta_series() -> float:
    """c = sum over m >= 2 of mu(m) zeta'(m)/zeta(m), summed in mpmath at 80 bits
    until |zeta'/zeta(m)| < 2**-60, rounded to float."""
    import mpmath

    total, ratio, m = mpmath.mpf(0), 1, 1
    with mpmath.workprec(80):
        while abs(ratio) >= 2.0**-60:
            m += 1
            ratio = mpmath.zeta(m, 1, 1) / mpmath.zeta(m)
            exponents = primes.factorize(m).values()
            if max(exponents) == 1:
                total += (-1) ** len(exponents) * ratio
        return float(total)


def test_analytic_constant_is_the_series_float():
    c = _moebius_zeta_series()
    assert c.hex() == "0x1.82bf699406611p-1"
    assert analytic_constant() == Enclosure(c - 2.0**-52, c + 2.0**-52)


def test_constant_enclosure_holds_the_analytic_value_from_the_smallest_cut():
    c = analytic_constant()
    for x in (100, 101, 1000, 4099, 65_536):
        enc = prime_series_constant(x)
        assert enc.lo <= c.lo and c.hi <= enc.hi


def test_constant_enclosure_width_at_ten_million():
    enc = prime_series_constant(10**7)
    assert enc.width <= 1e-5
    assert analytic_constant().lo in enc and analytic_constant().hi in enc


def test_theta_sums_match_exact_logs():
    assert theta_sum_rho(1) == 0.0
    assert theta_sum_rho(6) == pytest.approx(math.log(360), abs=1e-12)
    assert theta_sum_sigma(2) == pytest.approx(math.log(12), abs=1e-12)
    for n in (17, 100, 2004, 30_000):
        assert theta_sum_rho(n) == pytest.approx(rho(n).log_value(), abs=1e-6 * n)
        assert theta_sum_sigma(n) == pytest.approx(sigma(n).log_value(), abs=1e-6 * n)
        assert log_rho(n) == pytest.approx(theta_sum_rho(n), abs=1e-6 * n)
        assert log_sigma(n) == pytest.approx(theta_sum_sigma(n), abs=1e-6 * n)
    # the quotient route against the direct sums over primes
    for n in (1 << 20, 1 << 24, (1 << 24) + 12345):
        assert theta_sum_rho(n) == pytest.approx(log_rho(n), abs=1e-6 * n)
        assert theta_sum_sigma(n) == pytest.approx(log_sigma(n), abs=1e-6 * n)


def test_log_rho_and_sigma_refuse_negative_n():
    # as sequences.rho and sigma do; n = 0 is the empty product
    for route, exact in ((log_rho, rho), (log_sigma, sigma)):
        for f in (route, exact):
            with pytest.raises(ValueError, match="n must be >= 0"):
                f(-5)
        assert route(0) == 0.0


@pytest.mark.parametrize("f", [theta_sum_rho, theta_sum_sigma, s_split, quotient_prime_count])
@pytest.mark.parametrize("n", [0, -3])
def test_one_n_functions_refuse_n_below_one(f, n):
    # as sequences.quotient_primes does: the message names n, not a scan grid
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        f(n, PrimeTable())


def test_s_split_examples():
    total, s1, s2 = s_split(6)
    assert total == pytest.approx(math.log(168), abs=1e-12)
    assert total == s1 + s2
    total, s1, s2 = s_split(1)
    assert (total, s1, s2) == (pytest.approx(math.log(2)), pytest.approx(math.log(2)), 0.0)
    _, s1, _ = s_split(100)
    assert s1 == pytest.approx(sum(math.log(v) for v in (101, 17, 13, 11)), abs=1e-12)


def test_s_split_equals_log_gap():
    t = default_table()
    for n in (2, 9, 57, 444, 12_345):
        total, s1, s2 = s_split(n)
        assert total == pytest.approx(log_sigma(n) - log_rho(n), abs=1e-6 * max(1, n))
        # against the loop over every k
        r = math.isqrt(n)
        hits = [k for k in range(1, n + 1) if t.is_prime(n // k + 1)]
        assert quotient_prime_count(n) == sum(1 for k in hits if k <= r)
        logs = {k: math.log(n // k + 1) for k in hits}
        assert s1 == pytest.approx(math.fsum(v for k, v in logs.items() if k <= r), abs=1e-9)
        assert s2 == pytest.approx(math.fsum(v for k, v in logs.items() if k > r), abs=1e-9)


def _table_row_oracle(n, t):
    """((log_rho, log_sigma, card_A, s1, s2), theta_sigma) of n the long way:
    the quotients by three divisions, theta by a search of the primes at each
    of n // k, n // k + 1, v and v + 1, and the sums in the same order as the
    table route.  log sigma is log_rho + (s1 + s2), as the row takes it, and
    theta_sigma the sum of theta(n // k + 1) over k = 1..n, log sigma by
    another grouping of the same logs."""
    r = math.isqrt(n)
    small = n // np.arange(1, r + 1, dtype=np.int64)
    large = np.arange(1, n // (r + 1) + 1, dtype=np.int64)
    mult = n // large - n // (large + 1)

    def total(at_small, at_large):
        return float(np.sum(at_small) + np.sum(mult * at_large))

    mask = t.prime_mask(n + 2)
    small_prime, large_prime = mask[small + 1], mask[large + 1]
    hits = small[small_prime] + 1
    lr = total(t.theta_many(small), t.theta_many(large))
    s1 = float(np.sum(np.log(hits)))
    s2 = float(np.sum(mult[large_prime] * np.log(large[large_prime] + 1)))
    theta_sigma = total(t.theta_many(small + 1), t.theta_many(large + 1))
    return (lr, lr + (s1 + s2), len(hits), s1, s2), theta_sigma


def _within_sigma_column(row, theta_sigma, n, t):
    """Whether the theta-sum row's log sigma is within _theta_budget's sigma
    column of theta_sigma, a sum of theta(n // k + 1)."""
    bound = theta._theta_budget([n], np.array(row[:1]), np.array(row[1:2]), t)[0, 1]
    return abs(row[1] - theta_sigma) <= bound


def _legendre_oracle(n, t):
    """log rho(n) of the scan's row the long way: log n! from _log_factorial,
    less the np.add.reduce of e_p log p over the primes p <= sqrt(n), with
    e_p = v_p(n!) - n // p from primes._vfact, in the row's order."""
    ps = t.primes_up_to(math.isqrt(n))
    e = np.array([primes._vfact(n, p) - n // p for p in ps.tolist()], dtype=np.int64)
    return float(analytics._log_factorial(np.array([n]))[0] - np.add.reduce(e * np.log(ps)))


def _checked_blocks(ns, t, kind):
    """(blocks, rows): the blocks that _checked cuts the ascending ns into and
    the rows of kind it gives, the theta-sum rows (THETA) or the scan's (SCAN)."""
    parts = [(block, rows) for block, rows, _, _ in analytics._checked(ns, t, kind)]
    return [list(block) for block, _ in parts], [row for _, rows in parts for row in rows]


def _theta_rows(ns, t):
    """The theta-sum rows of the ascending ns, in _checked's blocks."""
    return _checked_blocks(ns, t, THETA)[1]


def _scan_rows(ns, t):
    """The scan's rows of the ascending ns, in _checked's blocks."""
    return _checked_blocks(ns, t, SCAN)[1]


def test_table_rows_equal_the_three_division_route(c_mid):
    # the scan's records, s_split and quotient_prime_count against the
    # Legendre oracle's log rho and the theta oracle's split; theta_sum_rho
    # and theta_sum_sigma against the theta oracle
    t = PrimeTable(LUCY_THRESHOLD + 1)
    ns = list(range(1, 3001)) + list(range((1 << 20) - 750, (1 << 20) + 750))
    for r in (2, 3, 10, 99, 1000, 2047):
        ns += [r * r - 1, r * r, r * r + r, r * r + 2 * r]
    # the largest large quotient v = n // (r + 1) has v + 1 prime: the end of
    # the slices that flag and count the large quotients
    edge = next(n for n in range(10**6, 2 * 10**6) if t.is_prime(n // (math.isqrt(n) + 1) + 1))
    ns += [edge, LUCY_THRESHOLD - 1]
    for n in ns:
        want, theta_sigma = _table_row_oracle(n, t)
        _, _, card, s1, s2 = want
        assert _within_sigma_column(want, theta_sigma, n, t), n
        lr = _legendre_oracle(n, t)
        ls, logn = lr + (s1 + s2), math.log(n)
        assert next(analytics._records(analytics._checked([n], t, SCAN), c_mid)) == (
            n, lr, ls, lr - (n * logn - (c_mid + 1.0) * n), ls - (n * logn - n),
            card, card * logn / math.sqrt(n), s1, s2,
        ), n
        assert (theta_sum_rho(n, t), theta_sum_sigma(n, t)) == want[:2], n
        assert s_split(n, t) == (s1 + s2, s1, s2), n
        assert quotient_prime_count(n, t) == card, n


def test_table_rows_in_blocks_equal_the_oracle(monkeypatch):
    # the ns of test_table_rows_equal_the_three_division_route, in one call
    t = PrimeTable(LUCY_THRESHOLD + 1)
    ns = list(range(1, 3001)) + list(range((1 << 20) - 750, (1 << 20) + 750))
    for r in (2, 3, 10, 99, 1000, 2047):
        ns += [r * r - 1, r * r, r * r + r, r * r + 2 * r]
    edge = next(n for n in range(10**6, 2 * 10**6) if t.is_prime(n // (math.isqrt(n) + 1) + 1))
    ns = sorted(set(ns + [edge, LUCY_THRESHOLD - 1]))
    oracle = dict(zip(ns, (_table_row_oracle(n, t) for n in ns)))
    want = {n: row for n, (row, _) in oracle.items()}
    assert all(_within_sigma_column(row, ts, n, t) for n, (row, ts) in oracle.items())
    # n = 1, 2 and 3 share a block of _checked with a large n at the default
    # budget
    few = [1, 2, 3, edge]
    assert _checked_blocks(few, t, THETA) == ([few], [want[n] for n in few])
    # the default budget and a few hundred cells: blocks of many small rows,
    # and at 300 rows wider than the budget each a block of its own
    for cells in (analytics._TABLE_BLOCK_CELLS, 300):
        monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", cells)
        blocks, rows = _checked_blocks(ns, t, THETA)
        sizes = [len(block) for block in blocks]
        assert sum(blocks, []) == ns and max(sizes) > 20, cells
        assert sizes.count(1) > 1500 if cells == 300 else len(sizes) < 200, cells
        assert rows == [want[n] for n in ns], cells


def test_table_and_check_rows_hold_one_block_at_a_time():
    # tracemalloc peak of _checked, the rows and their check, for the
    # theta-sum rows and the scan's rows over a step:1 window near 2^20 and
    # over verify eq14-16's grid at nmax 10^5, whose rows widen along it: a
    # block's few arrays of 8-byte cells and about 200 B per row returned
    import tracemalloc

    t = PrimeTable((1 << 20) + 1000)
    t.primes_up_to(t.limit)  # the table's arrays are derived before the rows
    window = list(range((1 << 20) - 750, (1 << 20) + 750))
    grid = [100 * i for i in range(1, 1001)]
    for ns, kind in ((window, THETA), (grid, THETA), (window, SCAN), (grid, SCAN)):
        tracemalloc.start()
        try:
            rows = [row for _, part, _, _ in analytics._checked(ns, t, kind) for row in part]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(ns)
        assert peak <= 80 * analytics._TABLE_BLOCK_CELLS + 200 * len(ns), (ns[0], kind.table, peak)


def test_theta_identities_report_a_prime_cut_short(monkeypatch):
    # eq14-16 in blocks of many grid points; with the check route's largest
    # prime, 173, dropped from every list it reads, the grid points that use
    # it, and only those, are reported
    monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", 300)
    monkeypatch.setattr(primes, "_default_table", PrimeTable())
    res = verify.check_theta_identities(30_000)
    assert res.passed and res.cases == 1000

    class Short(PrimeTable):
        def primes_up_to(self, x):
            ps = super().primes_up_to(x)
            return ps[ps != 173]

    monkeypatch.setattr(primes, "_default_table", Short())
    res = verify.check_theta_identities(30_000, points=300)
    # the route reads the primes up to isqrt(30000) + 1 = 174, the last of
    # them 173.  log rho subtracts (n // 173**2) log 173 at the n >= 29929,
    # n = 30000 alone on this grid.  log sigma - log rho adds
    # (n // 172 - n // 173) log 173 at the n with isqrt(n) + 1 >= 173,
    # n >= 29584, where that is log 173; at n = 30000 the two cancel in
    # log sigma.  The quotient log split compares log sigma - log rho with
    # the rows' s1 + s2
    assert [v.split(" off")[0] for v in res.violations] == [
        *(f"n={n}: {what}" for n in (29600, 29700, 29800, 29900)
          for what in ("theta sum for sigma", "quotient log split")),
        "n=30000: theta sum for rho",
        "n=30000: quotient log split",
    ]


def test_theta_identities_check_lucy_rows_on_a_small_table(monkeypatch):
    # from LUCY_THRESHOLD on, eq14-16's points are the scan's Lucy rows, so
    # the table reaches the last point below it + 2, not nmax + 2
    t = PrimeTable()
    monkeypatch.setattr(primes, "_default_table", t)
    nmax = 2 * LUCY_THRESHOLD
    res = verify.check_theta_identities(nmax)
    assert res.passed and res.cases == 1000
    assert t.limit <= LUCY_THRESHOLD + 2
    # a Lucy row's theta(n // 2) raised by 100 is reported at every point
    # from LUCY_THRESHOLD on, and at no point below it
    real = theta._lucy

    def raised(m, t, q):
        pi, (at_small, at_v) = real(m, t, q)
        at_small[1] += 100
        return pi, (at_small, at_v)

    monkeypatch.setattr(theta, "_lucy", raised)
    res = verify.check_theta_identities(nmax, points=20)
    grid = [i * nmax // 20 for i in range(1, 21)]
    rho = [v.split(":")[0] for v in res.violations if "theta sum for rho" in v]
    assert res.cases == 20 and rho == [f"n={n}" for n in grid if n >= LUCY_THRESHOLD]
    assert all(int(v[2:].split(":")[0]) >= LUCY_THRESHOLD for v in res.violations)


def _exact_logs(nmax):
    """(log rho(n), log sigma(n)) for n = 0..nmax, each the float nearest the
    exact sum: the integer exponents n // p and n // (p - 1) times log p in
    fixed point, 2**-120 units from mpmath, divided once."""
    import mpmath

    ps = trial_primes(nmax + 1)
    with mpmath.workprec(200):
        fixed = {p: int(mpmath.floor(mpmath.log(p) * 2**120)) for p in ps}
    rho_sums = [sum(n // p * fixed[p] for p in ps if p <= n) for n in range(nmax + 1)]
    sigma_sums = [sum(n // (p - 1) * fixed[p] for p in ps if p <= n + 1) for n in range(nmax + 1)]
    return [(a / 2**120, b / 2**120) for a, b in zip(rho_sums, sigma_sums)]


def test_check_route_within_its_budget_of_exact_logs():
    # the fixed-point sums are below the exact ones by under 2**-120 per unit
    # of exponent, far below an ulp, so each reference is within an ulp
    ns = list(range(3001))
    rho_ref, sigma_ref = (np.array(v) for v in zip(*_exact_logs(3000)))
    t = PrimeTable()
    rhos, sigmas, _ = analytics._factorial_sums(ns, t, analytics._prime_powers(ns[-1], t))
    budget = analytics._factorial_budget(np.array(ns, dtype=np.float64))
    ulp = np.spacing(np.maximum(rho_ref, sigma_ref))
    assert np.all(np.abs(rhos - rho_ref) <= budget + ulp)
    assert np.all(np.abs(sigmas - sigma_ref) <= budget + ulp)
    assert rhos[0] == sigmas[0] == rhos[1] == 0.0 and sigmas[1] == math.log(2)
    # the budget is not vacuous: a few hundred ulps at n = 3000
    assert budget[-1] < 500 * ulp[-1]
    assert [log_rho(n, t) for n in ns] == rhos.tolist()
    assert [log_sigma(n, t) for n in ns] == sigmas.tolist()


def test_check_route_quotients_are_exact_on_both_sides_of_2_53():
    # _factorial_rho takes n // p**e as int64 quotients at every n: float64
    # floors equal them below 2**53 but from it on can be one too many, which
    # is why the route takes no float floors.  With the primes up to 5000
    # standing in for those up to sqrt(n) (it reads primes_up_to alone), its
    # value equals the same sum over the integer quotients, in the same order
    ps = np.array(trial_primes(5000), dtype=np.int64)
    fake = types.SimpleNamespace(primes_up_to=lambda x: ps)
    for n in [(1 << 52) + 1, 3 << 51, (1 << 53) - 5, (1 << 53) - 1, (1 << 53) + 3, (1 << 62) + 7]:
        powers = sorted((p**e, p) for p in ps.tolist() for e in range(2, 63) if p**e <= n)
        q = [n // pe for pe, _ in powers]
        floors = np.floor(np.float64(n) / np.array([pe for pe, _ in powers], dtype=np.float64))
        assert (floors.tolist() == q) == (n < 1 << 53), n
        logs = np.log(np.array([p for _, p in powers], dtype=np.float64))
        want = analytics._log_factorial(np.array([n]))[0] - np.add.reduce(np.array(q, float) * logs)
        assert analytics._factorial_rho([n], analytics._prime_powers(n, fake))[0] == want, n


def test_prime_powers_at_the_edges_of_each_exponent():
    # _prime_powers at tops where a power of 2, 3, 5 or 7 enters or has just
    # entered, against the sorted powers p**e <= top, e >= 2, of the primes
    # the table gives up to sqrt(top), here those up to 1000 standing in for
    # them above 10**6; the primes are read once
    ps = np.array(trial_primes(1000), dtype=np.int64)
    calls = []

    def primes_up_to(x):
        calls.append(x)
        return ps[: ps.searchsorted(x, side="right")]

    fake = types.SimpleNamespace(primes_up_to=primes_up_to)
    tops = [(1 << e) + d for e in range(63) for d in (-1, 0, 1) if (1 << e) + d < 1 << 63]
    tops += [p**e + d for p in (3, 5, 7) for e in range(40) for d in (-1, 1)
             if 0 <= p**e + d < 1 << 63]
    for top in [0] + tops:
        calls.clear()
        powers, logs = analytics._prime_powers(top, fake)
        own = primes_up_to(math.isqrt(top)).tolist()
        want = sorted((p**e, p) for p in own for e in range(2, 63) if p**e <= top)
        assert calls == [math.isqrt(top)] * 2, top
        assert powers.dtype == np.int64 and powers.tolist() == [v for v, _ in want], top
        logs_want = np.log(np.array([p for _, p in want], dtype=np.float64))
        assert logs.tolist() == logs_want.tolist(), top


def test_check_route_in_blocks_equals_one_n_at_a_time(monkeypatch):
    # the route reads the primes up to sqrt(n) + 1 alone, so past the table's
    # end the primality of n // k + 1 comes from _prime_flags, and on a table
    # grown past every n + 2 from its bitmap, to the same bit; at 300 cells,
    # blocks of many rows and rows wider than a block, each a block of its
    # own.  4093**2 is a prime power
    t = PrimeTable(math.isqrt(1 << 26) + 2)
    ns = list(range(0, 200)) + list(range((1 << 20) - 300, (1 << 20) + 300, 7))
    ns += [LUCY_THRESHOLD - 1, LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 4093**2 - 1, 4093**2, 1 << 26]

    def alone(table):
        sums = (analytics._factorial_sums([n], table, analytics._prime_powers(n, table)) for n in ns)
        return [tuple(float(v[0]) for v in row) for row in sums]

    one = alone(t)
    assert t.limit == math.isqrt(1 << 26) + 2  # the route grew no table
    assert alone(PrimeTable(LUCY_THRESHOLD + 2)) == one
    # the route over _checked's blocks, on t with the grid's one set of
    # prime powers, at the default budget with a block that straddles
    # LUCY_THRESHOLD, and at 300 cells; the cuts are taken on a table of
    # their own, which _checked grows
    ns = ns[1:]  # _checked's rows start at n = 1
    powers = analytics._prime_powers(ns[-1], t)
    for cells in (analytics._TABLE_BLOCK_CELLS, 300):
        monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", cells)
        blocks = _checked_blocks(ns, PrimeTable(), SCAN)[0]
        assert sum(blocks, []) == ns, cells
        got = []
        for block in blocks:
            rhos, sigmas, counts = analytics._factorial_sums(block, t, powers)
            assert analytics._factorial_rho(block, powers).tolist() == rhos.tolist(), cells
            got += zip(rhos.tolist(), sigmas.tolist(), counts.tolist())
        assert got == one[1:], cells
        sizes = [len(block) for block in blocks]
        if cells == 300:
            assert max(sizes) > 20 and sizes.count(1) > 5
        else:
            assert any(block[0] < LUCY_THRESHOLD <= block[-1] for block in blocks)
    assert t.limit == math.isqrt(1 << 26) + 2  # the blocks' route grew no table either


def test_check_route_does_not_depend_on_how_far_the_powers_reach():
    # _checked builds the prime powers once, at its grid's largest n: over
    # its blocks of the 1500-row window from 1102578 and of a grid across
    # 2^22 up to 2^26, the route on those powers equals, bit for bit, the
    # route on powers that reach the block's last n alone; and the one-n
    # log rho and log sigma, which build their own, keep their values
    window = list(range(1102578, 1102578 + 1500))
    across = [*range(LUCY_THRESHOLD - 3000, LUCY_THRESHOLD + 3000, 37), 1 << 26]
    for ns in (window, across):
        t = PrimeTable()
        blocks = _checked_blocks(ns, t, SCAN)[0]
        assert len(blocks) > 10
        top = analytics._prime_powers(ns[-1], t)
        for block in blocks:
            wide = analytics._factorial_sums(block, t, top)
            own = analytics._factorial_sums(block, t, analytics._prime_powers(block[-1], t))
            assert [v.tobytes() for v in wide] == [v.tobytes() for v in own], block[0]
    n = (1 << 30) + 12345
    assert log_rho(n, PrimeTable()).hex() == "0x1.30a112e39832fp+34"
    assert log_sigma(n, PrimeTable()).hex() == "0x1.3cb7174c229d1p+34"


def test_check_route_on_fresh_tables_equals_a_grown_table():
    # a fresh table grows to sqrt(n) + 1, or to 8 from its least size 4, so
    # nearly every v + 1 is tested by _prime_flags, with fewer than the 14
    # Miller-Rabin bases in ps below n = 43**2; a table grown to 3002 tests
    # each on its bitmap.  The powers are built beforehand, as _checked
    # builds them for its grid
    grown = PrimeTable(3002)
    for n in range(3001):
        fresh, powers = PrimeTable(), analytics._prime_powers(n, grown)
        got = tuple(float(v[0]) for v in analytics._factorial_sums([n], fresh, powers))
        assert fresh.limit <= max(8, math.isqrt(n) + 1), n
        assert got == tuple(float(v[0]) for v in analytics._factorial_sums([n], grown, powers)), n
        fresh = PrimeTable()  # log_sigma, which builds its own powers, grows it no further
        assert log_sigma(n, fresh) == got[1] and fresh.limit <= max(8, math.isqrt(n) + 1), n


def test_residual_rho_dyadic_sup(c_mid):
    # H(n), the sum of floor(n / p**i) log p over primes p and i >= 2, is
    # log n! - log rho(n), so residual_rho = (log n! - n log n + n) - (H(n) - c n);
    # |H(n) - c n| / sqrt(n) stays bounded over dyadic n up to 2^20
    ps = trial_primes(1 << 10)
    sup = 0.0
    for n in [1, 100] + [1 << j for j in range(4, 21)]:
        higher = 0.0
        for p in ps:
            q = p * p
            while q <= n:
                higher += (n // q) * math.log(p)
                q *= p
        assert math.lgamma(n + 1) - log_rho(n) == pytest.approx(higher, abs=1e-6 * n), n
        (rec,) = scan([n], c=c_mid)
        residual = math.lgamma(n + 1) - n * math.log(n) + n - rec.residual_rho
        assert residual == pytest.approx(higher - c_mid * n, abs=1e-6 * n), n
        if n >= 16 and n & (n - 1) == 0:
            sup = max(sup, abs(residual) / math.sqrt(n))
    assert math.isfinite(sup) and sup < 10
    print(f"sup over dyadic n <= 2^20 of |higher-power residual|/sqrt(n): {sup:.4f}")


def test_scan_single_record(c_mid):
    (rec,) = scan([100], c=c_mid)
    assert rec.card_A == 4
    assert rec.conj2_stat == pytest.approx(4 * math.log(100) / 10, abs=1e-12)
    assert rec.log_rho == pytest.approx(log_rho(100), abs=1e-9)
    (r1,) = scan([1], c=c_mid)
    assert r1.log_rho == 0.0


def test_scan_dense_matches_direct(c_mid):
    # a row depends on n alone: step:1, dyadic and per-n list grids agree
    # byte for byte, with the flags from the bitmap and from the sieved
    # window; the window from LUCY_THRESHOLD spans several blocks of rows
    wide = (LUCY_THRESHOLD, LUCY_THRESHOLD + 12)
    assert len(_checked_blocks(range(*wide), PrimeTable(), SCAN)[0]) > 1
    for start, stop in (
        (2, 400),
        ((1 << 20) - 40, (1 << 20) + 40),
        (LUCY_THRESHOLD - 20, LUCY_THRESHOLD + 20),
        wide,
    ):
        dense = {r.n: r.csv_row() for r in scan(parse_grid("step:1", start, stop), c=c_mid)}
        dyadic = scan(parse_grid("dyadic", start, stop), c=c_mid)
        assert dyadic and all(dense[r.n] == r.csv_row() for r in dyadic)
        for n in dense:
            (single,) = scan(parse_grid(f"list:{n}", 1, n), c=c_mid)
            assert single.csv_row() == dense[n]


# log rho of the scan's row at these n when rows from LUCY_THRESHOLD on were
# taken one at a time, each alone
_ONE_ROW_LOG_RHO = {
    LUCY_THRESHOLD: "0x1.afd3f939b97abp+25",
    (1 << 26) + 5: "0x1.04442e9842262p+30",
    (1 << 40) + 12345: "0x1.9f874268b2839p+44",
}


def test_scan_rows_in_blocks_equal_rows_alone(monkeypatch):
    # a scan row is the same, bit for bit, in a block of _checked of many
    # rows, at the default budget and at 300 cells, and as a block of one,
    # with the flags from the bitmap or from the sieved window; from
    # LUCY_THRESHOLD on its log rho is the one-row value
    ns = list(range(1, 3001)) + list(range((1 << 20) - 750, (1 << 20) + 750))
    for r in (2, 3, 10, 99, 1000, 2047):
        ns += [r * r - 1, r * r, r * r + r, r * r + 2 * r]
    ns = sorted(set(ns + [LUCY_THRESHOLD - 1]))
    t = PrimeTable(LUCY_THRESHOLD + 1)
    alone = [_scan_rows([n], t)[0] for n in ns]
    for cells in (analytics._TABLE_BLOCK_CELLS, 300):
        monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", cells)
        blocks, rows = _checked_blocks(ns, t, SCAN)
        assert max(map(len, blocks)) > 20 and len(blocks) > 100, cells
        assert rows == alone, cells
    monkeypatch.undo()
    heavy = [LUCY_THRESHOLD - 1, LUCY_THRESHOLD, LUCY_THRESHOLD + 1, (1 << 26) + 5, (1 << 40) + 12345]
    bitmap = PrimeTable(LUCY_THRESHOLD + 3)  # the bitmap reaches the first block's n + 2
    window = PrimeTable(math.isqrt(heavy[-1]) + 2)
    blocks, rows = _checked_blocks(heavy, window, SCAN)
    assert blocks == [heavy[:3], heavy[3:4], heavy[4:]]
    assert rows[:3] == list(_scan_rows(heavy[:3], bitmap))
    assert rows == [_scan_rows([n], window)[0] for n in heavy]
    assert rows[:3] == [_scan_rows([n], bitmap)[0] for n in heavy[:3]]
    assert {n: row[0].hex() for n, row in zip(heavy, rows) if n in _ONE_ROW_LOG_RHO} == _ONE_ROW_LOG_RHO


def test_scan_rows_within_their_share_of_exact_logs():
    # the scan row's log rho and log sigma within _factorial_budget(n), its
    # half of the scan's budget, of 120-bit sums: log n! (mpmath.loggamma)
    # less e_p log p over the primes p <= sqrt(n), e_p = v_p(n!) - n // p,
    # and plus log(n // k + 1) for each k = 1..n with n // k + 1 prime
    import mpmath

    ns = [5, 100, 3001, (1 << 20) + 7, 3 << 20, LUCY_THRESHOLD - 1]
    t = PrimeTable()
    rows = dict(zip(ns, _scan_rows(ns, t)))
    with mpmath.workprec(120):
        for n in ns:
            r, log = math.isqrt(n), mpmath.log
            rho = mpmath.loggamma(n + 1) - mpmath.fsum(
                (primes._vfact(n, p) - n // p) * log(p) for p in trial_primes(r)
            )
            small = (n // k + 1 for k in range(1, r + 1))
            large = range(1, n // (r + 1) + 1)  # v = n // k for k > r, n // v - n // (v + 1) times
            split = mpmath.fsum(log(x) for x in small if primes.is_probable_prime(x)) + mpmath.fsum(
                (n // v - n // (v + 1)) * log(v + 1) for v in large if primes.is_probable_prime(v + 1)
            )
            lr, ls, *_ = rows[n]
            bound = analytics._factorial_budget(float(n))
            assert abs(lr - rho) <= bound and abs(ls - (rho + split)) <= bound, n


# scan-sparse's first command: pairs of n in the dyadic blocks 2^16 to 2^20
# and 3 * 2^20, 21 rows whose sum of sqrt(n) is 1/200 of the largest n
_SPARSE = sorted(
    [3 << 20]
    + [(3 << (j - 1)) + d for j in range(16, 21) for d in (-(1 << (j - 3)), -5, 5, 1 << (j - 3))]
)


def test_analytics_reads_the_prime_table_through_its_public_reads():
    # the analytic layer reads a PrimeTable only through prime_mask,
    # primes_up_to, theta_many and pi (and limit, ensure, segment), never
    # through the table's private state
    import ast

    tree = ast.parse(open(analytics.__file__, encoding="utf-8").read())
    private = {"_derived", "_bitmap", "_arrays"}
    read = [(node.lineno, node.attr) for node in ast.walk(tree) if getattr(node, "attr", None) in private]
    assert read == []


def test_a_scan_below_the_threshold_derives_the_primes_to_sqrt_n_alone(c_mid):
    # _SPARSE reads too few cells to pay for a bitmap up to n + 2: _checked
    # grows the table to sqrt(max n) + 2 alone, its rows and their check read
    # their windows, and the primes up to sqrt(n) + 1, so the primes and the
    # theta prefix are derived below 2^13, and no row grows the table
    ns = _SPARSE
    t = PrimeTable()
    records = analytics.scan_records(ns, table=t, c=c_mid)
    assert t.limit == math.isqrt(ns[-1]) + 2
    assert list(records) == scan(ns, table=PrimeTable(LUCY_THRESHOLD), c=c_mid)
    reach, ps, prefix = t._arrays
    assert t.limit == math.isqrt(ns[-1]) + 2 and math.isqrt(ns[-1]) < reach < 1 << 13
    assert ps[-1] < 1 << 13 and len(ps) + 1 == len(prefix)


def test_the_table_rule_leaves_no_byte_to_the_flag_source(c_mid):
    # _SPARSE takes every flag from its windows on a fresh table.  The
    # 1500-row step:1 window from 1102578 carries its flags from n - 1, so
    # its first row alone pays a window and the table stays at
    # sqrt(max n) + 2.  The 1500-row step:2 window, whose rows all pay a
    # window and whose cells are 1.43 times its largest n, reads the bitmap
    # up to n + 2.  On a table grown to n + 2 beforehand all three read the
    # bitmap, and every row is the same
    step1 = range(1102578, 1102578 + 1500)
    step2 = range(1102578, 1102578 + 3000, 2)
    for ns, limit in (
        (_SPARSE, math.isqrt(_SPARSE[-1]) + 2),
        (step1, math.isqrt(step1[-1]) + 2),
        (step2, step2[-1] + 2),
    ):
        t = PrimeTable()
        assert scan(ns, table=t, c=c_mid) == scan(ns, table=PrimeTable(ns[-1] + 2), c=c_mid)
        assert t.limit == limit
    assert analytics._DENSE_GRID * sum(map(math.isqrt, _SPARSE)) < _SPARSE[-1]
    assert analytics._DENSE_GRID * math.isqrt(step1[0]) < step1[-1]
    assert sum(map(math.isqrt, step2)) >= step2[-1]


# md5 of the scan's CSV rows at c_mid, one csv_row and a newline each, as
# the code before carried flags wrote them, when every row read the bitmap
# or its own window: step:1 windows across the squares 1030**2 (1031 is
# prime) and 2^30 = 32768**2, over blocks near 2^20, across 2^22, at 2^30
# and at 2^36, and a list of runs of consecutive n with gaps between them,
# one of which crosses the n + 1 = 32770 where the table stops
_PINNED_ROWS = {
    range(1030**2 - 40, 1030**2 + 40): "6b7991803688a92b4370b5832a3f0105",
    range((1 << 30) - 10, (1 << 30) + 10): "5da62ef225af6b633dc43e27dc15f62f",
    range((1 << 20) + 12345, (1 << 20) + 12445): "87217e8ea203a92fa0f64dbe1c29b55c",
    range(LUCY_THRESHOLD - 20, LUCY_THRESHOLD + 21): "9636dd802fcbe446bd8ea2e303883b17",
    range((1 << 30) + 12345, (1 << 30) + 12365): "d69ba7f51ed9cbc3f5c44737afdddae1",
    range((1 << 36) + 12345, (1 << 36) + 12350): "0a32d1467743604fad6347a6d105bd51",
    (5000, 5001, 5002, 5004, 5005, 5008, *range(32765, 32776), 3 << 20, (3 << 20) + 1,
     (3 << 20) + 2, (1 << 24) + 1, (1 << 24) + 2, (1 << 24) + 4, (1 << 24) + 5, (1 << 24) + 6,
     (1 << 30) + 1, (1 << 30) + 2, (1 << 30) + 3): "34fc4ddad690285286078c721315fe1a",
}


def _md5_rows(records):
    import hashlib

    return hashlib.md5("".join(rec.csv_row() + "\n" for rec in records).encode()).hexdigest()


def _spy_windows(monkeypatch):
    """{name: [(n, t.limit), ...]} of each call to the row's and the check
    route's windows, _quotient_flags and _route_flags, in call order."""
    windows = {"_quotient_flags": [], "_route_flags": []}
    for name, seen in windows.items():
        real = getattr(analytics, name)

        def spy(n, xs, t, real=real, seen=seen):
            seen.append((n, t.limit))
            return real(n, xs, t)

        monkeypatch.setattr(analytics, name, spy)
    return windows


@pytest.mark.parametrize("cells", [None, 300])
@pytest.mark.parametrize("grid", list(_PINNED_ROWS), ids=lambda g: f"{g[0]}-{g[-1]}")
def test_carried_rows_equal_each_n_alone_and_the_pinned_bytes(grid, cells, c_mid, monkeypatch):
    # a row that follows n - 1 carries its flags, and the check route its
    # own, across _checked's blocks (300 cells: one row a block); the table
    # stays at sqrt(max n) + 2, and only the first row of a run of
    # consecutive n takes a window, the row's and the route's, each past
    # the table.  Every row equals the row of its n alone and the pinned
    # bytes
    alone = [scan([n], table=PrimeTable(), c=c_mid)[0] for n in grid]
    starts = [n for i, n in enumerate(grid) if i == 0 or grid[i - 1] != n - 1]
    windows = _spy_windows(monkeypatch)
    if cells:
        monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", cells)
    t = PrimeTable()
    rows = scan(grid, table=t, c=c_mid)
    assert rows == alone
    assert _md5_rows(rows) == _PINNED_ROWS[grid]
    assert t.limit == math.isqrt(grid[-1]) + 2
    past = {n for n in starts if n + 1 > t.limit}
    for seen in windows.values():
        seen = [n for n, _ in seen]
        assert past <= set(seen) <= set(starts) and len(seen) == len(set(seen))


def _md5_values(rows):
    """md5 of the repr of each row's values, one row a line."""
    import hashlib

    return hashlib.md5("".join(repr(tuple(row)) + "\n" for row in rows).encode()).hexdigest()


def test_theta_rows_across_the_table_end_take_windows_past_it_alone(monkeypatch):
    # verify eq14-16 at nmax 4196306 on 8 points is one block of theta rows
    # whose last n alone is past 2^22: the table reaches the n + 2 before
    # it, and the last row's one cell past it, x = n + 1, is tested on its
    # own.  No row that the table reaches takes a window, and every row
    # equals the row of its n alone and the pinned bytes
    rows, real = [], analytics._rows

    def recorded(*args):
        rows.extend(real(*args))
        return rows[-len(args[0]) :]

    monkeypatch.setattr(analytics, "_rows", recorded)
    monkeypatch.setattr(primes, "_default_table", PrimeTable())
    windows = _spy_windows(monkeypatch)
    res = verify.check_theta_identities(4196306, points=8)
    assert res.passed and res.cases == 8
    assert [n for n, limit in windows["_quotient_flags"]] == [4196306]
    assert all(n + 1 > limit for seen in windows.values() for n, limit in seen)
    monkeypatch.undo()
    grid = [i * 4196306 // 8 for i in range(1, 9)]
    assert grid[-2] < LUCY_THRESHOLD <= grid[-1]
    assert rows == [row for n in grid for row in _theta_rows([n], PrimeTable())]
    assert _md5_values(rows) == "491bb5f81494d97d7a1b3978d9918bde"


def test_scan_rows_across_the_table_end_take_windows_past_it_alone(c_mid):
    # scan rows of one block, runs of consecutive n and gaps, on a table
    # that ends inside the block: the rows it reaches read the bitmap, and
    # only the rows past it that follow no n - 1 take windows, the row's
    # and the check route's.  Every row equals the row of its n alone and
    # the pinned bytes
    end = 1_000_006
    grid = [end - 9, end - 7, end - 6, end - 5, end - 3, end - 1, end, end + 1, end + 3, end + 4, end + 6]
    t = PrimeTable(end)
    assert len(list(analytics._blocks(n // (math.isqrt(n) + 1) + 1 for n in grid))) == 1
    with pytest.MonkeyPatch.context() as mp:
        windows = _spy_windows(mp)
        rows = scan(grid, table=t, c=c_mid)
    assert t.limit == end
    for seen in windows.values():
        assert seen == [(end + 3, end), (end + 6, end)]
    assert rows == [scan([n], table=PrimeTable(), c=c_mid)[0] for n in grid]
    assert _md5_rows(rows) == "c7ab352c0a7279716f6de0cb8b4ab350"


# carry mutants near 2^36, each failing on card_A alone: m = 1024 p with p
# prime and every 2**j p + 1, j = 1..9, composite, so that of the k <= sqrt(m)
# that divide m only k = 1024 has m // k + 1 = p + 1 and (m - 1) // k + 1 = p
# of unlike primality; R + 1 prime, so that the new cell k = R at R**2
# holds the prime R + 1 where the cell before it held R.  The one wrong
# flag's log, under 19, is inside log sigma's bound of about 24 there and
# the split's 1e-6 n
_CARRY_P, _CARRY_R = 67108919, 262146
_CARRY_M = 1024 * _CARRY_P


def _skip_1024(real):
    """real's change detection, blind to k = 1024."""

    def steps(ns, before, arg):
        fresh, out = real(ns, before, arg)
        if out is not None:
            out[:, 1023] = False
        return fresh, out

    return steps


def _no_new_cell(real):
    """real's change detection, blind to the new k = isqrt(n) at a square n."""

    def steps(ns, before, arg):
        fresh, out = real(ns, before, arg)
        for i, n in enumerate(ns):
            r = math.isqrt(n)
            if r * r == n and out is not None:
                out[i, r - 1] = False
        return fresh, out

    return steps


def _row_steps_over_gaps_of_2(ns, before, q):
    """The row's change detection, carrying a row across a gap of 2."""
    nb = np.array(ns, dtype=np.int64)
    return np.diff(nb, prepend=before) > 2, q * np.arange(1, q.shape[1] + 1) == nb[:, None]


def _route_steps_over_gaps_of_2(ns, before, x):
    """The check route's change detection, carrying a row across a gap of 2."""
    nb = np.array(ns, dtype=np.int64)
    return np.diff(nb, prepend=before) > 2, nb[:, None] - (x - 1) * np.arange(1, x.shape[1] + 1) == 0


@pytest.mark.parametrize(
    "name, gap", [("_row_steps", _row_steps_over_gaps_of_2), ("_route_steps", _route_steps_over_gaps_of_2)]
)
def test_a_broken_carry_fails_on_card_A(name, gap, monkeypatch, c_mid):
    # in the row's carry and in the check route's: a k that divides n
    # skipped, the new cell where isqrt steps dropped, and a row carried
    # across a gap of 2 each make scan fail on card_A; the true code passes
    p, r, m = _CARRY_P, _CARRY_R, _CARRY_M
    assert primes.is_probable_prime(p) and primes.is_probable_prime(r + 1)
    assert not any(primes.is_probable_prime((p << j) + 1) for j in range(1, 10))
    real = getattr(analytics, name)
    for mutant, grid, n in (
        (_skip_1024(real), range(m - 2, m + 3), m),
        (_no_new_cell(real), range(r * r - 2, r * r + 3), r * r),
        (gap, [m - 1, m + 1], m + 1),
    ):
        assert scan(grid, table=PrimeTable(), c=c_mid) == [scan([k], c=c_mid)[0] for k in grid]
        monkeypatch.setattr(analytics, name, mutant)
        error = f"card_A disagrees with the check route's count of prime quotients at n={n}"
        with pytest.raises(ArithmeticError, match=error):
            scan(grid, table=PrimeTable(), c=c_mid)
        monkeypatch.undo()


@pytest.fixture(scope="module")
def table_2_26():
    return PrimeTable((1 << 26) + 2)


def _quotients(n):
    """(q, small, large, mult): q = n // k for k = 1..top + 1, where r = isqrt(n)
    and top = n // (r + 1); the small quotients q[:r]; the large ones
    v = 1..top; and mult = n // v - n // (v + 1) at those."""
    r = math.isqrt(n)
    top = n // (r + 1)
    q = n // np.arange(1, top + 2, dtype=np.int64)
    return q, q[:r], np.arange(1, top + 1, dtype=np.int64), q[:top] - q[1:]


def _quotient_sum(mult, at_small, at_large):
    """Sum over k = 1..n of g(n // k), from g at the small and at the large quotients."""
    return float(np.add.reduce(at_small) + np.add.reduce(mult * at_large))


def _row_budget(n):
    """theta._row_budget at n, with the updates of _lucy at n."""
    return theta._row_budget(n, len(default_table().primes_up_to(math.isqrt(n))))


def _lucy_at(n):
    """(quotients, S0, S1) of _lucy at n, small quotients then large."""
    q, small, large, _ = _quotients(n)
    (pi_small, pi_v), (th_small, th_v) = theta._lucy(n, PrimeTable(math.isqrt(n) + 2), q)
    return (
        np.concatenate((small, large)),
        np.concatenate((pi_small, pi_v[1:])),
        np.concatenate((th_small, th_v[1:])),
    )


def _check_lucy(n, table):
    """_lucy at n against the table at every quotient it reaches: S0 equal to
    pi, S1 within the budget of theta.  Returns _lucy_at(n)."""
    vs, s0, s1 = at = _lucy_at(n)
    seen = vs <= table.limit
    pi = np.searchsorted(table.primes_up_to(table.limit), vs[seen], side="right")
    assert np.array_equal(s0[seen], pi), n
    updates = len(table.primes_up_to(math.isqrt(n)))
    budget = theta._s1_budget(vs[seen], updates)
    assert np.all(np.abs(s1[seen] - table.theta_many(vs[seen])) <= budget), n
    return at


# p**3 - 1 puts the prime p in _lucy's batch, p**3 and p**3 + 1 in its
# per-prime loop; 331**3 < 2^26 < 1621**3
CUBE_NS = [p**3 + d for p in (331, 1621) for d in (-1, 0, 1)]


def test_lucy_pi_and_theta_match_the_table(table_2_26, monkeypatch):
    ns = list(range(1, 300)) + [LUCY_THRESHOLD - 1, LUCY_THRESHOLD + 1, 1 << 26] + CUBE_NS
    for r in (2048, 3001, 8191):  # 2048**2 is the threshold
        ns += [r * r, r * r - 1, r * (r + 1), r * (r + 1) - 1]
    assert primes.iroot(331**3 - 1, 3) == 330 and primes.iroot(331**3, 3) == 331
    checked = {n: _check_lucy(n, table_2_26) for n in ns}
    past = {n: at for n, at in checked.items() if n > table_2_26.limit}
    assert len(past) == 3
    # past the table's reach, against the per-prime loop over every prime
    # <= sqrt(n), that is the sieve with no batch: S0 equal, S1 within twice
    # the budget (each within the budget of theta)
    monkeypatch.setattr(primes, "iroot", lambda n, k: math.isqrt(n))
    for n, (vs, s0, s1) in past.items():
        _, ref0, ref1 = _lucy_at(n)
        assert np.array_equal(s0, ref0), n
        updates = len(table_2_26.primes_up_to(math.isqrt(n)))
        assert np.all(np.abs(s1 - ref1) <= 2 * theta._s1_budget(vs, updates)), n


def test_lucy_batch_in_many_chunks(table_2_26, monkeypatch):
    monkeypatch.setattr(theta, "_LUCY_BATCH_CELLS", 300)
    for n in [n for n in CUBE_NS if n <= table_2_26.limit] + [LUCY_THRESHOLD + 1, 1 << 26]:
        big = table_2_26.primes_up_to(math.isqrt(n))
        big = big[big > primes.iroot(n, 3)]
        assert np.sum(n // (big * big)) > 10 * 300  # the batch spans many chunks
        _check_lucy(n, table_2_26)


def test_lucy_rows_match_the_table_route(table_2_26, c_mid, monkeypatch):
    ns = [LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 3001 * 3002, 8191**2 - 1, 1 << 26]
    t = PrimeTable(1 << 12)
    recs = list(analytics._records(analytics._checked(ns, t, THETA), c_mid))
    assert t.limit < 1 << 14  # Lucy rows need the table only to sqrt(n) + 2
    # the table route at the same n: theta from the prefix up to 2^26 + 2
    monkeypatch.setattr(analytics, "LUCY_THRESHOLD", table_2_26.limit)
    table_rows = list(_theta_rows(ns, table_2_26))
    for rec, (lr, ls, card, s1, s2) in zip(recs, table_rows):
        n = rec.n
        assert rec.card_A == card
        assert (rec.s1 + rec.s2, rec.s1, rec.s2) == (s1 + s2, s1, s2)
        # each route within the budget of theta, so the two within twice it;
        # both take log sigma as log rho + the same s1 + s2
        assert abs(rec.log_rho - lr) <= 2 * _row_budget(n)
        assert abs(rec.log_sigma - ls) <= 2 * _row_budget(n)


def test_one_n_functions_take_the_scan_route():
    # from LUCY_THRESHOLD on, s_split and quotient_prime_count are the scan
    # row's fields bit for bit, theta_sum_rho and theta_sum_sigma the Lucy
    # row's, and each grows a fresh table only to sqrt(n) + 2
    for n in (LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 1 << 27):
        (rec,) = scan([n], table=PrimeTable(), c=0.0)
        lr, ls, *_ = _theta_rows([n], PrimeTable())[0]
        for f, want in (
            (theta_sum_rho, lr),
            (theta_sum_sigma, ls),
            (s_split, (rec.s1 + rec.s2, rec.s1, rec.s2)),
            (quotient_prime_count, rec.card_A),
        ):
            t = PrimeTable()
            assert f(n, t) == want, (f.__name__, n)
            assert t.limit <= math.isqrt(n) + 2, (f.__name__, n)


def _lucy_checked_rows(n, t):
    """(log rho, log sigma) of the scan row at n, and of the check route, and
    the bounds the two must meet: _theta_budget's two columns."""
    lr, ls, *_ = _theta_rows([n], t)[0]
    powers = analytics._prime_powers(n, t)
    rho, sigma, _ = (float(v[0]) for v in analytics._factorial_sums([n], t, powers))
    bounds = theta._theta_budget([n], np.array([lr]), np.array([ls]), t)[0].tolist()
    return (lr, ls), (rho, sigma), bounds


def test_check_route_against_lucy_rows():
    # the route's primality of n // k + 1 past the table's end is _prime_flags,
    # the row's a sieved window and _prime_flags above it, both exact, so the
    # two differ by the rounding alone; a few ulps of the values, against
    # budgets a thousand times wider and more
    for n in [1 << 24, (1 << 30) + 12345, *CUBE_NS, 1 << 34]:
        t = PrimeTable(math.isqrt(n) + 2)
        rows, route, bounds = _lucy_checked_rows(n, t)
        for got, want, bound in zip(rows, route, bounds):
            assert abs(got - want) <= bound, n
            assert abs(got - want) <= 8 * math.ulp(want) < bound / 1000, n


_MUTANT_N = (1 << 30) + 12345  # a Lucy row whose budget is a few units


def _scan_raises(n, table=None):
    with pytest.raises(ArithmeticError, match=f"Legendre's formula at n={n}"):
        scan([n], table=table, c=0.0)


def _theta_sums_fail(n, scanned):
    """From LUCY_THRESHOLD on only the theta-sum rows run Lucy's sieve: with
    _lucy mutated, verify eq14-16 at n alone reports its theta sum for rho
    and theta_sum_rho and theta_sum_sigma raise on it, while the scan's row
    at n is still the record scanned before the mutation."""
    res = verify.check_theta_identities(n, points=1)
    assert [v.split(" off")[0] for v in res.violations][:1] == [f"n={n}: theta sum for rho"]
    for f in (theta_sum_rho, theta_sum_sigma):
        with pytest.raises(ArithmeticError, match=f"log rho disagrees with Legendre's formula at n={n}"):
            f(n)
    assert scan([n], c=0.0) == scanned


def test_scan_catches_theta_raised_at_one_quotient(monkeypatch):
    # theta(n // 2) + 100: the in-row check reads only the v <= sqrt(n) + 1
    real = theta._lucy

    def lucy(n, t, q):
        pi, (at_small, at_v) = real(n, t, q)
        at_small[1] += 100
        return pi, (at_small, at_v)

    scanned = scan([_MUTANT_N], c=0.0)
    lr, ls = theta_sum_rho(_MUTANT_N), theta_sum_sigma(_MUTANT_N)
    budget = theta._theta_budget([_MUTANT_N], np.array([lr]), np.array([ls]), default_table())
    assert float(budget[0, 0]) < 10
    monkeypatch.setattr(theta, "_lucy", lucy)
    _theta_sums_fail(_MUTANT_N, scanned)


def test_scan_catches_a_dropped_phase2_chunk(monkeypatch):
    # the first chunk of _lucy's batch, both of its bincount sums, left out
    # of every Lucy row
    real_lucy, real = theta._lucy, np.bincount
    calls, most = [], []

    def lucy(n, t, q):
        calls.clear()
        try:
            return real_lucy(n, t, q)
        finally:
            most.append(len(calls))

    def bincount(k, weights):
        calls.append(k)
        out = real(k, weights=weights)
        return out * 0 if len(calls) <= 2 else out

    scanned = scan([_MUTANT_N], c=0.0)
    monkeypatch.setattr(theta, "_lucy", lucy)
    monkeypatch.setattr(np, "bincount", bincount)
    _theta_sums_fail(_MUTANT_N, scanned)
    assert len(most) == 3 and min(most) > 2


def test_scan_catches_a_dropped_phase1_prime(monkeypatch):
    # a prime p with n**(1/4) < p <= n**(1/3) left out of _lucy's primes: it
    # changes S only at the v >= p**2 > sqrt(n) + 1, past the in-row check
    real = theta._lucy
    p = 331
    assert math.isqrt(math.isqrt(_MUTANT_N)) < p <= primes.iroot(_MUTANT_N, 3)

    class Without:
        def __init__(self, t):
            self.t = t

        def primes_up_to(self, x):
            ps = self.t.primes_up_to(x)
            return ps[ps != p] if x == math.isqrt(_MUTANT_N) else ps

        def __getattr__(self, name):
            return getattr(self.t, name)

    scanned = scan([_MUTANT_N], c=0.0)
    monkeypatch.setattr(theta, "_lucy", lambda n, t, q: real(n, Without(t), q))
    _theta_sums_fail(_MUTANT_N, scanned)


def _scan_fails_on_log_rho(capsys, n):
    assert cli.main(["scan", "--grid", f"list:{n}", "--nmax", str(n)]) == 1
    assert capsys.readouterr().err == f"error: log rho disagrees with Legendre's formula at n={n}\n"


def test_scan_catches_a_prime_power_dropped_from_the_check_route(monkeypatch, capsys):
    # 4 = 2**2 left out of the check route's prime powers: its log rho is
    # (n // 4) log 2 too large, while the scan's row takes 2's exponent
    # from _exponents
    real = analytics._prime_powers

    def without_four(top, t):
        powers, logs = real(top, t)
        return powers[powers != 4], logs[powers != 4]

    monkeypatch.setattr(analytics, "_prime_powers", without_four)
    _scan_fails_on_log_rho(capsys, _MUTANT_N)


def test_scan_catches_exponents_cut_after_the_squares(monkeypatch, capsys):
    # the row's loop over e stopped after e = 2: every e_p of a p <= cbrt(n)
    # too small, and log rho too large by the sum of n // p**e log p, e >= 3
    monkeypatch.setattr(analytics, "_exponents", lambda nb, ps: nb // ps // ps)
    _scan_fails_on_log_rho(capsys, _MUTANT_N)


def test_scan_catches_the_theta_prefix_raised_by_one(monkeypatch):
    # on a theta-sum table row near 2^20, theta + 1 at n // 2 alone: the
    # table's prefix sum at pi(n // 2), which no other quotient of n reads.
    # verify eq14-16 and theta_sum_rho fail on it; the scan's row reads no
    # theta and stays as it was
    n = (1 << 20) + 12345
    t = PrimeTable(n + 2)
    ps, prefix = t._derived(t.limit)
    i = int(ps.searchsorted(n // 2, side="right"))
    assert n // 3 < ps[i - 1] <= n // 2 < ps[i] <= n
    scanned = scan([n], table=t, c=0.0)
    lr, ls = theta_sum_rho(n, t), theta_sum_sigma(n, t)
    assert float(theta._theta_budget([n], np.array([lr]), np.array([ls]), t)[0, 0]) < 0.01
    prefix = prefix.copy()
    prefix[i] += 1
    t._arrays = t.limit, ps, prefix
    monkeypatch.setattr(primes, "_default_table", t)
    res = verify.check_theta_identities(n, points=1)
    assert [v.split(" off")[0] for v in res.violations][:1] == [f"n={n}: theta sum for rho"]
    with pytest.raises(ArithmeticError, match=f"log rho disagrees with Legendre's formula at n={n}"):
        theta_sum_rho(n, t)
    assert scan([n], table=t, c=0.0) == scanned


def _last_composite_k(n):
    """The largest k <= sqrt(n) with n // k + 1 composite."""
    return next(k for k in range(math.isqrt(n), 0, -1) if not primes.is_probable_prime(n // k + 1))


def _flagged_row_fails(capsys, n, *more):
    """scan, verify eq14-16 at n alone and theta_sum_sigma on the row at n,
    one of whose composite n // k + 1 is flagged prime: each fails on log
    sigma, and the verify reports the violations more after it, then the
    quotient prime count."""
    error = f"log sigma disagrees with Legendre's formula at n={n}"
    assert cli.main(["scan", "--grid", f"list:{n}", "--nmax", str(n)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    res = verify.check_theta_identities(n, points=1)
    assert [v.split(" off")[0] for v in res.violations] == [
        f"n={n}: theta sum for sigma", *more, f"n={n}: quotient prime count"
    ]
    with pytest.raises(ArithmeticError, match=error):
        theta_sum_sigma(n)


def _flag_one_past_the_table(real, n, flagged):
    """real, the row's _quotient_flags, with one composite flagged prime at
    n: the x = n // k + 1 of the largest k whose x is past the table and
    composite, the cell one past the table, which the row reads from its
    window.  Each x so flagged is appended to flagged."""

    def flags(m, small, t):
        out = real(m, small, t)
        if m == n:
            xs = (small + 1).tolist()
            k = next(k for k in range(len(xs), 0, -1) if not primes.is_probable_prime(xs[k - 1]))
            assert xs[k - 1] > t.limit
            out[k - 1] = True
            flagged.append(xs[k - 1])
        return out

    return flags


def test_a_composite_flagged_prime_in_a_row_fails_on_log_sigma(monkeypatch, capsys):
    # one composite n // k + 1 flagged prime in a row's assembly, not in the
    # table: log sigma and s1 gain the same log and card_A one, so only the
    # check route's own flags see it.  First in the flags that
    # _prime_quotients reads, on the scan's row and the table row near 2^20,
    # then from _quotient_flags, one past the table, on the scan's and the
    # Lucy row at _MUTANT_N
    n = (1 << 20) + 12345
    k = _last_composite_k(n)
    real_quotients = analytics._prime_quotients

    def quotients(ns, q, prime_q, mask):
        if n in ns:
            prime_q = prime_q.copy()
            prime_q[list(ns).index(n), k - 1] = True
        return real_quotients(ns, q, prime_q, mask)

    monkeypatch.setattr(analytics, "_prime_quotients", quotients)
    # the split's 1e-6 n, about 1.05 here, sees the log too; at 2^30 it does not
    _flagged_row_fails(capsys, n, f"n={n}: quotient log split")
    monkeypatch.undo()
    flagged = []
    flags = _flag_one_past_the_table(analytics._quotient_flags, _MUTANT_N, flagged)
    monkeypatch.setattr(analytics, "_quotient_flags", flags)
    _flagged_row_fails(capsys, _MUTANT_N)
    assert len(flagged) == 3  # the scan, the verify and theta_sum_sigma each flagged one


def test_a_composite_flagged_prime_fails_on_card_A_where_the_logs_pass(monkeypatch, capsys):
    # at 2^36 + 12345 the composite n // 2^18 + 1 = 262145 = 5 * 52429 is
    # on a table up to r + 2, which reads it; one past the table the
    # composite flagged prime in the row's window, 262148 on that table,
    # adds about 12.5 to log sigma and s1 alike, inside log sigma's bound of
    # 24 and the split's 1e-6 n, as any x below e^24 does; only card_A
    # against the check route's exact count sees it
    n = (1 << 36) + 12345
    k = math.isqrt(n)
    assert n // k + 1 == 262145 == 5 * 52429 <= k + 2
    bound = analytics._legendre_budget([n], np.zeros(1), np.zeros(1), PrimeTable(k + 2))[0, 1]
    assert math.log(262145) < bound
    flagged = []
    flags = _flag_one_past_the_table(analytics._quotient_flags, n, flagged)
    monkeypatch.setattr(analytics, "_quotient_flags", flags)
    error = f"card_A disagrees with the check route's count of prime quotients at n={n}"
    assert cli.main(["scan", "--grid", f"list:{n}", "--nmax", str(n)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    with pytest.raises(ArithmeticError, match=error):
        quotient_prime_count(n, PrimeTable())
    assert len(flagged) == 2 and flagged[1] == 262148
    assert all(math.log(x) < bound for x in flagged)


def test_a_composite_flagged_prime_in_the_route_fails_on_card_A(monkeypatch, capsys):
    # the pattern above, with the flag set in the check route: one composite
    # n // k + 1 at 2^36 + 12345, past the scan's table up to r + 2, is
    # flagged prime in its window, then one above it, by its Miller-Rabin; the
    # log each adds to the route's log sigma, about 12.5 and 14.7, is inside
    # its bound of 24 and the split's 1e-6 n, so only card_A sees it
    n = (1 << 36) + 12345
    r = math.isqrt(n)
    end = n // r + 1 + analytics._WINDOW_ROOTS * r
    bound = analytics._legendre_budget([n], np.zeros(1), np.zeros(1), PrimeTable(r + 2))[0, 1]
    inner = next(k for k in range(r, 0, -1) if n // k + 1 > r + 2 and not primes.is_probable_prime(n // k + 1))
    x = n // inner + 1
    assert x <= end and math.log(x) < bound
    real_flags = analytics._route_flags

    def flags(m, xs, t):
        out = real_flags(m, xs, t)
        out[inner - 1] |= m == n
        return out

    error = f"card_A disagrees with the check route's count of prime quotients at n={n}"
    monkeypatch.setattr(primes, "_default_table", PrimeTable())  # the scan's table up to r + 2
    monkeypatch.setattr(analytics, "_route_flags", flags)
    assert cli.main(["scan", "--grid", f"list:{n}", "--nmax", str(n)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    monkeypatch.undo()
    # above the window: the largest k whose composite x has no factor that
    # trial division finds, so that it reaches _strong_probable_prime
    small = primes.default_table().primes_up_to(r)[: analytics._PREFILTER_PRIMES].tolist()
    outer = next(
        k
        for k in range(n // end, 0, -1)
        if not primes.is_probable_prime(n // k + 1) and all((n // k + 1) % p for p in small)
    )
    x = n // outer + 1
    assert x > end and math.log(x) < bound
    real_test = analytics._strong_probable_prime
    monkeypatch.setattr(primes, "_default_table", PrimeTable())
    monkeypatch.setattr(
        analytics, "_strong_probable_prime", lambda y, bases: y == x or real_test(y, bases)
    )
    assert cli.main(["scan", "--grid", f"list:{n}", "--nmax", str(n)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    with pytest.raises(ArithmeticError, match=error):
        quotient_prime_count(n, PrimeTable())


def test_check_route_counts_the_prime_quotients_exactly():
    # card_A of the check route, the k <= sqrt(n) with n // k + 1 prime,
    # against is_probable_prime at each: n < r (r + 1) makes k = r give
    # r + 1, which the route's log sum leaves to the primes p <= r + 1 but
    # its count takes
    ns = [*range(3001), *range(LUCY_THRESHOLD - 3, LUCY_THRESHOLD + 3), 4093**2 - 1, 4093**2]
    t = PrimeTable()
    _, _, counts = analytics._factorial_sums(ns, t, analytics._prime_powers(ns[-1], t))
    want = [
        sum(primes.is_probable_prime(n // k + 1) for k in range(1, math.isqrt(n) + 1)) for n in ns
    ]
    assert counts.tolist() == want
    assert [rec.card_A for rec in scan(ns[1:], c=0.0)] == want[1:]


def test_theta_budgets_stay_within_the_verify_tolerance():
    # both budgets at most eq14-16's 1e-6 max(1, n), with the row's sum taken
    # as n log(n + 1) + 2 n, above log sigma(n) <= log n! + psi(n + 1)
    # (Prop 3); a Lucy row's sum passes the tolerance from about 2^45 on, so
    # at 2^48 the budget is the tolerance itself.  A scan row's budget, twice
    # _factorial_budget at every n, grows as n**1.5: a fiftieth of the
    # tolerance at 2^48, and the tolerance itself only from about 2^59; at
    # 2^20 it is under a hundredth of the table row's theta budget
    t = PrimeTable()
    for n in (1, 1 << 20, LUCY_THRESHOLD - 1, LUCY_THRESHOLD, _MUTANT_N, 1 << 40, 1 << 44, 1 << 48):
        tol, sums = 1e-6 * max(1, n), np.array([n * math.log(n + 1) + 2 * n])
        theta_row = theta._theta_budget([n], sums, sums, t)[0]
        assert np.all(0 < theta_row) and np.all(theta_row <= tol), n
        assert np.all((theta_row == tol) == (n == 1 << 48)), n
        scan_row = analytics._legendre_budget([n], sums, sums, t)[0]
        assert np.all(scan_row == 2 * analytics._factorial_budget(float(n))), n
        assert np.all(0 < scan_row) and np.all(scan_row < tol / 40), n
        if n == 1 << 20:
            assert np.all(scan_row < theta_row / 100), n


def test_every_row_takes_log_sigma_as_log_rho_plus_the_split(table_2_26):
    # one formula for log sigma, bit for bit as floats: table rows and the
    # scan's rows in blocks and alone, and Lucy rows through theta_sum_sigma and
    # through _checked, which hands its rows to scan, the one-n functions and
    # verify eq14-16
    def off(rows):
        return [row for row in rows if row[1] != row[0] + (row[3] + row[4])]

    ns = [*range(1, 2001), *range((1 << 20) - 300, (1 << 20) + 300), LUCY_THRESHOLD - 1]
    for kind in (THETA, SCAN):
        blocks, rows = _checked_blocks(ns, table_2_26, kind)
        assert len(blocks) > 1 and off(rows) == [], kind.table
    for route in (_theta_rows, _scan_rows):
        for n in (1, 5, 100, 3001, (1 << 20) + 7, LUCY_THRESHOLD - 1):
            assert off(route([n], table_2_26)) == [], (route, n)
    heavy = [LUCY_THRESHOLD, LUCY_THRESHOLD + 12345, (1 << 26) + 5, _MUTANT_N]
    t = PrimeTable()
    assert off(_scan_rows(heavy, t)) == []
    for n in heavy:
        _, s1, s2 = s_split(n, t)  # the scan row's split, which the Lucy row shares
        assert theta_sum_sigma(n, t) == theta_sum_rho(n, t) + (s1 + s2), n
    grid = ns[::40] + heavy
    for kind in (SCAN, THETA):
        blocks, rows = _checked_blocks(grid, t, kind)
        assert sum(blocks, []) == grid and off(rows) == [], kind.table


def _exact_log_sigma(n, t):
    """log sigma(n), the sum over primes p <= n + 1 of (n // (p - 1)) log p,
    by math.fsum of the float products, a run of primes at a time: within
    5 units of 2**-52 log sigma(n), np.log being within 4 ulps and each
    product within half of one.  The primes past t's end are tested one by
    one."""
    tail = [p for p in range(t.limit + 1, n + 2) if primes.is_probable_prime(p)]
    ps = np.concatenate((t.primes_up_to(min(n + 1, t.limit)), np.array(tail, dtype=np.int64)))
    runs = (ps[a : a + (1 << 18)] for a in range(0, len(ps), 1 << 18))
    return math.fsum(math.fsum(n // (run - 1) * np.log(run)) for run in runs)


def test_row_log_sigma_within_its_budget_of_the_exact_value(table_2_26):
    # the theta-sum row's log sigma, log rho + (s1 + s2), within _theta_budget's
    # sigma column of the exact value, on table rows and on Lucy rows; and within
    # the row's own share of it, the column less the check route's
    # _factorial_budget, allowing the reference its 5 units.  Below 13 the
    # share leans on the theta term's slack at k = n (_theta_budget): every
    # table row up to 200 against the fixed-point sums of _exact_logs
    u = 2.0**-52
    for n, (_, want) in zip(range(1, 201), _exact_logs(200)[1:]):
        lr, ls, *_ = _theta_rows([n], table_2_26)[0]
        bound = theta._theta_budget([n], np.array([lr]), np.array([ls]), table_2_26)
        share = bound[0, 1] - analytics._factorial_budget(float(n))
        assert abs(ls - want) <= share + math.ulp(want), n
    t = PrimeTable()
    for n, lucy in (
        *((n, False) for n in (5, 100, 3001, (1 << 20) + 7, LUCY_THRESHOLD - 1)),
        *((n, True) for n in (LUCY_THRESHOLD, LUCY_THRESHOLD + 12345, (1 << 26) + 5)),
    ):
        if lucy:
            lr, ls = theta_sum_rho(n, t), theta_sum_sigma(n, t)
        else:
            lr, ls, *_ = _theta_rows([n], table_2_26)[0]
        bound = theta._theta_budget([n], np.array([lr]), np.array([ls]), t)[0, 1]
        exact = _exact_log_sigma(n, table_2_26)
        assert abs(ls - exact) <= bound, n
        assert abs(ls - exact) <= bound - analytics._factorial_budget(float(n)) + 5 * u * exact, n


def _lucy_row_by_parts(n, t):
    """(the theta-sum row at n, theta_sigma): the Lucy row rebuilt from _lucy's arrays and
    _prime_flags, each sum over its own arrays: card_A and s1 from the prime
    n // k + 1, s2 from mult at the large prime v + 1, and log sigma as
    log rho + (s1 + s2); theta_sigma the sum of theta(n // k + 1), with
    theta(v + 1) by np.where."""
    q, small, large, mult = _quotients(n)
    _, (at_small, at_v) = theta._lucy(n, t, q)
    at_large = at_v[1:]
    small_prime = analytics._prime_flags(
        small + 1, t.primes_up_to(len(small))[: analytics._PREFILTER_PRIMES]
    )
    large_prime = t.prime_mask(len(small) + 1)[2 : len(large) + 2]
    hits = small[small_prime] + 1
    lr = _quotient_sum(mult, at_small, at_large)
    s1 = float(np.add.reduce(np.log(hits)))
    s2 = float(np.add.reduce(mult[large_prime] * np.log(large[large_prime] + 1)))
    theta_sigma = _quotient_sum(
        mult,
        at_small + np.where(small_prime, np.log(small + 1), 0.0),
        at_large + np.where(large_prime, np.log(large + 1), 0.0),
    )
    return (lr, lr + (s1 + s2), len(hits), s1, s2), theta_sigma


def test_lucy_rows_equal_their_parts(monkeypatch):
    ns = [LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 3001 * 3002, 8191**2 - 1, *CUBE_NS, 1 << 26]
    ns.sort()
    t = PrimeTable(math.isqrt(ns[-1]) + 2)
    want = {}
    for n in ns:
        want[n], theta_sigma = _lucy_row_by_parts(n, t)
        assert _theta_rows([n], t)[0] == want[n], n
        assert _within_sigma_column(want[n], theta_sigma, n, t), n
    # S1 at v depends on v alone, so the largest n's serves every row
    ns = ns[: ns.index(8191**2 - 1) + 1]
    rho_v = theta._lucy(ns[-1], t, _quotients(ns[-1])[0])[1][1]
    for n in ns:
        at_v = theta._lucy(n, t, _quotients(n)[0])[1][1]
        assert np.array_equal(at_v, rho_v[: len(at_v)]), n
    # the rows up to 8191**2 - 1 as one block of _checked, each row's flags
    # from its own window stacked at the widest r, and each row's quotients
    # for _lucy a row of the block's q
    monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", 1 << 30)
    assert _checked_blocks(ns, t, THETA) == ([ns], [want[n] for n in ns])


def test_a_theta_block_of_table_and_lucy_rows_equals_its_rows_alone():
    # at the default budget these n, of 55 to 2050 quotients a row, are one
    # block of _checked, three table rows and four Lucy rows: _theta_rho
    # splits the block at LUCY_THRESHOLD, the table rows reading theta over
    # their own columns of the block's q and each Lucy row passing its own
    # row of q to _lucy.  Each row equals itself computed alone, bit for bit,
    # and the one-n functions' values on a fresh table
    r = math.isqrt(LUCY_THRESHOLD)
    ns = [3001, LUCY_THRESHOLD - 3, LUCY_THRESHOLD - 1, LUCY_THRESHOLD, LUCY_THRESHOLD + 1,
          LUCY_THRESHOLD + r, (r + 1) * (r + 2)]
    t = PrimeTable()
    blocks, rows = _checked_blocks(ns, t, THETA)
    assert blocks == [ns]
    assert rows == [_theta_rows([n], t)[0] for n in ns]
    assert [row[:2] for row in rows] == [
        (theta_sum_rho(n, PrimeTable()), theta_sum_sigma(n, PrimeTable())) for n in ns
    ]


def test_legendre_rows_equal_lucy_rows_in_the_prime_quotients():
    # _rows sums card_A, s1 and s2 for the scan's rows and the theta-sum
    # rows from the same arrays, so they are equal bit for bit, on the table
    # rows below LUCY_THRESHOLD in blocks and on the Lucy rows from it on.
    # The scan row's log rho and log sigma are within its budget of the check
    # route, and of the theta-sum row's within a few ulps on a Lucy row and
    # within the theta-sum row's budget on a table row.  The exponents are
    # Legendre's, v_p(n!) - n // p, exactly
    light = [*range(1, 2001), 3001, (1 << 20) + 7, LUCY_THRESHOLD - 1]
    ns = sorted([*light, LUCY_THRESHOLD, LUCY_THRESHOLD + 1, *CUBE_NS, 1 << 26, _MUTANT_N])
    t = PrimeTable()
    blocks, rows = _checked_blocks(ns, t, SCAN)
    assert sum(block[0] < LUCY_THRESHOLD for block in blocks) < len(light) / 20
    theta_rows = _theta_rows(ns, t)
    powers = analytics._prime_powers(ns[-1], t)
    route = [row for b in blocks for row in zip(*(v.tolist() for v in analytics._factorial_sums(b, t, powers)))]
    for n, row, theta_row, (rho, sigma, _) in zip(ns, rows, theta_rows, route, strict=True):
        assert row[2:] == theta_row[2:], n
        bound = analytics._legendre_budget([n], *([v] for v in row[:2]), t)[0].tolist()
        theta_bound = theta._theta_budget([n], *([v] for v in theta_row[:2]), t)[0]
        for got, want, theta_value, b, tb in zip(row[:2], (rho, sigma), theta_row[:2], bound, theta_bound):
            assert abs(got - want) <= b, n
            if n < LUCY_THRESHOLD:
                assert abs(got - theta_value) <= tb, n
            else:
                assert abs(got - theta_value) <= 8 * math.ulp(got), n
        ps = t.primes_up_to(math.isqrt(n))
        e = [primes.factorial_valuation(n, p) - n // p for p in ps.tolist()]
        assert analytics._exponents(np.array([[n]]), ps).tolist() == [e], n


def test_quotient_flags_equal_prime_flags_at_every_k():
    # the sieved window's flags of n // k + 1 against _prime_flags at every
    # k <= r, on a table up to r + 2 alone, the row's and the check route's
    # alike; beside the n of the route's edges, an x_k on the window's last
    # value, one on the first value past it, and one on p**2, p =
    # isqrt(window end) the largest crossing prime.  At 2^34 + 12345 the
    # route sieves its window of 8 r + 1 = 2^20 + 1 integers in two pieces
    def window(n):
        r = math.isqrt(n)
        xs = set((n // np.arange(1, r + 1, dtype=np.int64) + 1).tolist())
        return n // r + 1 + analytics._WINDOW_ROOTS * r, xs

    end, xs = window(4208880)
    assert end in xs
    end, xs = window(4209108)
    assert end + 1 in xs and end not in xs
    end, xs = window(4354176)
    p = math.isqrt(end)
    assert primes.is_probable_prime(p) and p * p in xs
    ns = [LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 3001**2 - 1, 3001 * 3002, 4208880, 4209108]
    ns += [4354176, _MUTANT_N, (1 << 34) + 12345]
    for n in ns:
        r = math.isqrt(n)
        t = PrimeTable(r + 2)
        small = n // np.arange(1, r + 1, dtype=np.int64)
        want = analytics._prime_flags(small + 1, t.primes_up_to(r)[: analytics._PREFILTER_PRIMES])
        assert np.array_equal(analytics._quotient_flags(n, small, t), want), n
        assert np.array_equal(analytics._route_flags(n, small + 1, t), want), n
        assert t.limit == r + 2, n


_WINDOW_2_30 = list(range((1 << 30) + 12345, (1 << 30) + 12353))


def _card_a(ns):
    """card_A of each n of ns by is_probable_prime, k by k."""
    return [sum(primes.is_probable_prime(n // k + 1) for k in range(1, math.isqrt(n) + 1)) for n in ns]


def test_the_check_route_calls_none_of_the_rows_primality_code(monkeypatch):
    # past its table the route sieves and tests n // k + 1 by its own code:
    # with the row's tests and the table's sieve made to raise, its card_A
    # still counts the prime quotients exactly, in and above its window
    ns = [(1 << 22) + 7, (1 << 30) + 12345]
    t = PrimeTable(math.isqrt(_WINDOW_2_30[-1]) + 2)
    powers = analytics._prime_powers(ns[-1], t)
    want, want_window = _card_a(ns), _card_a(_WINDOW_2_30)

    def raising(*args):
        raise AssertionError("the route called the row's primality code")

    for owner, name in (
        (analytics, "_prime_flags"),
        (analytics, "_quotient_flags"),
        (primes, "_miller_rabin"),
        (primes, "_cross_off"),
        (PrimeTable, "segment"),
    ):
        monkeypatch.setattr(owner, name, raising)
    assert analytics._factorial_sums(ns, t, powers)[2].tolist() == want
    # and where it carries its flags from n - 1, past the row's carry
    monkeypatch.setattr(analytics, "_row_steps", raising)
    monkeypatch.setattr(analytics, "_row_flags", raising)
    powers = analytics._prime_powers(_WINDOW_2_30[-1], t)
    counts = analytics._factorial_sums(_WINDOW_2_30, t, powers, analytics._Carry())[2]
    assert counts.tolist() == want_window


def test_the_rows_carry_calls_none_of_the_check_routes_primality_code(monkeypatch):
    # the converse, on a window whose rows after the first carry their
    # flags: with the route's tests, sieve and change detection made to
    # raise, the rows' card_A still counts the prime quotients exactly
    t = PrimeTable(math.isqrt(_WINDOW_2_30[-1]) + 2)
    want = _card_a(_WINDOW_2_30)

    def raising(*args):
        raise AssertionError("the row called the check route's primality code")

    for name in ("_route_flags", "_route_tests", "_route_steps", "_route_carried", "_strong_probable_prime"):
        monkeypatch.setattr(analytics, name, raising)
    rows = analytics._rows(_WINDOW_2_30, t, SCAN, analytics._Carry())
    assert [card for _, _, card, _, _ in rows] == want


def _row_flags(xs):
    """The row's Miller-Rabin on xs > 131, after _prime_flags' trial division."""
    small = PrimeTable(200).primes_up_to(200)[: analytics._PREFILTER_PRIMES]
    return analytics._prime_flags(np.asarray(xs, dtype=np.int64), small)


def _route_tests(xs):
    """The route's Miller-Rabin on the odd xs >= 3, on its own bases."""
    return np.array([analytics._strong_probable_prime(x, analytics._route_bases(x)) for x in xs])


def test_both_witness_sets_agree_with_the_bitmap_to_2_24():
    # a composite x passes a round to base 2 only if 2**(x-1) = 1 mod x, and
    # every set here starts with 2: so these Fermat liars, found below 2^24 in
    # int64 (x**2 < 2^48), are every composite that either set could let
    # through, and both reject each.  Every prime passes: all of them in
    # (131, 2^20] and the last 2^16 integers below 2^24
    limit = 1 << 24
    mask = PrimeTable(limit).prime_mask(limit)
    liars = []
    for a in range(133, limit, 1 << 20):  # odd x in [a, a + 2^20), so no array exceeds 4 MB
        x = np.arange(a, min(a + (1 << 20), limit + 1), 2, dtype=np.int64)
        y = np.ones_like(x)
        for bit in range(23, -1, -1):  # square, then double at each set bit of x - 1 < 2^24
            y = y * y % x << ((x - 1) >> bit & 1)
            y -= x * (y >= x)
        liars += x[(y == 1) & ~mask[x]].tolist()
    assert 341 in liars and 2047 in liars and len(liars) > 100
    assert not _row_flags(liars).any() and not _route_tests(liars).any()
    ps = np.flatnonzero(mask[132 : 1 << 20]) + 132
    ps = np.concatenate((ps, np.flatnonzero(mask[limit - (1 << 16) :]) + limit - (1 << 16)))
    assert _row_flags(ps).all() and _route_tests(ps.tolist()).all()


def test_both_witness_sets_reject_each_others_strong_pseudoprimes():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to 2, 3, 5 and 7,
    # the row's bases below it; 4759123141 = 48781 * 97561 to 2, 7 and 61, the
    # route's below it.  Each set rejects both
    for x, bases in ((3215031751, (2, 3, 5, 7)), (4759123141, (2, 7, 61))):
        assert analytics._strong_probable_prime(x, bases)
        assert not _row_flags([x])[0] and not _route_tests([x])[0]
    assert 151 * 751 * 28351 == 3215031751 and 48781 * 97561 == 4759123141


def test_a_base_that_x_divides_is_skipped():
    # Sinclair's bases, taken mod x: an x that divides a base learns nothing
    # from it, and the base is skipped, not counted as a witness.  So each
    # odd prime factor of a base still passes, where a round on the base
    # itself would fail it (a**(x-1) = 0 mod x), and a composite that
    # divides bases is still rejected
    sinclair = analytics._route_bases(1 << 62)
    assert sinclair == (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
    for p in (3, 5, 13, 19, 73, 193, 407521, 299210837):
        divided = [a for a in sinclair if a % p == 0]
        assert divided and primes.is_probable_prime(p)
        assert all(pow(a, p - 1, p) == 0 for a in divided)
        assert analytics._strong_probable_prime(p, sinclair)
    for x in (25, 65, 5 * 73, 13 * 19 * 73, 73 * 193):
        assert any(a % x == 0 for a in sinclair)
        assert not analytics._strong_probable_prime(x, sinclair)
    assert analytics._route_bases(4_759_123_140) == (2, 7, 61)


def test_log_factorial_within_its_bound_of_mpmath():
    # the bound _log_factorial states: 2 units of 2**-52 v log v (0 at v <= 1)
    import random

    import mpmath

    cut = analytics._LOG_FACTORIAL_CUT
    rng = random.Random(17)
    vs = list(range(cut + 3))
    vs += [(1 << k) + d for k in range(2, 49) for d in (-1, 0, 1)]
    vs += [rng.randrange(cut, 1 << rng.randrange(5, 49)) for _ in range(1500)]
    vs = np.array(sorted(set(vs)), dtype=np.int64)
    got = analytics._log_factorial(vs)
    with mpmath.workdps(40):
        err = [abs(mpmath.mpf(float(g)) - mpmath.loggamma(v + 1)) for g, v in zip(got, vs.tolist())]
    bound = 2 * 2.0**-52 * vs * np.log(np.maximum(vs, 2))
    bound[vs <= 1] = 0.0
    assert np.all(np.array(err, dtype=np.float64) <= bound)


def test_scan_row_peak_is_below_the_estimate(c_mid):
    # a row and its check: the scan's against _legendre_bytes, a theta-sum
    # (Lucy) row's against _row_bytes
    import tracemalloc

    for n in (1 << 24, 1 << 28):
        for kind, estimate in ((SCAN, analytics._legendre_bytes), (THETA, theta._row_bytes)):
            t = PrimeTable(math.isqrt(n) + 2)
            t.primes_up_to(t.limit)  # the table's arrays are derived before the row
            tracemalloc.start()
            try:
                next(analytics._records(analytics._checked([n], t, kind), c_mid))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= estimate(n), (n, kind.table, peak)


def test_a_carried_row_peak_is_below_the_estimate(monkeypatch):
    # a scan row that carries its flags from n - 1, and its check: the
    # tracemalloc peak, with the two arrays of flags that the row before
    # left, below the figure that require_memory is given, _legendre_bytes
    import tracemalloc

    asked = []
    monkeypatch.setattr(primes, "require_memory", lambda need, what: asked.append(need))
    for n in ((1 << 30) + 12345, (1 << 36) + 12345):
        t = PrimeTable(math.isqrt(n) + 2)
        t.primes_up_to(t.limit)  # the table's arrays are derived before the row
        asked.clear()
        blocks = analytics._checked([n - 1, n], t, SCAN)
        assert len(next(blocks)[0]) == 1  # n - 1, a block of its own
        tracemalloc.start()
        try:
            next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = 2 * math.isqrt(n)  # the row's and the route's flags of n - 1
        assert asked == [analytics._legendre_bytes(n)] and peak + held <= asked[0], (n, peak)


def test_lucy_rows_leave_the_table_as_the_scan_set_up_left_it(c_mid):
    # once scan_records has set up, no row grows the table, and no row
    # derives its arrays past sqrt(max n) + 2: rows from LUCY_THRESHOLD on
    # read it up to sqrt(n) + 2, and the check route's prime powers no further
    class Counted(PrimeTable):
        reach = 0

        def _derived(self, x):
            out = super()._derived(x)
            self.reach = max(self.reach, self._arrays[0])
            return out

    ns = [LUCY_THRESHOLD, 3001**2 - 1, (1 << 26) + 5, (1 << 30) + 12345, (1 << 31) + 7]
    expected = scan(ns, table=PrimeTable(), c=c_mid)
    t = Counted()
    records = analytics.scan_records(ns, table=t, c=c_mid)
    limit = t.limit
    assert list(records) == expected
    assert t.limit == limit and 0 < t.reach <= math.isqrt(ns[-1]) + 2


def test_scan_asks_memory_for_the_rows_in_flight(monkeypatch):
    # the rows run one at a time, the table rows before the first row from
    # LUCY_THRESHOLD on: one row at max(ns) is priced, the scan's by
    # _legendre_bytes, verify eq14-16's Lucy rows by _row_bytes.  A refused
    # grid raises at the call to _checked or scan_records, before any block
    # and before the table grows
    class Refused(Exception):
        pass

    def refuse(need, what):
        asked.append((need, what))
        if "scan row" in what:
            raise Refused

    asked = []
    monkeypatch.setattr(primes, "require_memory", refuse)
    top = 1 << 40
    grids = [[100, top], [top - 1, top], [top - 2, top - 1, top], [LUCY_THRESHOLD, top], [100, 200]]
    for ns in grids:
        for kind, estimate in ((SCAN, analytics._legendre_bytes), (THETA, theta._row_bytes)):
            t = PrimeTable()
            asked.clear()
            with pytest.raises(Refused):
                analytics._checked(ns, t, kind)
            assert asked == [(estimate(ns[-1]), f"a scan row at n = {ns[-1]}")], (ns, kind.table)
            assert t.limit == 4, (ns, kind.table)
        t = PrimeTable()
        asked.clear()
        with pytest.raises(Refused):
            analytics.scan_records(ns, table=t, c=0.0)
        assert asked == [(analytics._legendre_bytes(ns[-1]), f"a scan row at n = {ns[-1]}")], ns
        assert t.limit == 4, ns


def test_checked_sets_up_its_own_grid(monkeypatch):
    # verify eq14-16's grid at nmax 30000, table rows of theta sums: on a
    # fresh table _checked's rows equal those on a table set up beforehand,
    # grown to the last n + 2 with its arrays derived that far
    nmax = 30000
    grid = sorted(set(max(1, (i * nmax) // 1000) for i in range(1, 1001)))
    ready = PrimeTable(nmax + 2)
    ready.primes_up_to(nmax)
    assert _theta_rows(grid, PrimeTable()) == _theta_rows(grid, ready)
    # the 1500-row step:2 window from 1102578, each row of which would pay
    # a window: once _checked is called, and before any block is read, the
    # table reaches its last n + 2, so every row reads its flags on the
    # bitmap and none takes a sieved window
    window = list(range(1102578, 1102578 + 3000, 2))
    t = PrimeTable()
    checked = analytics._checked(window, t, SCAN)
    assert t.limit == window[-1] + 2
    monkeypatch.setattr(analytics, "_quotient_flags", None)
    rows = [row for _, part, _, _ in checked for row in part]
    assert rows == _scan_rows(window, PrimeTable(window[-1] + 2))


def test_scan_workers_use_the_callers_table(monkeypatch, c_mid):
    class NoDefault:
        def __getattr__(self, name):
            raise AssertionError("scan used the default table")

    ns = range(1000, 41_000, 1000)
    expected = scan(ns, table=PrimeTable(1 << 16), c=c_mid)
    monkeypatch.setattr(primes, "_default_table", NoDefault())
    assert scan(ns, table=PrimeTable(1 << 16), c=c_mid) == expected


def test_scan_rejects_empty_or_bad():
    with pytest.raises(ValueError):
        scan([])
    with pytest.raises(ValueError):
        scan([0, 5])


def test_grids():
    assert dyadic_grid(16, 1 << 20) == [1 << j for j in range(4, 21)]
    assert len(dyadic_grid(16, 1 << 20)) == 17
    assert list(parse_grid("step:5", 3, 20)) == [3, 8, 13, 18]
    assert parse_grid("list:7,3,3,9", 1, 100) == [3, 7, 9]
    assert sampled_dyadic_grid(4, 5, per_block=4) == [16, 20, 24, 28, 32, 40, 48, 56]
    assert sampled_dyadic_grid(0, 3) == list(range(1, 16))
    with pytest.raises(ValueError):
        parse_grid("fancy", 1, 10)


def test_csv_and_json_output(tmp_path, c_mid):
    recs = scan([10, 100, 1000], c=c_mid)
    csv_path = tmp_path / "out.csv"
    write_csv(recs, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    row = lines[2].split(",")
    assert int(row[0]) == 100 and int(row[5]) == 4
    assert float(row[1]) == recs[1].log_rho  # repr round-trips
    json_path = tmp_path / "out.json"
    write_json(recs, json_path)
    data = json.loads(json_path.read_text())
    assert [d["n"] for d in data] == [10, 100, 1000]
    assert data[1]["card_A"] == 4
    assert data[1]["log_sigma"] == recs[1].log_sigma


def _joined(rec):
    """A CSV row as one str or repr call per field, joined."""
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in rec)


def test_csv_row_equals_the_join_of_its_fields(c_mid):
    # n = 1, card_A = 0 (at n = 3), and with c = -3 a negative residual_rho
    recs = scan([1, 3, 10, 1000], c=c_mid) + scan([1000, 5 * 10**5], c=-3.0)
    assert recs[0].n == 1 and recs[1].card_A == 0 and recs[-1].residual_rho < 0
    recs.append(analytics.ScanRecord(7, 0.0, -0.0, -1.5e-300, -2.5, 0, float("nan"), float("inf"), -1.0))
    for rec in recs:
        assert rec.csv_row() == _joined(rec), rec


def test_writers_stream_the_bytes_of_the_whole_list(tmp_path, c_mid):
    recs = scan([1, 10, 100, 1000], c=c_mid)
    recs.append(analytics.ScanRecord(7, 0.0, -0.0, -1.5e-300, -2.5, 0, float("nan"), float("inf"), -1e300))
    for kept in (recs, recs[:1], []):
        path = tmp_path / "out.json"
        write_json(iter(kept), path)
        assert path.read_text() == json.dumps([r._asdict() for r in kept], indent=1) + "\n"
        write_csv(iter(kept), path)
        assert path.read_text() == "".join(f"{line}\n" for line in [CSV_HEADER, *map(_joined, kept)])


def test_scan_output_fields_in_the_fixed_order(capsys):
    """The CLI's JSON objects carry the CSV header's names, in its order,
    with the CSV row's values; the records are immutable."""
    argv = ["scan", "--grid", "list:1000,70000,5000000", "--nmax", "5000000"]
    texts = {}
    for fmt in ("csv", "json"):
        assert cli.main([*argv, "--format", fmt]) == 0
        texts[fmt] = capsys.readouterr().out
    header = "n,log_rho,log_sigma,residual_rho,residual_sigma,card_A,conj2_stat,s1,s2"
    lines = texts["csv"].splitlines()
    assert lines[0] == CSV_HEADER == header
    names = header.split(",")
    rows = [
        {k: (int if k in ("n", "card_A") else float)(v) for k, v in zip(names, line.split(","))}
        for line in lines[1:]
    ]
    assert [row["n"] for row in rows] == [1000, 70000, 5000000]
    assert texts["json"] == json.dumps(rows, indent=1) + "\n"
    recs = scan([1000, 70000, 5000000])
    assert [rec.csv_row() for rec in recs] == lines[1:]
    with pytest.raises(AttributeError):
        recs[0].card_A = 0


def test_s1_bounds_against_count(c_mid):
    # s1 is squeezed between card_A * log(n)/2 and card_A * log(n+1)
    for rec in scan([10, 100, 999, 5005, 64_000], c=c_mid):
        assert rec.s1 <= rec.card_A * math.log(rec.n + 1) + 1e-9
        assert rec.s1 >= rec.card_A * math.log(rec.n) / 2 - 1e-9


def test_sigma_log_ratio_near_one(c_mid):
    for rec in scan([100_000, 131_072, 200_000], c=c_mid):
        ratio = rec.log_sigma / (rec.n * math.log(rec.n))
        assert 0.9 < ratio < 1.1


def test_residual_difference_identity(c_mid):
    # residual_sigma - residual_rho telescopes to s_total - c * n
    for rec in scan([1000, 4096, 33_333], c=c_mid):
        gap = rec.residual_sigma - rec.residual_rho
        assert gap == pytest.approx(rec.s1 + rec.s2 - c_mid * rec.n, abs=1e-6 * rec.n)


def test_block_envelopes_and_count_sup(c_mid):
    recs = scan(sampled_dyadic_grid(8, 11, per_block=4), c=c_mid)
    envs = block_envelopes(recs)
    assert [e.block for e in envs] == [8, 9, 10, 11]
    for env in envs:
        assert env.sup_rho > 0 and env.sup_sigma > 0
        assert env.conj2_min <= env.conj2_max
    assert quotient_count_sup(recs) > 0
