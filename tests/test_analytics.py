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
from lcmf import analytics, cli, primes, verify
from lcmf.primes import PrimeTable, default_table
from lcmf.sequences import rho, sigma

from oracles import trial_primes


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


def _within_sigma_column(row, theta_sigma, n, t, theta=False):
    """Whether the row's log sigma is within _theta_budget's sigma column of
    theta_sigma, a sum of theta(n // k + 1)."""
    bound = analytics._theta_budget([n], np.array(row[:1]), np.array(row[1:2]), t, theta)[0, 1]
    return abs(row[1] - theta_sigma) <= bound


def test_table_rows_equal_the_three_division_route(c_mid):
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
        lr, ls, card, s1, s2 = want
        assert _within_sigma_column(want, theta_sigma, n, t), n
        logn = math.log(n)
        assert next(analytics._records([n], c_mid, t)) == (
            n, lr, ls, lr - (n * logn - (c_mid + 1.0) * n), ls - (n * logn - n),
            card, card * logn / math.sqrt(n), s1, s2,
        ), n
        assert (theta_sum_rho(n, t), theta_sum_sigma(n, t)) == want[:2], n
        assert s_split(n, t) == (s1 + s2, s1, s2), n
        assert quotient_prime_count(n, t) == card, n


def _table_row_widths(ns):
    """The width of each n's row in _table_rows' blocks: top + 1 quotients."""
    return [n // (math.isqrt(n) + 1) + 1 for n in ns]


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
    # n = 1, 2 and 3 share a block with a large n at the default budget
    few = [1, 2, 3, edge]
    assert list(analytics._blocks(_table_row_widths(few))) == [(0, 4)]
    assert list(analytics._table_rows(few, t)) == [want[n] for n in few]
    # a few hundred cells: blocks of many small rows, and rows wider than the
    # budget each a block of its own
    monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", 300)
    sizes = [b - a for a, b in analytics._blocks(_table_row_widths(ns))]
    assert max(sizes) > 20 and sizes.count(1) > 1500
    assert list(analytics._table_rows(ns, t)) == [want[n] for n in ns]


def test_table_and_check_rows_hold_one_block_at_a_time():
    # tracemalloc peak of the table rows over a step:1 window near 2^20, and
    # of both routes over verify eq14-16's grid at nmax 10^5, whose rows widen
    # along it: a block's few arrays of 8-byte cells and about 200 B per row
    # returned
    import tracemalloc

    t = PrimeTable((1 << 20) + 1000)
    t.primes_up_to(2)  # the table's arrays are built before the rows
    window = list(range((1 << 20) - 750, (1 << 20) + 750))
    grid = [100 * i for i in range(1, 1001)]
    for ns, route in (
        (window, lambda: list(analytics._table_rows(window, t))),
        (grid, lambda: list(analytics._table_rows(grid, t))),
        (grid, lambda: analytics._factorial_sums(grid, t)),
    ):
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * analytics._TABLE_BLOCK_CELLS + 200 * len(ns), (ns[0], peak)


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
    real = analytics._lucy

    def raised(m, t, q):
        pi, (at_small, at_v) = real(m, t, q)
        at_small[1] += 100
        return pi, (at_small, at_v)

    monkeypatch.setattr(analytics, "_lucy", raised)
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
    rhos, sigmas, _ = analytics._factorial_sums(ns, t)
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
        assert analytics._factorial_rho([n], fake)[0] == want, n


def test_check_route_in_blocks_equals_one_n_at_a_time(monkeypatch):
    # the route reads the primes up to sqrt(n) + 1 alone, so past the table's
    # end the primality of n // k + 1 comes from _prime_flags, and on a table
    # grown past every n + 2 from its bitmap, to the same bit; at 300 cells,
    # blocks of many rows and rows wider than a block, each a block of its
    # own.  4093**2 is a prime power
    t = PrimeTable(math.isqrt(1 << 26) + 2)
    ns = list(range(0, 200)) + list(range((1 << 20) - 300, (1 << 20) + 300, 7))
    ns += [LUCY_THRESHOLD - 1, LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 4093**2 - 1, 4093**2, 1 << 26]
    one = [tuple(float(v[0]) for v in analytics._factorial_sums([n], t)) for n in ns]
    assert t.limit == math.isqrt(1 << 26) + 2  # the route grew no table
    grown = PrimeTable(LUCY_THRESHOLD + 2)
    assert [tuple(float(v[0]) for v in analytics._factorial_sums([n], grown)) for n in ns] == one
    i = ns.index(LUCY_THRESHOLD)
    assert any(a < i < b for a, b in analytics._blocks(math.isqrt(n) for n in ns))
    for cells in (analytics._TABLE_BLOCK_CELLS, 300):
        monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", cells)
        rhos, sigmas, counts = analytics._factorial_sums(ns, t)
        assert list(zip(rhos.tolist(), sigmas.tolist(), counts.tolist())) == one, cells
        assert analytics._factorial_rho(ns, t).tolist() == rhos.tolist(), cells
    sizes = [b - a for a, b in analytics._blocks(math.isqrt(n) for n in ns)]
    assert max(sizes) > 20 and sizes.count(1) > 5


def test_check_route_on_fresh_tables_equals_a_grown_table():
    # a fresh table grows to sqrt(n) + 1, or to 8 from its least size 4, so
    # nearly every v + 1 is tested by _prime_flags, with fewer than the 14
    # Miller-Rabin bases in ps below n = 43**2; a table grown to 3002 tests
    # each on its bitmap
    grown = PrimeTable(3002)
    for n in range(3001):
        fresh = PrimeTable()
        got = tuple(float(v[0]) for v in analytics._factorial_sums([n], fresh))
        assert fresh.limit <= max(8, math.isqrt(n) + 1), n
        assert got == tuple(float(v[0]) for v in analytics._factorial_sums([n], grown)), n


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
    # byte for byte, on table rows and on _legendre_rows
    for start, stop in (
        (2, 400),
        ((1 << 20) - 40, (1 << 20) + 40),
        (LUCY_THRESHOLD - 20, LUCY_THRESHOLD + 20),
    ):
        dense = {r.n: r.csv_row() for r in scan(parse_grid("step:1", start, stop), c=c_mid)}
        dyadic = scan(parse_grid("dyadic", start, stop), c=c_mid)
        assert dyadic and all(dense[r.n] == r.csv_row() for r in dyadic)
        for n in dense:
            (single,) = scan(parse_grid(f"list:{n}", 1, n), c=c_mid)
            assert single.csv_row() == dense[n]


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
    """analytics._row_budget at n, with the updates of _lucy at n."""
    return analytics._row_budget(n, len(default_table().primes_up_to(math.isqrt(n))))


def _lucy_at(n):
    """(quotients, S0, S1) of _lucy at n, small quotients then large."""
    q, small, large, _ = _quotients(n)
    (pi_small, pi_v), (th_small, th_v) = analytics._lucy(n, PrimeTable(math.isqrt(n) + 2), q)
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
    budget = analytics._s1_budget(vs[seen], updates)
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
        assert np.all(np.abs(s1 - ref1) <= 2 * analytics._s1_budget(vs, updates)), n


def test_lucy_batch_in_many_chunks(table_2_26, monkeypatch):
    monkeypatch.setattr(analytics, "_LUCY_BATCH_CELLS", 300)
    for n in [n for n in CUBE_NS if n <= table_2_26.limit] + [LUCY_THRESHOLD + 1, 1 << 26]:
        big = table_2_26.primes_up_to(math.isqrt(n))
        big = big[big > primes.iroot(n, 3)]
        assert np.sum(n // (big * big)) > 10 * 300  # the batch spans many chunks
        _check_lucy(n, table_2_26)


def test_lucy_rows_match_the_table_route(table_2_26, c_mid):
    ns = [LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 3001 * 3002, 8191**2 - 1, 1 << 26]
    t = PrimeTable(1 << 12)
    analytics._scan_setup(ns, t, True)
    recs = list(analytics._records(ns, c_mid, t, True))
    assert t.limit < 1 << 14  # Lucy rows need the table only to sqrt(n) + 2
    for rec in recs:
        n = rec.n
        lr, ls, card, s1, s2 = next(analytics._table_rows([n], table_2_26))
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
        lucy = PrimeTable()
        analytics._scan_setup([n], lucy, True)
        lr, ls, *_ = analytics._lucy_row(n, lucy)
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
    lr, ls, *_ = analytics._lucy_row(n, t)
    rho, sigma, _ = (float(v[0]) for v in analytics._factorial_sums([n], t))
    bounds = analytics._theta_budget([n], np.array([lr]), np.array([ls]), t, True)[0].tolist()
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
    real = analytics._lucy

    def lucy(n, t, q):
        pi, (at_small, at_v) = real(n, t, q)
        at_small[1] += 100
        return pi, (at_small, at_v)

    scanned = scan([_MUTANT_N], c=0.0)
    lr, ls = theta_sum_rho(_MUTANT_N), theta_sum_sigma(_MUTANT_N)
    budget = analytics._theta_budget([_MUTANT_N], np.array([lr]), np.array([ls]), default_table(), True)
    assert float(budget[0, 0]) < 10
    monkeypatch.setattr(analytics, "_lucy", lucy)
    _theta_sums_fail(_MUTANT_N, scanned)


def test_scan_catches_a_dropped_phase2_chunk(monkeypatch):
    # the first chunk of _lucy's batch, both of its bincount sums, left out
    # of every Lucy row
    real_lucy, real = analytics._lucy, np.bincount
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
    monkeypatch.setattr(analytics, "_lucy", lucy)
    monkeypatch.setattr(np, "bincount", bincount)
    _theta_sums_fail(_MUTANT_N, scanned)
    assert len(most) == 3 and min(most) > 2


def test_scan_catches_a_dropped_phase1_prime(monkeypatch):
    # a prime p with n**(1/4) < p <= n**(1/3) left out of _lucy's primes: it
    # changes S only at the v >= p**2 > sqrt(n) + 1, past the in-row check
    real = analytics._lucy
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
    monkeypatch.setattr(analytics, "_lucy", lambda n, t, q: real(n, Without(t), q))
    _theta_sums_fail(_MUTANT_N, scanned)


def _scan_fails_on_log_rho(capsys, n):
    assert cli.main(["scan", "--grid", f"list:{n}", "--nmax", str(n)]) == 1
    assert capsys.readouterr().err == f"error: log rho disagrees with Legendre's formula at n={n}\n"


def test_scan_catches_a_prime_power_dropped_from_the_check_route(monkeypatch, capsys):
    # 4 = 2**2 left out of the check route's prime powers: its log rho is
    # (n // 4) log 2 too large, while the scan's row takes 2's exponent
    # from _legendre_exponents
    real = analytics._prime_powers

    def without_four(top, t):
        powers, logs = real(top, t)
        return powers[powers != 4], logs[powers != 4]

    monkeypatch.setattr(analytics, "_prime_powers", without_four)
    _scan_fails_on_log_rho(capsys, _MUTANT_N)


def test_scan_catches_exponents_cut_after_the_squares(monkeypatch, capsys):
    # the row's loop over e stopped after e = 2: every e_p of a p <= cbrt(n)
    # too small, and log rho too large by the sum of n // p**e log p, e >= 3
    monkeypatch.setattr(analytics, "_legendre_exponents", lambda n, ps: n // ps // ps)
    _scan_fails_on_log_rho(capsys, _MUTANT_N)


def test_scan_catches_the_theta_prefix_raised_by_one():
    # on a table row near 2^20, theta + 1 at n // 2 alone: the table's prefix
    # sum at pi(n // 2), which no other quotient of n reads
    n = (1 << 20) + 12345
    t = PrimeTable(n + 2)
    mask, ps, prefix = t._derived()
    i = int(ps.searchsorted(n // 2, side="right"))
    assert n // 3 < ps[i - 1] <= n // 2 < ps[i] <= n
    (rec,) = scan([n], table=t, c=0.0)
    rho, sigma = np.array([rec.log_rho]), np.array([rec.log_sigma])
    assert float(analytics._theta_budget([n], rho, sigma, t, False)[0, 0]) < 0.01
    prefix = prefix.copy()
    prefix[i] += 1
    t._arrays = mask, ps, prefix
    _scan_raises(n, t)


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


def test_a_composite_flagged_prime_in_a_row_fails_on_log_sigma(monkeypatch, capsys):
    # one composite n // k + 1 flagged prime in a row's assembly, not in the
    # table: log sigma and s1 gain the same log and card_A one, so only the
    # check route's own flags see it.  First in _rows' prime_q on a table
    # row near 2^20, then from _quotient_flags on the Lucy row at _MUTANT_N
    n = (1 << 20) + 12345
    k = _last_composite_k(n)
    real_rows = analytics._rows

    def rows(ns, q, rho_q, prime_q, rho_v, mask):
        if n in ns:
            prime_q = prime_q.copy()
            prime_q[list(ns).index(n), k - 1] = True
        return real_rows(ns, q, rho_q, prime_q, rho_v, mask)

    monkeypatch.setattr(analytics, "_rows", rows)
    # the split's 1e-6 n, about 1.05 here, sees the log too; at 2^30 it does not
    _flagged_row_fails(capsys, n, f"n={n}: quotient log split")
    monkeypatch.undo()
    k = _last_composite_k(_MUTANT_N)
    real_flags = analytics._quotient_flags

    def flags(m, small, t):
        out = real_flags(m, small, t)
        out[k - 1] |= m == _MUTANT_N
        return out

    monkeypatch.setattr(analytics, "_quotient_flags", flags)
    _flagged_row_fails(capsys, _MUTANT_N)


def test_a_composite_flagged_prime_fails_on_card_A_where_the_logs_pass(monkeypatch, capsys):
    # at 2^36 + 12345 the composite n // 2^18 + 1 = 262145 = 5 * 52429,
    # flagged prime in the row's window, adds about 12.5 to log sigma and s1
    # alike, inside log sigma's bound of 24 and the split's 1e-6 n; only
    # card_A against the check route's exact count sees it
    n = (1 << 36) + 12345
    k = math.isqrt(n)
    assert n // k + 1 == 262145 == 5 * 52429
    bound = analytics._theta_budget([n], np.zeros(1), np.zeros(1), PrimeTable(k + 2), False)[0, 1]
    assert math.log(262145) < bound
    real_flags = analytics._quotient_flags

    def flags(m, small, t):
        out = real_flags(m, small, t)
        out[k - 1] |= m == n
        return out

    monkeypatch.setattr(analytics, "_quotient_flags", flags)
    error = f"card_A disagrees with the check route's count of prime quotients at n={n}"
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
    _, _, counts = analytics._factorial_sums(ns, PrimeTable())
    want = [
        sum(primes.is_probable_prime(n // k + 1) for k in range(1, math.isqrt(n) + 1)) for n in ns
    ]
    assert counts.tolist() == want
    assert [rec.card_A for rec in scan(ns[1:], c=0.0)] == want[1:]


def test_theta_budgets_stay_within_the_verify_tolerance():
    # both budgets at most eq14-16's 1e-6 max(1, n), with the row's sum taken
    # as n log(n + 1) + 2 n, above log sigma(n) <= log n! + psi(n + 1)
    # (Prop 3); a Lucy row's sum passes the tolerance from about 2^45 on, so
    # at 2^48 the budget is the tolerance itself.  A _legendre_row's budget,
    # twice _factorial_budget, grows as n**1.5: a fiftieth of the tolerance
    # at 2^48, and the tolerance itself only from about 2^59
    t = PrimeTable()
    for n in (1, LUCY_THRESHOLD - 1, LUCY_THRESHOLD, _MUTANT_N, 1 << 40, 1 << 44, 1 << 48):
        tol, sums = 1e-6 * max(1, n), np.array([n * math.log(n + 1) + 2 * n])
        lucy = analytics._theta_budget([n], sums, sums, t, True)[0]
        assert np.all(0 < lucy) and np.all(lucy <= tol), n
        assert np.all((lucy == tol) == (n == 1 << 48)), n
        legendre = analytics._theta_budget([n], sums, sums, t, False)[0]
        if n < LUCY_THRESHOLD:
            assert np.array_equal(legendre, lucy), n
        else:
            assert np.all(legendre == 2 * analytics._factorial_budget(float(n))), n
            assert np.all(0 < legendre) and np.all(legendre < tol / 40), n


def test_every_row_takes_log_sigma_as_log_rho_plus_the_split(table_2_26):
    # one formula for log sigma, bit for bit as floats: table rows in blocks
    # and alone, _legendre_rows, and Lucy rows through theta_sum_sigma and
    # through _checked, which hands its rows to scan, the one-n functions and
    # verify eq14-16
    def off(rows):
        return [row for row in rows if row[1] != row[0] + (row[3] + row[4])]

    ns = [*range(1, 2001), *range((1 << 20) - 300, (1 << 20) + 300), LUCY_THRESHOLD - 1]
    assert len(list(analytics._blocks(_table_row_widths(ns)))) > 1
    assert off(analytics._table_rows(ns, table_2_26)) == []
    for n in (1, 5, 100, 3001, (1 << 20) + 7, LUCY_THRESHOLD - 1):
        assert off(analytics._table_rows([n], table_2_26)) == [], n
    heavy = [LUCY_THRESHOLD, LUCY_THRESHOLD + 12345, (1 << 26) + 5, _MUTANT_N]
    t = PrimeTable()
    analytics._scan_setup(heavy, t, True)
    for n in heavy:
        assert off([analytics._legendre_row(n, t)]) == [], n
        _, s1, s2 = s_split(n, t)  # the scan row's split, which the Lucy row shares
        assert theta_sum_sigma(n, t) == theta_sum_rho(n, t) + (s1 + s2), n
    grid = ns[::40] + heavy
    for theta in (False, True):
        analytics._scan_setup(grid, t, theta)
        chunks = [chunk for _, chunk, _, _ in analytics._checked(grid, t, theta)]
        assert sum(map(len, chunks)) == len(grid) and off(sum(chunks, [])) == [], theta


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
    # the row's log sigma, log rho + (s1 + s2), within _theta_budget's sigma
    # column of the exact value, on table rows and on Lucy rows; and within
    # the row's own share of it, the column less the check route's
    # _factorial_budget, allowing the reference its 5 units.  Below 13 the
    # share leans on the theta term's slack at k = n (_theta_budget): every
    # table row up to 200 against the fixed-point sums of _exact_logs
    u = 2.0**-52
    for n, (_, want) in zip(range(1, 201), _exact_logs(200)[1:]):
        lr, ls, *_ = next(analytics._table_rows([n], table_2_26))
        bound = analytics._theta_budget([n], np.array([lr]), np.array([ls]), table_2_26, False)
        share = bound[0, 1] - analytics._factorial_budget(float(n))
        assert abs(ls - want) <= share + math.ulp(want), n
    t = PrimeTable()
    for n, theta in (
        *((n, False) for n in (5, 100, 3001, (1 << 20) + 7, LUCY_THRESHOLD - 1)),
        *((n, True) for n in (LUCY_THRESHOLD, LUCY_THRESHOLD + 12345, (1 << 26) + 5)),
    ):
        if theta:
            lr, ls = theta_sum_rho(n, t), theta_sum_sigma(n, t)
        else:
            lr, ls, *_ = next(analytics._table_rows([n], table_2_26))
        bound = analytics._theta_budget([n], np.array([lr]), np.array([ls]), t, theta)[0, 1]
        exact = _exact_log_sigma(n, table_2_26)
        assert abs(ls - exact) <= bound, n
        assert abs(ls - exact) <= bound - analytics._factorial_budget(float(n)) + 5 * u * exact, n


def _lucy_row_by_parts(n, t):
    """(_lucy_row at n, theta_sigma): the row rebuilt from _lucy's arrays and
    _prime_flags, each sum over its own arrays: card_A and s1 from the prime
    n // k + 1, s2 from mult at the large prime v + 1, and log sigma as
    log rho + (s1 + s2); theta_sigma the sum of theta(n // k + 1), with
    theta(v + 1) by np.where."""
    q, small, large, mult = _quotients(n)
    _, (at_small, at_v) = analytics._lucy(n, t, q)
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


def test_lucy_rows_equal_their_parts():
    ns = [LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 3001 * 3002, 8191**2 - 1, *CUBE_NS, 1 << 26]
    ns.sort()
    t = PrimeTable(math.isqrt(ns[-1]) + 2)
    want = {}
    for n in ns:
        want[n], theta_sigma = _lucy_row_by_parts(n, t)
        assert analytics._lucy_row(n, t) == want[n], n
        assert _within_sigma_column(want[n], theta_sigma, n, t, theta=True), n
    # the rows up to 8191**2 - 1 as one block of _rows: q at the block's
    # width, the small side at the widest r, one cell narrower than q, as the
    # last row's top is r.  S1 at v depends on v alone, so the largest n's
    # serves every row
    ns = ns[: ns.index(8191**2 - 1) + 1]
    roots = [math.isqrt(n) for n in ns]
    w = ns[-1] // (roots[-1] + 1) + 1
    assert w == roots[-1] + 1
    q = np.array(ns, dtype=np.int64)[:, None] // np.arange(1, w + 1, dtype=np.int64)
    rho_q, prime_q = np.zeros((len(ns), roots[-1])), np.zeros((len(ns), roots[-1]), dtype=bool)
    rho_v = analytics._lucy(ns[-1], t, q[-1])[1][1]
    for i, (n, r) in enumerate(zip(ns, roots)):
        _, (at_small, at_v) = analytics._lucy(n, t, _quotients(n)[0])
        assert np.array_equal(at_v, rho_v[: len(at_v)]), n
        bases = t.primes_up_to(r)[: analytics._PREFILTER_PRIMES]
        rho_q[i, :r], prime_q[i, :r] = at_small, analytics._prime_flags(q[i, :r] + 1, bases)
    rows = analytics._rows(ns, q, rho_q, prime_q, rho_v, t.prime_mask(w + 1))
    assert rows == [want[n] for n in ns]


def test_legendre_rows_equal_lucy_rows_in_the_prime_quotients():
    # _prime_quotients sums card_A, s1 and s2 for both rows from the same
    # arrays, so they are equal bit for bit; log rho and log sigma are within
    # the new row's budget of the check route, and a few ulps of the Lucy
    # row's.  The exponents are Legendre's, v_p(n!) - n // p, exactly
    ns = [LUCY_THRESHOLD, LUCY_THRESHOLD + 1, *CUBE_NS, 1 << 26, _MUTANT_N]
    t = PrimeTable()
    analytics._scan_setup(ns, t, True)
    for n in ns:
        lucy, row = analytics._lucy_row(n, t), analytics._legendre_row(n, t)
        assert row[2:] == lucy[2:], n
        route = [float(v[0]) for v in analytics._factorial_sums([n], t)]
        bound = analytics._theta_budget([n], *([v] for v in row[:2]), t, False)[0].tolist()
        for got, want, lucy_value, b in zip(row[:2], route, lucy[:2], bound):
            assert abs(got - want) <= b and abs(got - lucy_value) <= 8 * math.ulp(got), n
        ps = t.primes_up_to(math.isqrt(n))
        e = [primes.factorial_valuation(n, p) - n // p for p in ps.tolist()]
        assert analytics._legendre_exponents(n, ps).tolist() == e, n


def test_quotient_flags_equal_prime_flags_at_every_k():
    # the sieved window's flags of n // k + 1 against _prime_flags at every
    # k <= r, on a table up to r + 2 alone; beside the n of the route's
    # edges, an x_k on the window's last value, one on the first value past
    # it, and one on p**2, p = isqrt(window end) the largest crossing prime
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
        assert t.limit == r + 2, n


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
        for theta, estimate in ((False, analytics._legendre_bytes), (True, analytics._row_bytes)):
            t = PrimeTable(math.isqrt(n) + 2)
            t.primes_up_to(2)  # the table's arrays are built before the row, as in a scan
            tracemalloc.start()
            try:
                next(analytics._records([n], c_mid, t, theta))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= estimate(n), (n, theta, peak)


def test_lucy_rows_leave_the_table_as_the_scan_set_up_left_it(c_mid):
    # once scan_records has set up, no row grows the table, and its arrays
    # are derived once, by the first row: rows from LUCY_THRESHOLD on read it
    # up to sqrt(n) + 2, and the check route's prime powers no further
    class Counted(PrimeTable):
        derived = 0

        def _derived(self):
            self.derived += self._arrays is None
            return super()._derived()

    ns = [LUCY_THRESHOLD, 3001**2 - 1, (1 << 26) + 5, (1 << 30) + 12345, (1 << 31) + 7]
    expected = scan(ns, table=PrimeTable(), c=c_mid)
    t = Counted()
    records = analytics.scan_records(ns, table=t, c=c_mid)
    limit = t.limit
    assert list(records) == expected
    assert t.limit == limit and t.derived == 1


def test_scan_asks_memory_for_the_rows_in_flight(monkeypatch):
    # the rows run one at a time, the table rows before the first row from
    # LUCY_THRESHOLD on: one row at max(ns) is priced, the scan's by
    # _legendre_bytes, verify eq14-16's Lucy rows by _row_bytes
    asked = []
    monkeypatch.setattr(primes, "require_memory", lambda need, what: asked.append((need, what)))
    top = 1 << 40
    grids = [[100, top], [top - 1, top], [top - 2, top - 1, top], [LUCY_THRESHOLD, top], [100, 200]]
    for ns in grids:
        for theta, estimate in ((False, analytics._legendre_bytes), (True, analytics._row_bytes)):
            asked.clear()
            analytics._scan_setup(ns, PrimeTable(), theta)
            rows = [(need, what) for need, what in asked if "scan row" in what]
            assert rows == [(estimate(ns[-1]), f"a scan row at n = {ns[-1]}")], (ns, theta)
        asked.clear()
        analytics.scan_records(ns, table=PrimeTable(), c=0.0)
        need = [need for need, what in asked if "scan row" in what]
        assert need == [analytics._legendre_bytes(ns[-1])], ns


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
