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
    """(log_rho, log_sigma, card_A, s1, s2) of n the long way: the quotients by
    three divisions, theta by a search of the primes at each of n // k,
    n // k + 1, v and v + 1, and the sums in the same order as the table route."""
    r = math.isqrt(n)
    small = n // np.arange(1, r + 1, dtype=np.int64)
    large = np.arange(1, n // (r + 1) + 1, dtype=np.int64)
    mult = n // large - n // (large + 1)

    def total(at_small, at_large):
        return float(np.sum(at_small) + np.sum(mult * at_large))

    mask = t.prime_mask(n + 2)
    small_prime, large_prime = mask[small + 1], mask[large + 1]
    hits = small[small_prime] + 1
    return (
        total(t.theta_many(small), t.theta_many(large)),
        total(t.theta_many(small + 1), t.theta_many(large + 1)),
        len(hits),
        float(np.sum(np.log(hits))),
        float(np.sum(mult[large_prime] * np.log(large[large_prime] + 1))),
    )


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
        lr, ls, card, s1, s2 = want = _table_row_oracle(n, t)
        logn = math.log(n)
        assert analytics._records([n], c_mid, t)[0] == (
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
    want = dict(zip(ns, (_table_row_oracle(n, t) for n in ns)))
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
    # returned.  (A check-route row at 2^20 is wider than a block, 82,025
    # primes, and is a block of its own.)
    import tracemalloc

    t = PrimeTable((1 << 20) + 1000)
    t.primes_up_to(2)  # the table's arrays are built before the rows
    window = list(range((1 << 20) - 750, (1 << 20) + 750))
    grid = [100 * i for i in range(1, 1001)]
    for ns, route in (
        (window, lambda: list(analytics._table_rows(window, t))),
        (grid, lambda: list(analytics._table_rows(grid, t))),
        (grid, lambda: analytics._prime_sums(grid, t, 1)),
    ):
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * analytics._TABLE_BLOCK_CELLS + 200 * len(ns), (ns[0], peak)


def test_check_route_sums_equal_the_integer_quotients(monkeypatch):
    # blocks of many rows on the prime table, against the sum of the integer
    # quotients n // (p - shift) converted to float64, in the same order
    monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", 300)
    t = PrimeTable(1 << 17)
    ns = sorted({1, 2, 3, 4, 5, 97, 5040, 65535, 65536, 99_991, 100_000} | set(range(20, 2000, 7)))
    for shift in (0, 1):
        want = []
        for n in ns:
            ps = t.primes_up_to(n + shift)
            q = (n // (ps - shift)).astype(np.float64)
            want.append(float(np.sum(q * np.log(ps.astype(np.float64)))))
        assert analytics._prime_sums(ns, t, shift) == want
        assert [(log_rho, log_sigma)[shift](n, t) for n in ns] == want
    # the float64 floors are the integer quotients up to 2**53 - 1, at every
    # divisor d <= 5000; _prime_sums reads only primes_and_logs, and any
    # ascending divisors will do for it
    ds = np.arange(2, 5001, dtype=np.int64)
    fake = types.SimpleNamespace(primes_and_logs=lambda x: (ds, np.log(ds.astype(np.float64))))
    ns = [(1 << 52) + 1, 3 << 51, (1 << 53) - 5, (1 << 53) - 1]
    for shift in (0, 1):
        for n, got in zip(ns, analytics._prime_sums(ns, fake, shift)):
            q = np.array([n // (d - shift) for d in ds.tolist()], dtype=np.float64)
            assert got == float(np.add.reduce(q * np.log(ds.astype(np.float64)))), n
    for route in (log_rho, log_sigma):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            route(1 << 53, t)


def test_theta_identities_report_a_prime_cut_short(monkeypatch):
    # eq14-16 in blocks of many grid points; with the check route's last prime
    # dropped, the grid points that need it, and only those, are reported
    monkeypatch.setattr(analytics, "_TABLE_BLOCK_CELLS", 300)
    monkeypatch.setattr(primes, "_default_table", PrimeTable())
    res = verify.check_theta_identities(30_000)
    assert res.passed and res.cases == 1000

    class Short(PrimeTable):
        def primes_and_logs(self, x):
            ps, logs = super().primes_and_logs(x)
            return ps[:-1], logs[:-1]

    monkeypatch.setattr(primes, "_default_table", Short())
    res = verify.check_theta_identities(30_000, points=300)
    # 29989 is the largest prime below 30000, so n = 29900 needs it for
    # neither sum and n = 30000 for both; each loses log 29989, so the
    # quotient log split, their difference, still holds
    assert [v.split(" off")[0] for v in res.violations] == [
        "n=30000: theta sum for rho",
        "n=30000: theta sum for sigma",
    ]


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
    # a row depends on n alone: step:1, dyadic and per-n list grids and 1 or 2
    # workers agree byte for byte, on the table route and on Lucy's
    for start, stop in (
        (2, 400),
        ((1 << 20) - 40, (1 << 20) + 40),
        (LUCY_THRESHOLD - 20, LUCY_THRESHOLD + 20),
    ):
        dense = {r.n: r.csv_row() for r in scan(parse_grid("step:1", start, stop), c=c_mid)}
        pooled = scan(parse_grid("step:1", start, stop), c=c_mid, workers=2)
        assert [r.csv_row() for r in pooled] == list(dense.values())
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


def _row_budget(n, shift):
    """Budget on a row's sum over k of theta(n // k + shift), from _s1_budget."""
    _, small, large, mult = _quotients(n)
    updates = len(default_table().primes_up_to(math.isqrt(n)))
    at_small = analytics._s1_budget(small + shift, updates)
    return _quotient_sum(mult, at_small, analytics._s1_budget(large + shift, updates))


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
    recs = scan(ns, table=t, c=c_mid)
    assert t.limit < 1 << 14  # Lucy rows need the table only to sqrt(n) + 2
    for rec in recs:
        n = rec.n
        assert rec.card_A == quotient_prime_count(n, table_2_26)
        assert (rec.s1 + rec.s2, rec.s1, rec.s2) == s_split(n, table_2_26)
        # each route within the budget of theta, so the two within twice it
        assert abs(rec.log_rho - theta_sum_rho(n, table_2_26)) <= 2 * _row_budget(n, 0)
        assert abs(rec.log_sigma - theta_sum_sigma(n, table_2_26)) <= 2 * _row_budget(n, 1)


def _lucy_row_by_parts(n, t):
    """_lucy_row at n rebuilt from _lucy's arrays and _prime_flags, each sum
    over its own arrays: theta(v + 1) by np.where, card_A and s1 from the
    prime n // k + 1, s2 from mult at the large prime v + 1."""
    q, small, large, mult = _quotients(n)
    _, (at_small, at_v) = analytics._lucy(n, t, q)
    at_large = at_v[1:]
    small_prime = analytics._prime_flags(
        small + 1, t.primes_up_to(len(small))[: analytics._PREFILTER_PRIMES]
    )
    large_prime = t.prime_mask(len(small) + 1)[2 : len(large) + 2]
    hits = small[small_prime] + 1
    return (
        _quotient_sum(mult, at_small, at_large),
        _quotient_sum(
            mult,
            at_small + np.where(small_prime, np.log(small + 1), 0.0),
            at_large + np.where(large_prime, np.log(large + 1), 0.0),
        ),
        len(hits),
        float(np.add.reduce(np.log(hits))),
        float(np.add.reduce(mult[large_prime] * np.log(large[large_prime] + 1))),
    )


def test_lucy_rows_equal_their_parts():
    ns = [LUCY_THRESHOLD, LUCY_THRESHOLD + 1, 3001 * 3002, 8191**2 - 1, *CUBE_NS, 1 << 26]
    ns.sort()
    t = PrimeTable(math.isqrt(ns[-1]) + 2)
    want = {n: _lucy_row_by_parts(n, t) for n in ns}
    for n in ns:
        assert analytics._lucy_row(n, t) == want[n], n
    # the rows up to 8191**2 - 1 as one block of _rows: q at the block's
    # width, the small side at the widest r, one cell narrower than q, as the
    # last row's top is r.  S1 at v depends on v alone, so the largest n's
    # serves every row
    ns = ns[: ns.index(8191**2 - 1) + 1]
    roots = [math.isqrt(n) for n in ns]
    w = ns[-1] // (roots[-1] + 1) + 1
    assert w == roots[-1] + 1
    q = np.array(ns, dtype=np.int64)[:, None] // np.arange(1, w + 1, dtype=np.int64)
    rho_q, sigma_q = np.zeros((len(ns), roots[-1])), np.zeros((len(ns), roots[-1]))
    prime_q = np.zeros((len(ns), roots[-1]), dtype=bool)
    rho_v = analytics._lucy(ns[-1], t, q[-1])[1][1]
    for i, (n, r) in enumerate(zip(ns, roots)):
        _, (at_small, at_v) = analytics._lucy(n, t, _quotients(n)[0])
        assert np.array_equal(at_v, rho_v[: len(at_v)]), n
        bases = t.primes_up_to(r)[: analytics._PREFILTER_PRIMES]
        flags = analytics._prime_flags(q[i, :r] + 1, bases)
        rho_q[i, :r], prime_q[i, :r] = at_small, flags
        sigma_q[i, :r] = at_small + np.where(flags, np.log(q[i, :r] + 1), 0.0)
    hit = np.flatnonzero(t.prime_mask(w + 1)[2 : w + 1])
    sigma_v = rho_v.copy()
    sigma_v[hit + 1] += np.log(hit + 2)
    rows = analytics._rows(ns, q, rho_q, sigma_q, prime_q, rho_v, sigma_v, hit, np.log(hit + 2))
    assert rows == [want[n] for n in ns]


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
    import tracemalloc

    for n in (1 << 24, 1 << 28):
        t = PrimeTable(math.isqrt(n) + 2)
        t.primes_up_to(2)  # the table's arrays are built before the row, as in a scan
        tracemalloc.start()
        try:
            analytics._records([n], c_mid, t)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= analytics._row_bytes(n), (n, peak)


def test_scan_workers_take_lucy_rows_heaviest_first(monkeypatch, c_mid):
    import concurrent.futures

    tasks = []

    class InProcessPool:  # runs the tasks here, in the order they are handed out
        def __init__(self, initializer, initargs, **_):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            args = list(args)
            tasks.extend(ns for ns, _ in args)
            return map(fn, args)

    ns = [LUCY_THRESHOLD + 3, 7, LUCY_THRESHOLD + 1, *range(100, 120), 3 * LUCY_THRESHOLD]
    expected = scan(ns, c=c_mid)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert scan(ns, c=c_mid, workers=2) == expected
    lucy = [[3 * LUCY_THRESHOLD], [LUCY_THRESHOLD + 3], [LUCY_THRESHOLD + 1]]
    assert tasks == lucy + [[7, *range(100, 115)], list(range(115, 120))]


def test_scan_workers_deterministic(tmp_path, c_mid):
    ns = list(range(1000, 41_000, 1000))  # sparse: per-record path
    recs1 = scan(ns, c=c_mid, workers=1)
    recs8 = scan(ns, c=c_mid, workers=8)
    assert recs1 == recs8
    p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    write_csv(recs1, p1)
    write_csv(recs8, p8)
    assert p1.read_bytes() == p8.read_bytes()


def test_scan_workers_use_the_callers_table(monkeypatch, c_mid):
    class NoDefault:
        def __getattr__(self, name):
            raise AssertionError("worker used the default table")

    ns = range(1000, 41_000, 1000)
    expected = scan(ns, table=PrimeTable(1 << 16), c=c_mid, workers=1)
    monkeypatch.setattr(primes, "_default_table", NoDefault())
    assert scan(ns, table=PrimeTable(1 << 16), c=c_mid, workers=2) == expected


def test_scan_rejects_empty_or_bad():
    with pytest.raises(ValueError):
        scan([])
    with pytest.raises(ValueError):
        scan([0, 5])


def test_grids():
    assert dyadic_grid(16, 1 << 20) == [1 << j for j in range(4, 21)]
    assert len(dyadic_grid(16, 1 << 20)) == 17
    assert parse_grid("step:5", 3, 20) == [3, 8, 13, 18]
    assert parse_grid("list:7,3,3,9", 1, 100) == [3, 7, 9]
    assert sampled_dyadic_grid(4, 5, per_block=4) == [16, 20, 24, 28, 32, 40, 48, 56]
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
