import json
import math

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
from lcmf import analytics, cli, primes
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
        assert analytics._record(n, c_mid, t) == (
            n, lr, ls, lr - (n * logn - (c_mid + 1.0) * n), ls - (n * logn - n),
            card, card * logn / math.sqrt(n), s1, s2,
        ), n
        assert (theta_sum_rho(n, t), theta_sum_sigma(n, t)) == want[:2], n
        assert s_split(n, t) == (s1 + s2, s1, s2), n
        assert quotient_prime_count(n, t) == card, n


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


def _row_budget(n, shift):
    """Budget on a row's sum over k of theta(n // k + shift), from _s1_budget."""
    q = small, large, _ = analytics._quotients(n)
    updates = len(default_table().primes_up_to(math.isqrt(n)))
    at_small = analytics._s1_budget(small + shift, updates)
    return analytics._quotient_sum(q, at_small, analytics._s1_budget(large + shift, updates))


def _lucy_at(n):
    """(quotients, S0, S1) of _lucy at n, small quotients then large."""
    q = small, large, _ = analytics._quotients(n)
    (pi_small, pi_large), (th_small, th_large) = analytics._lucy(
        n, PrimeTable(math.isqrt(n) + 2), q
    )
    return (
        np.concatenate((small, large)),
        np.concatenate((pi_small, pi_large)),
        np.concatenate((th_small, th_large)),
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
            analytics._record(n, c_mid, t)
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
