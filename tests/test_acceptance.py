"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a single summary line (visible with pytest -s); the pytest
verdict per test is the pass/fail record.  Shared heavyweight inputs (the
tight constant enclosure and the dyadic-range scan) are session fixtures.
"""

import math
import time

import pytest

from lcmf import analytics, triangle, verify
from lcmf.analytics import block_envelopes, quotient_count_sup, sampled_dyadic_grid
from lcmf.products import WeightFunction

TRIANGLE_TABLE = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 6, 2, 1],
    [1, 12, 12, 2, 1],
    [1, 60, 12, 12, 2, 1],
    [1, 60, 360, 24, 12, 2, 1],
    [1, 420, 360, 360, 24, 12, 2, 1],
]


@pytest.fixture(scope="module")
def enclosure():
    return analytics.prime_series_constant(analytics.DEFAULT_TAIL_CUT)


@pytest.fixture(scope="module")
def envelope_records(enclosure):
    ns = sampled_dyadic_grid(14, 22, per_block=8) + [1 << 23]
    return analytics.scan(ns, c=enclosure.midpoint)


def test_c01_product_equals_multiset_lcm():
    t0 = time.time()
    cases = 0
    for f in (
        WeightFunction.linear(),
        WeightFunction.shifted(),
        WeightFunction.power(2),
        WeightFunction.log(),
    ):
        result = verify.check_theorem1(f)
        assert result.passed, result.violations[:3]
        cases += result.cases
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"PASS 01 product-vs-lcm equivalence: {cases} cases in {elapsed:.1f}s")


def test_c02_triangle_table():
    t0 = time.time()
    got = triangle.rows_decimal(7)
    expected = [[str(v) for v in row] for row in TRIANGLE_TABLE]
    assert got == expected
    elapsed = time.time() - t0
    assert elapsed < 5
    entries = sum(len(r) for r in got)
    print(f"PASS 02 triangle reproduction: {entries} entries in {elapsed:.2f}s")


def test_c03_diagonal_divisibility_and_freezing():
    result = verify.check_prop1(12)
    assert result.passed, result.violations[:3]
    print(f"PASS 03 diagonal divisibility/freezing: {result.cases} cases, 0 violations")


def test_c04_sigma_equals_frozen_diagonal():
    result = verify.check_cor2(25)
    assert result.passed, result.violations[:3]
    print(f"PASS 04 sigma equals frozen diagonal: n <= 25, 0 violations")


def test_c05_divisibility_chain_and_sandwich():
    t0 = time.time()
    r2 = verify.check_prop2(5000)
    r3 = verify.check_prop3(5000)
    assert r2.passed, r2.violations[:3]
    assert r3.passed, r3.violations[:3]
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"PASS 05 divisibility chain + sandwich: n <= 5000 in {elapsed:.1f}s")


def test_c06_valuation_dual_routes():
    result = verify.check_theorem2(3000)
    assert result.passed, result.violations[:3]
    print(f"PASS 06 valuation dual routes: {result.cases} (n, p) pairs, 0 violations")


def test_c07_theta_sum_identities():
    result = verify.check_theta_identities(100_000, points=1000)
    assert result.passed, result.violations[:3]
    print(f"PASS 07 theta-sum identities: {result.cases} grid points at 1e-6*max(1,n)")


def test_c08_constant_enclosure(enclosure):
    assert enclosure.width <= 1e-6
    # both endpoints certify the reported leading digits 0.755
    assert math.floor(enclosure.lo * 1000) == 755
    assert math.floor(enclosure.hi * 1000) == 755
    cuts = [1000, 10_000, 100_000, 1_000_000]
    encs = [analytics.prime_series_constant(x) for x in cuts] + [enclosure]
    assert 0.755 in encs[0]
    for a, b in zip(encs, encs[1:]):
        assert b.lo >= a.lo and b.hi <= a.hi
    print(
        f"PASS 08 constant enclosure: [{enclosure.lo:.9f}, {enclosure.hi:.9f}] "
        f"width {enclosure.width:.2e}"
    )


def test_c09_residual_envelopes(envelope_records, enclosure):
    t0 = time.time()
    envs = block_envelopes(envelope_records)
    assert [e.block for e in envs] == list(range(14, 24))
    for prev, cur in zip(envs, envs[1:]):
        assert cur.sup_rho <= 1.5 * prev.sup_rho, (prev, cur)
        assert cur.sup_sigma <= 1.5 * prev.sup_sigma, (prev, cur)
    # growth-rate side condition on the supporting scan: log sigma ~ n log n
    for rec in envelope_records:
        if rec.n >= 100_000:
            assert 0.9 < rec.log_sigma / (rec.n * math.log(rec.n)) < 1.1
    elapsed = time.time() - t0
    assert elapsed < 600
    sups = ", ".join(f"2^{e.block}:{e.sup_rho:.3f}/{e.sup_sigma:.3f}" for e in envs)
    print(f"PASS 09 residual envelopes (rho/sigma block sups): {sups}")


def test_c10_quotient_count_envelope(envelope_records):
    sup = quotient_count_sup(envelope_records)
    assert math.isfinite(sup) and sup > 0
    lines = ", ".join(
        f"2^{e.block}:[{e.conj2_min:.3f},{e.conj2_max:.3f}]"
        for e in block_envelopes(envelope_records)
    )
    print(f"PASS 10 count envelope: sup card_A*sqrt(log n / n) = {sup:.4f}; stat ranges {lines}")


def test_c11_split_decomposition():
    result = verify.check_split(10_000)
    assert result.passed, result.violations[:3]
    print(f"PASS 11 split at sqrt(n+1): n <= 10000, 0 violations; {result.notes[0]}")
