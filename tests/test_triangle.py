import itertools

import pytest

from lcmf import triangle
from lcmf.factored import FactoredNatural
from lcmf.products import WeightFunction, weighted_prime_product
from lcmf.triangle import diagonal, iter_rows, q, rows_decimal, sigma_from_diagonal
from lcmf.verify import check_cor2, check_prop1

from oracles import naive_q

# rows n = 0..7 of the triangle, row-major
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


def test_triangle_table():
    got = rows_decimal(7)
    expected = [[str(v) for v in row] for row in TRIANGLE_TABLE]
    assert got == expected


@pytest.mark.parametrize("n,k,value", [(5, 1, 60), (6, 3, 24), (7, 2, 360)])
def test_q_spot_values(n, k, value):
    assert q(n, k).to_decimal() == str(value)


def test_q_against_naive_enumeration():
    table = [list(row) for row in iter_rows(12)]  # one step table for every entry
    for n in range(13):
        for k in range(n + 1):
            assert int(q(n, k).to_decimal()) == naive_q(n, k), (n, k)
            assert int(table[n][k].to_decimal()) == naive_q(n, k), (n, k)


def test_sweeps_read_one_table():
    prop1 = check_prop1(40)
    assert prop1.passed and prop1.cases == 1968
    cor2 = check_cor2(150)
    assert cor2.passed and cor2.cases == 151


def test_prop1_streams_its_pairs_to_the_table():
    # check_prop1 reads its d(n, k) = q(n + k, k) from one table as a
    # stream of pairs: its tracemalloc peak, the table's part-limit layers
    # and a few entries, stays under what the list of its pairs alone
    # holds, which a sweep that lists them first adds to that peak
    import tracemalloc

    nmax = 240
    tracemalloc.start()
    try:
        pairs = [(n + k, k) for n in range(nmax + 1) for k in range(max(2 * n + 2, n + 6))]
        listed = tracemalloc.get_traced_memory()[0]
        del pairs
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = check_prop1(nmax)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.passed and result.cases == 59768
    assert peak < listed, (peak, listed)


def test_q_rejects_bad_args():
    with pytest.raises(ValueError):
        q(3, 4)
    with pytest.raises(ValueError):
        q(-1, 0)


def test_diagonal_rejects_bad_args():
    for n, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="n and k must be >= 0"):
            diagonal(n, k)


def test_diagonal_values():
    assert diagonal(2, 2).to_decimal() == "12"
    assert diagonal(2, 5).to_decimal() == "12"  # frozen beyond k = n
    for k in range(8):
        assert diagonal(0, k) == FactoredNatural.one()


def test_sigma_from_diagonal_small():
    assert sigma_from_diagonal(0) == FactoredNatural.one()
    assert sigma_from_diagonal(2).to_decimal() == "12"
    assert sigma_from_diagonal(3).to_decimal() == "24"


def test_diagonal_lcm_chain_freezes():
    # the running lcm of q(n+k, k) over k stabilizes at k = n, where it
    # equals the shifted-weight prime product
    shifted = WeightFunction.shifted()
    for n in range(9):
        acc, values = {}, []
        for k in range(n + 4):
            for p, e in diagonal(n, k).items():  # the lcm: each exponent's max
                acc[p] = max(acc.get(p, 0), e)
            values.append(FactoredNatural(acc))
        assert values[-1] == values[n if n < len(values) else -1]
        assert values[n] == weighted_prime_product(shifted, n)
        assert all(v == values[n] for v in values[n:])


def _times_7(value: FactoredNatural) -> FactoredNatural:
    return FactoredNatural({**value.factors, 7: value.valuation(7) + 1})


def test_prop1_and_cor2_report_a_faulty_lcm_side(monkeypatch):
    # q(3, 1), q(3, 3) and q(10, 5) read 7 times too large: d(2, 1) = q(3, 1)
    # then divides no d(2, 2), d(0, 3) = q(3, 3) leaves the frozen d(0, 0),
    # and q(10, 5) is no longer sigma(5).  A pair (m, k) is d(m - k, k), read
    # at the one n = m - k
    real = triangle._entries

    def faulty(pairs, budget):
        pairs, feed = itertools.tee(pairs)
        for pair, value in zip(pairs, real(feed, budget)):
            yield _times_7(value) if pair in {(3, 1), (3, 3), (10, 5)} else value

    assert check_prop1(4).passed and check_cor2(8).passed
    monkeypatch.setattr(triangle, "_entries", faulty)
    res = check_prop1(4)
    assert res.cases == 60 and res.violations == ["d(0,3) != d(0,0)", "d(2,1) does not divide d(2,2)"]
    res = check_cor2(8)
    assert res.cases == 9 and res.violations == ["sigma(5) != q(10,5)"]
