import pytest

from lcmf.factored import FactoredNatural
from lcmf.products import WeightFunction, weighted_prime_product
from lcmf.triangle import diagonal, q, rows, rows_decimal, sigma_from_diagonal
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
    table = rows(12)  # one step table for every entry
    for n in range(13):
        for k in range(n + 1):
            assert int(q(n, k).to_decimal()) == naive_q(n, k), (n, k)
            assert int(table[n][k].to_decimal()) == naive_q(n, k), (n, k)


def test_sweeps_read_one_table():
    prop1 = check_prop1(40)
    assert prop1.passed and prop1.cases == 1968
    cor2 = check_cor2(150)
    assert cor2.passed and cor2.cases == 151


def test_q_rejects_bad_args():
    with pytest.raises(ValueError):
        q(3, 4)
    with pytest.raises(ValueError):
        q(-1, 0)


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
        acc = FactoredNatural.one()
        values = []
        for k in range(n + 4):
            acc = acc.lcm(diagonal(n, k))
            values.append(acc)
        assert values[-1] == values[n if n < len(values) else -1]
        assert values[n] == weighted_prime_product(shifted, n)
        assert all(v == values[n] for v in values[n:])
