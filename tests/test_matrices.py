import random
from fractions import Fraction

import pytest

from wreathspringer.matrices import (
    as_matrix,
    identity_matrix,
    is_zero_matrix,
    kron,
    kron_all,
    mat_mul,
    mat_rank,
    trace,
    trace_of_product,
)


def mat_pow(a, k):
    out = identity_matrix(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def echelon_rank(rows):
    """Oracle: plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            for c in range(col, len(m[0])):
                m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


def test_exact_scalar_contract():
    # always lowest terms, positive denominator, no rounding
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(3, -6).denominator == 2
    assert Fraction(3, -6).numerator == -1
    big = Fraction(10**40, 3) * 3
    assert big == 10**40


def test_mat_mul_and_identity():
    a = as_matrix([[1, 2], [3, 4]])
    assert mat_mul(a, identity_matrix(2)) == a
    assert mat_mul(a, a) == as_matrix([[7, 10], [15, 22]])
    with pytest.raises(ValueError):
        mat_mul(a, identity_matrix(3))


def test_mat_pow_and_trace():
    j = as_matrix([[0, 1], [0, 0]])
    assert mat_pow(j, 2) == as_matrix([[0, 0], [0, 0]])
    assert is_zero_matrix(mat_pow(j, 2))
    assert trace(as_matrix([[1, 5], [2, Fraction(1, 3)]])) == Fraction(4, 3)


def test_kron_shapes_and_values():
    a = as_matrix([[1, 2]])
    b = as_matrix([[3], [4]])
    k = kron(a, b)
    assert k == as_matrix([[3, 6], [4, 8]])
    assert kron_all([identity_matrix(2), identity_matrix(3)]) == identity_matrix(6)


def test_rank_known_matrices():
    assert mat_rank([[1, 2], [2, 4]]) == 1
    assert mat_rank(identity_matrix(4)) == 4
    assert mat_rank([]) == 0
    assert mat_rank([[0, 0], [0, 0]]) == 0
    # exact cancellation of fractions
    assert mat_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]) == 1
    # rectangular
    assert mat_rank([[1, 0, 1], [0, 1, 1]]) == 2


def test_rank_matches_echelon_oracle():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        assert mat_rank(m) == echelon_rank(m)


def test_trace_of_product_matches_full_product():
    rng = random.Random(5)
    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(n)]
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)]
        a, b = as_matrix(a), as_matrix(b)
        assert trace_of_product(a, b) == trace(mat_mul(a, b))
    assert trace_of_product(as_matrix([[0, 0]]), as_matrix([[0], [0]])) == 0
    with pytest.raises(ValueError):
        trace_of_product(identity_matrix(2), identity_matrix(3))
    with pytest.raises(ValueError):
        trace_of_product(as_matrix([[1, 2]]), as_matrix([[1, 2]]))
