import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wreathspringer.matrices import (
    BlockMonomial,
    as_matrix,
    identity_matrix,
    kron,
    kron_all,
    mat_mul,
    mat_rank,
    trace,
    trace_of_product,
)

from oracles import naive_mat_mul, naive_trace


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
    assert all(x == 0 for row in mat_pow(j, 2) for x in row)
    assert trace(as_matrix([[1, 5], [2, Fraction(1, 3)]])) == Fraction(4, 3)


def test_kron_shapes_and_values():
    a = as_matrix([[1, 2]])
    b = as_matrix([[3], [4]])
    k = kron(a, b)
    assert k == as_matrix([[3, 6], [4, 8]])
    assert kron_all([identity_matrix(2), identity_matrix(3)]) == identity_matrix(6)
    assert kron_all([k]) == k


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


# -- block-monomial matrices against their dense form

def random_coset_perm(rng, cosets, fixed):
    """A permutation of range(cosets) that fixes all, some or none of them."""
    if fixed == "all":
        return tuple(range(cosets))
    moved = list(range(cosets))
    rng.shuffle(moved)
    if fixed == "some":
        moved = moved[: rng.randint(2, cosets - 1)]
    shift = rng.randint(1, len(moved) - 1)  # a rotation of the moved set fixes none of it
    perm = list(range(cosets))
    for i, k in enumerate(moved):
        perm[k] = moved[(i + shift) % len(moved)]
    return tuple(perm)


def random_block(rng, size):
    block = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)
    ]
    if not any(x for row in block for x in row):
        block[0][0] = Fraction(1)  # no zero block, so the permutation shows in the dense form
    return as_matrix(block)


def random_block_monomial(rng, cosets, size, fixed):
    return BlockMonomial(
        random_coset_perm(rng, cosets, fixed),
        tuple(random_block(rng, size) for _ in range(cosets)),
    )


def fixings(cosets):
    """The fixed-coset patterns a permutation of this many cosets can have."""
    return ("all",) + ("none",) * (cosets > 1) + ("some",) * (cosets > 2)


SHAPES = [
    (cosets, size, fixed)
    for cosets in (1, 2, 3, 5)
    for size in (1, 2, 3)
    for fixed in fixings(cosets)
]


@pytest.mark.parametrize("cosets,size,fixed", SHAPES)
def test_block_monomial_matches_dense_oracle(cosets, size, fixed):
    rng = random.Random(f"{cosets} {size} {fixed}")
    expected_fixed = {"all": {cosets}, "none": {0}, "some": set(range(1, cosets))}[fixed]
    for _ in range(8):
        a = random_block_monomial(rng, cosets, size, fixed)
        b = random_block_monomial(rng, cosets, size, rng.choice(fixings(cosets)))
        assert sum(j == k for k, j in enumerate(a.perm)) in expected_fixed
        da, db = a.dense(), b.dense()
        assert len(da) == cosets * size
        assert (a @ b).dense() == mat_mul(da, db)
        assert a.trace_of_product(b) == trace(mat_mul(da, db)) == trace((a @ b).dense())
        assert a == BlockMonomial(tuple(a.perm), tuple(a.blocks))
        assert (a == b) == (da == db)
        changed = list(a.blocks)
        changed[-1] = as_matrix([[x + 1 for x in row] for row in changed[-1]])
        other = BlockMonomial(a.perm, tuple(changed))
        assert other != a and other.dense() != da
        if cosets > 1:
            shifted = BlockMonomial(a.perm[1:] + a.perm[:1], a.blocks)
            assert shifted != a and shifted.dense() != da


def test_block_monomial_identity_and_one_coset():
    rng = random.Random(7)
    a = random_block_monomial(rng, 3, 2, "some")
    one = BlockMonomial.identity(3, 2)
    assert one.dense() == identity_matrix(6)
    assert a @ one == a == one @ a
    dense = random_block(rng, 4)
    single = BlockMonomial.one_coset(dense)
    assert single.dense() == dense
    assert single.trace_of_product(BlockMonomial.identity(1, 4)) == trace(dense)
    with pytest.raises(ValueError):
        a @ BlockMonomial.identity(2, 3)
    with pytest.raises(ValueError):
        a.trace_of_product(BlockMonomial.identity(2, 3))


# -- products against the triple-loop oracle

# mostly zeros and +-1, as in Specht blocks and slot permutations, with ints
# and Fractions mixed (an integral Fraction included)
ENTRIES = st.sampled_from(
    [0, 0, 0, 1, -1, 2, Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 4)]
)


def exact(x):
    return type(x) is int or type(x) is Fraction


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols matrix of ENTRIES, sometimes with a zero row and a zero
    column."""
    a = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [0] * cols
    if draw(st.booleans()):
        k = draw(st.integers(0, cols - 1))
        for row in a:
            row[k] = Fraction(0)
    return tuple(map(tuple, a))


@st.composite
def product_pairs(draw):
    """An n x k and a k x p matrix, 1x1 and non-square shapes included."""
    n, k, p = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, p))


@given(product_pairs())
def test_mat_mul_matches_triple_loop_oracle(pair):
    a, b = pair
    got = mat_mul(a, b)
    assert got == naive_mat_mul(a, b)
    assert all(exact(x) for row in got for x in row)
    if len(a) == len(b[0]):
        assert trace_of_product(a, b) == naive_trace(naive_mat_mul(a, b))


@given(product_pairs(), st.integers(1, 4))
def test_mat_mul_refuses_a_shape_mismatch(pair, extra):
    a, b = pair
    taller = b + ((0,) * len(b[0]),) * extra
    with pytest.raises(ValueError):
        mat_mul(a, taller)
    with pytest.raises(ValueError):
        naive_mat_mul(a, taller)
    with pytest.raises(ValueError):
        trace_of_product(a, taller)


def test_products_whose_sums_cancel_to_zero():
    a = ((1, Fraction(1, 2)), (Fraction(1, 3), 0))
    b = ((Fraction(-1, 2), 1), (1, -2))
    assert mat_mul(a, b) == naive_mat_mul(a, b) == ((0, 0), (Fraction(-1, 6), Fraction(1, 3)))
    assert trace_of_product(a, b) == Fraction(1, 3) == naive_trace(naive_mat_mul(a, b))
    assert mat_mul(((Fraction(1, 2),),), ((2,),)) == ((1,),)
    assert mat_mul(((1, 1),), ((1,), (-1,))) == ((0,),)
    assert trace_of_product(((1, 1),), ((1,), (-1,))) == 0


def test_one_by_one_products_are_scalars():
    assert mat_mul(((3,),), ((-2,),)) == ((-6,),)
    assert type(mat_mul(((3,),), ((-2,),))[0][0]) is int
    assert mat_mul(((Fraction(2, 3),),), ((0,),)) == ((0,),)
    with pytest.raises(ValueError):
        mat_mul(((1,),), ((1,), (2,)))


@st.composite
def block_monomial_pairs(draw):
    cosets, size = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def one():
        perm = tuple(draw(st.permutations(range(cosets))))
        return BlockMonomial(perm, tuple(draw(matrices(size, size)) for _ in range(cosets)))

    return one(), one()


@given(block_monomial_pairs())
def test_block_products_match_the_oracle_on_dense(pair):
    a, b = pair
    product = naive_mat_mul(a.dense(), b.dense())
    assert (a @ b).dense() == product
    assert a.trace_of_product(b) == naive_trace(product)
    assert trace(a.dense()) == naive_trace(a.dense())
