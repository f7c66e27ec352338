"""Exact-rational matrices: dense, and block-monomial.

A dense matrix is a tuple of tuples of exact rationals, each an `int` or a
`fractions.Fraction`: int and Fraction arithmetic is exact, and two ints
multiply and add without building a Fraction.  Specht blocks, slot
permutations and their Kronecker products are nearly all zeros, so a
product multiplies only pairs of nonzeros, reading each row of the right
factor once as its nonzero entries.  Every module
the package builds is induced from a subgroup, so its matrices have one
nonzero block per coset, placed by a permutation of the cosets;
`BlockMonomial` stores exactly that and multiplies block by block, so a
product costs O(cosets * block^3) instead of O((cosets * block)^3), and a
trace reads only the cosets the permutation fixes (the Frobenius formula
for induced characters).  A dense matrix is its one-coset case.  The rank
uses fraction-free (Bareiss) elimination over the integers to avoid
denominator churn, and the Jordan type of a nilpotent matrix is read off
its sequence of ranks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import NamedTuple

from .combinatorics import Partition, conjugate_partition

Scalar = int | Fraction
Matrix = tuple[tuple[Scalar, ...], ...]


def as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product at the cost of its nonzero pairs: each row of b is read
    once as its nonzero (column, value) pairs, and each nonzero a[i][j]
    adds a[i][j] * b[j][k] into row i's accumulator, where an entry's first
    term is stored rather than added to a zero.  Two 1x1 operands multiply
    as scalars."""
    if len(a[0]) != len(b):
        raise ValueError(
            f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}"
        )
    if len(a) == len(b) == len(b[0]) == 1:
        return ((a[0][0] * b[0][0],),)
    width = len(b[0])
    b_nonzero = [[(k, y) for k, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = {}
        for x, pairs in zip(row, b_nonzero):
            if x:
                for k, y in pairs:
                    v = acc.get(k)
                    acc[k] = x * y if v is None else v + x * y
        dense = [0] * width
        for k, v in acc.items():
            dense[k] = v
        out.append(tuple(dense))
    return tuple(out)


def trace(a: Matrix) -> Scalar:
    return sum((a[i][i] for i in range(len(a))), 0)


def trace_of_product(a: Matrix, b: Matrix) -> Scalar:
    """trace(a b) without forming the product: the sum of a[i][j] * b[j][i]
    over the nonzero entries of a, where b[j][i] is nonzero too."""
    if len(a[0]) != len(b) or len(a) != len(b[0]):
        raise ValueError(
            f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])} is not square"
        )
    terms = [x * b[j][i] for i, row in enumerate(a) for j, x in enumerate(row) if x and b[j][i]]
    return sum(terms[1:], terms[0]) if terms else 0


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major: slot order matches itertools.product."""
    return tuple(
        tuple(x * y for x in arow for y in brow)
        for arow in a
        for brow in b
    )


def kron_all(ms) -> Matrix:
    """The Kronecker product of one or more matrices, left to right."""
    return reduce(kron, ms)


def permute_columns(a: Matrix, order) -> Matrix:
    """The matrix whose column c is column ``order[c]`` of a: a times the
    permutation matrix that sends basis vector c to ``order[c]``."""
    return tuple(tuple(row[k] for k in order) for row in a)


class BlockMonomial(NamedTuple):
    """A square matrix with one nonzero block per column block: column
    block k holds the square matrix ``blocks[k]`` in row block ``perm[k]``,
    and ``perm`` is a permutation of the block indices (the cosets).

    Products, traces of products and equality are exact and read the blocks
    only; the block products go through `mat_mul`.  `dense` gives the full
    matrix."""

    perm: tuple[int, ...]
    blocks: tuple[Matrix, ...]

    @classmethod
    def one_coset(cls, a: Matrix) -> "BlockMonomial":
        """A dense matrix as the case of a single block."""
        return cls((0,), (a,))

    @classmethod
    def identity(cls, cosets: int, size: int) -> "BlockMonomial":
        return cls(tuple(range(cosets)), (identity_matrix(size),) * cosets)

    def __matmul__(self, other: "BlockMonomial") -> "BlockMonomial":
        # column block k of other lands in row block j = other.perm[k],
        # which self sends to self.perm[j] through self.blocks[j]
        if len(self.perm) != len(other.perm):
            raise ValueError(f"coset mismatch: {len(self.perm)} times {len(other.perm)}")
        perm, blocks = self.perm, self.blocks
        return BlockMonomial(
            tuple(perm[j] for j in other.perm),
            tuple(mat_mul(blocks[j], b) for j, b in zip(other.perm, other.blocks)),
        )

    def trace_of_product(self, other: "BlockMonomial") -> Scalar:
        """trace(self @ other) without forming it: the cosets k with
        self.perm[other.perm[k]] == k, each contributing the trace of its
        block product."""
        if len(self.perm) != len(other.perm):
            raise ValueError(f"coset mismatch: {len(self.perm)} times {len(other.perm)}")
        perm, blocks = self.perm, self.blocks
        return sum(
            (
                trace_of_product(blocks[j], b)
                for k, (j, b) in enumerate(zip(other.perm, other.blocks))
                if perm[j] == k
            ),
            0,
        )

    def dense(self) -> Matrix:
        if len(self.perm) == 1:
            return self.blocks[0]
        size = len(self.blocks[0])
        dim = len(self.perm) * size
        rows = [[0] * dim for _ in range(dim)]
        for k, (j, block) in enumerate(zip(self.perm, self.blocks)):
            for r, block_row in enumerate(block):
                rows[j * size + r][k * size:(k + 1) * size] = block_row
        return tuple(tuple(row) for row in rows)


def mat_rank(rows) -> int:
    """Rank over the rationals, by fraction-free Gaussian elimination.

    Rows are scaled to integers first; the Bareiss update keeps all
    intermediate entries integral (the division is exact).
    """
    work = []
    for row in rows:
        frow = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in frow)) if frow else 1
        work.append([int(x * scale) for x in frow])
    if not work or not work[0]:
        return 0
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot_row = next((r for r in range(rank, n_rows) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, n_rows):
            lead = work[r][col]
            for c in range(col, n_cols):
                work[r][c] = (work[r][c] * pivot - lead * work[rank][c]) // prev
        prev = pivot
        rank += 1
    return rank


def jordan_type(matrix) -> Partition:
    """Jordan type of a nilpotent matrix over the rationals, from the exact
    rank sequence: the conjugate partition has parts rank(A^(k-1)) - rank(A^k).
    An n x n matrix is nilpotent exactly when one of A, ..., A^n has rank 0."""
    a = as_matrix(matrix)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    ranks = [n]
    power = a
    for _ in range(n):
        ranks.append(mat_rank(power))
        if not ranks[-1]:
            break
        power = mat_mul(power, a)
    if ranks[-1]:
        raise ValueError("matrix is not nilpotent")
    conj = tuple(ranks[k - 1] - ranks[k] for k in range(1, len(ranks)))
    return conjugate_partition(conj)
