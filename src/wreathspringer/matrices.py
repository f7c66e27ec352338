"""Dense exact-rational matrices.

Matrices are tuples of tuples of `fractions.Fraction`. Everything in this
package stays at desk scale (a few dozen rows at most), so clarity beats
asymptotics; the one algorithm that needs care is the rank, which uses
fraction-free (Bareiss) elimination over the integers to avoid denominator
churn.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError(
            f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}"
        )
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), _ZERO)


def trace_of_product(a: Matrix, b: Matrix) -> Fraction:
    """trace(a b) without forming the product: the sum of a[i][j] * b[j][i]."""
    if len(a[0]) != len(b) or len(a) != len(b[0]):
        raise ValueError(
            f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])} is not square"
        )
    return sum((x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col) if x), _ZERO)


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major: slot order matches itertools.product."""
    return tuple(
        tuple(x * y for x in arow for y in brow)
        for arow in a
        for brow in b
    )


def kron_all(ms) -> Matrix:
    out: Matrix = ((Fraction(1),),)
    for m in ms:
        out = kron(out, m)
    return out


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
