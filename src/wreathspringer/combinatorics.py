"""Partitions, permutations, and the type A (strong) Bruhat order.

Conventions used throughout the package:

* a permutation of degree n is a tuple in 0-based one-line notation, i.e.
  a reordering of ``range(n)``; composition is ``(p*q)(i) = p(q(i))``;
* a partition is a weakly decreasing tuple of positive integers;
* the canonical order on partitions of the same number is descending
  lexicographic, so ``(3,) > (2, 1) > (1, 1, 1)`` (plain tuple comparison).

Two permutations are compared in the Bruhat order by the tableau criterion
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, Thm 2.6.3).  Covers
(multiplication by a transposition that changes the inversion count by
exactly one) and down-sets are for enumeration: Hasse diagrams and the
wreath product order's down-sets.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from itertools import permutations
from math import factorial

Perm = tuple[int, ...]
Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutations

def identity_perm(n: int) -> Perm:
    return tuple(range(n))


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All permutations of degree n in lexicographic order."""
    return tuple(permutations(range(n)))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i)); q is applied first."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[q[i]] for i in range(len(q)))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_length(p: Perm) -> int:
    """Number of inversions, i.e. the Coxeter length in the adjacent
    transposition generators."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def minimal_coset_rep(w: Perm, blocks: tuple[int, ...]) -> Perm:
    """The least element of the coset wY, Y the Young subgroup of the
    consecutive blocks of the given sizes: wy permutes w's values within
    each block, so the least one sorts them there."""
    out, start = [], 0
    for size in blocks:
        out += sorted(w[start:start + size])
        start += size
    return tuple(out)


def adjacent_transposition(n: int, i: int) -> Perm:
    """The simple transposition swapping positions i and i+1 (0-based)."""
    if not 0 <= i < n - 1:
        raise ValueError(f"adjacent transposition index {i} out of range for degree {n}")
    img = list(range(n))
    img[i], img[i + 1] = img[i + 1], img[i]
    return tuple(img)


@lru_cache(maxsize=None)
def transpositions(n: int) -> tuple[Perm, ...]:
    """All transpositions (i j) of degree n."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            img = list(range(n))
            img[i], img[j] = img[j], img[i]
            out.append(tuple(img))
    return tuple(out)


def cycle_type(p: Perm) -> Partition:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        k, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            k += 1
        lengths.append(k)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def perm_to_word(p: Perm) -> tuple[int, ...]:
    """The lexicographically smallest reduced word for p in adjacent
    transpositions (0-based indices), with perm_length(p) letters; the
    identity gives the empty word.

    s_i is a left descent of p exactly when i is a descent of p^-1, so
    bubble-sorting p^-1 by its first descent each time records the greedy
    smallest left descents in order: p = s_{i1} * s_{i2} * ... * s_{ik}.
    """
    q = list(perm_inverse(p))
    word = []
    while True:
        i = next((k for k in range(len(q) - 1) if q[k] > q[k + 1]), None)
        if i is None:
            return tuple(word)
        q[i], q[i + 1] = q[i + 1], q[i]
        word.append(i)


def type_a_relations(letters) -> list[tuple[tuple[int, ...], int]]:
    """Coxeter relations of type A, as ``(base, k)`` pairs with base^k = e,
    for generators given as (generator index, swapped position) pairs:
    s^2 = e, (s s')^3 = e for neighbouring swaps, (s s')^2 = e otherwise."""
    letters = list(letters)
    relations = []
    for k, (g, a) in enumerate(letters):
        relations.append(((g,), 2))
        for h, b in letters[k + 1:]:
            relations.append(((g, h), 3 if abs(a - b) == 1 else 2))
    return relations


# ---------------------------------------------------------------------------
# type A Bruhat order

def _covers(w: Perm, step: int) -> tuple[Perm, ...]:
    lw = perm_length(w)
    return tuple(
        u for u in (perm_compose(w, t) for t in transpositions(len(w))) if perm_length(u) == lw + step
    )


@lru_cache(maxsize=None)
def lower_covers(w: Perm) -> tuple[Perm, ...]:
    """The elements covered by w in the strong Bruhat order: the w*t, t a
    transposition, whose length is one less than that of w."""
    return _covers(w, -1)


@lru_cache(maxsize=None)
def upper_covers(w: Perm) -> tuple[Perm, ...]:
    """The elements that cover w, in lexicographic order.  Each is w*(i j)
    with w(i) < w(j) for i < j, so each is lexicographically larger than w."""
    return tuple(sorted(_covers(w, 1)))


@lru_cache(maxsize=None)
def bruhat_downset(w: Perm) -> frozenset[Perm]:
    """All u with u <= w in the strong Bruhat order, recursing over the
    lower covers of w."""
    out = {w}
    for u in lower_covers(w):
        out |= bruhat_downset(u)
    return frozenset(out)


def bruhat_leq_typeA(u: Perm, w: Perm) -> bool:
    """u <= w in the strong Bruhat order, by the tableau criterion: for
    every i, the sorted values u(0..i-1) are entrywise at most the sorted
    w(0..i-1).  Each prefix is kept sorted by insertion, so the comparison
    costs O(n^2)."""
    if len(u) != len(w):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(w)}")
    su, sw = [], []
    for a, b in zip(u, w):
        insort(su, a)
        insort(sw, b)
        if any(x > y for x, y in zip(su, sw)):
            return False
    return True


# ---------------------------------------------------------------------------
# partitions

@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each once, in descending lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(x, int) and x > 0 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def conjugate_partition(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def hook_dim(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook-length formula);
    this is the dimension of the irreducible attached to lam."""
    n = sum(lam)
    conj = conjugate_partition(lam)
    product = 1
    for i, row in enumerate(lam):
        for j in range(row):
            product *= row - j + conj[j] - i - 1
    return factorial(n) // product


def n_stat(lam: Partition) -> int:
    """The statistic sum_i (i-1)*lam_i (rows counted from 1)."""
    return sum(i * part for i, part in enumerate(lam))


def format_partition(lam: Partition) -> str:
    """Bracketed display form, e.g. ``[3,1]``; the empty partition is ``[]``."""
    return "[" + ",".join(str(x) for x in lam) + "]"


def partition_key(lam: Partition) -> str:
    """Compact string form used as a JSON key, e.g. ``3,1``."""
    return ",".join(str(x) for x in lam)
