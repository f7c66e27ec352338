import random
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from wreathspringer.combinatorics import (
    all_perms,
    bruhat_downset,
    bruhat_leq_typeA,
    conjugate_partition,
    hook_dim,
    identity_perm,
    lower_covers,
    minimal_coset_rep,
    n_stat,
    partitions_of,
    perm_compose,
    perm_inverse,
    perm_length,
    perm_to_word,
    upper_covers,
    adjacent_transposition,
)
from wreathspringer.wreath import WreathGroup

from oracles import (
    bfs_word_lengths,
    bfs_words,
    count_syt_brute,
    minimal_coset_rep_by_search,
    subword_downset,
)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    largest = n
    while n > 0:
        part = draw(st.integers(min_value=1, max_value=largest))
        part = min(part, n)
        parts.append(part)
        largest = part
        n -= part
    return tuple(parts)


# -- composition and inversion

def test_compose_identity():
    p = (2, 0, 1)
    assert perm_compose(identity_perm(3), p) == p
    assert perm_compose(p, identity_perm(3)) == p


def test_compose_pointwise():
    # 1-based [2,1,3] o [1,3,2] = [2,3,1]
    p, q = (1, 0, 2), (0, 2, 1)
    assert perm_compose(p, q) == (1, 2, 0)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        perm_compose((0, 1), (0, 1, 2))


def test_adjacent_transposition_index_out_of_range():
    with pytest.raises(ValueError, match="index 2 out of range for degree 3"):
        adjacent_transposition(3, 2)


def test_partitions_of_a_negative_integer():
    with pytest.raises(ValueError, match="cannot partition a negative integer"):
        partitions_of(-1)


def test_inverse_law_random():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = tuple(rng.sample(range(n), n))
        assert perm_compose(p, perm_inverse(p)) == identity_perm(n)
        assert perm_compose(perm_inverse(p), p) == identity_perm(n)


# -- length

def test_length_known_values():
    assert perm_length(identity_perm(4)) == 0
    assert perm_length((3, 2, 1, 0)) == 6
    assert perm_length((2, 3, 0, 1)) == 4


def test_length_is_min_word_length():
    for n in range(1, 7):
        dist = bfs_word_lengths(n)
        for p in all_perms(n):
            assert perm_length(p) == dist[p]


def test_perm_to_word_is_reduced():
    for n in range(1, 6):
        for p in all_perms(n):
            word = perm_to_word(p)
            assert len(word) == perm_length(p)
            q = identity_perm(n)
            for i in word:
                q = perm_compose(q, adjacent_transposition(n, i))
            assert q == p


def test_perm_to_word_is_the_breadth_first_word():
    # Sigma_1 wr Sigma_n is Sigma_n on the generators t1, ..., t(n-1)
    for n in range(1, 7):
        g = WreathGroup(1, n)
        for x, word in bfs_words(g).items():
            expected = () if word == "e" else tuple(int(t[1:]) - 1 for t in word.split())
            assert perm_to_word(x.top) == expected


# -- Bruhat order

def test_lower_covers_are_the_downset_one_level_down():
    for n in range(1, 6):
        for w in all_perms(n):
            expected = {u for u in bruhat_downset(w) if perm_length(u) == perm_length(w) - 1}
            assert set(lower_covers(w)) == expected
            assert len(lower_covers(w)) == len(expected)


def test_rank_criterion_matches_downsets():
    for n in range(1, 6):
        for w in all_perms(n):
            below = bruhat_downset(w)
            for u in all_perms(n):
                assert bruhat_leq_typeA(u, w) == (u in below)


def test_upper_covers_invert_lower_covers():
    for n in range(1, 6):
        perms = all_perms(n)
        for u in perms:
            expected = sorted(w for w in perms if u in lower_covers(w))
            assert list(upper_covers(u)) == expected
            assert all(w > u for w in upper_covers(u))


def test_bruhat_bottom_element():
    for w in all_perms(4):
        assert bruhat_leq_typeA(identity_perm(4), w)


def test_bruhat_s3_examples():
    s1 = (1, 0, 2)
    s2 = (0, 2, 1)
    s1s2 = perm_compose(s1, s2)
    assert bruhat_leq_typeA(s1, s1s2)
    assert not bruhat_leq_typeA(s1, s2)


def test_bruhat_degree_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq_typeA((0, 1), (0, 1, 2))


def test_bruhat_is_partial_order():
    for n in range(1, 6):
        perms = all_perms(n)
        downsets = {w: bruhat_downset(w) for w in perms}
        for w in perms:
            assert w in downsets[w]
            for u in downsets[w]:
                # antisymmetry and transitivity via down-set containment
                if w in downsets[u]:
                    assert u == w
                assert downsets[u] <= downsets[w]


def test_bruhat_matches_subword_oracle():
    for n in range(1, 6):
        for w in all_perms(n):
            assert bruhat_downset(w) == subword_downset(w)


# -- partitions

def test_partitions_known_lists():
    assert partitions_of(0) == ((),)
    assert partitions_of(2) == ((2,), (1, 1))
    assert partitions_of(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )


def test_partition_counts():
    # p(n) for n = 0..9
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count


@given(n=st.integers(min_value=0, max_value=10))
def test_partitions_sorted_and_exact(n):
    parts = partitions_of(n)
    assert len(set(parts)) == len(parts)
    assert list(parts) == sorted(parts, reverse=True)
    for lam in parts:
        assert sum(lam) == n
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def test_conjugate_known_values():
    assert conjugate_partition((4,)) == (1, 1, 1, 1)
    assert conjugate_partition((2, 1)) == (2, 1)
    assert conjugate_partition((3, 1)) == (2, 1, 1)


@given(lam=partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate_partition(conjugate_partition(lam)) == lam


def test_hook_dim_known_values():
    assert hook_dim((5,)) == 1
    assert hook_dim((2, 1)) == count_syt_brute((2, 1)) == 2
    assert hook_dim((2, 2)) == count_syt_brute((2, 2)) == 2


def test_hook_dim_matches_brute_force():
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert hook_dim(lam) == count_syt_brute(lam)


def test_hook_dim_squares_sum_to_factorial():
    for n in range(7):
        assert sum(hook_dim(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_n_stat_known_values():
    assert n_stat((5,)) == 0
    assert n_stat((1, 1)) == 1
    assert n_stat((2, 1)) == 1


@given(lam=partition_strategy())
def test_n_stat_column_identity(lam):
    assert n_stat(lam) == sum(comb(c, 2) for c in conjugate_partition(lam))


def compositions(d):
    """Every tuple of positive block sizes summing to d."""
    if d == 0:
        return [()]
    return [(first,) + rest for first in range(1, d + 1) for rest in compositions(d - first)]


@pytest.mark.parametrize("d", range(1, 6))
def test_minimal_coset_rep_matches_the_search(d):
    for blocks in compositions(d):
        for w in all_perms(d):
            assert minimal_coset_rep(w, blocks) == minimal_coset_rep_by_search(w, blocks)
