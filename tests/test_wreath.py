import copy
import io
import itertools
import json
import os
import pickle
import random
import tracemalloc
from functools import reduce
from math import factorial

import pytest
from hypothesis import given, strategies as st

from wreathspringer.combinatorics import identity_perm, perm_compose, perm_length, partitions_of
from wreathspringer.wreath import (
    BoundExceededError,
    WreathElement,
    WreathGroup,
    _signed,
    _word_blocks,
    bruhat_leq_wreath,
    cell_statistics,
    coxeterB_leq,
    dimension_polynomial_str,
    embed_md,
    eval_typeB_word,
    hasse_covers,
    hasse_dot,
    hasse_json,
    typeB_leq,
    wreath_identity,
)

from oracles import (
    _signed_mul,
    bfs_typeB,
    bfs_words,
    brute_force_classes,
    cell_statistics_by_elements,
    hasse_dot_text,
    hasse_json_dict,
    sorted_hasse_covers,
    subword_downset,
    typeB_downset,
    typeB_elements,
    typeB_generators,
    wreath_centralizer_order,
    wreath_class_label,
    wreath_product,
)


def random_element(rng, m, d):
    factors = tuple(tuple(rng.sample(range(m), m)) for _ in range(d))
    top = tuple(rng.sample(range(d), d))
    return WreathElement(factors, top)


# -- multiplication and inversion

def test_mul_identity():
    g = WreathGroup(3, 2)
    rng = random.Random(1)
    for _ in range(20):
        a = random_element(rng, 3, 2)
        assert a * g.identity == a
        assert g.identity * a == a


def test_mul_semidirect_rule():
    g = WreathGroup(2, 2)
    s = (1, 0)
    e = (0, 1)
    t = g.gen_t(1)
    a = WreathElement((s, e), identity_perm(2))
    assert t * a == WreathElement((e, s), t.top)


def test_mul_matches_embedding():
    rng = random.Random(5)
    for _ in range(200):
        a = random_element(rng, 3, 3)
        b = random_element(rng, 3, 3)
        assert embed_md(a * b) == perm_compose(embed_md(a), embed_md(b))


def test_mul_context_mismatch():
    with pytest.raises(ValueError, match="context mismatch"):
        wreath_identity(2, 2) * wreath_identity(3, 2)
    with pytest.raises(ValueError, match="context mismatch"):
        wreath_identity(2, 2) * wreath_identity(2, 3)


def test_inverse():
    g = WreathGroup(3, 2)
    assert g.identity.inverse() == g.identity
    t = g.gen_t(1)
    assert t.inverse() == t
    rng = random.Random(11)
    for _ in range(50):
        a = random_element(rng, 3, 2)
        assert a * a.inverse() == g.identity
        assert a.inverse() * a == g.identity


def test_group_axioms():
    rng = random.Random(23)
    for m, d in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        ident = wreath_identity(m, d)
        for _ in range(500):
            a = random_element(rng, m, d)
            b = random_element(rng, m, d)
            c = random_element(rng, m, d)
            assert (a * b) * c == a * (b * c)
            assert a * ident == a
            assert a * a.inverse() == ident


@st.composite
def element_pairs(draw):
    """Two elements of one Sigma_m wr Sigma_d with m, d <= 3."""
    m, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    element = st.builds(
        WreathElement,
        st.tuples(*[st.permutations(range(m)).map(tuple)] * d),
        st.permutations(range(d)).map(tuple),
    )
    return draw(element), draw(element)


@given(element_pairs())
def test_memoized_product_matches_the_oracle(pair):
    x, y = pair
    expected = wreath_product(x, y)
    assert x * y == expected
    # the second product of the pair is served from the product cache
    hits = WreathElement._mul_unchecked.cache_info().hits
    assert x * y == expected
    assert WreathElement._mul_unchecked.cache_info().hits == hits + 1


BLOCKS_GROUP = WreathGroup(2, 4, (2, 1, 1))


@given(st.sampled_from(BLOCKS_GROUP.elements), st.sampled_from(BLOCKS_GROUP.elements))
def test_memoized_product_matches_the_oracle_in_a_blocks_group(x, y):
    assert x * y == wreath_product(x, y)


@given(element_pairs())
def test_element_equality_hash_and_repr(pair):
    x, y = pair
    twin = WreathElement(tuple(x.factors), tuple(x.top))
    assert twin == x and not (twin != x) and hash(twin) == hash(x)
    assert hash(x) == hash((x.factors, x.top))
    assert (x == y) == (x.key() == y.key()) and (x != y) == (x.key() != y.key())
    assert repr(x) == f"WreathElement(factors={x.factors!r}, top={x.top!r})"
    assert x.has_trivial_factors() == all(f == tuple(range(x.m)) for f in x.factors)
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_element_against_other_types():
    x = wreath_identity(2, 2)
    for other in [(x.factors, x.top), x.key(), None, "e"]:
        assert x != other and not (x == other)
        assert other != x and not (other == x)


def test_element_is_immutable_and_checks_its_length():
    with pytest.raises(ValueError, match="number of factors"):
        WreathElement(((0, 1),), (0, 1))
    x = wreath_identity(2, 2)
    with pytest.raises(AttributeError):
        x.top = (1, 0)
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        del x.factors
    assert x == wreath_identity(2, 2)


# -- embedding

def test_embed_known_values():
    g = WreathGroup(2, 2)
    assert embed_md(g.identity) == (0, 1, 2, 3)
    # 1-based [3,4,1,2]
    assert embed_md(g.gen_t(1)) == (2, 3, 0, 1)
    assert embed_md(g.gen_s(1, 2)) == (0, 1, 3, 2)


def test_embed_injective_homomorphism():
    g = WreathGroup(3, 2)
    images = {embed_md(x) for x in g.elements}
    assert len(images) == g.order == factorial(3) ** 2 * 2
    for x in g.elements[:12]:
        for y in g.elements[::7]:
            assert embed_md(x * y) == perm_compose(embed_md(x), embed_md(y))


# -- generators

def test_generator_basic():
    g = WreathGroup(2, 1)
    assert g.gen_s(1, 1) == WreathElement(((1, 0),), (0,))
    with pytest.raises(ValueError):
        g.gen_s(2, 1)
    with pytest.raises(ValueError):
        WreathGroup(2, 2).gen_t(2)


def test_young_wreath_subgroup():
    g = WreathGroup(2, 3, (2, 1))
    assert g.swaps == (0,)
    assert g.tops == ((0, 1, 2), (1, 0, 2))
    assert g.order == len(g.elements) == 2**3 * 2
    assert [name for name, _ in g.named_generators] == ["s1^1", "s1^2", "s1^3", "t1"]
    assert g.gen_t(1) == WreathGroup(2, 3).gen_t(1)
    with pytest.raises(ValueError, match="crosses the blocks"):
        g.gen_t(2)
    with pytest.raises(ValueError):
        g.parse_word("t2")
    with pytest.raises(ValueError, match="do not sum"):
        WreathGroup(2, 3, (1, 1))
    with pytest.raises(ValueError):
        WreathGroup(2, 3, (3, 0))


def test_young_subgroup_equality_and_classes():
    assert WreathGroup(2, 3, [3]) == WreathGroup(2, 3)
    assert hash(WreathGroup(2, 3, (2, 1))) == hash(WreathGroup(2, 3, (2, 1)))
    assert WreathGroup(2, 3, (2, 1)) != WreathGroup(2, 3, (1, 2))
    assert WreathGroup(2, 3) != WreathGroup(3, 2)
    # Sigma_2 wr Sigma_1 x Sigma_2 wr Sigma_1 is abelian of order 4
    g = WreathGroup(2, 2, (1, 1))
    assert g.class_sizes == (1, 1, 1, 1)
    assert sum(WreathGroup(2, 3, (2, 1)).class_sizes) == 16


def test_order_and_bound_need_no_enumeration(monkeypatch):
    import wreathspringer.wreath as wreath

    def refuse(n):
        raise AssertionError(f"all_perms({n}) called")

    monkeypatch.setattr(wreath, "all_perms", refuse)
    g = WreathGroup(2, 10)
    assert g.order == 2**10 * factorial(10)
    assert WreathGroup(2, 10, (4, 6)).order == 2**10 * factorial(4) * factorial(6)
    with pytest.raises(BoundExceededError):
        g.check_bound()


def test_generator_conjugation_shifts_slots():
    g = WreathGroup(3, 3)
    for k in range(1, 3):
        t = g.gen_t(k)
        for i in range(1, 3):
            assert t * g.gen_s(i, k) * t == g.gen_s(i, k + 1)
            assert t * g.gen_s(i, k + 1) * t == g.gen_s(i, k)
    # slots away from the swap are untouched
    t1 = g.gen_t(1)
    assert t1 * g.gen_s(1, 3) * t1 == g.gen_s(1, 3)


def test_slot_swap_embedding_length():
    for m in range(1, 5):
        g = WreathGroup(m, 2)
        assert perm_length(embed_md(g.gen_t(1))) == m * m


# -- Bruhat order

def test_bruhat_reflexive():
    g = WreathGroup(2, 2)
    for x in g.elements:
        assert bruhat_leq_wreath(x, x)


def test_bruhat_known_pairs():
    g = WreathGroup(2, 2)
    s1 = g.gen_s(1, 1)
    s3 = g.gen_s(1, 2)
    t = g.gen_t(1)
    assert bruhat_leq_wreath(s1, s1 * s3)
    assert not bruhat_leq_wreath(s1, t)
    assert not bruhat_leq_wreath(t, s1)


def test_bruhat_matches_product_order_oracle():
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for x in g.elements:
            for y in g.elements:
                expected = x.top == y.top and all(
                    xf in subword_downset(yf)
                    for xf, yf in zip(x.factors, y.factors)
                )
                assert bruhat_leq_wreath(x, y) == expected


def test_bruhat_partial_order_22():
    g = WreathGroup(2, 2)
    els = g.elements
    for x in els:
        for y in els:
            if bruhat_leq_wreath(x, y) and bruhat_leq_wreath(y, x):
                assert x == y
            for z in els:
                if bruhat_leq_wreath(x, y) and bruhat_leq_wreath(y, z):
                    assert bruhat_leq_wreath(x, z)


# -- Hasse diagram

def test_hasse_22_exact():
    g = WreathGroup(2, 2)
    edges = {(g.word(g.elements[i]), g.word(g.elements[j])) for i, j in hasse_covers(g)}
    assert edges == {
        ("e", "s1^1"),
        ("e", "s1^2"),
        ("s1^1", "s1^1 s1^2"),
        ("s1^2", "s1^1 s1^2"),
        ("t1", "s1^1 t1"),
        ("t1", "s1^2 t1"),
        ("s1^1 t1", "s1^1 s1^2 t1"),
        ("s1^2 t1", "s1^1 s1^2 t1"),
    }


def test_hasse_degenerate_cases():
    assert hasse_covers(WreathGroup(1, 3)) == []
    # the full type A Hasse diagram of degree 3 has 8 cover relations
    assert len(hasse_covers(WreathGroup(3, 1))) == 8


def test_hasse_cover_shape():
    g = WreathGroup(3, 2)
    for lo, hi in hasse_covers(g):
        x, y = g.elements[lo], g.elements[hi]
        assert x.top == y.top
        diffs = [i for i in range(2) if x.factors[i] != y.factors[i]]
        assert len(diffs) == 1
        i = diffs[0]
        assert perm_length(y.factors[i]) == perm_length(x.factors[i]) + 1
        assert bruhat_leq_wreath(x, y)


@pytest.mark.parametrize(
    "group",
    [WreathGroup(m, d) for m, d in [(1, 3), (3, 1), (2, 2), (3, 2), (2, 3), (2, 5), (3, 4)]]
    + [WreathGroup(2, 3, (2, 1)), WreathGroup(3, 3, (1, 2))],
    ids=repr,
)
def test_hasse_covers_match_the_sorted_oracle(group):
    pairs = [(group.elements[i], group.elements[j]) for i, j in hasse_covers(group)]
    assert pairs == sorted_hasse_covers(group)


def written(writer, group) -> str:
    """The text that a diagram writer streams for `group`."""
    out = io.StringIO()
    writer(group, out)
    return out.getvalue()


def test_hasse_json_and_dot():
    g = WreathGroup(2, 2)
    data = json.loads(written(hasse_json, g))
    assert data["m"] == 2 and data["d"] == 2
    assert len(data["nodes"]) == 8
    assert len(data["covers"]) == 8
    dot = written(hasse_dot, g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 8
    # deterministic output
    assert written(hasse_json, g) == written(hasse_json, WreathGroup(2, 2))


# (m, d) or (m, d, blocks)
DIAGRAM_SIZES = [
    (1, 1), (1, 3), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (2, 5), (3, 4), (2, 3, (2, 1)), (3, 3, (1, 2))
]


@pytest.mark.parametrize("size", DIAGRAM_SIZES, ids=lambda size: "-".join(map(str, size)))
def test_hasse_json_is_the_text_of_json_dumps(size):
    # (1, 1) and (1, 3) have no covers, which json.dumps writes as []; the
    # writer ends the text with a newline, as a file does
    g = WreathGroup(*size)
    assert written(hasse_json, g) == json.dumps(hasse_json_dict(g), indent=2) + "\n"


@pytest.mark.parametrize("size", DIAGRAM_SIZES, ids=lambda size: "-".join(map(str, size)))
def test_hasse_dot_is_the_text_rebuilt_from_the_sorted_covers(size):
    g = WreathGroup(*size)
    assert written(hasse_dot, g) == hasse_dot_text(g)


def test_hasse_writers_build_no_element_table():
    g = WreathGroup(3, 2)
    written(hasse_json, g)
    written(hasse_dot, g)
    assert "elements" not in vars(g)
    assert "_words" not in vars(g)
    assert "words" not in vars(g)


def traced_peak(writer, group) -> int:
    """The peak of traced memory while `writer` streams `group` to the null device."""
    with open(os.devnull, "w") as out:
        tracemalloc.start()
        try:
            writer(group, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("writer", [hasse_json, hasse_dot], ids=lambda w: w.__name__)
def test_hasse_writers_hold_one_block_of_words(writer):
    # a table with an entry per element holds 46,080 words at (2,6); the
    # writers hold the 64 factor prefixes, one top's block of cover heads and
    # tails, and the covers from one first-slot factor, 32 sources' worth
    assert traced_peak(writer, WreathGroup(2, 6)) < 2**20


@pytest.mark.parametrize("writer, mib", [(hasse_json, 20), (hasse_dot, 31)], ids=["hasse_json", "hasse_dot"])
def test_hasse_writers_hold_one_first_slot_slice_of_covers(writer, mib, monkeypatch):
    # (4,3) has the widest block that the tests reach: 13,824 positions and
    # 100,224 covers per top.  Joined whole, one block's covers and their
    # strings peaked at 26.6 MiB (json) and 41.8 MiB (dot); one chunk per
    # first-slot factor holds 576 sources' covers
    monkeypatch.setenv("WREATHSPRINGER_MAX_ELEMENTS", "700000")
    assert traced_peak(writer, WreathGroup(4, 3)) < mib * 2**20


@pytest.mark.parametrize("size", DIAGRAM_SIZES, ids=lambda size: "-".join(map(str, size)))
def test_word_blocks_are_the_words_in_elements_order(size):
    g = WreathGroup(*size)
    blocks = list(itertools.chain.from_iterable(_word_blocks(g)))
    assert blocks == list(g.words)
    bfs = bfs_words(g)
    assert blocks == [bfs[x] for x in g.elements]


def test_bound_guard(monkeypatch):
    monkeypatch.setenv("WREATHSPRINGER_MAX_ELEMENTS", "1000")
    g = WreathGroup(4, 4)
    with pytest.raises(BoundExceededError):
        _ = g.elements
    with pytest.raises(BoundExceededError):
        hasse_covers(g)
    with pytest.raises(BoundExceededError):
        cell_statistics(g)
    with pytest.raises(BoundExceededError):
        _ = g.words
    for writer in (hasse_json, hasse_dot):
        out = io.StringIO()
        with pytest.raises(BoundExceededError):
            writer(g, out)
        assert out.getvalue() == ""


def test_bound_env_override(monkeypatch):
    monkeypatch.setenv("WREATHSPRINGER_MAX_ELEMENTS", "4")
    with pytest.raises(BoundExceededError):
        _ = WreathGroup(2, 2).elements
    monkeypatch.setenv("WREATHSPRINGER_MAX_ELEMENTS", "100")
    assert len(WreathGroup(2, 2).elements) == 8


# -- words

def test_word_roundtrip():
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for x in g.elements:
            assert g.parse_word(g.word(x)) == x


@pytest.mark.parametrize(
    "group",
    [WreathGroup(m, d) for m, d in [(1, 1), (1, 3), (3, 1), (2, 2), (3, 2), (2, 3), (3, 4)]]
    + [WreathGroup(2, 3, (2, 1)), WreathGroup(3, 3, (1, 2))],
    ids=repr,
)
def test_words_follow_the_elements_order(group):
    # hasse_json and hasse_dot read the words by position
    assert list(group._words) == list(group.elements)
    assert list(group._words.values()) == list(group.words)


@pytest.mark.parametrize(
    "group",
    [WreathGroup(m, d) for m, d in [(1, 3), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 2), (2, 5)]]
    + [WreathGroup(2, 3, (2, 1)), WreathGroup(3, 3, (1, 2)), WreathGroup(2, 4, (2, 2))],
    ids=repr,
)
def test_word_is_the_breadth_first_word(group):
    expected = bfs_words(group)
    assert len(expected) == group.order
    for x in group.elements:
        assert group.word(x) == expected[x]


@pytest.mark.parametrize(
    "group",
    [WreathGroup(m, d) for m, d in [(1, 3), (2, 3), (3, 2), (3, 4)]]
    + [WreathGroup(2, 3, (2, 1)), WreathGroup(3, 3, (1, 2)), WreathGroup(2, 4, (2, 2))],
    ids=repr,
)
def test_elements_are_in_key_order(group):
    keys = [x.key() for x in group.elements]
    assert keys == sorted(keys)
    assert len(set(keys)) == group.order


def test_parse_word_errors():
    g = WreathGroup(2, 2)
    with pytest.raises(ValueError, match=r"bad token 'x1': not a generator of WreathGroup"):
        g.parse_word("x1")
    with pytest.raises(ValueError):
        g.parse_word("s1^3")
    with pytest.raises(ValueError):
        g.parse_word("t2")
    assert g.parse_word("e") == g.identity


# -- conjugacy classes

def test_conjugacy_class_counts():
    assert len(WreathGroup(2, 2).conjugacy_classes) == 5
    assert len(WreathGroup(3, 2).conjugacy_classes) == 9
    for m in range(1, 5):
        assert len(WreathGroup(m, 1).conjugacy_classes) == len(partitions_of(m))


def test_conjugacy_classes_partition_the_group():
    g = WreathGroup(2, 3)
    seen = [x for cls in g.conjugacy_classes for x in cls]
    assert len(seen) == g.order
    assert len(set(seen)) == g.order


@pytest.mark.parametrize(
    "group",
    [WreathGroup(1, n) for n in range(1, 7)]
    + [WreathGroup(m, d) for m, d in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]],
    ids=repr,
)
def test_conjugacy_class_sizes_match_centralizer_orders(group):
    labels = []
    for cls in group.conjugacy_classes:
        (label,) = {wreath_class_label(x) for x in cls}
        assert len(cls) * wreath_centralizer_order(label) == group.order, label
        labels.append(label)
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize(
    "group",
    [WreathGroup(1, n) for n in range(1, 7)]
    + [WreathGroup(m, d) for m, d in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5)]]
    + [
        WreathGroup(2, 3, (2, 1)),
        WreathGroup(3, 3, (1, 2)),
        WreathGroup(2, 4, (2, 2)),
        WreathGroup(1, 5, (2, 3)),
    ],
    ids=repr,
)
def test_conjugacy_classes_match_brute_force(group):
    assert group.conjugacy_classes == brute_force_classes(group)


# -- cell statistics

def test_cell_statistics_known():
    count, dist = cell_statistics(WreathGroup(2, 2))
    assert count == 8
    assert dist == {0: 2, 1: 4, 2: 2}
    assert dimension_polynomial_str(dist) == "2 + 4q + 2q^2"


def test_cell_statistics_type_a_poincare():
    count, dist = cell_statistics(WreathGroup(3, 1))
    assert count == 6
    assert dist == {0: 1, 1: 2, 2: 2, 3: 1}


def test_cell_statistics_tops_only():
    count, dist = cell_statistics(WreathGroup(1, 3))
    assert count == 6
    assert dist == {0: 6}


@pytest.mark.parametrize(
    "group",
    [
        WreathGroup(m, d)
        for m in range(1, 5)
        for d in range(1, 5)
        if factorial(m) ** d * factorial(d) <= 40_000
    ]
    + [
        WreathGroup(2, 3, (2, 1)),
        WreathGroup(3, 3, (1, 2)),
        WreathGroup(2, 4, (2, 2)),
        WreathGroup(1, 5, (2, 3)),
    ],
    ids=repr,
)
def test_cell_statistics_match_the_element_walk(group):
    assert cell_statistics(group) == cell_statistics_by_elements(group)


# -- type B comparison

def test_typeB_word_examples():
    assert coxeterB_leq([], [1, 0, 1], 2)
    assert coxeterB_leq([0, 1], [1, 0, 1], 2)
    assert not coxeterB_leq([1], [0], 2)


def test_typeB_invalid_generator():
    with pytest.raises(ValueError):
        coxeterB_leq([0], [2], 2)
    for i in (2, -1, 5):
        with pytest.raises(ValueError, match=f"^type B generator index {i} out of range for rank 2$"):
            eval_typeB_word([0, i], 2)


@pytest.mark.parametrize("d, max_length", [(1, 6), (2, 6), (3, 6), (4, 5)])
def test_typeB_words_multiply_as_signed_permutations(d, max_length):
    gens = typeB_generators(d)
    for length in range(max_length + 1):
        for word in itertools.product(range(d), repeat=length):
            expected = reduce(_signed_mul, (gens[i] for i in word), tuple(range(1, d + 1)))
            assert eval_typeB_word(word, d) == expected


def test_typeB_words_build_no_element_list(monkeypatch):
    def refuse(group):
        raise AssertionError(f"{group!r}.elements built")

    monkeypatch.setattr(WreathGroup, "elements", property(refuse))
    assert WreathGroup(2, 9).order > 50_000
    word = list(range(9))
    assert coxeterB_leq(word[:5], word, 9)
    assert not coxeterB_leq(word, word[:5], 9)
    assert eval_typeB_word(word, 9) == (2, 3, 4, 5, 6, 7, 8, 9, -1)


def test_typeB_length_grading():
    w0 = eval_typeB_word([0, 1, 0, 1], 2)
    assert w0 == (-1, -2)
    for u in [(1, 2), (-1, 2), (2, 1), (-2, -1)]:
        assert typeB_leq(u, w0)


def test_typeB_leq_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        typeB_leq((1,), (1, 2))


def test_wreath_order_coarser_than_typeB():
    g = WreathGroup(2, 2)
    images = bfs_typeB(g)
    assert len(set(images.values())) == 8
    for x in g.elements:
        for y in g.elements:
            if bruhat_leq_wreath(x, y):
                assert typeB_leq(images[x], images[y])
    # strictly coarser: the two factor generators are comparable in type B
    s1, s3 = g.gen_s(1, 1), g.gen_s(1, 2)
    assert typeB_leq(images[s1], images[s3])
    assert not bruhat_leq_wreath(s1, s3)
    # the slot swap stays comparable with its upper neighbours in both orders
    t, s1t = g.gen_t(1), g.gen_s(1, 1) * g.gen_t(1)
    assert bruhat_leq_wreath(t, s1t) and typeB_leq(images[t], images[s1t])


@pytest.mark.parametrize("d", range(1, 4))
def test_typeB_leq_matches_reflection_downsets(d):
    elements = typeB_elements(d)
    for w in elements:
        below = typeB_downset(w)
        for u in elements:
            assert typeB_leq(u, w) == (u in below)


def test_typeB_leq_matches_reflection_downsets_sampled_at_rank_4():
    rng = random.Random(4)
    elements = typeB_elements(4)
    for _ in range(400):
        u, w = rng.choice(elements), rng.choice(elements)
        assert typeB_leq(u, w) == (u in typeB_downset(w))
        assert typeB_leq(w, u) == (w in typeB_downset(u))


@pytest.mark.parametrize("d", range(1, 6))
def test_wreath_to_typeB_matches_breadth_first_images(d):
    g = WreathGroup(2, d)
    assert {x: _signed(x) for x in g.elements} == bfs_typeB(g)
