"""Representations are checked on their generator images only.  These tests
show that this is as strong as the exhaustive check it replaced: every
presentation defines exactly its group (coset enumeration plus normal-form
words), the relation check rejects bad rules, and every representation the
package builds at small rank passes the exhaustive homomorphism oracle."""

from fractions import Fraction
from math import prod
from operator import mul

import pytest

from wreathspringer.combinatorics import partitions_of
from wreathspringer.matrices import BlockMonomial
from wreathspringer.orbits import all_orbit_labels, enumerate_IC
from wreathspringer.reptheory import (
    Representation,
    block_module,
    clifford_irrep,
    extend_to_wreath,
    inflate,
    specht_rep,
    springer_module,
)
from wreathspringer.wreath import CheckFailed, WreathGroup

from oracles import coset_count, is_homomorphism

W = WreathGroup

GROUPS = [
    *(W(m, d) for m, d in [(1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (3, 4)]),
    W(2, 3, (2, 1)),
    W(2, 3, (1, 1, 1)),
    W(3, 3, (1, 2)),
    W(2, 4, (2, 2)),
    W(2, 4, (1, 3)),
    W(3, 4, (2, 1, 1)),
    *(W(1, n) for n in (4, 5, 6)),
]


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_presentation_defines_the_group(group):
    relations, word_of = group.presentation
    gens = group.generators
    assert coset_count(len(gens), relations) == group.order
    # the normal-form words reach every element, so the generators generate
    # the group and the presented group maps onto it; equal orders make
    # that map an isomorphism
    for x in group.elements:
        y = group.identity
        for k in word_of(x):
            y = y * gens[k]
        assert y == x


@pytest.mark.parametrize(
    "m, d, count", [(2, 4, 13), (3, 3, 15), (4, 2, 16), (3, 4, 22), (5, 2, 25), (2, 6, 26)]
)
def test_presentation_states_each_relation_once(m, d, count):
    # (base, k) pairs; the only squares are those of the first slot's s and
    # of the t_a, as the later slots' squares follow from the definitions
    relations, _ = W(m, d).presentation
    assert len(relations) == count
    assert all(isinstance(base, tuple) and base and k >= 1 for base, k in relations)
    squares = {base: k for base, k in relations if len(base) == 1}
    first_slot, tops = range(m - 1), range(d * (m - 1), d * (m - 1) + d - 1)
    assert squares == {(g,): 2 for g in (*first_slot, *tops)}


@pytest.mark.parametrize(
    "group", [W(2, 3), W(3, 2), W(3, 3), W(2, 3, (2, 1)), W(3, 3, (1, 2))], ids=repr
)
def test_every_relation_is_needed(group):
    # each relation, squares included, is independent of the others:
    # without it the presented group is larger, or the enumeration passes a
    # bound that the full presentation stays well inside
    relations, _ = group.presentation
    n_gens, bound = len(group.generators), 20_000
    assert coset_count(n_gens, relations, bound) == group.order
    for k, relation in enumerate(relations):
        try:
            count = coset_count(n_gens, relations[:k] + relations[k + 1:], bound)
        except RuntimeError:
            continue
        assert count != group.order, relation


def _rule(group, values):
    images = {
        g: BlockMonomial.one_coset(((Fraction(v),),)) for g, v in zip(group.generators, values)
    }
    return Representation(group, images.__getitem__, name="bad")


def test_relation_check_rejects_broken_slot_action():
    g = W(2, 2)  # generators s1^1, s1^2, t1
    with pytest.raises(CheckFailed, match="not a homomorphism"):
        _rule(g, (-1, 1, 1))


def test_relation_check_rejects_broken_braid():
    with pytest.raises(CheckFailed, match="not a homomorphism"):
        _rule(W(1, 3), (1, -1))


def test_relation_check_rejects_broken_top_braid():
    # t1 -> 1 and t2 -> -1 breaks (t1 t2)^3 and no other relation
    g = W(2, 3)  # generators s1^1, s1^2, s1^3, t1, t2
    values = (-1, -1, -1, 1, -1)
    relations, _ = g.presentation
    broken = [(base, k) for base, k in relations if prod(values[x] for x in base) ** k != 1]
    assert broken == [((3, 4), 3)]
    with pytest.raises(CheckFailed, match=r"relation \(3, 4, 3, 4, 3, 4\) fails"):
        _rule(g, values)


def test_relation_check_rejects_broken_square():
    with pytest.raises(CheckFailed, match="not a homomorphism"):
        _rule(W(1, 2), (2,))


def test_relation_check_accepts_sign_character():
    assert _rule(W(2, 2), (-1, -1, 1)).matrix(W(2, 2).gen_s(1, 2)).dense() == ((Fraction(-1),),)


def _assert_exhaustive(rho):
    group = rho.group
    def dense(x):
        return rho.matrix(x).dense()

    assert is_homomorphism(dense, group.elements, group.generators, mul), rho


def test_specht_modules_pass_exhaustive_oracle():
    for n in range(1, 6):
        for lam in partitions_of(n):
            _assert_exhaustive(specht_rep(lam))


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3)])
def test_built_representations_pass_exhaustive_oracle(m, d):
    g = W(m, d)
    for label in enumerate_IC(m, d):
        ext = extend_to_wreath(g, label.gamma())
        inf = inflate(g, label)
        for rho in (ext, inf, block_module(g, label), clifford_irrep(g, label)):
            _assert_exhaustive(rho)
    for profile in all_orbit_labels(m, d):
        model = springer_module(g, profile)
        _assert_exhaustive(model.left)
        _assert_exhaustive(model.right)
