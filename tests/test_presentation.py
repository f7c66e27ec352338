"""Representations are checked on their generator images only.  These tests
show that this is as strong as the exhaustive check it replaced: every
presentation defines exactly its group (coset enumeration plus normal-form
words), the relation check rejects bad rules, and every representation the
package builds at small rank passes the exhaustive homomorphism oracle."""

from fractions import Fraction
from operator import mul

import pytest

from wreathspringer.combinatorics import partitions_of
from wreathspringer.orbits import all_orbit_labels
from wreathspringer.reptheory import (
    Representation,
    SymmetricGroup,
    clifford_irrep,
    enumerate_IC,
    extend_to_wreath,
    inflate,
    rep_tensor,
    specht_rep,
    springer_module,
    young_subgroup,
)
from wreathspringer.wreath import CheckFailed, WreathGroup

from oracles import coset_count, is_homomorphism

W = WreathGroup

GROUPS = [
    *(W(m, d) for m, d in [(1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]),
    young_subgroup(W(2, 3), (2, 1)),
    young_subgroup(W(2, 3), (1, 1, 1)),
    young_subgroup(W(3, 3), (1, 2)),
    *(SymmetricGroup(n) for n in (3, 4, 5)),
]


def _mul(group):
    return group.mul if isinstance(group, SymmetricGroup) else mul


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
            y = _mul(group)(y, gens[k])
        assert y == x


def _rule(group, values):
    images = {g: ((Fraction(v),),) for g, v in zip(group.generators, values)}
    return Representation(group, 1, images.__getitem__, name="bad")


def test_relation_check_rejects_broken_slot_action():
    g = W(2, 2)  # generators s1^1, s1^2, t1
    with pytest.raises(CheckFailed, match="not a homomorphism"):
        _rule(g, (-1, 1, 1))


def test_relation_check_rejects_broken_braid():
    with pytest.raises(CheckFailed, match="not a homomorphism"):
        _rule(SymmetricGroup(3), (1, -1))


def test_relation_check_rejects_broken_square():
    with pytest.raises(CheckFailed, match="not a homomorphism"):
        _rule(SymmetricGroup(2), (2,))


def test_relation_check_accepts_sign_character():
    assert _rule(W(2, 2), (-1, -1, 1)).matrix(W(2, 2).gen_s(1, 2)) == ((Fraction(-1),),)


def _assert_exhaustive(rho):
    group = rho.group
    assert is_homomorphism(rho.matrix, group.elements, group.generators, _mul(group)), rho


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
        for rho in (ext, inf, rep_tensor(ext, inf), clifford_irrep(g, label)):
            _assert_exhaustive(rho)
    for profile in all_orbit_labels(m, d):
        model = springer_module(g, profile)
        _assert_exhaustive(model.left)
        _assert_exhaustive(model.right)
