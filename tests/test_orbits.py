from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from wreathspringer.combinatorics import partitions_of
from wreathspringer.matrices import as_matrix, mat_mul, mat_rank, identity_matrix
from wreathspringer.orbits import (
    all_orbit_labels,
    all_profiles,
    SpringerLabel,
    check_dimension_property,
    clifford_label,
    component_group,
    enumerate_IC,
    enumerate_IS,
    fiber_dim,
    gamma_of,
    jordan_type,
    orbit_dim,
    orbit_label,
    orbit_report,
    young_order,
)
from wreathspringer.springer import psi
from wreathspringer.wreath import WreathGroup

from oracles import deduplicated_orbit_labels


# -- orbit labels

def test_orbit_label_place_invariance():
    assert orbit_label(((1, 1), (2,))) == orbit_label(((2,), (1, 1))) == ((2,), (1, 1))


def test_orbit_label_d1():
    assert orbit_label(((2, 1),)) == ((2, 1),)


def test_orbit_label_of_an_empty_profile():
    with pytest.raises(ValueError, match="empty profile"):
        orbit_label(())


def test_orbit_label_count_22():
    assert len(all_orbit_labels(2, 2)) == 3


def test_orbit_labels_are_the_deduplicated_profiles():
    for m in range(1, 5):
        for d in range(1, 5):
            assert all_orbit_labels(m, d) == deduplicated_orbit_labels(m, d)


def test_orbit_label_separates_orbits():
    for m in range(1, 4):
        for d in range(1, 4):
            for profile in all_profiles(m, d):
                label = orbit_label(profile)
                for sigma in permutations(range(d)):
                    shuffled = tuple(profile[i] for i in sigma)
                    assert orbit_label(shuffled) == label
            labels = {orbit_label(p) for p in all_profiles(m, d)}
            # distinct labels = distinct multisets of partitions
            expected = {tuple(sorted(p, reverse=True)) for p in all_profiles(m, d)}
            assert labels == expected


def test_orbit_label_rejects_bad_entries():
    with pytest.raises(ValueError):
        orbit_label(((2,), (1,)))
    with pytest.raises(ValueError):
        orbit_label(((1, 2),))


# -- Jordan types of matrices

def test_jordan_type_known_matrices():
    assert jordan_type([]) == ()
    assert jordan_type([[0, 0], [0, 0]]) == (1, 1)
    assert jordan_type([[0, 1], [0, 0]]) == (2,)
    j4 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    j4sq = mat_mul(as_matrix(j4), as_matrix(j4))
    assert jordan_type(j4sq) == (2, 2)


def test_jordan_type_conjugation_invariant():
    nilp = as_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    g = as_matrix([[1, 2, 3], [0, 1, Fraction(1, 2)], [0, 0, 1]])
    ginv = as_matrix([[1, -2, -2], [0, 1, Fraction(-1, 2)], [0, 0, 1]])
    assert mat_mul(g, ginv) == identity_matrix(3)
    assert jordan_type(mat_mul(mat_mul(g, nilp), ginv)) == jordan_type(nilp) == (2, 1)


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        jordan_type([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        jordan_type([[0, 1, 0], [0, 0, 1]])


# -- gamma and component groups

def test_gamma_known_values():
    assert gamma_of(((2,), (2,))) == {(2,): 2}
    assert gamma_of(((2,), (1, 1))) == {(2,): 1, (1, 1): 1}
    assert gamma_of(((2, 1),) * 4) == {(2, 1): 4}


def test_component_group_orders():
    assert young_order(component_group(((2,), (2,)))) == 2
    assert young_order(component_group(((2,), (1, 1)))) == 1
    assert young_order(component_group(((3,), (2, 1), (1, 1, 1)))) == 1


def test_component_group_order_divides_d_factorial():
    for m, d in [(2, 3), (3, 2), (2, 2)]:
        for profile in all_profiles(m, d):
            assert factorial(d) % young_order(component_group(profile)) == 0


# -- dimensions

def _ad_rank(lam):
    """Oracle: the orbit dimension of the Jordan matrix of shape lam equals
    the rank of X -> JX - XJ on the full matrix space."""
    m = sum(lam)
    j = [[0] * m for _ in range(m)]
    offset = 0
    for part in lam:
        for i in range(part - 1):
            j[offset + i][offset + i + 1] = 1
        offset += part
    rows = []
    for a in range(m):
        for b in range(m):
            # image of the (a,b) matrix unit under ad_J, flattened
            row = [0] * (m * m)
            for c in range(m):
                row[a * m + c] -= j[b][c]  # -(X J) entry (a,c)
                row[c * m + b] += j[c][a]  # (J X) entry (c,b)
            rows.append(row)
    return mat_rank(list(map(list, zip(*rows))))


def test_orbit_dim_known_values():
    assert orbit_dim(((1, 1, 1), (1, 1, 1))) == 0
    assert orbit_dim(((2,),)) == 2
    assert orbit_dim(((2,), (1, 1))) == 2


def test_orbit_dim_matches_centralizer_oracle():
    for m in range(1, 5):
        for lam in partitions_of(m):
            assert orbit_dim((lam,)) == _ad_rank(lam)


def test_fiber_dim_known_values():
    assert fiber_dim(((2,), (2,))) == 0
    assert fiber_dim(((1, 1), (1, 1))) == 2
    assert fiber_dim(((4,),)) == 0


def test_dimension_property_exhaustive():
    for m in range(1, 6):
        for d in range(1, 4):
            for profile in all_profiles(m, d):
                assert check_dimension_property(profile)


def test_dimension_property_spot_values():
    # ((2),(2)): 0 == 2*1 - 4/2
    assert fiber_dim(((2,), (2,))) == 0
    assert orbit_dim(((2,), (2,))) == 4


# -- the orbit-side index set

def test_enumerate_IS_counts():
    assert len(enumerate_IS(2, 2)) == 5
    assert len(enumerate_IS(3, 2)) == 9
    for m in range(1, 5):
        assert len(enumerate_IS(m, 1)) == len(partitions_of(m))


def test_enumerate_IS_matches_classes_and_IC():
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        group = WreathGroup(m, d)
        n_classes = len(group.conjugacy_classes)
        assert len(enumerate_IS(m, d)) == n_classes == len(enumerate_IC(m, d))


def test_enumerate_IS_entries_consistent():
    for s in enumerate_IS(2, 3):
        assert s.psi.gamma() == gamma_of(s.orbit)
    # a label's shape: its orbit, the block sizes and values in key order
    for m in range(1, 5):
        for d in range(1, 5):
            for label in enumerate_IC(m, d):
                gamma = label.gamma()
                assert label.orbit == psi(label).orbit == orbit_label(label.orbit)
                assert gamma_of(label.orbit) == gamma
                assert label.blocks == tuple(gamma.values())
                assert label.values == tuple(label.value(nu) for nu in gamma)
                assert tuple(map(sum, label.values)) == label.blocks
                assert sum(label.blocks) == label.d == d


def test_springer_label_text():
    label = SpringerLabel(((2,), (1, 1)), clifford_label(2, {(2,): (1,), (1, 1): (1,)}))
    assert str(label) == "[([2],[1,1]),{[2]:[1],[1,1]:[1]}]"


# -- report

def test_orbit_report_shape():
    report = orbit_report(2, 2)
    assert report["m"] == 2 and report["d"] == 2
    assert len(report["orbits"]) == 3
    row = report["orbits"][0]
    assert row["label"] == ["[2]", "[2]"]
    assert row["gamma"] == {"2": 2}
    assert row["componentGroupOrder"] == 2
    assert row["orbitDim"] == 4
    assert row["fiberDim"] == 0
