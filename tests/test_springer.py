from math import comb

import pytest

from wreathspringer import cli, springer
from wreathspringer.combinatorics import partitions_of
from wreathspringer.orbits import SpringerLabel, clifford_label, enumerate_IC, enumerate_IS, gamma_of
from wreathspringer.springer import (
    HuLabel,
    hu_index,
    psi,
    psi_inv,
    typeB_table,
    typeD_table,
    verify_springer,
)
from wreathspringer.wreath import CheckFailed, WreathGroup

from oracles import even_signed_class_count, hu_to_clifford


# -- the bijection

def test_psi_equal_pair():
    label = clifford_label(2, {(2,): (2,)})
    s = psi(label)
    assert s.orbit == ((2,), (2,))
    assert s.psi == label


def test_psi_distinct_pair():
    label = clifford_label(2, {(2,): (1,), (1, 1): (1,)})
    s = psi(label)
    assert s.orbit == ((2,), (1, 1))
    assert gamma_of(s.orbit) == {(2,): 1, (1, 1): 1}


def test_psi_single_slot():
    for lam in partitions_of(3):
        s = psi(clifford_label(3, {lam: (1,)}))
        assert s.orbit == (lam,)


def test_psi_roundtrip():
    for m, d in [(2, 2), (3, 2), (4, 1)]:
        for label in enumerate_IC(m, d):
            assert psi_inv(psi(label)) == label
        springer_side = enumerate_IS(m, d)
        assert [psi(psi_inv(s)) for s in springer_side] == list(springer_side)


def test_psi_bijective():
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        images = [psi(label) for label in enumerate_IC(m, d)]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_IS(m, d))


def test_springer_label_validation():
    with pytest.raises(ValueError):
        SpringerLabel(((1, 1), (2,)), clifford_label(2, {(2,): (1,), (1, 1): (1,)}))
    with pytest.raises(ValueError):
        SpringerLabel(((2,), (2,)), clifford_label(2, {(1, 1): (2,)}))


# -- end-to-end character verification

def test_verify_springer_22():
    report = verify_springer(WreathGroup(2, 2))
    assert report.all_pass
    assert len(report.rows) == 5
    data = report.to_dict()
    assert data["status"] == "pass"
    assert data["counts"] == {
        "orbitSide": 5,
        "cliffordSide": 5,
        "conjugacyClasses": 5,
    }


def test_verify_springer_reports_a_mismatch(monkeypatch, capsys):
    # send the orbit-side label of {[2]:[2]} to {[2]:[1,1]}: the same gamma,
    # so every check before the characters passes, but another irreducible
    trivial = clifford_label(2, {(2,): (2,)})
    sign = clifford_label(2, {(2,): (1, 1)})
    wrong = psi(trivial)
    true_inverse = springer.psi_inv
    monkeypatch.setattr(springer, "psi_inv", lambda s: sign if s == wrong else true_inverse(s))
    report = verify_springer(WreathGroup(2, 2))
    assert not report.all_match
    assert [s for s, ok in report.rows if not ok] == [wrong]
    assert cli.main(["verify", "--scope", "springer", "--m", "2", "--d", "2"]) == 1
    assert '"status": "fail"' in capsys.readouterr().out


def test_verify_springer_refuses_index_sets_out_of_bijection(monkeypatch, capsys):
    # one orbit-side label short: the label sets differ, so no character is compared
    true_enumerate = springer.enumerate_IS
    monkeypatch.setattr(springer, "enumerate_IS", lambda m, d: true_enumerate(m, d)[1:])
    with pytest.raises(CheckFailed, match="^the two index sets are not in bijection$"):
        verify_springer(WreathGroup(2, 2))
    assert cli.main(["verify", "--scope", "springer", "--m", "2", "--d", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "the two index sets are not in bijection" in err

def test_isotypic_dimensions_match_irreducible_dimensions():
    # cheaper smoke test implied by the character equality
    from wreathspringer.reptheory import char_of, clifford_irrep, isotypic_character, springer_module

    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for s in enumerate_IS(m, d):
            model = springer_module(g, s.orbit)
            geo_dim = isotypic_character(model, s.psi).dim
            alg_dim = char_of(clifford_irrep(g, psi_inv(s))).dim
            assert geo_dim == alg_dim


# -- bipartition table (two-letter factors)

def test_typeB_table_counts():
    assert len(typeB_table(2)) == 5
    assert len(typeB_table(3)) == 10


def test_typeB_table_row_content():
    rows = {row["bipartition"]: row for row in typeB_table(2)}
    row = rows[((2,), ())]
    assert row["clifford"] == clifford_label(2, {(2,): (2,)})
    assert row["springer"].orbit == ((2,), (2,))
    mixed = rows[((1,), (1,))]
    assert mixed["clifford"] == clifford_label(2, {(2,): (1,), (1, 1): (1,)})


def test_typeB_rows_are_all_labels():
    for d in [2, 3]:
        labels = {row["clifford"] for row in typeB_table(d)}
        assert labels == set(enumerate_IC(2, d))


# -- the rank-d even-signed table

def test_typeD_table_counts_match_brute_force():
    for d in [2, 3, 4]:
        assert len(typeD_table(d)) == even_signed_class_count(d)


def test_typeD_table_known_counts():
    assert len(typeD_table(3)) == 5
    assert len(typeD_table(4)) == 13


def test_typeD_split_pairs():
    rows = typeD_table(4)
    split = [r for r in rows if r["sign"] is not None]
    assert len(split) == 2 * len(partitions_of(2))
    for r in split:
        assert r["pair"][0] == r["pair"][1]
        assert r["psi"] == ((2,) if r["sign"] == "+" else (1, 1))
    distinct = [r for r in rows if r["sign"] is None]
    assert all(r["psi"] == (1,) for r in distinct)
    assert all(r["pair"][0] != r["pair"][1] for r in distinct)


def test_typeD_odd_rank_has_no_split_pairs():
    assert all(r["sign"] is None for r in typeD_table(3))


# -- the d = 2 signed index set

def test_hu_index_m2():
    labels = {str(h) for h in hu_index(2)}
    assert labels == {
        "[[2],[1,1]]",
        "[[2],[2]]+",
        "[[2],[2]]-",
        "[[1,1],[1,1]]+",
        "[[1,1],[1,1]]-",
    }


def test_hu_index_m1():
    labels = hu_index(1)
    assert len(labels) == 2
    assert {h.sign for h in labels} == {"+", "-"}


def test_hu_index_count_formula():
    for m in range(1, 6):
        p = len(partitions_of(m))
        assert len(hu_index(m)) == comb(p, 2) + 2 * p == len(enumerate_IC(m, 2))


def test_hu_label_validation():
    with pytest.raises(ValueError):
        HuLabel(((2,), (2,)))  # equal pair needs a sign
    with pytest.raises(ValueError):
        HuLabel(((2,), (1, 1)), "+")  # distinct pair cannot carry one


def test_hu_bijection_with_labels():
    for m in range(1, 5):
        images = [hu_to_clifford(h, m) for h in hu_index(m)]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_IC(m, 2))


def test_hu_index_is_the_orbit_side_at_d2():
    # the oracle states the sign convention on its own: "+" is the row shape
    for m in range(1, 7):
        assert [hu_to_clifford(h, m) for h in hu_index(m)] == [s.psi for s in enumerate_IS(m, 2)]


def test_hu_to_clifford_cases():
    assert hu_to_clifford(HuLabel(((2,), (2,)), "+"), 2) == clifford_label(2, {(2,): (2,)})
    assert hu_to_clifford(HuLabel(((2,), (2,)), "-"), 2) == clifford_label(2, {(2,): (1, 1)})
    assert hu_to_clifford(HuLabel(((2,), (1, 1))), 2) == clifford_label(
        2, {(2,): (1,), (1, 1): (1,)}
    )
