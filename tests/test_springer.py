import contextlib
import io
import json
import weakref
from itertools import groupby
from math import comb

import pytest

from wreathspringer import cli, springer
from wreathspringer.combinatorics import partitions_of
from wreathspringer.orbits import all_orbit_labels, clifford_label, enumerate_IC, enumerate_IS, gamma_of
from wreathspringer.reptheory import char_of, clifford_irrep, isotypic_character, springer_module
from wreathspringer.springer import typeB_table, typeD_table, verify_springer
from wreathspringer.wreath import CheckFailed, WreathGroup

from oracles import even_signed_class_count, hu_to_clifford


# -- the orbit side of a label: its orbit, with the label itself as the
# irreducible psi of the orbit's component group

def test_psi_equal_pair():
    assert clifford_label(2, {(2,): (2,)}).orbit == ((2,), (2,))


def test_psi_distinct_pair():
    label = clifford_label(2, {(2,): (1,), (1, 1): (1,)})
    assert label.orbit == ((2,), (1, 1))
    assert gamma_of(label.orbit) == {(2,): 1, (1, 1): 1} == label.gamma()


def test_psi_single_slot():
    for lam in partitions_of(3):
        assert clifford_label(3, {lam: (1,)}).orbit == (lam,)


def test_psi_roundtrip():
    # a label is its orbit together with one partition per orbit key: taking
    # the two apart and putting them back together gives the label again
    for m, d in [(2, 2), (3, 2), (4, 1)]:
        for label in enumerate_IC(m, d):
            assert clifford_label(m, dict(zip(gamma_of(label.orbit), label.values))) == label
        for s in enumerate_IS(m, d):
            assert s.orbit in all_orbit_labels(m, d)
            assert clifford_label(m, dict(zip(gamma_of(s.orbit), s.values))) == s


def test_psi_bijective():
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        labels = enumerate_IC(m, d)
        orbit_side = enumerate_IS(m, d)
        assert len(set(orbit_side)) == len(orbit_side) == len(labels)
        assert set(orbit_side) == set(labels)


def test_orbit_side_lists_every_label_once_by_orbit():
    for m in range(1, 5):
        for d in range(1, 5):
            orbit_side = enumerate_IS(m, d)
            assert len(set(orbit_side)) == len(orbit_side)
            assert sorted(orbit_side) == sorted(enumerate_IC(m, d))
            # one run of labels per orbit, the runs in orbit-label order
            assert [orbit for orbit, _ in groupby(s.orbit for s in orbit_side)] == all_orbit_labels(m, d)


def test_springer_label_validation():
    # a fiber's isotypic parts are named by the labels of its own orbit only
    model = springer_module(WreathGroup(2, 2), ((2,), (2,)))
    for other in [clifford_label(2, {(2,): (1,), (1, 1): (1,)}), clifford_label(2, {(1, 1): (2,)})]:
        with pytest.raises(ValueError, match="is not an irreducible of the right group"):
            isotypic_character(model, other)


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
    # give {[2]:[2]} the irreducible of {[2]:[1,1]}: the same gamma, so
    # every check before the characters passes, but another irreducible
    trivial = clifford_label(2, {(2,): (2,)})
    sign = clifford_label(2, {(2,): (1, 1)})
    true_irrep = springer.clifford_irrep
    monkeypatch.setattr(
        springer, "clifford_irrep", lambda group, label: true_irrep(group, sign if label == trivial else label)
    )
    report = verify_springer(WreathGroup(2, 2))
    assert not report.all_match
    assert [s for s, ok in report.rows if not ok] == [trivial]
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


def test_verify_springer_builds_one_model_per_orbit_and_keeps_none(monkeypatch):
    # the labels come orbit by orbit, so each orbit's fiber bimodule is built
    # once, and nothing holds it after its labels are compared
    for m, d in [(2, 3), (3, 2), (2, 4)]:
        built = []

        def build(group, profile):
            model = springer_module(group, profile)
            built.append((model.profile, weakref.ref(model)))
            return model

        monkeypatch.setattr(springer, "springer_module", build)
        assert verify_springer(WreathGroup(m, d)).all_pass
        assert [profile for profile, _ in built] == all_orbit_labels(m, d)
        assert [ref() for _, ref in built] == [None] * len(built), (m, d)


def test_isotypic_dimensions_match_irreducible_dimensions():
    # cheaper smoke test implied by the character equality
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for s in enumerate_IS(m, d):
            model = springer_module(g, s.orbit)
            geo_dim = isotypic_character(model, s)[0]
            alg_dim = char_of(clifford_irrep(g, s))[0]
            assert geo_dim == alg_dim


# -- bipartition table (two-letter factors)

def test_typeB_table_counts():
    assert len(typeB_table(2)) == 5
    assert len(typeB_table(3)) == 10


def test_typeB_table_row_content():
    rows = {row["bipartition"]: row for row in typeB_table(2)}
    row = rows[((2,), ())]
    assert row["clifford"] == clifford_label(2, {(2,): (2,)})
    assert row["clifford"].orbit == ((2,), (2,))
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


def test_typeD_table_reads_the_labels_without_typeB_rows(monkeypatch):
    # the 589,128 row dicts of typeB_table(30) are never held
    def refuse(d):
        raise AssertionError("typeD_table built typeB_table's rows")

    monkeypatch.setattr(springer, "typeB_table", refuse)
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


# -- the d = 2 signed index set, as `tables --kind hu` prints it

def hu_labels(m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["tables", "--kind", "hu", "--m", str(m), "--format", "json"]) == 0
    return json.loads(out.getvalue())["labels"]


def test_hu_index_m2():
    labels = set(hu_labels(2))
    assert labels == {
        "[[2],[1,1]]",
        "[[2],[2]]+",
        "[[2],[2]]-",
        "[[1,1],[1,1]]+",
        "[[1,1],[1,1]]-",
    }


def test_hu_index_m1():
    labels = hu_labels(1)
    assert len(labels) == 2
    assert {h[-1] for h in labels} == {"+", "-"}


def test_hu_index_count_formula():
    for m in range(1, 6):
        p = len(partitions_of(m))
        assert len(hu_labels(m)) == comb(p, 2) + 2 * p == len(enumerate_IC(m, 2))


def test_hu_bijection_with_labels():
    for m in range(1, 5):
        images = [hu_to_clifford(h, m) for h in hu_labels(m)]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_IC(m, 2))


def test_hu_index_is_the_orbit_side_at_d2():
    # the oracle states the sign convention on its own: "+" is the row shape
    for m in range(1, 7):
        assert [hu_to_clifford(h, m) for h in hu_labels(m)] == enumerate_IS(m, 2)


def test_hu_to_clifford_cases():
    assert hu_to_clifford("[[2],[2]]+", 2) == clifford_label(2, {(2,): (2,)})
    assert hu_to_clifford("[[2],[2]]-", 2) == clifford_label(2, {(2,): (1, 1)})
    assert hu_to_clifford("[[2],[1,1]]", 2) == clifford_label(
        2, {(2,): (1,), (1, 1): (1,)}
    )
