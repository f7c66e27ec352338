"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Expected values are frozen from the module-level oracles in the other test
files; every comparison here is exact rational equality within the stated
time budget.
"""

import json
import time
from math import factorial

from wreathspringer.cli import main
from wreathspringer.combinatorics import all_perms, perm_compose, perm_length
from wreathspringer.convolution import (
    AlgebraVector,
    BasisIndex,
    basis_indices,
    class_span_rank,
    convolve_basis,
    involution_T,
    pi0_act,
    verify_relations,
    y_bar,
    y_bar_sum,
)
from wreathspringer.orbits import all_profiles, check_dimension_property, enumerate_IC, enumerate_IS
from wreathspringer.reptheory import char_of, clifford_irrep
from wreathspringer.springer import hu_index, hu_to_clifford, typeB_table, typeD_table, verify_springer
from wreathspringer.wreath import WreathElement, WreathGroup, cell_statistics

from oracles import brute_force_classes, even_signed_class_count


def report(number: int, name: str, ok: bool, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({seconds:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_hasse_fidelity(capsys):
    start = time.time()
    code = main(["hasse", "--m", "2", "--d", "2", "--format", "json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    g = WreathGroup(2, 2)
    edges = {
        (data["nodes"][i], data["nodes"][j]) for i, j in data["covers"]
    }
    expected_edges = {
        ("e", "s1^1"),
        ("e", "s1^2"),
        ("s1^1", "s1^1 s1^2"),
        ("s1^2", "s1^1 s1^2"),
        ("t1", "s1^1 t1"),
        ("t1", "s1^2 t1"),
        ("s1^1 t1", "s1^1 s1^2 t1"),
        ("s1^2 t1", "s1^1 s1^2 t1"),
    }
    order_code = main(["order", "--m", "2", "--d", "2", "--x", "s1^1", "--y", "t1"])
    order_out = capsys.readouterr().out
    elapsed = time.time() - start
    ok = (
        code == 0
        and len(data["nodes"]) == 8
        and edges == expected_edges
        and order_code == 0
        and order_out.strip().endswith("result: false")
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, "hasse fidelity (2,2)", ok, elapsed)


def test_criterion_02_algebra_relations(capsys):
    start = time.time()
    ok = True
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        rep = verify_relations(WreathGroup(m, d))
        by_name = {c.name: c for c in rep.checks}
        ok = ok and all(
            by_name[k].status == "pass" for k in ("quadratic", "wreath", "braid", "commuting")
        )
    rep24 = verify_relations(WreathGroup(2, 4))
    by_name = {c.name: c for c in rep24.checks}
    ok = ok and by_name["braid"].status == "pass" and by_name["braid"].instances == 2
    ok = ok and by_name["commuting"].status == "pass" and by_name["commuting"].instances == 1
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(2, "algebra relations", ok, elapsed)


def test_criterion_03_partial_product_honesty(capsys):
    start = time.time()
    g21 = WreathGroup(2, 1)
    s = BasisIndex(g21.parse_word("s1^1"), (0,))
    res = convolve_basis(s, s)
    ok = not res.defined and res.blockers == ((s, s),)
    for m, d in [(2, 1), (2, 2)]:
        g = WreathGroup(m, d)
        for a in basis_indices(g):
            for b in basis_indices(g):
                r = convolve_basis(a, b)
                chains = perm_compose(a.tau, a.w.top) == b.tau
                trivial = a.w.has_trivial_factors() or b.w.has_trivial_factors()
                if not chains:
                    ok = ok and r.defined and r.vector.is_zero()
                elif trivial:
                    ok = ok and r.defined and r.vector == AlgebraVector.basis(
                        BasisIndex(a.w * b.w, a.tau)
                    )
                else:
                    ok = ok and not r.defined
    elapsed = time.time() - start
    with capsys.disabled():
        report(3, "partial-product honesty", ok, elapsed)


def test_criterion_04_basis_census(capsys):
    start = time.time()
    ok = True
    for m, d, span in [(2, 2, 8), (3, 2, 72)]:
        g = WreathGroup(m, d)
        expected_count = factorial(m) ** d * factorial(d) * factorial(d)
        indices = basis_indices(g)
        ok = ok and len(indices) == expected_count == len(set(indices))
        ok = ok and class_span_rank(g) == span == g.order
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        report(4, "basis census", ok, elapsed)


def test_criterion_05_dimension_property(capsys):
    start = time.time()
    ok = all(
        check_dimension_property(p)
        for m in range(1, 6)
        for d in range(1, 4)
        for p in all_profiles(m, d)
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        report(5, "dimension property (m<=5, d<=3)", ok, elapsed)


def test_criterion_06_clifford_completeness(capsys):
    start = time.time()
    ok = True
    for m, d, order in [(2, 2, 8), (3, 2, 72), (2, 3, 48)]:
        g = WreathGroup(m, d)
        chars = [char_of(clifford_irrep(g, lab)) for lab in enumerate_IC(m, d)]
        ok = ok and sum(chi.dim**2 for chi in chars) == order
        for i, chi1 in enumerate(chars):
            for j, chi2 in enumerate(chars):
                ok = ok and chi1.inner(chi2) == (1 if i == j else 0)
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        report(6, "clifford completeness", ok, elapsed)


def test_criterion_07_index_set_equality(capsys):
    start = time.time()
    ok = True
    for m, d, expected in [(2, 2, 5), (3, 2, 9), (2, 3, 10)]:
        g = WreathGroup(m, d)
        ok = ok and len(enumerate_IC(m, d)) == expected
        ok = ok and len(enumerate_IS(m, d)) == expected
        ok = ok and len(g.conjugacy_classes) == expected
        ok = ok and len(brute_force_classes(g)) == len(enumerate_IC(m, d))
    elapsed = time.time() - start
    with capsys.disabled():
        report(7, "index-set equality", ok, elapsed)


def test_criterion_08_springer_correspondence(capsys):
    start = time.time()
    ok = True
    for m, d in [(2, 2), (2, 3), (3, 2)]:
        rep = verify_springer(WreathGroup(m, d))
        ok = ok and rep.all_pass
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    with capsys.disabled():
        report(8, "orbit/isotypic correspondence", ok, elapsed)


def test_criterion_09_involution_and_shuffles(capsys):
    start = time.time()
    ok = True
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for i in basis_indices(g):
            v = AlgebraVector.basis(i)
            ok = ok and involution_T(involution_T(v)) == v
        for top in all_perms(d):
            sigma = WreathElement(g.identity.factors, top)
            from wreathspringer.combinatorics import perm_inverse

            ok = ok and involution_T(y_bar_sum(g, sigma)) == y_bar_sum(
                g, WreathElement(g.identity.factors, perm_inverse(top))
            )
        for w in g.elements:
            v = y_bar_sum(g, w)
            for eta in all_perms(d):
                ok = ok and pi0_act(eta, v) == v
    # the recorded non-invariance of a single closure class
    g = WreathGroup(2, 2)
    w = g.parse_word("s1^1")
    ok = ok and pi0_act((1, 0), y_bar(g, w, (1, 0))) == y_bar(g, w, (0, 1))
    elapsed = time.time() - start
    with capsys.disabled():
        report(9, "anti-involution and component shuffles", ok, elapsed)


def test_criterion_10_small_rank_tables(capsys):
    start = time.time()
    ok = len(typeB_table(2)) == 5 and len(typeB_table(3)) == 10
    for d in [2, 3, 4]:
        ok = ok and len(typeD_table(d)) == even_signed_class_count(d)
    for m in range(1, 5):
        images = [hu_to_clifford(h, m) for h in hu_index(m)]
        ok = ok and len(set(images)) == len(images)
        ok = ok and set(images) == set(enumerate_IC(m, 2))
    elapsed = time.time() - start
    with capsys.disabled():
        report(10, "bipartition and even-signed tables", ok, elapsed)


def test_criterion_11_cell_statistics(capsys):
    start = time.time()

    def poly_mul(p, q):
        out = {}
        for a, ca in p.items():
            for b, cb in q.items():
                out[a + b] = out.get(a + b, 0) + ca * cb
        return out

    ok = True
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        g = WreathGroup(m, d)
        count, dist = cell_statistics(g)
        ok = ok and count == g.order
        poincare = {}
        for p in all_perms(m):
            poincare[perm_length(p)] = poincare.get(perm_length(p), 0) + 1
        expected = {0: factorial(d)}
        for _ in range(d):
            expected = poly_mul(expected, poincare)
        ok = ok and dist == expected
    count, dist = cell_statistics(WreathGroup(2, 2))
    ok = ok and count == 8 and dist == {0: 2, 1: 4, 2: 2}
    elapsed = time.time() - start
    with capsys.disabled():
        report(11, "cell statistics", ok, elapsed)
