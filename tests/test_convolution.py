import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from oracles import (
    basis_indices, class_span_rank, convolve_all_pairs, products_check_by_whole_vectors, y_plain_sum,
)
from wreathspringer import cli, convolution
from wreathspringer.combinatorics import all_perms, identity_perm, perm_compose, perm_inverse
from wreathspringer.convolution import (
    AlgebraVector,
    BasisIndex,
    ProductResult,
    UndefinedProductError,
    convolve,
    convolve_basis,
    involution_T,
    pi0_act,
    verify_relations,
    y_bar,
    y_bar_sum,
)
from wreathspringer.wreath import Check, WreathElement, WreathGroup


E2 = (0, 1)
T2 = (1, 0)


def idx(group, word, tau):
    return BasisIndex(group.parse_word(word), tau)


# -- vectors

def test_vector_drops_zero_coefficients():
    g = WreathGroup(2, 2)
    i = idx(g, "t1", E2)
    v = AlgebraVector({i: Fraction(0)})
    assert v.is_zero()
    w = AlgebraVector.basis(i) - AlgebraVector.basis(i)
    assert w.is_zero()


def test_vector_arithmetic():
    g = WreathGroup(2, 2)
    a, b = idx(g, "t1", E2), idx(g, "s1^1", E2)
    v = AlgebraVector.basis(a) + 2 * AlgebraVector.basis(b)
    assert v.coeff(a) == 1 and v.coeff(b) == 2
    assert (Fraction(1, 2) * v).coeff(b) == 1


def assert_exact(v):
    # an int (never a bool) where the coefficient is integral, else a Fraction
    for c in v._terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (c, type(c))


def test_coefficients_are_ints_where_integral():
    g = WreathGroup(2, 3)
    sums = [y_bar_sum(g, w) for w in g.elements]
    tops = [y_bar_sum(g, w) for w in g.elements if w.has_trivial_factors()]
    half = Fraction(1, 2)
    for v in sums:
        assert set(v._terms.values()) == {1}
    mixed = [
        sums[5] + sums[9], sums[5] - sums[9], 3 * sums[7], half * sums[7], -1 * sums[2],
        half * sums[4] + half * sums[4], sums[11] - half * sums[11], Fraction(4, 2) * sums[3],
    ]
    products = [
        res.vector
        for a in [*sums, *mixed]
        for b in [*tops, half * tops[1], tops[2] - 3 * tops[3]]
        for res in (convolve(a, b), convolve(b, a))
        if res.defined
    ]
    assert len(products) > 2 * len(sums) * len(tops)
    for v in [*sums, *mixed, *products]:
        assert_exact(v)
    assert {type(c) for v in products for c in v._terms.values()} == {int, Fraction}


def test_scalar_products_become_integral():
    g = WreathGroup(2, 2)
    v = y_bar_sum(g, g.parse_word("s1^1"))
    twice_half = 2 * (Fraction(1, 2) * v)
    assert twice_half == v
    assert all(type(c) is int for c in twice_half._terms.values())
    missing = idx(g, "t1", E2)
    assert v.coeff(missing) == 0 and type(v.coeff(missing)) is int
    assert AlgebraVector({missing: Fraction(6, 3)})._terms == {missing: 2}


def test_float_coefficients_are_read_exactly():
    g = WreathGroup(2, 2)
    i = idx(g, "t1", E2)
    half = AlgebraVector({i: 0.5})._terms[i]
    assert type(half) is Fraction and half == Fraction(1, 2)
    two = AlgebraVector({i: 2.0})._terms[i]
    assert type(two) is int and two == 2


def test_product_result_requires_blockers():
    with pytest.raises(ValueError):
        ProductResult(None)


# -- closure classes

def test_y_bar_slot_swap_is_plain():
    g = WreathGroup(2, 2)
    t = g.parse_word("t1")
    assert y_bar(g, t, E2) == AlgebraVector.basis(BasisIndex(t, E2))


def test_y_bar_factor_generator():
    g = WreathGroup(2, 2)
    w = g.parse_word("s1^1")
    assert y_bar(g, w, T2) == AlgebraVector.basis(BasisIndex(w, T2)) + AlgebraVector.basis(
        BasisIndex(g.identity, T2)
    )


def test_y_bar_identity():
    g = WreathGroup(2, 2)
    assert y_bar(g, g.identity, T2) == AlgebraVector.basis(BasisIndex(g.identity, T2))


def test_y_bar_sum_supports():
    g = WreathGroup(2, 2)
    assert len(y_bar_sum(g, g.parse_word("t1")).support()) == 2
    assert len(y_bar_sum(g, g.identity).support()) == 2
    assert len(y_bar_sum(g, g.parse_word("s1^1")).support()) == 4


# -- the partial product

def test_convolve_basis_chaining_case():
    g = WreathGroup(2, 2)
    a = idx(g, "t1", E2)
    b = idx(g, "t1", T2)
    res = convolve_basis(a, b)
    assert res.defined
    assert res.vector == AlgebraVector.basis(BasisIndex(g.identity, E2))


def test_convolve_basis_zero_case():
    g = WreathGroup(2, 2)
    a = idx(g, "t1", E2)
    res = convolve_basis(a, a)
    assert res.defined and res.vector.is_zero()


def test_convolve_basis_undefined_case():
    g = WreathGroup(2, 1)
    s = BasisIndex(g.parse_word("s1^1"), (0,))
    res = convolve_basis(s, s)
    assert not res.defined
    assert res.blockers == ((s, s),)
    with pytest.raises(UndefinedProductError):
        res.expect()


def test_convolve_basis_trichotomy():
    # the product never fabricates a value outside the two computable cases
    for m, d in [(2, 1), (2, 2)]:
        g = WreathGroup(m, d)
        indices = basis_indices(g)
        for a in indices:
            for b in indices:
                res = convolve_basis(a, b)
                chains = perm_compose(a.tau, a.w.top) == b.tau
                trivial_side = a.w.has_trivial_factors() or b.w.has_trivial_factors()
                if not chains:
                    assert res.defined and res.vector.is_zero()
                elif trivial_side:
                    assert res.defined
                    assert res.vector == AlgebraVector.basis(BasisIndex(a.w * b.w, a.tau))
                else:
                    assert not res.defined and len(res.blockers) == 1


def test_convolve_collects_all_blockers():
    g = WreathGroup(2, 1)
    s = BasisIndex(g.parse_word("s1^1"), (0,))
    e = BasisIndex(g.identity, (0,))
    v = AlgebraVector.basis(s) + AlgebraVector.basis(e)
    res = convolve(v, v)
    assert not res.defined
    assert res.blockers == ((s, s),)


def test_convolve_matches_all_pairs_oracle_on_class_sums():
    g = WreathGroup(2, 2)
    sums = [y_bar_sum(g, w) for w in g.elements]
    blocked = 0
    for a in sums:
        for b in sums:
            res = convolve(a, b)
            assert res == convolve_all_pairs(a, b)
            blocked += not res.defined
    assert 0 < blocked < len(sums) ** 2


def test_convolve_matches_all_pairs_oracle_on_mixed_coefficients():
    rng = random.Random(7)
    coeffs = [Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-2, 3)]
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        indices = basis_indices(g)
        sums = [y_bar_sum(g, w) for w in g.elements if w.has_trivial_factors()]
        vectors = [sums[0] - sums[1], 2 * sums[1] - sums[0] + sums[1]]
        for _ in range(8):
            a, b = AlgebraVector.basis(rng.choice(indices)), AlgebraVector.basis(rng.choice(indices))
            vectors.append(3 * a - 3 * a + Fraction(1, 2) * b)
            vectors.append(sum((rng.choice(coeffs) * AlgebraVector.basis(rng.choice(indices))
                                for _ in range(5)), AlgebraVector.zero()))
        outcomes = set()
        for a in vectors:
            for b in vectors:
                res = convolve(a, b)
                assert res == convolve_all_pairs(a, b)
                outcomes.add("blocked" if not res.defined else res.vector.is_zero())
        assert outcomes == {"blocked", True, False}


def test_convolve_visits_only_chaining_pairs(monkeypatch):
    # the rule's component index only rides along, so each pair of elements
    # is asked once, at a chaining pair of basis classes, and never again
    g = WreathGroup(2, 3)
    a = y_bar_sum(g, g.parse_word("s1^1 t1")) + y_plain_sum(g, g.gen_t(2))
    b = y_bar_sum(g, g.gen_t(1)) + y_plain_sum(g, g.identity)
    visited = []

    def counting(x, y):
        visited.append((x, y))
        return convolve_basis(x, y)

    monkeypatch.setattr(convolution, "convolve_basis", counting)
    assert convolve(a, b) == convolve_all_pairs(a, b)
    assert all(perm_compose(x.tau, x.w.top) == y.tau for x, y in visited)
    asked = [(x.w, y.w) for x, y in visited]
    chaining = {
        (x.w, y.w) for x in a.support() for y in b.support()
        if perm_compose(x.tau, x.w.top) == y.tau
    }
    assert len(asked) == len(set(asked))
    assert set(asked) == chaining
    assert len(asked) < len(a.support()) * len(b.support())



def test_convolve_refuses_a_rule_that_moves_the_component_index(monkeypatch):
    # the loop reuses the rule's answer at every tau where the same two
    # elements chain, which holds only while each term stays at the left
    # factor's tau; a rule that moves it raises instead of giving wrong sums
    def moved(x, y):
        res = convolve_basis(x, y)
        if res.defined and not res.vector.is_zero():
            return ProductResult(AlgebraVector._of({BasisIndex(i.w, y.tau): c for i, c in res.vector.items()}))
        return res

    g = WreathGroup(2, 2)
    t = y_bar_sum(g, g.gen_t(1))
    monkeypatch.setattr(convolution, "convolve_basis", moved)
    with pytest.raises(RuntimeError, match="not at the left factor's"):
        convolve(t, t)


def test_convolve_of_basis_classes_numbers_only_their_taus(monkeypatch):
    # at d = 8 there are 40,320 component indices; a product of two basis
    # classes composes one permutation and builds no table of all of them
    x = WreathElement(((0, 1),) * 8, (1, 0, 2, 3, 4, 5, 6, 7))
    tau = (2, 0, 1, 3, 4, 5, 6, 7)
    a = AlgebraVector.basis(BasisIndex(x, tau))
    b = AlgebraVector.basis(BasisIndex(x, perm_compose(tau, x.top)))
    composed = []

    def counting(p, q):
        composed.append((p, q))
        return perm_compose(p, q)

    def refused(n):
        raise AssertionError(f"all_perms({n})")

    monkeypatch.setattr(convolution, "perm_compose", counting)
    monkeypatch.setattr(convolution, "all_perms", refused)
    assert convolve(a, b).expect() == AlgebraVector.basis(BasisIndex(x * x, tau))
    assert composed == [(tau, x.top)]

GROUP_22 = WreathGroup(2, 2)
INDICES_22 = basis_indices(GROUP_22)
# negative, non-unit and unit coefficients; equal indices drawn twice with
# opposite signs cancel to zero
COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3)]


def vectors():
    terms = st.lists(st.tuples(st.sampled_from(INDICES_22), st.sampled_from(COEFFS)), max_size=6)
    return terms.map(lambda ts: sum((c * AlgebraVector.basis(i) for i, c in ts), AlgebraVector.zero()))


@given(vectors(), vectors())
def test_convolve_matches_all_pairs_oracle_on_random_vectors(a, b):
    assert convolve(a, b) == convolve_all_pairs(a, b)


def test_convolve_cancels_colliding_products_to_zero():
    # e * t1 and t1 * e are the same basis class with opposite signs
    g = GROUP_22
    e, t1, flip = g.identity, g.gen_t(1), (1, 0)
    a = AlgebraVector.basis(BasisIndex(e, E2)) - AlgebraVector.basis(BasisIndex(t1, E2))
    b = AlgebraVector.basis(BasisIndex(t1, E2)) + AlgebraVector.basis(BasisIndex(e, flip))
    res = convolve(a, b)
    assert res.defined and res.vector.is_zero()
    assert res == convolve_all_pairs(a, b)
    assert convolve(Fraction(-3, 2) * a, b) == ProductResult(AlgebraVector.zero())


def test_product_result_equality_and_repr():
    v = AlgebraVector.basis(INDICES_22[0])
    blocker = ((INDICES_22[0], INDICES_22[1]),)
    assert ProductResult(v) == ProductResult(AlgebraVector.basis(INDICES_22[0]))
    assert ProductResult(v) != ProductResult(None, blocker)
    assert ProductResult(v) != v
    assert repr(ProductResult(v)) == f"ProductResult(vector={v!r}, blockers=())"
    assert repr(ProductResult(None, blocker)) == f"ProductResult(vector=None, blockers={blocker!r})"


def test_product_result_fields_cannot_be_assigned():
    res = ProductResult(AlgebraVector.zero())
    for field in ("vector", "blockers"):
        with pytest.raises(AttributeError):
            setattr(res, field, None)
    assert res.expect() == AlgebraVector.zero()


def test_convolve_basis_rejects_mixed_contexts():
    a = BasisIndex(GROUP_22.identity, E2)
    for other in [WreathGroup(3, 2), WreathGroup(2, 3)]:
        b = BasisIndex(other.identity, identity_perm(other.d))
        with pytest.raises(ValueError, match="context mismatch"):
            convolve_basis(a, b)
        with pytest.raises(ValueError, match="context mismatch"):
            convolve_basis(b, a)


def test_convolve_rejects_mixed_contexts():
    v22 = y_bar_sum(WreathGroup(2, 2), WreathGroup(2, 2).identity)
    for other in [WreathGroup(3, 2), WreathGroup(2, 3)]:
        with pytest.raises(ValueError):
            convolve(v22, y_bar_sum(other, other.identity))


def test_convolve_checks_every_term_of_either_vector():
    # the (3,2) term chains with no term of the other side, so only the
    # check of every term's shape can see it
    g22, g32 = WreathGroup(2, 2), WreathGroup(3, 2)
    e, odd = BasisIndex(g22.identity, E2), BasisIndex(g32.identity, T2)
    mixed = AlgebraVector.basis(e) + AlgebraVector.basis(odd)
    plain = AlgebraVector.basis(e)
    for a, b in [(mixed, plain), (plain, mixed)]:
        with pytest.raises(ValueError, match=r"context mismatch: \(2,2\) vs \(3,2\)"):
            convolve(a, b)
    assert convolve(mixed, AlgebraVector.zero()) == ProductResult(AlgebraVector.zero())


def test_convolve_refuses_a_component_index_that_is_not_a_permutation():
    # a tau that is not a permutation of degree d would be numbered d! or
    # more, and its keys would collide with the next element's: here the
    # [e;(0,0)] term was lost where the all-pairs oracle keeps it
    g = GROUP_22
    e, t1 = g.identity, g.gen_t(1)
    a = sum(
        (AlgebraVector.basis(BasisIndex(w, tau)) for w, tau in [(e, E2), (t1, T2), (e, (0, 0)), (t1, E2)]),
        AlgebraVector.zero(),
    )
    assert convolve_all_pairs(a, a).vector.coeff(BasisIndex(e, (0, 0))) == 1
    with pytest.raises(ValueError, match=r"component index \(0, 0\) is not a permutation of degree 2"):
        convolve(a, a)
    for tau in [(0, 1, 2), (1,)]:
        b = AlgebraVector.basis(BasisIndex(e, tau))
        for x, y in [(a, b), (b, a)]:
            with pytest.raises(ValueError, match="is not a permutation of degree 2"):
                convolve(x, y)


def test_quadratic_identity():
    g = WreathGroup(2, 2)
    t = y_bar_sum(g, g.parse_word("t1"))
    assert convolve(t, t).expect() == y_bar_sum(g, g.identity)


def test_identity_class_is_unit_where_defined():
    g = WreathGroup(2, 2)
    e = y_bar_sum(g, g.identity)
    for word in ["t1", "s1^1", "s1^1 s1^2 t1"]:
        v = y_bar_sum(g, g.parse_word(word))
        assert convolve(v, e).expect() == v
        assert convolve(e, v).expect() == v


def test_group_map_identities():
    g = WreathGroup(2, 2)
    sums = {w: y_bar_sum(g, w) for w in g.elements}
    tops = [w for w in g.elements if w.has_trivial_factors()]
    for w in g.elements:
        for sigma in tops:
            assert convolve(sums[w], sums[sigma]).expect() == sums[w * sigma]
            assert convolve(sums[sigma], sums[w]).expect() == sums[sigma * w]


def test_associativity_on_defined_triples():
    g = WreathGroup(2, 2)
    sums = [y_bar_sum(g, w) for w in g.elements]
    checked = 0
    for a in sums:
        for b in sums:
            ab = convolve(a, b)
            if not ab.defined:
                continue
            for c in sums:
                bc = convolve(b, c)
                left = convolve(ab.vector, c)
                if not bc.defined or not left.defined:
                    continue
                right = convolve(a, bc.vector)
                if right.defined:
                    assert left.vector == right.vector
                    checked += 1
    assert checked > 0


# -- anti-involution

def test_involution_on_basis_class():
    g = WreathGroup(2, 2)
    t = g.parse_word("t1")
    assert involution_T(AlgebraVector.basis(BasisIndex(t, E2))) == AlgebraVector.basis(
        BasisIndex(t, T2)
    )


def test_involution_is_involutive():
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for i in basis_indices(g):
            v = AlgebraVector.basis(i)
            assert involution_T(involution_T(v)) == v


def test_involution_inverts_slot_permutations():
    g = WreathGroup(2, 3)
    for top in all_perms(3):
        w = WreathElement(tuple(identity_perm(2) for _ in range(3)), top)
        winv = WreathElement(tuple(identity_perm(2) for _ in range(3)), perm_inverse(top))
        assert involution_T(y_bar_sum(g, w)) == y_bar_sum(g, winv)


def test_involution_antihomomorphism():
    g = WreathGroup(2, 2)
    indices = basis_indices(g)
    for a in indices:
        for b in indices:
            ab = convolve_basis(a, b)
            va, vb = AlgebraVector.basis(a), AlgebraVector.basis(b)
            rev = convolve(involution_T(vb), involution_T(va))
            assert ab.defined == rev.defined
            if ab.defined:
                assert involution_T(ab.vector) == rev.vector


# -- component shuffles

def test_pi0_known_value():
    g = WreathGroup(2, 2)
    w = g.parse_word("s1^1")
    assert pi0_act(T2, y_bar(g, w, T2)) == y_bar(g, w, E2)


def test_pi0_identity_and_action():
    g = WreathGroup(2, 3)
    v = y_bar(g, g.parse_word("s1^1 t1"), identity_perm(3))
    assert pi0_act(identity_perm(3), v) == v
    for a in all_perms(3):
        for b in all_perms(3):
            assert pi0_act(a, pi0_act(b, v)) == pi0_act(perm_compose(a, b), v)


def test_pi0_fixes_class_sums():
    g = WreathGroup(2, 2)
    for w in g.elements:
        v = y_bar_sum(g, w)
        for eta in all_perms(2):
            assert pi0_act(eta, v) == v


def test_pi0_linear_invertible():
    g = WreathGroup(2, 2)
    a = AlgebraVector.basis(idx(g, "t1", E2))
    b = AlgebraVector.basis(idx(g, "s1^1", T2))
    v = 3 * a + Fraction(1, 2) * b
    eta = T2
    assert pi0_act(eta, v) == 3 * pi0_act(eta, a) + Fraction(1, 2) * pi0_act(eta, b)
    assert pi0_act(perm_inverse(eta), pi0_act(eta, v)) == v


# -- relation reports

def test_verify_relations_small():
    report = verify_relations(WreathGroup(2, 2))
    assert not any(c.failed for c in report)
    by_name = {c.name: c for c in report}
    assert by_name["quadratic"].status == "pass" and by_name["quadratic"].instances == 1
    assert by_name["wreath"].status == "pass"
    assert by_name["products"].instances == 32
    # the records that `verify` prints
    assert all(c.to_dict()["status"] == "pass" for c in report)


def test_verify_relations_braid_at_d4():
    report = verify_relations(WreathGroup(2, 4))
    by_name = {c.name: c for c in report}
    assert by_name["braid"].status == "pass" and by_name["braid"].instances == 2
    assert by_name["commuting"].status == "pass" and by_name["commuting"].instances == 1
    assert by_name["products"].status == "skipped"


def test_verify_relations_32():
    report = verify_relations(WreathGroup(3, 2))
    assert not any(c.failed for c in report)
    by_name = {c.name: c for c in report}
    assert by_name["quadratic"].status == "pass"
    assert by_name["wreath"].instances == 2


@pytest.mark.parametrize("m, d, instances", [(4, 2, 4608), (2, 4, 18432), (3, 3, 15552)])
def test_products_check_passes_above_the_limit(monkeypatch, m, d, instances):
    monkeypatch.setattr(convolution, "PRODUCTS_CHECK_LIMIT", 10**6)
    by_name = {c.name: c for c in verify_relations(WreathGroup(m, d))}
    assert by_name["products"] == Check("products", "pass", instances)


RELATION_INSTANCES = {  # quadratic, wreath, braid, commuting, products
    (2, 2): (1, 1, 0, 0, 32),
    (2, 3): (2, 2, 1, 0, 576),
    (3, 2): (1, 2, 0, 0, 288),
    (2, 5): (4, 4, 3, 3, 0),
}


@pytest.mark.parametrize("m, d", list(RELATION_INSTANCES))
def test_relation_checks_take_one_product_path(monkeypatch, m, d):
    # every check multiplies int-keyed vectors in `_product`; none builds a
    # class sum with y_bar_sum or multiplies through convolve
    def refuse(*args):
        raise AssertionError("the vector path was taken")

    monkeypatch.setattr(convolution, "convolve", refuse)
    monkeypatch.setattr(convolution, "y_bar_sum", refuse)
    names = ("quadratic", "wreath", "braid", "commuting", "products")
    skipped = Check("products", "skipped", 0, "460800 basis indices exceed the limit 2000")
    expected = [Check(name, "pass", k) for name, k in zip(names, RELATION_INSTANCES[m, d])]
    if (m, d) == (2, 5):
        expected[-1] = skipped
    assert verify_relations(WreathGroup(m, d)) == tuple(expected)


def reversed_product(a, b):
    """`convolve_basis` with every defined nonzero product reversed."""
    res = convolve_basis(a, b)
    if res.defined and not res.vector.is_zero():
        return ProductResult(AlgebraVector.basis(BasisIndex(b.w * a.w, a.tau)))
    return res


def test_failed_relation_report(monkeypatch, capsys):
    # reversing every defined nonzero basis product breaks only `products`
    monkeypatch.setattr(convolution, "convolve_basis", reversed_product)
    report = verify_relations(WreathGroup(2, 2))
    by_name = {c.name: c for c in report}
    assert by_name["products"] == Check(
        "products", "fail", 32, "s1^2 * t1; t1 * s1^2; s1^1 * t1"
    )
    assert [c.name for c in report if c.status == "pass"] == [
        "quadratic", "wreath", "braid", "commuting"
    ]
    assert any(c.failed for c in report)
    assert cli.main(["verify", "--scope", "algebra", "--m", "2", "--d", "2"]) == 1
    capsys.readouterr()


def test_printed_words_need_no_word_table(monkeypatch, capsys):
    # chars prints one word per class and a failed products check names its
    # products by their words; both spell them from the normal form alone
    argvs = [["tables", "--kind", "chars", "--m", "3", "--d", "3", "--format", f] for f in ("md", "csv", "json")]

    def printed(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    before = [printed(argv) for argv in argvs]

    def refuse(group):
        raise AssertionError(f"{group!r}._words built")

    monkeypatch.setattr(WreathGroup, "_words", property(refuse))
    assert [printed(argv) for argv in argvs] == before
    monkeypatch.setattr(convolution, "convolve_basis", reversed_product)
    by_name = {c.name: c for c in verify_relations(WreathGroup(2, 2))}
    assert by_name["products"].detail == "s1^2 * t1; t1 * s1^2; s1^1 * t1"


@pytest.mark.parametrize("m, d", [(2, 2), (3, 2), (2, 3)])
def test_products_check_matches_the_whole_vector_oracle(m, d):
    g = WreathGroup(m, d)
    by_name = {c.name: c for c in verify_relations(g)}
    assert by_name["products"] == products_check_by_whole_vectors(g)
    assert by_name["products"].status == "pass"


def test_failed_products_check_matches_the_whole_vector_oracle(monkeypatch):
    monkeypatch.setattr(convolution, "convolve_basis", reversed_product)
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        by_name = {c.name: c for c in verify_relations(g)}
        assert by_name["products"].status == "fail"
        assert by_name["products"] == products_check_by_whole_vectors(g)


def test_braid_triple_products_directly():
    g = WreathGroup(2, 3)
    t1, t2 = y_bar_sum(g, g.gen_t(1)), y_bar_sum(g, g.gen_t(2))
    left = convolve(convolve(t1, t2).expect(), t1).expect()
    assert left == convolve(convolve(t2, t1).expect(), t2).expect()


# -- census

def test_basis_census():
    g = WreathGroup(2, 2)
    assert len(basis_indices(g)) == 16
    assert class_span_rank(g) == 8


def test_plain_sum_definition():
    g = WreathGroup(2, 2)
    w = g.parse_word("s1^1")
    v = y_plain_sum(g, w)
    assert v.support() == sorted(
        [BasisIndex(w, E2), BasisIndex(w, T2)], key=BasisIndex.key
    )
    # a pure-top element is the bottom of its own down-set, so its closure
    # sum is its plain sum: verify_relations builds the generators' sums so
    for g in [WreathGroup(2, 3), WreathGroup(3, 2)]:
        tops = [sigma for sigma in g.elements if sigma.has_trivial_factors()]
        assert len(tops) == factorial(g.d)
        for sigma in tops:
            assert y_bar_sum(g, sigma) == y_plain_sum(g, sigma)
