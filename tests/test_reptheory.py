import random
from fractions import Fraction
from itertools import groupby
from math import factorial, prod
from operator import attrgetter, mul

import pytest

from wreathspringer import clear_caches, reptheory, springer
from wreathspringer.combinatorics import (
    cycle_type,
    hook_dim,
    identity_perm,
    partitions_of,
)
from wreathspringer.matrices import BlockMonomial, identity_matrix, kron_all, trace
from wreathspringer.orbits import (
    CliffordLabel, all_orbit_labels, clifford_label, enumerate_IC, enumerate_IS, gamma_of, wreath_character,
)
from wreathspringer.reptheory import (
    BimoduleModel,
    Representation,
    _seminormal_generators,
    block_module,
    char_of,
    clifford_irrep,
    component_character,
    induce,
    isotypic_character,
    slot_basis_permutation,
    specht_matrix,
    specht_rep,
    springer_module,
)
from wreathspringer.wreath import BoundExceededError, CheckFailed, WreathElement, WreathGroup, class_label

from oracles import (
    character_table,
    extend_to_wreath,
    induced_character_value,
    inflate,
    inner,
    isotypic_character_by_elements,
    isotypic_character_by_words,
    mn_character,
    rep_tensor,
    seminormal_generators_by_positions,
    value_at,
)


# -- Specht modules

def test_trivial_and_sign():
    for n in range(1, 5):
        triv = specht_rep((n,))
        assert triv.dim == 1
        sign = specht_rep(tuple([1] * n))
        assert sign.dim == 1
        for g in triv.group.class_reps:
            assert triv.matrix(g).dense() == ((Fraction(1),),)
        s = triv.group.generators[0] if n > 1 else None
        if s is not None:
            assert sign.matrix(s).dense() == ((Fraction(-1),),)


def test_specht_21_character():
    rep = specht_rep((2, 1))
    assert rep.dim == 2
    chi = char_of(rep)
    g = rep.group
    three_cycle = g.gen_t(1) * g.gen_t(2)
    assert (value_at(g, chi, three_cycle), value_at(g, chi, g.gen_t(1)), chi[0]) == (-1, 0, 2)


def test_specht_dims_match_hook_formula():
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert specht_rep(lam).dim == hook_dim(lam)


@pytest.mark.parametrize("n", range(1, 8))
def test_seminormal_form_from_contents_is_the_one_from_positions(n):
    # entry for entry and type for type: int (never bool) or Fraction
    for lam in partitions_of(n):
        got = _seminormal_generators(lam)
        want = seminormal_generators_by_positions(lam)
        assert got == want, lam
        got_types = [type(x) for mat in got for row in mat for x in row]
        assert got_types == [type(x) for mat in want for row in mat for x in row], lam
        assert set(got_types) <= {int, Fraction}, lam


def test_specht_characters_match_rim_hook_oracle():
    for n in range(1, 6):
        group = WreathGroup(1, n)
        for lam in partitions_of(n):
            chi = char_of(specht_rep(lam))
            for rep in group.class_reps:
                assert value_at(group, chi, rep) == mn_character(lam, cycle_type(rep.top))


def test_specht_degree_bound(monkeypatch):
    # Sigma_n obeys the element bound like every group: 8! = 40,320 is
    # within the default 50,000 and 9! is not
    assert specht_rep((5, 3)).dim == 28
    assert specht_rep((8,)).dim == 1
    with pytest.raises(BoundExceededError):
        specht_rep((9,))
    monkeypatch.setenv("WREATHSPRINGER_MAX_ELEMENTS", "400000")
    try:
        assert specht_rep((9,)).dim == 1
    finally:
        clear_caches()  # the module built under the raised bound does not outlive the test


def test_specht_degree8_characters_match_rim_hook_oracle():
    group = WreathGroup(1, 8)
    for lam in [(5, 3), (3, 3, 2)]:
        chi = char_of(specht_rep(lam))
        for rep in group.class_reps:
            assert value_at(group, chi, rep) == mn_character(lam, cycle_type(rep.top)), lam


@pytest.mark.parametrize("lam", [(1, 2), (2, 0, 1), (-1, 2), (2, 0)])
def test_specht_refuses_a_non_partition(lam):
    with pytest.raises(ValueError, match="is not a partition"):
        specht_rep(lam)


def test_specht_orthogonality_degree4():
    for lam in partitions_of(4):
        chi1 = char_of(specht_rep(lam))
        for mu in partitions_of(4):
            chi2 = char_of(specht_rep(mu))
            assert inner(WreathGroup(1, 4), chi1, chi2) == (1 if lam == mu else 0)


def test_regular_representation_character():
    group = WreathGroup(1, 3)
    elements = group.elements
    index = {p: i for i, p in enumerate(elements)}

    def fn(p):
        rows = [[Fraction(0)] * 6 for _ in range(6)]
        for x in elements:
            rows[index[p * x]][index[x]] = Fraction(1)
        return BlockMonomial.one_coset(tuple(tuple(r) for r in rows))

    chi = char_of(Representation(group, fn, name="regular"))
    for x in elements:
        assert value_at(group, chi, x) == (6 if x == group.identity else 0)


def test_specht_matrix_reads_a_bare_permutation():
    rep = specht_rep((2, 1))
    for p in rep.group.tops:
        assert specht_matrix((2, 1), p) == rep.matrix(WreathElement(((0,),) * 3, p)).dense()
    with pytest.raises(ValueError):
        specht_matrix((2, 1), (1, 0))
    with pytest.raises(ValueError):
        specht_matrix((2,), (0, 1, 2))


# -- labels

def test_clifford_label_validation():
    with pytest.raises(ValueError):
        CliffordLabel(2, (((1, 1), (1,)), ((2,), (1,))))  # wrong key order
    with pytest.raises(ValueError):
        clifford_label(2, {(3,): (1,)})  # key does not partition m
    for entries in (
        (((0, 2), (1,)),),  # key has a zero part
        (((2,), (1, 2)),),  # value is not weakly decreasing
        (((2,), (0, 1)),),  # value has a zero part
    ):
        with pytest.raises(ValueError):
            CliffordLabel(2, entries)
    label = clifford_label(2, {(2,): (1,), (1, 1): (1,), (1,): ()})
    assert label.d == 2
    assert label.gamma() == {(2,): 1, (1, 1): 1}
    assert str(label) == "{[2]:[1],[1,1]:[1]}"
    assert label.value((2,)) == (1,)
    assert label.value((3,)) == ()


def test_enumerate_IC_counts():
    assert len(enumerate_IC(2, 2)) == 5
    assert len(enumerate_IC(3, 2)) == 9
    assert len(enumerate_IC(2, 3)) == 10
    for m in range(1, 5):
        labels = enumerate_IC(m, 1)
        assert len(labels) == len(partitions_of(m))
        assert all(label.entries[0][1] == (1,) for label in labels)


def test_enumerate_IC_totals():
    for label in enumerate_IC(3, 2):
        assert label.d == 2
        assert sum(label.gamma().values()) == 2


# -- extension, inflation, induction

def test_extension_trivial_gamma():
    g = WreathGroup(2, 2)
    rep = extend_to_wreath(g, {(2,): 2})
    assert rep.dim == 1
    for x in rep.group.elements:
        assert rep.matrix(x).dense() == ((Fraction(1),),)


def test_extension_swap_of_identical_sign_slots():
    g = WreathGroup(2, 2)
    rep = extend_to_wreath(g, {(1, 1): 2})
    assert rep.dim == 1
    t = g.gen_t(1)
    assert rep.matrix(t).dense() == ((Fraction(1),),)
    assert rep.matrix(g.gen_s(1, 1)).dense() == ((Fraction(-1),),)


def test_extension_dimension():
    g = WreathGroup(3, 2)
    rep = extend_to_wreath(g, {(2, 1): 2})
    assert rep.dim == hook_dim((2, 1)) ** 2 == 4


def test_extension_rejects_keys_that_do_not_partition_m():
    with pytest.raises(ValueError, match=r"key \(2, 1\) does not partition m=2"):
        extend_to_wreath(WreathGroup(2, 1), {(2, 1): 1})
    with pytest.raises(ValueError, match=r"key \(3,\) does not partition m=2"):
        extend_to_wreath(WreathGroup(2, 2), {(3,): 1, (1, 1): 1})


def test_inflation_trivial_values():
    g = WreathGroup(2, 2)
    rep = inflate(g, clifford_label(2, {(2,): (2,)}))
    for x in rep.group.elements:
        assert rep.matrix(x).dense() == ((Fraction(1),),)


def test_inflation_kills_factor_part():
    g = WreathGroup(2, 3)
    label = clifford_label(2, {(2,): (2, 1)})
    rep = inflate(g, label)
    assert rep.dim == hook_dim((2, 1)) == 2
    for j in range(1, 4):
        assert rep.matrix(g.gen_s(1, j)).dense() == identity_matrix(2)


@pytest.mark.parametrize("m,d", [(m, d) for m in (2, 3) for d in (1, 2, 3, 4)])
def test_inflation_to_sigma_1_is_the_young_subgroup_irreducible(m, d):
    # the right group's characters: at m = 1 the inflation of a label is the
    # outer tensor of its values over the blocks, one block per key
    for psi in enumerate_IC(m, d):
        rep = inflate(WreathGroup(1, d), psi)
        gamma = psi.gamma()
        for x in rep.group.elements:
            expected, start = 1, 0
            for nu in sorted(gamma, reverse=True):
                local = tuple(x.top[start + i] - start for i in range(gamma[nu]))
                expected *= mn_character(psi.value(nu), cycle_type(local))
                start += gamma[nu]
            assert trace(rep.matrix(x).dense()) == expected, (psi, x)


def test_induce_from_whole_group_keeps_character():
    g = WreathGroup(2, 2)
    rep = extend_to_wreath(g, {(1, 1): 2})  # lives over the full top group
    induced = induce(rep, g)
    assert induced.dim == rep.dim
    chi = char_of(induced)
    for rep_el in g.class_reps:
        assert value_at(g, chi, rep_el) == trace(rep.matrix(rep_el).dense())


def test_induce_trivial_from_factor_part():
    g = WreathGroup(2, 2)
    sub = WreathGroup(2, 2, (1, 1))  # trivial top group
    triv = Representation(
        sub, lambda x: BlockMonomial.one_coset(((Fraction(1),),)), name="trivial"
    )
    induced = induce(triv, g)
    assert induced.dim == factorial(2)
    chi = char_of(induced)
    for rep_el in g.class_reps:
        expected = induced_character_value(
            rep_el,
            g.elements,
            sub.elements,
            lambda h: Fraction(1),
            mul,
            WreathElement.inverse,
        )
        assert value_at(g, chi, rep_el) == expected


@pytest.mark.parametrize("m,d", [(2, 3), (3, 2)])
def test_induced_trace_is_the_frobenius_formula(m, d):
    g = WreathGroup(m, d)
    for label in enumerate_IC(m, d):
        rho = block_module(g, label)
        induced = induce(rho, g)
        for x in g.class_reps:
            expected = induced_character_value(
                x,
                g.elements,
                rho.group.elements,
                lambda h: trace(rho.matrix(h).dense()),
                mul,
                WreathElement.inverse,
            )
            assert induced.matrix(x).trace() == expected, (label, x)


def restrict(rho, sub):
    """Restriction to a subgroup: the same matrices on its generators."""
    def fn(x):
        return BlockMonomial.one_coset(rho.matrix(x).dense())

    return Representation(sub, fn, name=f"Res({rho.name})")


def test_frobenius_reciprocity_random_pairs():
    g = WreathGroup(2, 2)
    labels = enumerate_IC(2, 2)
    rng = random.Random(17)

    def inner_over(elements, rho1, rho2, inv):
        total = Fraction(0)
        for x in elements:
            total += trace(rho1.matrix(x).dense()) * trace(rho2.matrix(inv(x)).dense())
        return total / len(elements)

    for _ in range(20):
        lab_h = rng.choice(labels)
        lab_g = rng.choice(labels)
        rho = block_module(g, lab_h)
        sigma = clifford_irrep(g, lab_g)
        sub = rho.group
        lhs = inner_over(g.elements, induce(rho, g), sigma, WreathElement.inverse)
        rhs = inner_over(sub.elements, rho, restrict(sigma, sub), WreathElement.inverse)
        assert lhs == rhs


# -- induced irreducibles

def test_clifford_dims_22():
    g = WreathGroup(2, 2)
    assert clifford_irrep(g, clifford_label(2, {(2,): (2,)})).dim == 1
    mixed = clifford_label(2, {(2,): (1,), (1, 1): (1,)})
    assert clifford_irrep(g, mixed).dim == 2
    assert sum(clifford_irrep(g, lab).dim ** 2 for lab in enumerate_IC(2, 2)) == 8


def test_clifford_characters_orthonormal_22():
    g = WreathGroup(2, 2)
    chars = [char_of(clifford_irrep(g, lab)) for lab in enumerate_IC(2, 2)]
    for i, chi1 in enumerate(chars):
        for j, chi2 in enumerate(chars):
            assert inner(g, chi1, chi2) == (1 if i == j else 0)


@pytest.mark.parametrize("m,d", [(2, 3), (3, 2)])
def test_a_character_is_its_values_identity_first(m, d):
    g = WreathGroup(m, d)
    for label in enumerate_IC(m, d):
        rho = clifford_irrep(g, label)
        chi = char_of(rho)
        assert type(chi) is tuple and len(chi) == len(g.conjugacy_classes)
        assert chi[0] == rho.dim, label
    for label in all_orbit_labels(m, d):
        model = springer_module(g, label)
        for psi in enumerate_IC(m, d):
            if psi.orbit == model.profile:
                values = isotypic_character(model, psi)
                assert type(values) is tuple and len(values) == len(g.conjugacy_classes), psi


def test_clifford_count_matches_classes():
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        g = WreathGroup(m, d)
        assert len(enumerate_IC(m, d)) == len(g.conjugacy_classes)


def test_character_table_reads_dimensions_off_the_modules():
    clear_caches()  # so that the modules are built over this group object
    group = WreathGroup(2, 3)
    rows = character_table(group)
    assert all(type(dim) is int and dim == chi[0] for _, dim, chi in rows)
    assert sum(dim * dim for _, dim, _ in rows) == group.order


# -- the wreath Murnaghan-Nakayama rule against the traces of the modules

def rule_values(group, label):
    """The rule's value of the label at each class representative, from
    the class's cycles: its `class_label` less the block entry."""
    return tuple(
        wreath_character(label.entries, tuple((r, c) for _, r, c in class_label(rep, (0,) * group.d)))
        for rep in group.class_reps
    )


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (2, 4), (4, 2), (3, 3)])
def test_murnaghan_nakayama_rule_is_the_matrix_character_table(m, d):
    group = WreathGroup(m, d)
    rule = [(label, rule_values(group, label)) for label in enumerate_IC(m, d)]
    assert rule == [(label, chi) for label, _, chi in character_table(group)]
    assert all(type(v) is int for _, values in rule for v in values)


@pytest.mark.parametrize("m,d", [(2, 5), (3, 4)])
def test_murnaghan_nakayama_rule_is_the_induced_irreducible(m, d):
    group = WreathGroup(m, d)
    for label in enumerate_IC(m, d):
        assert rule_values(group, label) == char_of(clifford_irrep(group, label)), label


# -- exact scalars: integral entries are ints, the rest Fractions, never floats

def _exact(x):
    return type(x) is int or type(x) is Fraction  # a bool or a float is neither


@pytest.mark.parametrize("m,d", [(2, 3), (3, 2)])
def test_character_table_builds_no_float(monkeypatch, m, d):
    clear_caches()  # so that every module the table needs is built below
    built = []
    init = Representation.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Representation, "__init__", recording_init)
    rows = character_table(WreathGroup(m, d))
    monkeypatch.undo()
    assert {rho.group for rho in built} >= {WreathGroup(m, d), WreathGroup(1, m)}
    entries = [
        x for rho in built for image in rho.images for block in image.blocks for row in block for x in row
    ]
    assert all(map(_exact, entries))
    assert {type(x) for x in entries} == {int, Fraction}  # 1/dist entries stay Fractions
    assert all(_exact(v) for _, _, chi in rows for v in chi)


def test_isotypic_characters_are_exact(monkeypatch):
    values = []

    def recording(model, psi):
        chi = isotypic_character(model, psi)
        values.extend(chi)
        return chi

    monkeypatch.setattr(springer, "isotypic_character", recording)
    assert springer.verify_springer(WreathGroup(2, 3)).all_pass
    assert len(values) == 10 * 10 and all(map(_exact, values))


def test_inner_product_of_an_integral_character_is_a_fraction():
    # int / int would be a float: the inner product divides a Fraction
    g = WreathGroup(2, 3)
    chars = [char_of(clifford_irrep(g, lab)) for lab in enumerate_IC(2, 3)]
    integral = [chi for chi in chars if all(type(v) is int for v in chi)]
    assert integral
    for chi in integral:
        got = inner(g, chi, chi)
        assert type(got) is Fraction and got == 1


SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)]


def _images(rho):
    return [(b.perm, b.blocks) for b in rho.images]


@pytest.mark.parametrize("m,d", SIZES)
def test_block_module_is_the_extension_tensored_with_the_inflation(m, d):
    g = WreathGroup(m, d)
    for label in enumerate_IC(m, d):
        blk = block_module(g, label)
        reference = rep_tensor(extend_to_wreath(g, label.gamma()), inflate(g, label))
        assert blk.group == reference.group and blk.dim == reference.dim, label
        assert _images(blk) == _images(reference), label


@pytest.mark.parametrize("m,d", SIZES)
def test_fiber_left_module_is_induced_from_the_slotwise_specht_tensor(m, d):
    g = WreathGroup(m, d)
    slot_group = WreathGroup(m, d, (1,) * d)
    for profile in all_orbit_labels(m, d):
        slotwise = Representation(
            slot_group,
            lambda x: BlockMonomial.one_coset(
                kron_all(specht_matrix(lam, f) for lam, f in zip(profile, x.factors))
            ),
        )
        assert _images(springer_module(g, profile).left) == _images(induce(slotwise, g)), profile


def test_shape_is_read_off_the_identity_when_the_group_has_no_generators():
    # a profile of distinct entries leaves the fiber's right group trivial
    right = springer_module(WreathGroup(2, 2), ((2,), (1, 1))).right
    assert not right.group.generators
    assert right.dim == 2
    assert right._one == BlockMonomial.identity(2, 1)
    assert specht_rep((1,)).dim == 1

def test_clifford_irrep_builds_the_block_module_and_the_induced_one(monkeypatch):
    g = WreathGroup(3, 2)
    built = []
    init = Representation.__init__

    def counting_init(self, group, *args, **kwargs):
        built.append(group)
        init(self, group, *args, **kwargs)

    for label in enumerate_IC(3, 2):
        clifford_irrep(g, label)  # the Specht modules are cached from here on
        monkeypatch.setattr(Representation, "__init__", counting_init)
        clifford_irrep(g, label)
        monkeypatch.undo()
        assert built == [block_module(g, label).group, g], label
        built.clear()


def _assert_traces_read_the_matrices(rho):
    # every trace first, while no matrix is cached (the bimodule's commuting
    # check caches the generators' left matrices), so each one goes through
    # the product that stops before the last letter
    rho._cache.clear()
    traces = [rho.trace(x) for x in rho.group.elements]
    assert not rho._cache
    assert traces == [rho.matrix(x).trace() for x in rho.group.elements]
    assert traces == [rho.trace(x) for x in rho.group.elements]  # now from the cache


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3)])
def test_trace_is_the_trace_of_the_matrix(m, d):
    g = WreathGroup(m, d)
    for label in enumerate_IC(m, d):
        # each call builds a fresh module, with its own matrix cache
        _assert_traces_read_the_matrices(clifford_irrep(g, label))


def test_bimodule_traces_are_the_traces_of_the_matrices():
    g = WreathGroup(2, 3)
    for profile in all_orbit_labels(2, 3):
        model = BimoduleModel(g, profile)
        _assert_traces_read_the_matrices(model.left)
        _assert_traces_read_the_matrices(model.right)


def test_bimodule_refuses_a_profile_of_another_size():
    with pytest.raises(ValueError, match=r"does not match \(m,d\)=\(2,2\)"):
        BimoduleModel(WreathGroup(2, 2), ((2,), (2,), (2,)))


def test_slot_basis_permutation_needs_constant_dimensions():
    with pytest.raises(ValueError, match="slot dimensions are not constant"):
        slot_basis_permutation((1, 2), (1, 0))


def test_bimodule_refuses_actions_that_do_not_commute(monkeypatch):
    # the slotwise left module only ever permutes slots by an identity top,
    # so fixed tensor slots break the right action alone; at (2,2) every
    # block is 1x1 and the broken right action still commutes
    monkeypatch.setattr(
        reptheory, "slot_basis_permutation", lambda dims, u: tuple(range(prod(dims)))
    )
    clear_caches()
    try:
        with pytest.raises(CheckFailed, match="left and right actions do not commute"):
            BimoduleModel(WreathGroup(3, 2), ((2, 1), (2, 1)))
    finally:
        clear_caches()  # nothing built under the broken rule outlives the test


def test_young_subgroup_characters_orthonormal_23():
    g = WreathGroup(2, 3)
    by_gamma: dict = {}
    for label in enumerate_IC(2, 3):
        by_gamma.setdefault(tuple(label.gamma().items()), []).append(label)
    for labels in by_gamma.values():
        gamma = labels[0].gamma()
        modules = [block_module(g, label) for label in labels]
        assert {rho.group.blocks for rho in modules} == {tuple(gamma.values())}
        chars = [char_of(rho) for rho in modules]
        for i, chi1 in enumerate(chars):
            for j, chi2 in enumerate(chars):
                assert inner(modules[0].group, chi1, chi2) == (1 if i == j else 0)


def test_tensor_and_induce_reject_other_groups():
    g = WreathGroup(2, 2)
    ext = extend_to_wreath(g, {(2,): 1, (1, 1): 1})  # over blocks (1, 1)
    with pytest.raises(ValueError):
        rep_tensor(ext, extend_to_wreath(g, {(2,): 2}))
    with pytest.raises(ValueError):
        induce(ext, WreathGroup(3, 2))
    with pytest.raises(ValueError):
        induce(extend_to_wreath(g, {(2,): 2}), WreathGroup(2, 2, (1, 1)))
    with pytest.raises(ValueError):
        induce(specht_rep((2,)), g)
    assert rep_tensor(specht_rep((2, 1)), specht_rep((1, 1, 1))).dim == 2


def test_clifford_label_group_mismatch():
    g = WreathGroup(2, 2)
    with pytest.raises(ValueError):
        clifford_irrep(g, clifford_label(2, {(2,): (3,)}))


# -- the fiber bimodule

def right_multiplicity(model, psi):
    """Multiplicity of the right group's irreducible psi in the bimodule:
    the inner product of its character, read from the inflation to
    Sigma_1 wr Sigma_d, with the right action's character."""
    right = model.right
    psi_rep = inflate(WreathGroup(1, model.group.d), psi)
    assert psi_rep.group == right.group
    return sum(
        trace(psi_rep.matrix(x).dense()) * trace(right.matrix(x).dense())
        for x in right.group.elements
    ) / right.group.order


def test_springer_module_equal_pair():
    g = WreathGroup(2, 2)
    model = springer_module(g, ((2,), (2,)))
    assert model.dim == 2
    # right action is the regular representation of the two-element group
    assert model.right.group.order == 2
    for psi_part, expected in [((2,), 1), ((1, 1), 1)]:
        psi = clifford_label(2, {(2,): psi_part})
        assert right_multiplicity(model, psi) == expected


def test_springer_module_single_slot():
    g = WreathGroup(3, 1)
    model = springer_module(g, ((2, 1),))
    assert model.dim == hook_dim((2, 1))
    assert model.right.group.tops == (identity_perm(1),)


def test_springer_module_keys_on_the_orbit():
    # nothing keeps a model, so two profiles of one orbit give two equal
    # models, not one shared object
    g = WreathGroup(2, 2)
    orbit = ((2,), (1, 1))
    models = [springer_module(g, [(1, 1), (2,)]), springer_module(g, orbit)]
    assert [model.profile for model in models] == [orbit, orbit]
    labels = [label for label in enumerate_IS(2, 2) if label.orbit == orbit]
    assert labels
    for label in labels:
        first, second = (isotypic_character(model, label) for model in models)
        assert first == second, label


def test_springer_module_mixed_pair():
    g = WreathGroup(2, 2)
    model = springer_module(g, ((2,), (1, 1)))
    assert model.dim == 2
    assert model.right.group.tops == (identity_perm(2),)


def test_springer_module_refuses_a_young_top_group():
    # the right action lays its cosets over all of Sigma_d; over a Young top
    # group the left module has fewer, and the relation check used to fail
    for g in [WreathGroup(2, 2, (1, 1)), WreathGroup(2, 3, (2, 1))]:
        with pytest.raises(ValueError, match="full top group"):
            springer_module(g, ((2,),) * g.d)


def test_right_action_regular_pattern():
    # every irreducible of the right group appears in the bimodule
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for label in all_orbit_labels(m, d):
            model = springer_module(g, label)
            gamma = gamma_of(label)
            for psi in enumerate_IC(m, d):
                if psi.gamma() != gamma:
                    continue
                assert right_multiplicity(model, psi) >= 1


def test_isotypic_trivial_right_group_gives_full_character():
    g = WreathGroup(2, 2)
    model = springer_module(g, ((2,), (1, 1)))
    psi = clifford_label(2, {(2,): (1,), (1, 1): (1,)})
    chi = isotypic_character(model, psi)
    assert chi == char_of(model.left)


def test_isotypic_rejects_wrong_label():
    g = WreathGroup(2, 2)
    model = springer_module(g, ((2,), (2,)))
    with pytest.raises(ValueError):
        isotypic_character(model, clifford_label(2, {(1, 1): (2,)}))


def test_isotypic_dimensions_fill_the_bimodule():
    for m, d in [(2, 2), (3, 2)]:
        g = WreathGroup(m, d)
        for label in all_orbit_labels(m, d):
            model = springer_module(g, label)
            gamma = gamma_of(label)
            total = Fraction(0)
            for psi in enumerate_IC(m, d):
                if psi.gamma() != gamma:
                    continue
                dim_psi = prod(hook_dim(val) for _, val in psi.entries)
                total += dim_psi * isotypic_character(model, psi)[0]
            assert total == model.dim


@pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (3, 2)])
def test_isotypic_class_sum_equals_element_sum(m, d):
    g = WreathGroup(m, d)
    for label in all_orbit_labels(m, d):
        model = springer_module(g, label)
        for psi in enumerate_IC(m, d):
            if psi.gamma() == gamma_of(label):
                assert isotypic_character(model, psi) == isotypic_character_by_elements(
                    model, psi
                ), (label, psi)


def _orbit_models(m, d):
    """Each orbit's model with the orbit-side labels of that orbit."""
    g = WreathGroup(m, d)
    for orbit, labels in groupby(enumerate_IS(m, d), key=attrgetter("orbit")):
        yield springer_module(g, orbit), list(labels)


@pytest.mark.parametrize("m,d", [(2, 3), (3, 2), (2, 4)])
def test_isotypic_character_builds_no_module(monkeypatch, m, d):
    built = []
    init = Representation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    for model, labels in _orbit_models(m, d):
        monkeypatch.setattr(Representation, "__init__", counting_init)
        for label in labels:
            isotypic_character(model, label)
        monkeypatch.undo()
    assert built == []


@pytest.mark.parametrize("m,d", [(2, 3), (3, 2), (2, 4)])
def test_projection_leaves_only_generators_in_the_left_cache(m, d):
    # the class matrices of the left module are formed once, for the
    # model's table of traces, and none of them is kept
    for model, labels in _orbit_models(m, d):
        for label in labels:
            isotypic_character(model, label)
        assert set(model.left._cache) <= set(model.group.generators), model.profile


@pytest.mark.parametrize("m,d", [(1, 4), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2)])
def test_component_character_is_the_trace_of_the_inflation(m, d):
    for psi in enumerate_IS(m, d):
        rep = inflate(WreathGroup(1, d), psi)
        right = rep.group
        assert right == WreathGroup(1, d, tuple(gamma_of(psi.orbit).values()))
        assert component_character(psi, right) == tuple(map(rep.trace, right.class_reps)), psi


@pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_isotypic_character_is_the_projection_label_by_label(m, d):
    for model, labels in _orbit_models(m, d):
        for label in labels:
            assert isotypic_character(model, label) == isotypic_character_by_words(model, label), label


def test_isotypic_equal_pair_values():
    g = WreathGroup(2, 2)
    model = springer_module(g, ((2,), (2,)))
    chi = isotypic_character(model, clifford_label(2, {(2,): (2,)}))
    # the trivial isotypic piece of this orbit is the trivial character
    assert all(v == 1 for v in chi)
    chi_sign = isotypic_character(model, clifford_label(2, {(2,): (1, 1)}))
    assert chi_sign[0] == 1
    assert value_at(g, chi_sign, g.gen_t(1)) == -1
    assert value_at(g, chi_sign, g.gen_s(1, 1)) == 1
