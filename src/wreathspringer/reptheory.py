"""Exact representation theory of symmetric groups and their wreath
products.

Symmetric-group irreducibles are built in Young's seminormal form: the
basis is indexed by standard tableaux and the adjacent-transposition
matrices have entries 1/axial-distance, the axial distance of k and k+1
being the difference of their contents (column - row), so everything
stays in exact rationals.  The seminormal entries 0 and +-1 are ints and
the others Fractions; products, Kronecker products and traces of these
are exact.  The one true division, `isotypic_character`'s by the right
group's order, divides a `Fraction`, so it makes no float.  A character
is the tuple of its values on ``group.class_reps``, whose first is the
identity, so ``values[0]`` is the dimension.

Every module over a Young wreath subgroup Sigma_m wr Y comes
from one rule, `young_module`: slotwise Specht modules of the factors,
permuted by the top, tensored with Specht modules of the top's blocks.
The block module of a multipartition and the fiber's slotwise module are
its two cases; an irreducible is its block module induced up (Clifford
theory).  The multipartition labels
are `orbits.CliffordLabel`: a label's `blocks`, `orbit` and `values` are
the block subgroup, the slots and the top Specht modules of its block
module.  Every matrix is a `BlockMonomial`: an induced module has one
block per coset, and a dense matrix (a Specht image, a Kronecker product)
is the one-coset case.

There is one group class, `WreathGroup`; the symmetric group of degree n
is ``WreathGroup(1, n)``.  A representation is the images of its group's
generators, which also give its shape (cosets and block size).  The group
carries a presentation: relations, and a normal-form word for every
element.  Construction checks the relations on the images, and the matrix
of an element is the product of the images along its word, so by von
Dyck's theorem every constructed representation is a homomorphism.  The
relations are the standard presentation of a permutational wreath product
(D. L. Johnson, *Presentations of Groups*), Tietze-reduced: per block,
type A in the first slot, the later slots defined as its conjugates by
the t_a, and the first two slots commuting for i <= i' only, because
conjugating by the swap of those slots turns (i, i') into (i', i); see
`WreathGroup.presentation`.  Each relation is stated once, as a pair
``(base, k)`` with base^k = e, and is checked by forming its base once
and raising it to the k-th power.

Degenerate-but-legal cases (m = 1, single-slot groups, empty partitions)
are handled uniformly; matrices of dimension one are still matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, product
from math import prod
from operator import matmul, mul

from .combinatorics import (
    Partition,
    Perm,
    all_perms,
    cycle_type,
    format_partition,
    hook_dim,
    identity_perm,
    is_partition,
    minimal_coset_rep,
    perm_compose,
    perm_inverse,
)
from .matrices import BlockMonomial, Matrix, Scalar, identity_matrix, kron, kron_all, permute_columns
from .orbits import CliffordLabel, Profile, gamma_of, orbit_label, symmetric_character
from .wreath import CheckFailed, WreathElement, WreathGroup


# ---------------------------------------------------------------------------
# representations and characters

class Representation:
    """A matrix representation, stored as the images of its group's
    generators.

    Construction evaluates `matrix_fn` on ``group.generators`` only and
    checks the group's defining relations (``group.presentation``) on those
    images, raising `CheckFailed` if one fails.  The matrix of any element
    is the product of the images along its normal-form word, so by von
    Dyck's theorem `matrix` is a homomorphism on the whole group.

    ``matrix_fn`` returns a `BlockMonomial`; its shape (cosets, block
    size, and so ``dim``) is read off the first image, or off
    ``matrix_fn(group.identity)`` if there are no generators.  The
    relation check compares each relation's product with the identity of
    that shape exactly.  A relation ``(base, k)`` has its base multiplied
    out once and then raised to the k-th power."""

    def __init__(self, group, matrix_fn, name: str = ""):
        self.group = group
        self.name = name
        self.images = tuple(map(matrix_fn, group.generators))
        shape = self.images[0] if self.images else matrix_fn(group.identity)
        cosets, size = len(shape.perm), len(shape.blocks[0])
        self.dim = cosets * size
        relations, self._word_of = group.presentation
        self._cache: dict = {}
        self._one = BlockMonomial.identity(cosets, size)
        for base, k in relations:
            x = self._product(base)
            if reduce(matmul, (x,) * k) != self._one:
                raise CheckFailed(
                    f"matrix rule for {name or 'representation'} is not a "
                    f"homomorphism: relation {base * k} fails"
                )

    def __repr__(self):
        return f"Representation({self.name or 'unnamed'}, dim={self.dim})"

    def _product(self, word) -> BlockMonomial:
        if not word:
            return self._one
        return reduce(matmul, (self.images[k] for k in word))

    def matrix(self, x) -> BlockMonomial:
        got = self._cache.get(x)
        if got is None:
            got = self._product(self._word_of(x))
            self._cache[x] = got
        return got

    def trace(self, x) -> Scalar:
        """The trace of `matrix` at x: the product along x's word stops
        before the last letter, whose product is read only on the diagonal
        (`BlockMonomial.trace_of_product`).  The identity's trace is `dim`."""
        word = self._word_of(x)
        if not word:
            return self.dim
        return self._product(word[:-1]).trace_of_product(self.images[word[-1]])


def char_of(rho: Representation) -> tuple[Scalar, ...]:
    """Traces on the class representatives."""
    return tuple(map(rho.trace, rho.group.class_reps))


# ---------------------------------------------------------------------------
# Specht modules in Young's seminormal form

Tableau = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of the given shape, entries 1..n, sorted."""
    n = sum(lam)
    if n == 0:
        return ((),)
    out = []
    rows = len(lam)
    for r in range(rows):
        if r + 1 < rows and lam[r + 1] == lam[r]:
            continue  # not a removable corner
        smaller = tuple(x for x in (lam[:r] + (lam[r] - 1,) + lam[r + 1:]) if x > 0)
        for small_tab in standard_tableaux(smaller):
            new_rows = [list(row) for row in small_tab]
            while len(new_rows) <= r:
                new_rows.append([])
            new_rows[r].append(n)
            out.append(tuple(tuple(row) for row in new_rows))
    return tuple(sorted(out))


def _seminormal_generators(lam: Partition) -> tuple[Matrix, ...]:
    """Matrix of each adjacent transposition on the standard-tableau basis,
    read off the tableaux' contents.

    For letters k, k+1 of a tableau T, the axial distance is
    dist = content(k+1) - content(k).  If k and k+1 share a row (dist = 1)
    or a column (dist = -1), the T-column is dist on the diagonal.
    Otherwise it is 1/dist on the diagonal plus a cross term to the
    tableau whose contents have k and k+1 swapped: coefficient 1 from the
    tableau with dist < 0, and 1 - 1/dist^2 back.
    """
    n = sum(lam)
    # content[v] = column - row of letter v (entry 0 unused); a standard
    # tableau is determined by its content vector
    contents = []
    for tab in standard_tableaux(lam):
        content = [0] * (n + 1)
        for r, row in enumerate(tab):
            for c, v in enumerate(row):
                content[v] = c - r
        contents.append(tuple(content))
    index = {content: i for i, content in enumerate(contents)}
    size = len(contents)
    mats = []
    for k in range(1, n):
        rows = [[0] * size for _ in range(size)]
        for j, content in enumerate(contents):
            dist = content[k + 1] - content[k]
            if abs(dist) == 1:
                rows[j][j] = dist
            else:
                swapped = content[:k] + (content[k + 1], content[k]) + content[k + 2:]
                rows[j][j] = Fraction(1, dist)
                rows[index[swapped]][j] = 1 if dist < 0 else 1 - Fraction(1, dist * dist)
        mats.append(tuple(tuple(row) for row in rows))
    return tuple(mats)


@lru_cache(maxsize=None)
def specht_rep(lam: Partition) -> Representation:
    """The irreducible representation of the symmetric group
    ``WreathGroup(1, n)`` attached to a partition of n, in Young's
    seminormal form over exact rationals.  The group obeys the element
    bound (`WreathGroup.check_bound`)."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    group = WreathGroup(1, sum(lam))
    group.check_bound()
    images = dict(zip(group.generators, map(BlockMonomial.one_coset, _seminormal_generators(lam))))
    images[group.identity] = BlockMonomial.identity(1, len(standard_tableaux(lam)))
    return Representation(group, images.__getitem__, name=f"S{format_partition(lam)}")


def specht_matrix(lam: Partition, p: Perm) -> Matrix:
    """The matrix of a bare permutation of degree |lam| on the Specht module."""
    if len(p) != sum(lam):
        raise ValueError(f"permutation of degree {len(p)} does not act on S{format_partition(lam)}")
    return specht_rep(lam).matrix(WreathElement(((0,),) * len(p), p)).dense()


# ---------------------------------------------------------------------------
# modules over Young wreath subgroups

def slot_basis_permutation(dims: tuple[int, ...], u: Perm) -> tuple[int, ...]:
    """Permutation of tensor slots on the row-major product basis, as a
    permutation of basis indices: basis vector k goes to ``out[k]``, whose
    slot i holds component u^-1(i) of k."""
    if u == identity_perm(len(u)):
        return tuple(range(prod(dims)))
    uinv = perm_inverse(u)
    if any(dims[uinv[i]] != dims[i] for i in range(len(dims))):
        raise ValueError("slot dimensions are not constant along the permutation")
    basis = list(product(*[range(dm) for dm in dims]))
    row_of = {k: r for r, k in enumerate(basis)}
    return tuple(row_of[tuple(k[uinv[i]] for i in range(len(dims)))] for k in basis)


def block_tops(top: Perm, blocks: tuple[int, ...]) -> tuple[Perm, ...]:
    """A top that keeps consecutive blocks of these sizes, restricted to
    each block and renumbered from 0."""
    starts = accumulate(blocks, initial=0)
    return tuple(tuple(t - start for t in top[start:start + size]) for start, size in zip(starts, blocks))


def young_module(
    sub: WreathGroup, slots: tuple[Partition, ...], values: tuple[Partition, ...], name: str
) -> Representation:
    """The module of Sigma_m wr Y, Y the Young subgroup of ``sub.blocks``,
    on the tensor of the slotwise Specht modules ``slots`` (a partition of
    m per slot) with the Specht modules ``values`` of the top blocks (a
    partition of each block's size).  The factors of x act slot by slot,
    its top permutes the slots and acts on block b through its restriction
    to that block (`block_tops`).  The block module of a label and the
    fiber's slotwise module are the cases of this one rule."""
    dims = tuple(hook_dim(nu) for nu in slots)

    def fn(x: WreathElement) -> BlockMonomial:
        # the factor part times the slot permutation: reorder its columns
        factor_part = kron_all(specht_matrix(nu, f) for nu, f in zip(slots, x.factors))
        top_part = kron_all(map(specht_matrix, values, block_tops(x.top, sub.blocks)))
        moved = permute_columns(factor_part, slot_basis_permutation(dims, x.top))
        # a trivial top part (a slotwise module, trivial values) leaves it as it is
        return BlockMonomial.one_coset(moved if top_part == ((1,),) else kron(moved, top_part))

    return Representation(sub, fn, name=name)


def block_module(group: WreathGroup, label: CliffordLabel) -> Representation:
    """The module that `clifford_irrep` induces, over the block subgroup
    Sigma_m wr Sigma_gamma: the extension of the factorwise module (the
    label's slots) tensored with the inflation of its top Specht modules
    (the label's values)."""
    sub = WreathGroup(group.m, group.d, label.blocks)
    return young_module(sub, label.orbit, label.values, f"block{label}")


def induce(rho: Representation, group: WreathGroup) -> Representation:
    """Induction from a Young wreath subgroup, in the block-monomial model
    over the minimal coset representatives of the tops, read off in closed
    form by `minimal_coset_rep`: one block per coset, holding the
    subgroup's matrix of the element that carries it."""
    sub = rho.group
    if (
        not isinstance(sub, WreathGroup)
        or (sub.m, sub.d) != (group.m, group.d)
        or not set(sub.tops) <= set(group.tops)
    ):
        raise ValueError("subgroup is not contained in the target group")
    d = group.d
    transversal = sorted({minimal_coset_rep(w, sub.blocks) for w in group.tops})
    row_of = {w: i for i, w in enumerate(transversal)}

    def fn(g: WreathElement) -> BlockMonomial:
        perm, blocks = [], []
        for w in transversal:
            moved = perm_compose(g.top, w)
            target = minimal_coset_rep(moved, sub.blocks)
            h_top = perm_compose(perm_inverse(target), moved)
            factors = tuple(g.factors[target[j]] for j in range(d))
            perm.append(row_of[target])
            blocks.append(rho.matrix(WreathElement(factors, h_top)).dense())
        return BlockMonomial(tuple(perm), tuple(blocks))

    return Representation(group, fn, name=f"Ind({rho.name})")


def clifford_irrep(group: WreathGroup, label: CliffordLabel) -> Representation:
    """The irreducible of the wreath group attached to a multipartition:
    induce the extension tensored with the inflation up from the block
    subgroup (`block_module`)."""
    if label.m != group.m or label.d != group.d:
        raise ValueError(f"label {label} does not match (m,d)=({group.m},{group.d})")
    rep = induce(block_module(group, label), group)
    rep.name = f"L{label}"
    return rep


# ---------------------------------------------------------------------------
# the fiber bimodule and its isotypic characters

class BimoduleModel:
    """Commuting left (wreath group) and right (block permutations) actions
    on the induced tensor space attached to a Jordan profile.  The right
    action R reverses products, so it is held as the representation
    x -> R(x.top^-1) of a block subgroup of Sigma_1 wr Sigma_d.  Every
    projection of the model reads its one table of `traces`."""

    def __init__(self, group: WreathGroup, profile: Profile):
        # the right action permutes the cosets of all of Sigma_d
        if group.blocks != (group.d,):
            raise ValueError(
                f"the fiber bimodule needs the full top group, not the blocks {group.blocks}"
            )
        self.group = group
        self.profile = orbit_label(profile)
        m, d = group.m, group.d
        if len(self.profile) != d or sum(self.profile[0]) != m:
            raise ValueError(f"profile {profile} does not match (m,d)=({m},{d})")

        dims = tuple(hook_dim(lam) for lam in self.profile)
        slotwise = young_module(WreathGroup(m, d, (1,) * d), self.profile, ((1,),) * d, "fiber")
        self.left = induce(slotwise, group)
        self.dim = self.left.dim

        cosets = all_perms(d)
        row_of = {w: i for i, w in enumerate(cosets)}
        identity = identity_matrix(prod(dims))

        def right_fn(x: WreathElement) -> BlockMonomial:
            # R(c) for c = x.top^-1: coset w goes to w c, with the tensor
            # slots permuted by c^-1 = x.top
            inner = permute_columns(identity, slot_basis_permutation(dims, x.top))
            c = perm_inverse(x.top)
            return BlockMonomial(
                tuple(row_of[perm_compose(w, c)] for w in cosets), (inner,) * len(cosets)
            )

        right_group = WreathGroup(1, d, tuple(gamma_of(self.profile).values()))
        self.right = Representation(right_group, right_fn, name="fiber-right")

        for lg in self.left.images:
            for rc in self.right.images:
                if lg @ rc != rc @ lg:
                    raise CheckFailed("left and right actions do not commute")

    @cached_property
    def traces(self) -> tuple[tuple[Scalar, ...], ...]:
        """``traces[g][c]`` = tr(L(g) R(c)), g and c over the class
        representatives of the group and of the right group.  Each L(g) is
        formed along g's word and dropped with its row, uncached."""
        left, right = self.left, self.right
        rights = tuple(map(right.matrix, right.group.class_reps))
        lefts = (left._product(left._word_of(g)) for g in self.group.class_reps)
        return tuple(tuple(lg.trace_of_product(r) for r in rights) for lg in lefts)


def springer_module(group: WreathGroup, profile) -> BimoduleModel:
    """The fiber bimodule of a Jordan profile: the induced tensor of the
    slotwise Specht modules, with the commuting block-permutation action
    on the right.  It builds the model of the profile's slot-permutation
    orbit, so profiles in one orbit give equal models; nothing keeps it, so
    its d!-coset matrices go with the caller's last reference."""
    return BimoduleModel(group, profile)


def component_character(psi: CliffordLabel, group: WreathGroup) -> tuple[int, ...]:
    """The component-group irreducible psi on the class representatives of
    its Young subgroup ``group`` of Sigma_1 wr Sigma_d: the product over
    the blocks of the Murnaghan-Nakayama value of psi's partition there."""
    return tuple(
        prod(map(symmetric_character, psi.values, map(cycle_type, block_tops(c.top, group.blocks))))
        for c in group.class_reps
    )


def isotypic_character(model: BimoduleModel, psi: CliffordLabel) -> tuple[Scalar, ...]:
    """Left character of the psi-multiplicity space of the bimodule: the
    exact projection over the right group R, class by class.  L and R
    commute, so at g it weighs row g of the model's `traces` by |c| psi(c) / |R|."""
    if psi.orbit != model.profile:
        raise ValueError(
            f"label {psi} is not an irreducible of the right group of {model.profile}"
        )
    right = model.right.group
    weights = tuple(map(mul, right.class_sizes, component_character(psi, right)))
    return tuple(
        Fraction(sum(map(mul, weights, row))) / right.order
        for row in model.traces
    )
