"""Exact representation theory of symmetric groups and their wreath
products.

Symmetric-group irreducibles are built in Young's seminormal form: the
basis is indexed by standard tableaux and the adjacent-transposition
matrices have entries 1/axial-distance, so everything stays in exact
rationals.  Wreath-product modules are built from these by the usual
extension / inflation / induction steps.

A representation is the images of its group's generators.  Each group
context carries a presentation: relations, and a normal-form word for
every element.  Construction checks the relations on the images, and the
matrix of an element is the product of the images along its word, so by
von Dyck's theorem every constructed representation is a homomorphism.

Degenerate-but-legal cases (m = 1, single-slot groups, empty partitions)
are handled uniformly; matrices of dimension one are still matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import product
from math import factorial, prod

from .combinatorics import (
    Partition,
    Perm,
    adjacent_transposition,
    all_perms,
    cycle_type,
    format_partition,
    hook_dim,
    identity_perm,
    partitions_of,
    perm_compose,
    perm_inverse,
    perm_to_word,
    type_a_relations,
)
from .matrices import (
    Matrix,
    identity_matrix,
    kron,
    kron_all,
    mat_mul,
    trace,
)
from .orbits import Profile, gamma_of, orbit_label, validate_profile
from .wreath import CheckFailed, WreathElement, WreathGroup, wreath_presentation

SPECHT_DEGREE_BOUND = 7


# ---------------------------------------------------------------------------
# group contexts

class SymmetricGroup:
    """Class data for a symmetric group: representatives by cycle type, so
    no element enumeration is needed for characters."""

    def __init__(self, n: int):
        self.n = n
        self.order = factorial(n)
        self.identity = identity_perm(n)

    def __repr__(self):
        return f"SymmetricGroup({self.n})"

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        return all_perms(self.n)

    @cached_property
    def generators(self) -> tuple[Perm, ...]:
        return tuple(adjacent_transposition(self.n, i) for i in range(self.n - 1))

    @cached_property
    def class_types(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    @cached_property
    def class_reps(self) -> tuple[Perm, ...]:
        reps = []
        for mu in self.class_types:
            img = list(range(self.n))
            offset = 0
            for length in mu:
                for i in range(length - 1):
                    img[offset + i] = offset + i + 1
                img[offset + length - 1] = offset
                offset += length
            reps.append(tuple(img))
        return tuple(reps)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        sizes = []
        for mu in self.class_types:
            z = 1
            for part in set(mu):
                count = mu.count(part)
                z *= part**count * factorial(count)
            sizes.append(self.order // z)
        return tuple(sizes)

    @cached_property
    def _type_index(self) -> dict[Partition, int]:
        return {mu: k for k, mu in enumerate(self.class_types)}

    def class_index(self, p: Perm) -> int:
        return self._type_index[cycle_type(p)]

    @cached_property
    def presentation(self):
        """Type A Coxeter relations; reduced words are the normal form."""
        return tuple(type_a_relations((i, i) for i in range(self.n - 1))), perm_to_word

    def mul(self, a, b):
        return perm_compose(a, b)

    def inv(self, a):
        return perm_inverse(a)


class WreathSubgroup:
    """Subgroup of a wreath context with full factor part and tops ranging
    over the subgroup generated by the adjacent swaps (a, a+1), a in
    ``swaps``; ``tops`` lists that subgroup."""

    def __init__(self, group: WreathGroup, tops: tuple[Perm, ...], swaps: tuple[int, ...]):
        self.group = group
        self.tops = tops
        self.swaps = swaps
        self.order = factorial(group.m) ** group.d * len(self.tops)
        self.identity = group.identity

    def __repr__(self):
        return f"WreathSubgroup(m={self.group.m}, d={self.group.d}, tops={len(self.tops)})"

    @cached_property
    def elements(self) -> tuple[WreathElement, ...]:
        m, d = self.group.m, self.group.d
        return tuple(
            WreathElement(fs, top)
            for top in self.tops
            for fs in product(all_perms(m), repeat=d)
        )

    @cached_property
    def generators(self) -> tuple[WreathElement, ...]:
        group = self.group
        factor_gens = group.generators[: group.d * (group.m - 1)]
        return factor_gens + tuple(group.gen_t(a + 1) for a in self.swaps)

    @cached_property
    def presentation(self):
        return wreath_presentation(self.group.m, self.group.d, self.swaps)


def young_subgroup(group: WreathGroup, counts: tuple[int, ...]) -> WreathSubgroup:
    """The wreath subgroup whose tops preserve consecutive blocks of the
    given sizes."""
    if sum(counts) != group.d:
        raise ValueError(f"block sizes {counts} do not sum to d={group.d}")
    block_of = [b for b, size in enumerate(counts) for _ in range(size)]
    tops = tuple(
        p for p in all_perms(group.d) if all(block_of[v] == block_of[i] for i, v in enumerate(p))
    )
    swaps = tuple(a for a in range(group.d - 1) if block_of[a] == block_of[a + 1])
    return WreathSubgroup(group, tops, swaps)


# ---------------------------------------------------------------------------
# representations and characters

class Representation:
    """A matrix representation, stored as the images of its group's
    generators.

    Construction evaluates `matrix_fn` on ``group.generators`` only and
    checks the group's defining relations (``group.presentation``) on those
    images, raising `CheckFailed` if one fails.  The matrix of any element
    is the product of the images along its normal-form word, so by von
    Dyck's theorem `matrix` is a homomorphism on the whole group."""

    def __init__(self, group, dim: int, matrix_fn, name: str = ""):
        self.group = group
        self.dim = dim
        self.name = name
        self.images = tuple(matrix_fn(g) for g in group.generators)
        relations, self._word_of = group.presentation
        self._cache: dict = {}
        ident = identity_matrix(dim)
        for relation in relations:
            if self._product(relation) != ident:
                raise CheckFailed(
                    f"matrix rule for {name or 'representation'} is not a "
                    f"homomorphism: relation {relation} fails"
                )

    def __repr__(self):
        return f"Representation({self.name or 'unnamed'}, dim={self.dim})"

    def _product(self, word) -> Matrix:
        if not word:
            return identity_matrix(self.dim)
        return reduce(mat_mul, (self.images[k] for k in word))

    def matrix(self, x) -> Matrix:
        got = self._cache.get(x)
        if got is None:
            got = self._product(self._word_of(x))
            self._cache[x] = got
        return got


@dataclass(frozen=True)
class Character:
    """Exact class function, aligned with the group's class representatives."""

    group: object
    values: tuple[Fraction, ...]

    @property
    def dim(self) -> Fraction:
        return self.value_at(self.group.identity)

    def value_at(self, x) -> Fraction:
        return self.values[self.group.class_index(x)]

    def inner(self, other: "Character") -> Fraction:
        group = self.group
        total = Fraction(0)
        for k, rep in enumerate(group.class_reps):
            total += group.class_sizes[k] * self.values[k] * other.value_at(group.inv(rep))
        return total / group.order


def char_of(rho: Representation) -> Character:
    """Traces on the class representatives."""
    return Character(
        rho.group, tuple(trace(rho.matrix(rep)) for rep in rho.group.class_reps)
    )


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
        if lam[r] == 0:
            continue
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


def _position(tab: Tableau, value: int) -> tuple[int, int]:
    for r, row in enumerate(tab):
        for c, v in enumerate(row):
            if v == value:
                return r, c
    raise ValueError(f"{value} not in tableau")


def _swap_entries(tab: Tableau, a: int, b: int) -> Tableau:
    return tuple(
        tuple(b if v == a else a if v == b else v for v in row) for row in tab
    )


@lru_cache(maxsize=None)
def _seminormal_generators(lam: Partition) -> tuple[Matrix, ...]:
    """Matrix of each adjacent transposition on the standard-tableau basis.

    For letters k, k+1 at axial distance dist in a tableau T, the action on
    the T-column is 1/dist on the diagonal plus a cross term to the swapped
    tableau: coefficient 1 from the tableau with dist < 0, and 1 - 1/dist^2
    back.  Same-row and same-column pairs are the dist = +-1 special cases.
    """
    tabs = standard_tableaux(lam)
    index = {tab: i for i, tab in enumerate(tabs)}
    size = len(tabs)
    n = sum(lam)
    mats = []
    for k in range(1, n):
        rows = [[Fraction(0)] * size for _ in range(size)]
        for j, tab in enumerate(tabs):
            r1, c1 = _position(tab, k)
            r2, c2 = _position(tab, k + 1)
            dist = (c2 - r2) - (c1 - r1)
            if r1 == r2:
                rows[j][j] = Fraction(1)
            elif c1 == c2:
                rows[j][j] = Fraction(-1)
            else:
                swapped = _swap_entries(tab, k, k + 1)
                rows[j][j] = Fraction(1, dist)
                cross = Fraction(1) if dist < 0 else 1 - Fraction(1, dist * dist)
                rows[index[swapped]][j] = cross
        mats.append(tuple(tuple(row) for row in rows))
    return tuple(mats)


@lru_cache(maxsize=None)
def specht_rep(lam: Partition, degree_bound: int = SPECHT_DEGREE_BOUND) -> Representation:
    """The irreducible representation of the symmetric group attached to a
    partition, in Young's seminormal form over exact rationals."""
    lam = tuple(lam)
    n = sum(lam)
    if n > degree_bound:
        raise ValueError(f"partition size {n} exceeds the degree bound {degree_bound}")
    group = SymmetricGroup(n)
    images = dict(zip(group.generators, _seminormal_generators(lam)))
    dim = len(standard_tableaux(lam))
    return Representation(group, dim, images.__getitem__, name=f"S{format_partition(lam)}")


def specht_char_value(lam: Partition, p: Perm) -> Fraction:
    return trace(specht_rep(lam).matrix(p))


# ---------------------------------------------------------------------------
# multipartition labels

@dataclass(frozen=True)
class CliffordLabel:
    """A multipartition: an assignment of a partition to each partition of
    m, nonempty values only, with total size d."""

    m: int
    entries: tuple[tuple[Partition, Partition], ...]

    def __post_init__(self):
        nus = [nu for nu, _ in self.entries]
        if nus != sorted(nus, reverse=True):
            raise ValueError("entries must be sorted descending by key")
        if len(set(nus)) != len(nus):
            raise ValueError("duplicate keys in label")
        for nu, val in self.entries:
            if sum(nu) != self.m:
                raise ValueError(f"key {nu} does not partition m={self.m}")
            if not val:
                raise ValueError("empty values must be omitted")

    @property
    def d(self) -> int:
        return sum(sum(val) for _, val in self.entries)

    def value(self, nu: Partition) -> Partition:
        for key, val in self.entries:
            if key == nu:
                return val
        return ()

    def gamma(self) -> dict[Partition, int]:
        return {nu: sum(val) for nu, val in self.entries}

    def __str__(self):
        body = ",".join(
            f"{format_partition(nu)}:{format_partition(val)}" for nu, val in self.entries
        )
        return "{" + body + "}"


def clifford_label(m: int, mapping) -> CliffordLabel:
    """Build a label from any {partition: partition} mapping."""
    entries = tuple(
        sorted(
            ((tuple(nu), tuple(val)) for nu, val in dict(mapping).items() if tuple(val)),
            reverse=True,
        )
    )
    return CliffordLabel(m, entries)


def enumerate_IC(m: int, d: int) -> tuple[CliffordLabel, ...]:
    """All multipartition labels of total size d over the partitions of m,
    in canonical order (larger keys take their share first)."""
    nus = partitions_of(m)
    out: list[CliffordLabel] = []

    def rec(i: int, remaining: int, acc: tuple):
        if i == len(nus):
            if remaining == 0:
                out.append(CliffordLabel(m, acc))
            return
        nu = nus[i]
        for c in range(remaining, -1, -1):
            if c == 0:
                rec(i + 1, remaining, acc)
            else:
                for lam in partitions_of(c):
                    rec(i + 1, remaining - c, acc + ((nu, lam),))

    rec(0, d, ())
    return tuple(out)


# ---------------------------------------------------------------------------
# tensor-slot machinery

def place_matrix(dims: tuple[int, ...], u: Perm) -> Matrix:
    """Permutation of tensor slots on the row-major product basis: slot i
    of the image holds component u^-1(i) of the source."""
    if u == identity_perm(len(u)):
        return identity_matrix(prod(dims))
    uinv = perm_inverse(u)
    for i in range(len(dims)):
        if dims[uinv[i]] != dims[i]:
            raise ValueError("slot dimensions are not constant along the permutation")
    total = prod(dims)
    rows = [[Fraction(0)] * total for _ in range(total)]
    for col, k in enumerate(product(*[range(dm) for dm in dims])):
        target = tuple(k[uinv[i]] for i in range(len(dims)))
        flat = 0
        for v, dm in zip(target, dims):
            flat = flat * dm + v
        rows[flat][col] = Fraction(1)
    return tuple(tuple(row) for row in rows)


def block_permutation_matrix(blocks: list[tuple[int, Matrix]]) -> Matrix:
    """The square matrix whose k-th column block holds the matrix
    ``blocks[k][1]`` in row block ``blocks[k][0]``, zero elsewhere."""
    size = len(blocks[0][1])
    dim = len(blocks) * size
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for col_block, (row_block, sub) in enumerate(blocks):
        for r, sub_row in enumerate(sub):
            rows[row_block * size + r][col_block * size:(col_block + 1) * size] = sub_row
    return tuple(tuple(row) for row in rows)


def _slots_of_gamma(gamma: dict[Partition, int]) -> tuple[Partition, ...]:
    return tuple(
        nu for nu in sorted(gamma, reverse=True) for _ in range(gamma[nu])
    )


def extend_to_wreath(group: WreathGroup, gamma: dict[Partition, int]) -> Representation:
    """The extension of the factorwise module to the block wreath subgroup:
    factors act slotwise on a tensor of Specht modules (one slot per count),
    tops in the block subgroup permute equal slots."""
    slots = _slots_of_gamma(gamma)
    if len(slots) != group.d:
        raise ValueError(f"gamma totals {len(slots)}, expected d={group.d}")
    counts = tuple(gamma[nu] for nu in sorted(gamma, reverse=True))
    sub = young_subgroup(group, counts)
    dims = tuple(hook_dim(nu) for nu in slots)
    reps = {nu: specht_rep(nu) for nu in gamma}

    def fn(x: WreathElement) -> Matrix:
        factor_part = kron_all(
            reps[slots[j]].matrix(x.factors[j]) for j in range(group.d)
        )
        return mat_mul(factor_part, place_matrix(dims, x.top))

    return Representation(sub, prod(dims), fn, name="extension")


def inflate(group: WreathGroup, label: CliffordLabel) -> Representation:
    """Inflation of the block-group module through the top quotient: the
    factor part acts trivially, each top block acts by its own Specht
    module."""
    gamma = label.gamma()
    counts = tuple(gamma[nu] for nu in sorted(gamma, reverse=True))
    sub = young_subgroup(group, counts)
    blocks = []
    start = 0
    for nu in sorted(gamma, reverse=True):
        size = gamma[nu]
        blocks.append((label.value(nu), start, size))
        start += size
    dim = prod(hook_dim(val) for val, _, _ in blocks)

    def fn(x: WreathElement) -> Matrix:
        mats = []
        for val, begin, size in blocks:
            local = tuple(x.top[begin + i] - begin for i in range(size))
            mats.append(specht_rep(val).matrix(local))
        return kron_all(mats)

    return Representation(sub, dim, fn, name="inflation")


def rep_tensor(a: Representation, b: Representation) -> Representation:
    if getattr(a.group, "tops", None) != getattr(b.group, "tops", None):
        raise ValueError("tensor factors must live over the same subgroup")

    def fn(x):
        return kron(a.matrix(x), b.matrix(x))

    return Representation(a.group, a.dim * b.dim, fn, name=f"{a.name}(x){b.name}")


def induce(rho: Representation, group: WreathGroup) -> Representation:
    """Induction from a block wreath subgroup, in the block-permutation
    model over the minimal coset representatives of the tops."""
    sub = rho.group
    if not isinstance(sub, WreathSubgroup) or sub.group.m != group.m or sub.group.d != group.d:
        raise ValueError("subgroup is not contained in the target group")
    d = group.d
    top_list = sub.tops
    rep_of: dict[Perm, Perm] = {}
    for w in all_perms(d):
        rep_of[w] = min(perm_compose(w, s) for s in top_list)
    transversal = sorted(set(rep_of.values()))
    row_of = {w: i for i, w in enumerate(transversal)}

    def fn(g: WreathElement) -> Matrix:
        blocks = []
        for w in transversal:
            moved = perm_compose(g.top, w)
            target = rep_of[moved]
            h_top = perm_compose(perm_inverse(target), moved)
            factors = tuple(g.factors[target[j]] for j in range(d))
            blocks.append((row_of[target], rho.matrix(WreathElement(factors, h_top))))
        return block_permutation_matrix(blocks)

    return Representation(group, len(transversal) * rho.dim, fn, name=f"Ind({rho.name})")


def restrict(rho: Representation, sub: WreathSubgroup) -> Representation:
    """Restriction to a subgroup: the same matrices on its generators."""
    return Representation(sub, rho.dim, rho.matrix, name=f"Res({rho.name})")


_clifford_cache: dict = {}


def clifford_irrep(group: WreathGroup, label: CliffordLabel) -> Representation:
    """The irreducible of the wreath group attached to a multipartition:
    induce the extension tensored with the inflation up from the block
    subgroup."""
    if label.m != group.m or label.d != group.d:
        raise ValueError(f"label {label} does not match (m,d)=({group.m},{group.d})")
    key = (group.m, group.d, label)
    cached = _clifford_cache.get(key)
    if cached is not None:
        return cached
    ext = extend_to_wreath(group, label.gamma())
    inf = inflate(group, label)
    rep = induce(rep_tensor(ext, inf), group)
    rep.name = f"L{label}"
    _clifford_cache[key] = rep
    return rep


# ---------------------------------------------------------------------------
# the fiber bimodule and its isotypic characters

class BimoduleModel:
    """Commuting left (wreath group) and right (block permutations) actions
    on the induced tensor space attached to a Jordan profile.  The right
    action R reverses products, so it is held as the representation
    x -> R(x.top^-1) of a block subgroup of Sigma_1 wr Sigma_d."""

    def __init__(self, group: WreathGroup, profile: Profile):
        validate_profile(profile)
        self.group = group
        self.profile = orbit_label(profile)
        m, d = group.m, group.d
        if len(self.profile) != d or sum(self.profile[0]) != m:
            raise ValueError(f"profile {profile} does not match (m,d)=({m},{d})")
        gamma = gamma_of(self.profile)
        counts = tuple(gamma[nu] for nu in sorted(gamma, reverse=True))
        self._blocks = []
        start = 0
        for nu in sorted(gamma, reverse=True):
            self._blocks.append((nu, start, gamma[nu]))
            start += gamma[nu]

        lams = self.profile
        dims = tuple(hook_dim(lam) for lam in lams)
        reps = {lam: specht_rep(lam) for lam in set(lams)}
        slotwise = Representation(
            young_subgroup(group, (1,) * d),
            prod(dims),
            lambda x: kron_all(reps[lams[j]].matrix(x.factors[j]) for j in range(d)),
            name="fiber",
        )
        self.left = induce(slotwise, group)
        self.dim = self.left.dim

        cosets = all_perms(d)
        row_of = {w: i for i, w in enumerate(cosets)}

        def right_fn(x: WreathElement) -> Matrix:
            # R(c) for c = x.top^-1: coset w goes to w c, with the tensor
            # slots permuted by c^-1 = x.top
            inner = place_matrix(dims, x.top)
            c = perm_inverse(x.top)
            return block_permutation_matrix([(row_of[perm_compose(w, c)], inner) for w in cosets])

        self.right = Representation(
            young_subgroup(WreathGroup(1, d), counts), self.dim, right_fn, name="fiber-right"
        )
        self.right_tops = self.right.group.tops

        for g in group.generators:
            lg = self.left.matrix(g)
            for rc in self.right.images:
                if mat_mul(lg, rc) != mat_mul(rc, lg):
                    raise CheckFailed("left and right actions do not commute")

    def right_matrix(self, c: Perm) -> Matrix:
        """R(c) for a block permutation c."""
        return self.right.matrix(WreathElement(self.right.group.identity.factors, perm_inverse(c)))

    def right_character_value(self, psi: CliffordLabel, c: Perm) -> Fraction:
        """Character of the block-group irreducible labelled by psi at a
        block permutation: the product of local Specht traces."""
        value = Fraction(1)
        for nu, start, size in self._blocks:
            local = tuple(c[start + i] - start for i in range(size))
            value *= specht_char_value(psi.value(nu), local)
        return value


_bimodule_cache: dict = {}


def springer_module(group: WreathGroup, profile) -> BimoduleModel:
    """The fiber bimodule of a Jordan profile: the induced tensor of the
    slotwise Specht modules, with the commuting block-permutation action
    on the right."""
    key = (group.m, group.d, orbit_label(profile))
    cached = _bimodule_cache.get(key)
    if cached is None:
        cached = BimoduleModel(group, profile)
        _bimodule_cache[key] = cached
    return cached


def isotypic_character(model: BimoduleModel, psi: CliffordLabel) -> Character:
    """Left character of the psi-multiplicity space of the bimodule:
    project with the exact character sum over the right group."""
    if psi.gamma() != gamma_of(model.profile):
        raise ValueError(
            f"label {psi} is not an irreducible of the right group of {model.profile}"
        )
    group = model.group
    size = len(model.right_tops)
    values = []
    for rep in group.class_reps:
        left_mat = model.left.matrix(rep)
        total = Fraction(0)
        for c in model.right_tops:
            chi = model.right_character_value(psi, perm_inverse(c))
            if chi:
                total += chi * trace(mat_mul(left_mat, model.right_matrix(c)))
        values.append(total / size)
    return Character(group, tuple(values))


def character_table(group: WreathGroup):
    """Rows (label, dimension, character) for every irreducible, columns
    aligned with the group's class representatives."""
    rows = []
    for label in enumerate_IC(group.m, group.d):
        chi = char_of(clifford_irrep(group, label))
        rows.append((label, int(chi.dim), chi))
    return rows
