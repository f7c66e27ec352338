"""Nilpotent-orbit combinatorics: Jordan profiles, orbit labels, the
multiplicity map gamma, component groups, the dimension bookkeeping
relating orbit dimension to fiber dimension, and the two label sets of
the correspondence.

A Jordan profile is a tuple of d partitions of m, one per matrix slot;
its orbit label is the canonical (descending) sorted form, which is a
complete invariant for simultaneous conjugation plus slot permutation.
The correspondence matches the multipartitions (`CliffordLabel`, listed by
`enumerate_IC`) with the orbit labels paired with an irreducible of their
component group (`SpringerLabel`, listed by `enumerate_IS`).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import factorial
from typing import NamedTuple

from .combinatorics import (
    Partition,
    conjugate_partition,
    format_partition,
    is_partition,
    n_stat,
    partition_key,
    partitions_of,
)
from .matrices import as_matrix, mat_mul, mat_rank

Profile = tuple[Partition, ...]
GammaMap = dict[Partition, int]


def validate_profile(profile) -> tuple[int, int]:
    """Check every entry partitions the same m; return (m, d)."""
    profile = tuple(tuple(entry) for entry in profile)
    if not profile:
        raise ValueError("empty profile")
    m = sum(profile[0])
    for entry in profile:
        if not is_partition(entry) or sum(entry) != m:
            raise ValueError(f"{entry} does not partition {m}")
    return m, len(profile)


def orbit_label(profile) -> Profile:
    """Canonical representative of the slot-permutation orbit: entries
    sorted descending in the canonical partition order."""
    validate_profile(profile)
    return tuple(sorted((tuple(e) for e in profile), reverse=True))


def gamma_of(profile) -> GammaMap:
    """Multiplicity map: partition -> number of slots carrying it.
    Keys are listed in canonical descending order."""
    validate_profile(profile)
    return _gamma(tuple(e) for e in profile)


def component_group(profile) -> GammaMap:
    """Descriptor of the component group: the Young subgroup with one
    symmetric factor of degree gamma(nu) per distinct entry nu."""
    return gamma_of(profile)


def young_order(gamma: GammaMap) -> int:
    """Order of the Young subgroup attached to a multiplicity map."""
    out = 1
    for count in gamma.values():
        out *= factorial(count)
    return out


def orbit_dim(profile) -> int:
    """Sum over slots of m^2 minus the squared column lengths: the adjoint
    orbit dimension of the profile."""
    m, _ = validate_profile(profile)
    return _orbit_dim(m, profile)


def fiber_dim(profile) -> int:
    """Sum over slots of n(lambda): the common dimension of the fiber
    components over a representative of the profile."""
    validate_profile(profile)
    return _fiber_dim(profile)


def check_dimension_property(profile) -> bool:
    """fiber_dim == d*m*(m-1)/2 - orbit_dim/2, exactly."""
    m, d = validate_profile(profile)
    odim = _orbit_dim(m, profile)
    # odim is even: each slot adds m^2 - sum c^2 with sum c = m, and x^2 = x mod 2
    return _fiber_dim(profile) == d * m * (m - 1) // 2 - odim // 2


# The three below take a profile that is already valid: validated by the
# caller, or built from `partitions_of`.

def _gamma(entries) -> GammaMap:
    counts: GammaMap = {}
    for entry in sorted(entries, reverse=True):
        counts[entry] = counts.get(entry, 0) + 1
    return counts


def _orbit_dim(m: int, profile) -> int:
    return sum(m * m - sum(c * c for c in conjugate_partition(tuple(e))) for e in profile)


def _fiber_dim(profile) -> int:
    return sum(n_stat(tuple(e)) for e in profile)


def jordan_type(matrix) -> Partition:
    """Jordan type of a nilpotent matrix over the rationals, from the exact
    rank sequence: the conjugate partition has parts rank(A^(k-1)) - rank(A^k).
    An n x n matrix is nilpotent exactly when one of A, ..., A^n has rank 0."""
    a = as_matrix(matrix)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    ranks = [n]
    power = a
    for _ in range(n):
        ranks.append(mat_rank(power))
        if not ranks[-1]:
            break
        power = mat_mul(power, a)
    if ranks[-1]:
        raise ValueError("matrix is not nilpotent")
    conj = tuple(ranks[k - 1] - ranks[k] for k in range(1, len(ranks)))
    return conjugate_partition(conj)


def all_profiles(m: int, d: int) -> list[Profile]:
    """All d-tuples of partitions of m, in lexicographic order over the
    canonical partition order."""
    return [tuple(p) for p in product(partitions_of(m), repeat=d)]


def all_orbit_labels(m: int, d: int) -> list[Profile]:
    """All orbit labels, in descending order: the weakly decreasing d-tuples
    of partitions of m, i.e. the multisets of d partitions."""
    return list(combinations_with_replacement(partitions_of(m), d))


class CliffordLabel(NamedTuple("CliffordLabel", [("m", int), ("entries", tuple)])):
    """A multipartition: an assignment of a partition to each partition of
    m, nonempty values only, with total size d.  It labels an irreducible
    of Sigma_m wr Sigma_d (Clifford theory) and, through `orbit`, an
    orbit together with an irreducible of its component group."""

    __slots__ = ()

    def __new__(cls, m: int, entries: tuple[tuple[Partition, Partition], ...]):
        nus = [nu for nu, _ in entries]
        if nus != sorted(nus, reverse=True):
            raise ValueError("entries must be sorted descending by key")
        if len(set(nus)) != len(nus):
            raise ValueError("duplicate keys in label")
        for nu, val in entries:
            if not is_partition(nu) or sum(nu) != m:
                raise ValueError(f"key {nu} does not partition m={m}")
            if not val:
                raise ValueError("empty values must be omitted")
            if not is_partition(val):
                raise ValueError(f"value {val} of key {nu} is not a partition")
        return super().__new__(cls, m, entries)

    @property
    def d(self) -> int:
        return sum(self.blocks)

    @property
    def orbit(self) -> Profile:
        """Each key once for every slot it takes, in descending order: the
        orbit label of the label, and the slots of its block module."""
        return tuple(nu for nu, val in self.entries for _ in range(sum(val)))

    @property
    def blocks(self) -> tuple[int, ...]:
        """The number of slots of each key, in key order: the blocks of the
        Young subgroup whose irreducible the values name."""
        return tuple(sum(val) for _, val in self.entries)

    @property
    def values(self) -> tuple[Partition, ...]:
        """The partition of each key, in key order."""
        return tuple(val for _, val in self.entries)

    def value(self, nu: Partition) -> Partition:
        for key, val in self.entries:
            if key == nu:
                return val
        return ()

    def gamma(self) -> GammaMap:
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


class SpringerLabel(NamedTuple("SpringerLabel", [("orbit", tuple), ("psi", CliffordLabel)])):
    """An orbit label together with an irreducible of its component group,
    the latter encoded as a multipartition with the orbit's multiplicities."""

    __slots__ = ()

    def __new__(cls, orbit: Profile, psi: CliffordLabel):
        # psi.orbit is in canonical order, so this also checks that orbit is
        if psi.orbit != orbit:
            raise ValueError(f"{psi} is not an irreducible of the component group of {orbit}")
        return super().__new__(cls, orbit, psi)

    def __str__(self):
        body = ",".join(format_partition(entry) for entry in self.orbit)
        return f"[({body}),{self.psi}]"


def enumerate_IS(m: int, d: int) -> list[SpringerLabel]:
    """All orbit-side labels: one per (orbit label, irreducible of the
    component group), the irreducible encoded as a multipartition with
    multiplicities gamma."""
    out = []
    for label in all_orbit_labels(m, d):
        for assignment in _assignments(list(_gamma(label).items())):
            out.append(SpringerLabel(label, CliffordLabel(m, assignment)))
    return out


def _assignments(gamma_items):
    """All ways to attach a partition of gamma(nu) to each nu."""
    if not gamma_items:
        yield ()
        return
    (nu, count), rest = gamma_items[0], gamma_items[1:]
    for lam in partitions_of(count):
        for tail in _assignments(rest):
            yield ((nu, lam),) + tail


def orbit_report(m: int, d: int) -> dict:
    """JSON-ready summary of all orbits at (m, d).  The labels come from
    `all_orbit_labels`, so none of them is validated again, and what one
    slot contributes is worked out once per partition of m."""
    slot = {
        nu: (format_partition(nu), partition_key(nu), _orbit_dim(m, (nu,)), _fiber_dim((nu,)))
        for nu in partitions_of(m)
    }
    rows = []
    for label in all_orbit_labels(m, d):
        gamma = _gamma(label)
        rows.append(
            {
                "label": [slot[nu][0] for nu in label],
                "gamma": {slot[nu][1]: k for nu, k in gamma.items()},
                "componentGroupOrder": young_order(gamma),
                "orbitDim": sum(slot[nu][2] for nu in label),
                "fiberDim": sum(slot[nu][3] for nu in label),
            }
        )
    return {"m": m, "d": d, "orbits": rows}
