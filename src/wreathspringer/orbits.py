"""Nilpotent-orbit combinatorics: Jordan profiles, orbit labels, the
multiplicity map gamma, the dimension bookkeeping relating orbit
dimension to fiber dimension, and the label set of the correspondence.

A Jordan profile is a tuple of d partitions of m, one per matrix slot;
its orbit label is the canonical (descending) sorted form, which is a
complete invariant for simultaneous conjugation plus slot permutation.
The component group of an orbit is the Young subgroup with one symmetric
factor of degree gamma(nu) per distinct entry nu, so an irreducible of it
is a partition of gamma(nu) for each nu: a multipartition.  One type,
`CliffordLabel`, therefore labels both sides of the correspondence: an
irreducible of Sigma_m wr Sigma_d (Clifford theory, listed by
`enumerate_IC`), and its `orbit` with an irreducible of that orbit's
component group (listed orbit by orbit by `enumerate_IS`).
"""

from __future__ import annotations

from functools import lru_cache
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
    return sum(m * m - sum(c * c for c in conjugate_partition(tuple(e))) for e in profile)


def fiber_dim(profile) -> int:
    """Sum over slots of n(lambda): the common dimension of the fiber
    components over a representative of the profile."""
    validate_profile(profile)
    return sum(n_stat(tuple(e)) for e in profile)


def check_dimension_property(profile) -> bool:
    """fiber_dim == d*m*(m-1)/2 - orbit_dim/2, exactly."""
    m, d = validate_profile(profile)
    # orbit_dim is even: each slot adds m^2 - sum c^2 with sum c = m, and x^2 = x mod 2
    return fiber_dim(profile) == d * m * (m - 1) // 2 - orbit_dim(profile) // 2


def _gamma(entries) -> GammaMap:
    """`gamma_of` for entries that are already valid: validated by the
    caller, or built from `partitions_of`."""
    counts: GammaMap = {}
    for entry in sorted(entries, reverse=True):
        counts[entry] = counts.get(entry, 0) + 1
    return counts


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


def _rim_hooks(lam: Partition, r: int):
    """Each partition left by removing a rim hook of length r from lam,
    with the hook's height (the rows it spans, less one).  On lam's
    beta-numbers, lam[i] + len(lam) - 1 - i, removing the hook moves one
    beta-number b down to a free place b - r, and the height is the number
    of beta-numbers strictly between the two."""
    n = len(lam)
    betas = [part + n - 1 - i for i, part in enumerate(lam)]
    for i, b in enumerate(betas):
        if b < r or b - r in betas:
            continue
        rest = sorted([*betas[:i], *betas[i + 1:], b - r], reverse=True)
        smaller = tuple(x - (n - 1 - j) for j, x in enumerate(rest))
        yield tuple(part for part in smaller if part), sum(1 for x in betas if b - r < x < b)


@lru_cache(maxsize=None)
def symmetric_character(lam: Partition, mu: Partition) -> int:
    """The character of the Sigma_n irreducible lam at cycle type mu, by
    the Murnaghan-Nakayama rule: the signed sum, over the rim hooks of
    length mu[0] in lam, of the character of what is left at the rest of
    mu."""
    if not mu:
        return int(not lam)
    return sum(
        (-1) ** height * symmetric_character(smaller, mu[1:])
        for smaller, height in _rim_hooks(lam, mu[0])
    )


@lru_cache(maxsize=None)
def wreath_character(entries: tuple, cycles: tuple) -> int:
    """The character of the irreducible of Sigma_m wr Sigma_d whose label
    has these `CliffordLabel.entries`, at the class with these cycles: one
    pair (r, c) per cycle of the top, r its length and c the cycle type of
    the factor of x^r there (`wreath.class_label` without its block).  By
    the wreath Murnaghan-Nakayama rule (Macdonald, *Symmetric Functions and
    Hall Polynomials*, Ch. I, App. B), any one cycle (r, c) takes a rim
    hook xi of length r from one value Lambda(nu), so that

        chi^Lambda(rho) = sum over nu of chi^nu(c) * sum over xi of
                          (-1)^(height of xi) * chi^(Lambda - xi)(rho - (r, c)),

    an entry whose value empties is dropped, and at no cycles the empty
    label has value 1 and any other label 0.  The rule takes the last
    cycle: sorted as `class_label` sorts them, that is a longest one, which
    leaves the fewest rim hooks."""
    if not cycles:
        return int(not entries)
    rest, (r, c) = cycles[:-1], cycles[-1]
    total = 0
    for i, (nu, val) in enumerate(entries):
        chi = symmetric_character(nu, c)
        if not chi:
            continue
        for smaller, height in _rim_hooks(val, r):
            kept = ((nu, smaller),) if smaller else ()
            total += chi * (-1) ** height * wreath_character(entries[:i] + kept + entries[i + 1:], rest)
    return total


# the two irreducibles of the stabilizer Sigma_2 of an equal pair
SIGMA2_SIGNS = {(2,): "+", (1, 1): "-"}


def enumerate_IS(m: int, d: int) -> list[CliffordLabel]:
    """All orbit-side labels, orbit by orbit: for each orbit label, one per
    irreducible of its component group, the irreducible encoded as a
    multipartition with multiplicities gamma, whose `orbit` is that label.
    The irreducibles come in lex order of each nu's `partitions_of`."""
    return [
        CliffordLabel(m, tuple(zip(gamma, lams)))
        for gamma in map(_gamma, all_orbit_labels(m, d))
        for lams in product(*map(partitions_of, gamma.values()))
    ]


def orbit_report(m: int, d: int) -> dict:
    """JSON-ready summary of all orbits at (m, d).  The labels come from
    `all_orbit_labels`, so none of them is validated again, and what one
    slot contributes is worked out once per partition of m."""
    slot = {
        nu: (format_partition(nu), partition_key(nu), orbit_dim((nu,)), fiber_dim((nu,)))
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
