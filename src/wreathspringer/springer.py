"""The bijection between multipartition labels and orbit-side labels (both
label types live in `orbits`), its end-to-end character verification, and the small-rank specializations
(bipartition tables for m = 2, the d = 2 signed index set, and the even /
odd rank-d tables derived from it).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .combinatorics import Partition, format_partition, partitions_of
from .orbits import CliffordLabel, SpringerLabel, enumerate_IC, enumerate_IS
from .reptheory import char_of, clifford_irrep, isotypic_character, springer_module
from .wreath import CheckFailed, WreathGroup


def psi(label: CliffordLabel) -> SpringerLabel:
    """Forward direction: the orbit takes |label(nu)| slots of type nu, and
    the component-group irreducible is the label itself."""
    return SpringerLabel(label.orbit, label)


def psi_inv(slabel: SpringerLabel) -> CliffordLabel:
    """Inverse direction; the constructor has already checked consistency."""
    return slabel.psi


class SpringerReport(NamedTuple):
    m: int
    d: int
    rows: tuple[tuple[SpringerLabel, bool], ...]
    class_count: int

    @property
    def all_match(self) -> bool:
        return all(ok for _, ok in self.rows)

    @property
    def counts_consistent(self) -> bool:
        return len(self.rows) == self.class_count

    @property
    def all_pass(self) -> bool:
        return self.all_match and self.counts_consistent

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "labels": [
                {
                    "orbit": [format_partition(entry) for entry in s.orbit],
                    "psi": str(s.psi),
                    "match": ok,
                }
                for s, ok in self.rows
            ],
            "counts": {
                "orbitSide": len(self.rows),
                "cliffordSide": len(enumerate_IC(self.m, self.d)),
                "conjugacyClasses": self.class_count,
            },
            "status": "pass" if self.all_pass else "fail",
        }


def verify_springer(group: WreathGroup) -> SpringerReport:
    """For every orbit-side label, compare the exact character of the
    isotypic component of its fiber bimodule with the exact character of
    the matching induced irreducible; also check the global bijection
    counts against the conjugacy classes."""
    group.check_bound()
    m, d = group.m, group.d
    labels = enumerate_IS(m, d)
    clifford_labels = enumerate_IC(m, d)
    if sorted(s.psi for s in labels) != sorted(clifford_labels):
        raise CheckFailed("the two index sets are not in bijection")
    rows = []
    for slabel in labels:
        geo = isotypic_character(springer_module(group, slabel.orbit), slabel.psi)
        alg = char_of(clifford_irrep(group, psi_inv(slabel)))
        rows.append((slabel, geo.values == alg.values))
    return SpringerReport(m, d, tuple(rows), len(group.conjugacy_classes))


# ---------------------------------------------------------------------------
# specializations

def typeB_table(d: int) -> list[dict]:
    """One row per bipartition of d, identified with a multipartition label
    at m = 2 (first component attached to the row-shape key (2,), second to
    the column-shape key (1,1)), each carrying its orbit-side label."""
    return [
        {
            "bipartition": (label.value((2,)), label.value((1, 1))),
            "clifford": label,
            "springer": psi(label),
        }
        for label in enumerate_IC(2, d)
    ]


# the two irreducibles of the stabilizer Sigma_2 of an equal pair
SIGMA2_SIGNS = {(2,): "+", (1, 1): "-"}


class HuLabel(NamedTuple("HuLabel", [("pair", tuple), ("sign", Optional[str])])):
    """An unordered pair of partitions of m; equal pairs split into a
    plus and a minus label.  The sign is "+" or "-" exactly when the pair
    is equal, and None otherwise."""

    __slots__ = ()

    def __new__(cls, pair: tuple[Partition, Partition], sign: Optional[str] = None):
        first, second = pair
        if (first == second) != (sign in ("+", "-")):
            raise ValueError("sign is carried exactly by the equal pairs")
        if pair != tuple(sorted(pair, reverse=True)):
            raise ValueError("pair must be sorted")
        return super().__new__(cls, pair, sign)

    def __str__(self):
        body = f"[{format_partition(self.pair[0])},{format_partition(self.pair[1])}]"
        return body + (self.sign or "")


def hu_index(m: int) -> list[HuLabel]:
    """The d = 2 index set, read off the orbit side at d = 2: unordered
    distinct pairs plus signed equal pairs."""
    return [HuLabel(s.orbit, SIGMA2_SIGNS.get(s.psi.value(s.orbit[0]))) for s in enumerate_IS(m, 2)]


def typeD_table(d: int) -> list[dict]:
    """Index table for the even-signed reflection group of rank d, derived
    from the d = 2 picture: unordered distinct bipartitions carry the
    one-box label; for even d the equal pairs split into a plus (row shape)
    and a minus (column shape) label."""
    rows = []
    seen = set()
    for label in enumerate_IC(2, d):
        pair = tuple(sorted((label.value((2,)), label.value((1, 1))), reverse=True))
        if pair in seen:
            continue
        seen.add(pair)
        psis = partitions_of(2) if pair[0] == pair[1] else ((1,),)
        rows.extend({"pair": pair, "sign": SIGMA2_SIGNS.get(p), "psi": p} for p in psis)
    return rows
