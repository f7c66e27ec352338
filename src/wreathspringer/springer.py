"""The bijection between multipartition labels and orbit-side labels, its
end-to-end character verification, and the small-rank specializations
(bipartition tables for m = 2, the d = 2 signed index set, and the even /
odd rank-d tables derived from it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .combinatorics import Partition, format_partition, partitions_of
from .orbits import Profile, enumerate_IS, gamma_of
from .reptheory import (
    CliffordLabel,
    char_of,
    clifford_irrep,
    clifford_label,
    enumerate_IC,
    isotypic_character,
    springer_module,
)
from .wreath import CheckFailed, WreathGroup


@dataclass(frozen=True)
class SpringerLabel:
    """An orbit label together with an irreducible of its component group,
    the latter encoded as a multipartition with the orbit's multiplicities."""

    orbit: Profile
    psi: CliffordLabel

    def __post_init__(self):
        if tuple(sorted(self.orbit, reverse=True)) != self.orbit:
            raise ValueError("orbit label must be in canonical sorted form")
        if self.psi.gamma() != gamma_of(self.orbit):
            raise ValueError(
                f"{self.psi} is not an irreducible of the component group of {self.orbit}"
            )

    def __str__(self):
        body = ",".join(format_partition(entry) for entry in self.orbit)
        return f"[({body}),{self.psi}]"


def psi(label: CliffordLabel) -> SpringerLabel:
    """Forward direction: the orbit takes |label(nu)| slots of type nu, and
    the component-group irreducible is the label itself."""
    orbit = tuple(
        sorted(
            (nu for nu, val in label.entries for _ in range(sum(val))),
            reverse=True,
        )
    )
    return SpringerLabel(orbit, label)


def psi_inv(slabel: SpringerLabel) -> CliffordLabel:
    """Inverse direction; the constructor has already checked consistency."""
    return slabel.psi


@dataclass(frozen=True)
class SpringerReport:
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
    counts against the brute-force conjugacy classes."""
    group.check_bound()
    m, d = group.m, group.d
    labels = enumerate_IS(m, d)
    clifford_labels = enumerate_IC(m, d)
    if sorted(str(s.psi) for s in labels) != sorted(str(c) for c in clifford_labels):
        raise CheckFailed("the two index sets are not in bijection")
    models: dict[Profile, object] = {}
    rows = []
    for slabel in labels:
        model = models.get(slabel.orbit)
        if model is None:
            model = springer_module(group, slabel.orbit)
            models[slabel.orbit] = model
        geo = isotypic_character(model, slabel.psi)
        alg = char_of(clifford_irrep(group, psi_inv(slabel)))
        rows.append((slabel, geo.values == alg.values))
    return SpringerReport(m, d, tuple(rows), len(group.conjugacy_classes))


# ---------------------------------------------------------------------------
# specializations

def typeB_table(d: int) -> list[dict]:
    """One row per bipartition of d, identified with a multipartition label
    at m = 2 (first component attached to the row-shape key (2,), second to
    the column-shape key (1,1)), each carrying its orbit-side label."""
    rows = []
    for a in range(d, -1, -1):
        for lam1 in partitions_of(a):
            for lam2 in partitions_of(d - a):
                label = clifford_label(2, {(2,): lam1, (1, 1): lam2})
                rows.append(
                    {
                        "bipartition": (lam1, lam2),
                        "clifford": label,
                        "springer": psi(label),
                    }
                )
    return rows


@dataclass(frozen=True)
class HuLabel:
    """An unordered pair of partitions of m; equal pairs split into a
    plus and a minus label."""

    pair: tuple[Partition, Partition]
    sign: Optional[str] = None  # "+" or "-" exactly when the pair is equal

    def __post_init__(self):
        first, second = self.pair
        if (first == second) != (self.sign in ("+", "-")):
            raise ValueError("sign is carried exactly by the equal pairs")
        if self.pair != tuple(sorted(self.pair, reverse=True)):
            raise ValueError("pair must be sorted")

    def __str__(self):
        body = f"[{format_partition(self.pair[0])},{format_partition(self.pair[1])}]"
        return body + (self.sign or "")


def hu_index(m: int) -> list[HuLabel]:
    """The d = 2 index set: unordered distinct pairs plus signed equal pairs."""
    nus = partitions_of(m)
    out = []
    for i, nu1 in enumerate(nus):
        for nu2 in nus[i:]:
            if nu1 == nu2:
                out.append(HuLabel((nu1, nu2), "+"))
                out.append(HuLabel((nu1, nu2), "-"))
            else:
                out.append(HuLabel(tuple(sorted((nu1, nu2), reverse=True))))
    return out


def hu_to_clifford(label: HuLabel, m: int) -> CliffordLabel:
    """The bijection with the multipartition labels at d = 2: a plus pair
    carries the row shape (2,), a minus pair the column shape (1,1), and a
    distinct pair puts a single slot on each component."""
    nu1, nu2 = label.pair
    if label.sign == "+":
        return clifford_label(m, {nu1: (2,)})
    if label.sign == "-":
        return clifford_label(m, {nu1: (1, 1)})
    return clifford_label(m, {nu1: (1,), nu2: (1,)})


def typeD_table(d: int) -> list[dict]:
    """Index table for the even-signed reflection group of rank d, derived
    from the d = 2 picture: unordered distinct bipartitions carry the
    one-box label; for even d the equal pairs split into a plus (row shape)
    and a minus (column shape) label."""
    rows = []
    seen = set()
    for a in range(d, -1, -1):
        for nu1 in partitions_of(a):
            for nu2 in partitions_of(d - a):
                pair = tuple(sorted((nu1, nu2), reverse=True))
                if pair in seen:
                    continue
                seen.add(pair)
                if nu1 == nu2:
                    rows.append({"pair": pair, "sign": "+", "psi": (2,)})
                    rows.append({"pair": pair, "sign": "-", "psi": (1, 1)})
                else:
                    rows.append({"pair": pair, "sign": None, "psi": (1,)})
    return rows
