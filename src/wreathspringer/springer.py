"""The orbit/isotypic correspondence and its end-to-end character
verification, and the small-rank specializations (bipartition tables for
m = 2, and the even / odd rank-d tables derived from them).  One
`CliffordLabel` names both sides: the irreducible of Sigma_m wr Sigma_d,
and its `orbit` with an irreducible of that orbit's component group (see
`orbits`); at d = 2 those labels are the signed index set, `enumerate_IS(m, 2)`.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .combinatorics import partitions_of
from .orbits import SIGMA2_SIGNS, CliffordLabel, enumerate_IC, enumerate_IS
from .reptheory import char_of, clifford_irrep, isotypic_character, springer_module
from .wreath import CheckFailed, WreathGroup


class SpringerReport(NamedTuple):
    rows: tuple[tuple[CliffordLabel, bool], ...]
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
        """The check as the `verify` command prints it.  `verify_springer`
        refuses two index sets that differ, so both sides count the rows."""
        return {
            "name": "springer_correspondence",
            "status": "pass" if self.all_pass else "fail",
            "instances": len(self.rows),
            "counts": {
                "orbitSide": len(self.rows),
                "cliffordSide": len(self.rows),
                "conjugacyClasses": self.class_count,
            },
        }


def verify_springer(group: WreathGroup) -> SpringerReport:
    """For every orbit-side label, compare the exact character of the
    isotypic component of its fiber bimodule with the exact character of
    the matching induced irreducible; also check the global bijection
    counts against the conjugacy classes."""
    group.check_bound()
    m, d = group.m, group.d
    labels = enumerate_IS(m, d)
    if sorted(labels) != sorted(enumerate_IC(m, d)):
        raise CheckFailed("the two index sets are not in bijection")
    rows = []
    # the labels come orbit by orbit, so each orbit's model is built once
    # and held only until the next orbit's replaces it
    for orbit, same_orbit in groupby(labels, key=attrgetter("orbit")):
        model = springer_module(group, orbit)
        for label in same_orbit:
            geo = isotypic_character(model, label)
            rows.append((label, geo == char_of(clifford_irrep(group, label))))
    return SpringerReport(tuple(rows), len(group.conjugacy_classes))


# ---------------------------------------------------------------------------
# specializations

def typeB_table(d: int) -> list[dict]:
    """One row per bipartition of d, identified with a multipartition label
    at m = 2 (first component attached to the row-shape key (2,), second to
    the column-shape key (1,1)); the label's `orbit` is its orbit side."""
    return [
        {"bipartition": (label.value((2,)), label.value((1, 1))), "clifford": label}
        for label in enumerate_IC(2, d)
    ]


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
