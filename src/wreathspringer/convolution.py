"""The component-class algebra: exact-rational linear combinations of basis
classes indexed by (group element, component index) pairs, with a partial
convolution product.

The product of two basis classes is only defined in two cases:

* zero, whenever the component indices fail to chain (tau * sigma != tau');
* a single basis class, whenever the indices chain and at least one side
  has trivial factors.

Every other pair is *undefined*: transversality fails there, nothing is
known, and the result must not be fabricated.  Undefined products are
first-class values (`ProductResult`), never exceptions, so callers can
distinguish "provably zero" from "not computable".  `expect()` converts an
undefined result into a hard error for checks that are guaranteed to stay
inside the computable cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .combinatorics import Perm, all_perms, perm_compose
from .matrices import mat_rank
from .wreath import WreathElement, WreathGroup, wreath_downset


_ONE = Fraction(1)


class BasisIndex(NamedTuple):
    w: WreathElement
    tau: Perm

    def key(self):
        return (self.w.key(), self.tau)


class UndefinedProductError(Exception):
    """An undefined convolution appeared where the computable cases were
    guaranteed; this indicates an implementation bug, not a math gap."""


class AlgebraVector:
    """Finitely supported map BasisIndex -> Fraction; no zero coefficients
    are stored.  Treat instances as immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[BasisIndex, Fraction] | None = None):
        clean = {}
        if terms:
            for idx, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[idx] = coeff
        self._terms = clean

    @classmethod
    def zero(cls) -> "AlgebraVector":
        return cls()

    @classmethod
    def basis(cls, idx: BasisIndex) -> "AlgebraVector":
        return cls._of({idx: _ONE})

    @classmethod
    def _of(cls, terms: dict[BasisIndex, Fraction]) -> "AlgebraVector":
        """A vector on `terms` as they are: Fraction values, none zero."""
        vector = object.__new__(cls)
        vector._terms = terms
        return vector

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].key())

    def coeff(self, idx: BasisIndex) -> Fraction:
        return self._terms.get(idx, Fraction(0))

    def support(self) -> list[BasisIndex]:
        return sorted(self._terms, key=BasisIndex.key)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        return _collect(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraVector":
        scalar = Fraction(scalar)
        return AlgebraVector({idx: scalar * c for idx, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraVector) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "AlgebraVector(0)"
        bits = [f"{c}*[{idx.w.factors},{idx.w.top};{idx.tau}]" for idx, c in self.items()]
        return "AlgebraVector(" + " + ".join(bits) + ")"


def _collect(pairs) -> AlgebraVector:
    """Sum (index, nonzero Fraction) pairs into one vector.  Only an index
    that comes twice is added to, so only those can cancel to zero."""
    out: dict[BasisIndex, Fraction] = {}
    collided = []
    for idx, coeff in pairs:
        if idx in out:
            out[idx] += coeff
            collided.append(idx)
        else:
            out[idx] = coeff
    for idx in collided:
        if idx in out and not out[idx]:
            del out[idx]
    return AlgebraVector._of(out)


class ProductResult:
    """Either a defined vector or the list of basis pairs that block it."""

    __slots__ = ("vector", "blockers")

    def __init__(
        self,
        vector: AlgebraVector | None,
        blockers: tuple[tuple[BasisIndex, BasisIndex], ...] = (),
    ):
        if vector is None and not blockers:
            raise ValueError("an undefined product must carry at least one blocking pair")
        self.vector = vector
        self.blockers = blockers

    def __eq__(self, other) -> bool:
        if other.__class__ is not ProductResult:
            return NotImplemented
        return (self.vector, self.blockers) == (other.vector, other.blockers)

    def __repr__(self) -> str:
        return f"ProductResult(vector={self.vector!r}, blockers={self.blockers!r})"

    @property
    def defined(self) -> bool:
        return self.vector is not None

    def expect(self) -> AlgebraVector:
        if self.vector is None:
            raise UndefinedProductError(
                f"product undefined on {len(self.blockers)} basis pair(s), "
                f"first: {self.blockers[0]}"
            )
        return self.vector


def convolve_basis(a: BasisIndex, b: BasisIndex) -> ProductResult:
    """The partial product of two basis classes; see the module docstring."""
    aw, bw = a.w, b.w
    aw._check_compatible(bw)
    tau = a.tau
    if tuple([tau[i] for i in aw.top]) != b.tau:  # b.tau != a.tau o top(a.w)
        return ProductResult(AlgebraVector.zero())
    if aw.has_trivial_factors() or bw.has_trivial_factors():
        return ProductResult(AlgebraVector._of({BasisIndex(aw._mul_unchecked(bw), tau): _ONE}))
    return ProductResult(None, ((a, b),))


def convolve(a: AlgebraVector, b: AlgebraVector) -> ProductResult:
    """Bilinear extension of convolve_basis.  Undefined as soon as any
    needed basis product is undefined, reporting every blocking pair.

    Only chaining pairs (b.tau == a.tau * top(a.w)) are visited; every other
    basis product is zero."""
    if a._terms and b._terms:
        first = next(iter(a._terms)).w
        for idx in chain(a._terms, b._terms):
            first._check_compatible(idx.w)
    by_tau: dict[Perm, list] = {}
    for ib, cb in b._terms.items():
        by_tau.setdefault(ib.tau, []).append((ib, None if cb == 1 else cb))
    blockers = []

    def terms():
        for ia, ca in a._terms.items():
            ca = None if ca == 1 else ca
            for ib, cb in by_tau.get(perm_compose(ia.tau, ia.w.top), ()):
                vector = (res := convolve_basis(ia, ib)).vector
                if vector is None:
                    blockers.extend(res.blockers)
                    continue
                # None stands for a coefficient 1, so a product is formed
                # only where neither side is 1
                coeff = cb if ca is None else ca if cb is None else ca * cb
                for idx, c in vector._terms.items():
                    yield idx, c if coeff is None else coeff if c is _ONE else coeff * c

    total = _collect(terms())
    if blockers:
        return ProductResult(None, tuple(sorted(set(blockers), key=lambda p: (p[0].key(), p[1].key()))))
    return ProductResult(total)


def convolve_chain(*vectors: AlgebraVector) -> ProductResult:
    out: AlgebraVector = vectors[0]
    for v in vectors[1:]:
        res = convolve(out, v)
        if not res.defined:
            return res
        out = res.vector
    return ProductResult(out)


def y_bar(group: WreathGroup, w: WreathElement, tau: Perm) -> AlgebraVector:
    """Closure class: the sum of [Y_{w', tau}] over all w' <= w, coefficient 1."""
    return AlgebraVector(
        {BasisIndex(u, tau): Fraction(1) for u in wreath_downset(w)}
    )


def y_bar_sum(group: WreathGroup, w: WreathElement) -> AlgebraVector:
    """Sum of the closure classes of w over every component index."""
    # one down-set for every tau, so equal basis classes share their elements
    down = wreath_downset(w)
    out: dict[BasisIndex, Fraction] = {}
    for tau in all_perms(group.d):
        for u in down:
            out[BasisIndex(u, tau)] = Fraction(1)
    return AlgebraVector(out)


def y_plain_sum(group: WreathGroup, w: WreathElement) -> AlgebraVector:
    """Sum of the plain classes [Y_{w, tau}] over every component index."""
    return AlgebraVector(
        {BasisIndex(w, tau): Fraction(1) for tau in all_perms(group.d)}
    )


def involution_T(a: AlgebraVector) -> AlgebraVector:
    """The factor-swap anti-involution: [Y_{w,tau}] -> [Y_{w^-1, tau*top(w)}]."""
    return _collect(
        (BasisIndex(idx.w.inverse(), perm_compose(idx.tau, idx.w.top)), coeff)
        for idx, coeff in a._terms.items()
    )


def pi0_act(eta: Perm, a: AlgebraVector) -> AlgebraVector:
    """Component shuffle: [Y_{w,tau}] -> [Y_{w, eta*tau}], extended linearly."""
    return _collect(
        (BasisIndex(idx.w, perm_compose(eta, idx.tau)), coeff)
        for idx, coeff in a._terms.items()
    )


def basis_indices(group: WreathGroup) -> list[BasisIndex]:
    return [
        BasisIndex(w, tau) for w in group.elements for tau in all_perms(group.d)
    ]


def class_span_rank(group: WreathGroup) -> int:
    """Rank over the rationals of the coefficient matrix of the vectors
    y_bar_sum(w), one row per group element."""
    columns = {idx: k for k, idx in enumerate(basis_indices(group))}
    rows = []
    for w in group.elements:
        row = [0] * len(columns)
        for idx, coeff in y_bar_sum(group, w)._terms.items():
            row[columns[idx]] = coeff
        rows.append(row)
    return mat_rank(rows)


# ---------------------------------------------------------------------------
# relation verification

@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    instances: int
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "instances": self.instances}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class RelationReport:
    m: int
    d: int
    checks: tuple[Check, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "checks": [c.to_dict() for c in self.checks],
            "status": "pass" if self.all_pass else "fail",
        }


PRODUCTS_CHECK_LIMIT = 2000  # max basis-index count for the quadratic-cost check


def verify_relations(group: WreathGroup) -> RelationReport:
    """Machine-check the defining relations of the group inside the class
    algebra, in the forms that stay within the computable products:

    * quadratic: each slot swap squares to the identity class sum;
    * wreath: slot swaps conjugate factor generators across slots, checked
      in the q-independent four-term form on plain class sums;
    * braid / commuting: the slot swaps satisfy the symmetric-group braid
      relations;
    * products: w -> y_bar_sum(w) respects multiplication by pure-top
      elements on either side (skipped above `PRODUCTS_CHECK_LIMIT` indices).

    Any undefined product raises UndefinedProductError: these checks are
    guaranteed computable, so an undefined result is an implementation bug.
    """
    group.check_bound()
    m, d = group.m, group.d
    checks = []

    def check(name: str, cases) -> None:
        # each case is (label, lhs, rhs); label() is only called on a failure
        failures = []
        instances = 0
        for label, lhs, rhs in cases:
            instances += 1
            if lhs != rhs:
                failures.append(label())
        status = "fail" if failures else "pass"
        checks.append(Check(name, status, instances, "; ".join(failures[:3])))

    def mul(*vectors: AlgebraVector) -> AlgebraVector:
        return convolve_chain(*vectors).expect()

    t = {k: y_bar_sum(group, group.gen_t(k)) for k in range(1, d)}
    e = y_bar_sum(group, group.identity)
    check("quadratic", ((lambda: f"t{k}^2", mul(t[k], t[k]), e) for k in range(1, d)))

    tp = {k: y_plain_sum(group, group.gen_t(k)) for k in range(1, d)}
    ep = y_plain_sum(group, group.identity)
    # the identity terms t_k * e and e * t_k do not depend on i
    tp_e = {k: (mul(tp[k], ep), mul(ep, tp[k])) for k in range(1, d)} if m > 1 else {}
    check("wreath", (
        (
            lambda: f"t{k} s{i}",
            mul(tp[k], y_plain_sum(group, group.gen_s(i, k))) + tp_e[k][0],
            mul(y_plain_sum(group, group.gen_s(i, k + 1)), tp[k]) + tp_e[k][1],
        )
        for k in range(1, d)
        for i in range(1, m)
    ))
    check("braid", (
        (lambda: f"t{k} t{k + 1} t{k}", mul(t[k], t[k + 1], t[k]), mul(t[k + 1], t[k], t[k + 1]))
        for k in range(1, d - 1)
    ))
    check("commuting", (
        (lambda: f"t{k} t{l}", mul(t[k], t[l]), mul(t[l], t[k]))
        for k in range(1, d)
        for l in range(k + 2, d)
    ))

    index_count = group.order * len(all_perms(d))
    if index_count > PRODUCTS_CHECK_LIMIT:
        detail = f"{index_count} basis indices exceed the limit {PRODUCTS_CHECK_LIMIT}"
        checks.append(Check("products", "skipped", 0, detail))
    else:
        sums = {w: y_bar_sum(group, w) for w in group.elements}
        tops = [w for w in group.elements if w.has_trivial_factors()]
        check("products", (
            (lambda: f"{group.word(x)} * {group.word(y)}", mul(sums[x], sums[y]), sums[x * y])
            for w in group.elements
            for sigma in tops
            for x, y in ((w, sigma), (sigma, w))
        ))

    return RelationReport(m, d, tuple(checks))
