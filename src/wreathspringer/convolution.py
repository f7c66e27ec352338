"""The component-class algebra: exact-rational linear combinations of basis
classes indexed by (group element, component index) pairs, with a partial
convolution product.  A coefficient is an `int` where it is integral and a
`fractions.Fraction` otherwise: both are exact, and ints add and multiply
without building a Fraction.

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

`verify_relations` checks the defining relations inside the algebra.  Its
`products` check uses bilinearity: a closure-class sum is the sum of the
plain class sums below it, so each product of a plain sum with a pure-top
closure-class sum is formed once and the products the check compares are
sums of those parts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .combinatorics import Perm, all_perms, perm_compose
from .wreath import WreathElement, WreathGroup, wreath_downset

if TYPE_CHECKING:
    from .matrices import Scalar


def _exact(c) -> Scalar:
    """c as an int where it is integral, else as a Fraction."""
    if c.__class__ is not int and c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class BasisIndex(NamedTuple):
    w: WreathElement
    tau: Perm

    def key(self):
        return (self.w.key(), self.tau)


class UndefinedProductError(Exception):
    """An undefined convolution appeared where the computable cases were
    guaranteed; this indicates an implementation bug, not a math gap."""


class AlgebraVector:
    """Finitely supported map BasisIndex -> int | Fraction, an int wherever
    the coefficient is integral; no zero coefficients are stored.
    Immutable: the (m, d) shapes of its terms are read once, on first use."""

    __slots__ = ("_terms", "_shapes")

    def __init__(self, terms: dict[BasisIndex, Scalar] | None = None):
        clean = {}
        if terms:
            for idx, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    clean[idx] = coeff
        self._terms = clean
        self._shapes = None

    @classmethod
    def zero(cls) -> "AlgebraVector":
        return cls()

    @classmethod
    def basis(cls, idx: BasisIndex) -> "AlgebraVector":
        return cls._of({idx: 1})

    @classmethod
    def _of(cls, terms: dict[BasisIndex, Scalar]) -> "AlgebraVector":
        """A vector on `terms` as they are: exact values, none zero, ints
        where integral."""
        vector = object.__new__(cls)
        vector._terms = terms
        vector._shapes = None
        return vector

    def shapes(self) -> dict[tuple[int, int], None]:
        """The (m, d) of the terms' elements, in the order they first come."""
        if self._shapes is None:
            self._shapes = dict.fromkeys((len(i.w.factors[0]), len(i.w.top)) for i in self._terms)
        return self._shapes

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].key())

    def coeff(self, idx: BasisIndex) -> Scalar:
        return self._terms.get(idx, 0)

    def support(self) -> list[BasisIndex]:
        return sorted(self._terms, key=BasisIndex.key)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        return _collect(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraVector":
        scalar = _exact(scalar)
        return AlgebraVector({idx: scalar * c for idx, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraVector) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "AlgebraVector(0)"
        bits = [f"{c}*[{idx.w.factors},{idx.w.top};{idx.tau}]" for idx, c in self.items()]
        return "AlgebraVector(" + " + ".join(bits) + ")"


def _collect(pairs) -> AlgebraVector:
    """Sum (index, nonzero coefficient) pairs into one vector.  Only an
    index that comes twice is added to, so only those can cancel to zero or
    become integral."""
    out: dict[BasisIndex, Scalar] = {}
    collided = []
    for idx, coeff in pairs:
        if idx in out:
            out[idx] += coeff
            collided.append(idx)
        else:
            out[idx] = coeff
    for idx in collided:
        if idx in out:
            if out[idx]:
                out[idx] = _exact(out[idx])
            else:
                del out[idx]
    return AlgebraVector._of(out)


class ProductResult(
    NamedTuple("ProductResult", [("vector", "AlgebraVector | None"), ("blockers", tuple)])
):
    """Either a defined vector or the list of basis pairs that block it."""

    __slots__ = ()

    def __new__(
        cls,
        vector: AlgebraVector | None,
        blockers: tuple[tuple[BasisIndex, BasisIndex], ...] = (),
    ):
        if vector is None and not blockers:
            raise ValueError("an undefined product must carry at least one blocking pair")
        return super().__new__(cls, vector, blockers)

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
        return ProductResult(AlgebraVector._of({BasisIndex(aw._mul_unchecked(bw), tau): 1}))
    return ProductResult(None, ((a, b),))


def convolve(a: AlgebraVector, b: AlgebraVector) -> ProductResult:
    """Bilinear extension of convolve_basis.  Undefined as soon as any
    needed basis product is undefined, reporting every blocking pair.

    Only chaining pairs (b.tau == a.tau * top(a.w)) are visited; every other
    basis product is zero.  Both vectors must hold elements of one (m, d);
    each vector reads the shapes of its terms once."""
    if a._terms and b._terms:
        shapes = {**a.shapes(), **b.shapes()}
        if len(shapes) > 1:
            (m0, d0), (m1, d1) = list(shapes)[:2]
            raise ValueError(f"context mismatch: ({m0},{d0}) vs ({m1},{d1})")
    by_tau: dict[Perm, list] = {}
    for ib, cb in b._terms.items():
        by_tau.setdefault(ib.tau, []).append((ib, cb))
    out: dict[BasisIndex, Scalar] = {}
    blockers = []
    for ia, ca in a._terms.items():
        for ib, cb in by_tau.get(perm_compose(ia.tau, ia.w.top), ()):
            vector = (res := convolve_basis(ia, ib)).vector
            if vector is None:
                blockers.extend(res.blockers)
                continue
            coeff = ca * cb
            for idx, c in vector._terms.items():
                if idx in out:
                    out[idx] += coeff * c
                else:
                    out[idx] = coeff * c
    if blockers:
        return ProductResult(None, tuple(sorted(set(blockers), key=lambda p: (p[0].key(), p[1].key()))))
    # the constructor drops the sums that cancelled and makes integral ones ints
    return ProductResult(AlgebraVector(out))


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
    return AlgebraVector._of({BasisIndex(u, tau): 1 for u in wreath_downset(w)})


def y_bar_sum(group: WreathGroup, w: WreathElement) -> AlgebraVector:
    """Sum of the closure classes of w over every component index."""
    # one down-set for every tau, so equal basis classes share their elements
    down = wreath_downset(w)
    return AlgebraVector._of(
        {BasisIndex(u, tau): 1 for tau in all_perms(group.d) for u in down}
    )


def y_plain_sum(group: WreathGroup, w: WreathElement) -> AlgebraVector:
    """Sum of the plain classes [Y_{w, tau}] over every component index."""
    return AlgebraVector._of({BasisIndex(w, tau): 1 for tau in all_perms(group.d)})


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


# ---------------------------------------------------------------------------
# relation verification

class Check(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped"
    instances: int
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "instances": self.instances}
        if self.detail:
            out["detail"] = self.detail
        return out


class RelationReport(NamedTuple):
    m: int
    d: int
    checks: tuple[Check, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


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
      y_bar_sum(w) is the sum of y_plain_sum(u) over u <= w, so by
      bilinearity each side is a sum of the products of y_plain_sum(u) with
      y_bar_sum(sigma), and each of those is formed once.

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
        plain = {w: y_plain_sum(group, w) for w in group.elements}
        down = {w: wreath_downset(w) for w in group.elements}
        # parts[u, sigma] holds plain[u] * sums[sigma] and sums[sigma] * plain[u]
        parts = {
            (u, sigma): (mul(plain[u], sums[sigma]), mul(sums[sigma], plain[u]))
            for u in group.elements
            for sigma in tops
        }

        def side(w: WreathElement, sigma: WreathElement, k: int) -> AlgebraVector:
            # sums[w] is the sum of plain[u] over u <= w
            return _collect(chain.from_iterable(parts[u, sigma][k]._terms.items() for u in down[w]))

        check("products", (
            (lambda: f"{group.word(x)} * {group.word(y)}", side(w, sigma, k), sums[x * y])
            for w in group.elements
            for sigma in tops
            for x, y, k in ((w, sigma, 0), (sigma, w, 1))
        ))

    return RelationReport(m, d, tuple(checks))
