"""The component-class algebra: exact-rational linear combinations of basis
classes indexed by (group element, component index) pairs, with a partial
convolution product.  A coefficient is an `int` where it is integral and a
`fractions.Fraction` otherwise: both are exact, ints add and multiply
without building a Fraction, and `fractions` is imported only when a
coefficient is not an int.

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

There is one product loop, `_product`.  It works on vectors keyed by ints,
``element id * d! + tau id`` (`_Basis` numbers them, and refuses a tau that
is not a permutation of degree d), visits only the chaining pairs, and asks
the rule `convolve_basis` once per pair of elements: the rule's component
index only rides along, so its answer at one tau serves every other, and a
term it puts at another tau raises.  `convolve` numbers its two vectors'
terms, calls `_product` and maps the result back.

`verify_relations` checks the defining relations on one `_Basis`, through
the same loop.  A pure-top element is the bottom of its own down-set, so
its closure-class sum is its plain sum: the generators' sums are plain.
"""

from __future__ import annotations

from itertools import chain
from math import factorial
from typing import TYPE_CHECKING, NamedTuple

from .combinatorics import Perm, all_perms, perm_compose
from .wreath import WreathElement, WreathGroup, wreath_downset

if TYPE_CHECKING:
    from .matrices import Scalar


def _exact(c) -> Scalar:
    """c as an int where it is integral, else as a Fraction."""
    if c.__class__ is int:
        return c
    from fractions import Fraction

    if c.__class__ is not Fraction:
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
    Immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[BasisIndex, Scalar] | None = None):
        clean = {}
        if terms:
            for idx, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    clean[idx] = coeff
        self._terms = clean

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
        return vector

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].key())

    def coeff(self, idx: BasisIndex) -> Scalar:
        return self._terms.get(idx, 0)

    def support(self) -> list[BasisIndex]:
        return sorted(self._terms, key=BasisIndex.key)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        return AlgebraVector._of(_collect(chain(self._terms.items(), other._terms.items())))

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


def _collect(pairs) -> dict:
    """Sum (key, nonzero coefficient) pairs into a dict with no zero
    coefficient.  Only a key that comes twice is added to, so only those
    can cancel to zero or become integral."""
    out: dict = {}
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
    return out


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


def _number(ids: dict, items: list, x) -> int:
    """x's position in `items`, appending it on first sight."""
    i = ids.get(x)
    if i is None:
        i = ids[x] = len(items)
        items.append(x)
    return i


class _Basis:
    """The basis classes [Y_{w, tau}] of one (m, d), numbered by the int
    ``id(w) * d! + id(tau)``: an id is the position of w in `elements`, or
    of tau in `perms`, and both lists grow as their entries are met.
    `right_tau[key]` is the id of tau * top(w), the component index that a
    right factor needs to chain with the class `key`, found on first use."""

    __slots__ = ("n", "degree", "perms", "tau_ids", "elements", "ids", "right_tau")

    def __init__(self, d: int, perms: tuple[Perm, ...] = (), elements: tuple[WreathElement, ...] = ()):
        self.n = factorial(d)
        self.degree = list(range(d))
        self.perms: list[Perm] = []
        self.tau_ids: dict[Perm, int] = {}
        self.elements: list[WreathElement] = []
        self.ids: dict[WreathElement, int] = {}
        self.right_tau: dict[int, int] = {}
        for tau in perms:
            self.tau_id(tau)
        for w in elements:
            _number(self.ids, self.elements, w)

    def tau_id(self, tau: Perm) -> int:
        """tau's id; a tau that is not a permutation of degree d would take
        an id of d! or more, so that its keys collide with another element's."""
        t = self.tau_ids.get(tau)
        if t is None:
            if sorted(tau) != self.degree:
                raise ValueError(f"component index {tau} is not a permutation of degree {len(self.degree)}")
            t = self.tau_ids[tau] = len(self.perms)
            self.perms.append(tau)
        return t

    def key(self, idx: BasisIndex) -> int:
        return _number(self.ids, self.elements, idx.w) * self.n + self.tau_id(idx.tau)

    def index(self, key: int) -> BasisIndex:
        i, t = divmod(key, self.n)
        return BasisIndex(self.elements[i], self.perms[t])

    def chain_tau(self, key: int) -> int:
        """right_tau[key], computed and kept."""
        i, t = divmod(key, self.n)
        s = self.right_tau[key] = self.tau_id(perm_compose(self.perms[t], self.elements[i].top))
        return s

    def rows(self, b: dict[int, Scalar]) -> dict[int, list[tuple[int, Scalar]]]:
        """b by component index: rows[s] lists its (element id, coefficient)
        pairs at tau id s, the form `_product` takes its right factor in."""
        rows: dict[int, list] = {}
        for key, c in b.items():
            j, s = divmod(key, self.n)
            rows.setdefault(s, []).append((j, c))
        return rows


def _element_terms(vector: AlgebraVector, tau: Perm, basis: _Basis) -> list[tuple[int, Scalar]]:
    """The rule's answer at the left factor's tau as (element id * d!,
    coefficient) pairs, which `_product` reuses at every tau where the same
    two elements chain.  A term at any other tau breaks that reuse, so it
    raises instead of giving wrong sums."""
    terms = []
    for idx, c in vector._terms.items():
        if idx.tau != tau:
            raise RuntimeError(f"convolve_basis put a term at {idx.tau}, not at the left factor's {tau}")
        terms.append((_number(basis.ids, basis.elements, idx.w) * basis.n, c))
    return terms


def _product(a: dict[int, Scalar], rows: dict[int, list], basis: _Basis):
    """The bilinear product of the int-keyed vectors a and b, with b given
    by `basis.rows(b)`: the sums by key, which may hold a zero or an
    integral Fraction where terms met, and the blocking pairs of keys.

    Only chaining pairs are visited.  The rule `convolve_basis` is asked
    once per pair of elements (i, j), at the first component index that
    chains them, and its answer is kept for the call: the product of
    [Y_{w_i, t}] and [Y_{w_j, s}] is the answer's element terms at t, and
    where the rule is undefined, so is every such pair."""
    n, right_tau, elements, perms = basis.n, basis.right_tau, basis.elements, basis.perms
    out: dict[int, Scalar] = {}
    get = out.get
    blocked = []
    # (i, j) -> [(product id * n, coefficient)], None where undefined; False until asked
    answers = {}
    for ka, ca in a.items():
        s = right_tau.get(ka)
        if s is None:
            s = basis.chain_tau(ka)
        row = rows.get(s)
        if row is None:
            continue
        i = ka // n
        t = ka - i * n
        for j, cb in row:
            answer = answers.get((i, j), False)
            if answer is False:
                vector = convolve_basis(
                    BasisIndex(elements[i], perms[t]), BasisIndex(elements[j], perms[s])
                ).vector
                answer = answers[i, j] = None if vector is None else _element_terms(vector, perms[t], basis)
            if answer is None:
                blocked.append((ka, j * n + s))
                continue
            coeff = ca * cb
            for p, c in answer:
                out[p + t] = get(p + t, 0) + coeff * c
    return out, blocked


def _blocked(pairs, basis: _Basis) -> ProductResult:
    """The undefined product blocked by `pairs` of keys."""
    indices = ((basis.index(x), basis.index(y)) for x, y in pairs)
    return ProductResult(None, tuple(sorted(indices, key=lambda p: (p[0].key(), p[1].key()))))


def convolve(a: AlgebraVector, b: AlgebraVector) -> ProductResult:
    """Bilinear extension of convolve_basis.  Undefined as soon as any
    needed basis product is undefined, reporting every blocking pair.

    Only chaining pairs (b.tau == a.tau * top(a.w)) are visited; every other
    basis product is zero.  Both vectors must hold elements of one (m, d),
    and every component index must be a permutation of degree d."""
    if not (a._terms and b._terms):
        return ProductResult(AlgebraVector.zero())
    contexts = dict.fromkeys((len(i.w.factors[0]), len(i.w.top)) for i in chain(a._terms, b._terms))
    if len(contexts) > 1:
        (m0, d0), (m1, d1) = list(contexts)[:2]
        raise ValueError(f"context mismatch: ({m0},{d0}) vs ({m1},{d1})")
    [(_, d)] = contexts
    basis = _Basis(d)
    numbered = {basis.key(idx): c for idx, c in a._terms.items()}
    rows = basis.rows({basis.key(idx): c for idx, c in b._terms.items()})
    out, blocked = _product(numbered, rows, basis)
    if blocked:
        return _blocked(blocked, basis)
    # the constructor drops the sums that cancelled and makes integral ones ints
    return ProductResult(AlgebraVector({basis.index(key): c for key, c in out.items()}))


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


def involution_T(a: AlgebraVector) -> AlgebraVector:
    """The factor-swap anti-involution: [Y_{w,tau}] -> [Y_{w^-1, tau*top(w)}]."""
    return AlgebraVector._of(_collect(
        (BasisIndex(idx.w.inverse(), perm_compose(idx.tau, idx.w.top)), coeff)
        for idx, coeff in a._terms.items()
    ))


def pi0_act(eta: Perm, a: AlgebraVector) -> AlgebraVector:
    """Component shuffle: [Y_{w,tau}] -> [Y_{w, eta*tau}], extended linearly."""
    return AlgebraVector._of(_collect(
        (BasisIndex(idx.w, perm_compose(eta, idx.tau)), coeff)
        for idx, coeff in a._terms.items()
    ))


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
      y_bar_sum(w) is the sum of the plain sums of u over u <= w, so by
      bilinearity each side is a sum of the products of a plain sum with a
      pure-top sum.  Each of those is formed once, at the component index
      e alone: the rule's answer for two elements is the same at every
      chaining tau, so the other taus hold copies of it.

    Every check compares zero-free int-keyed vectors on one `_Basis`.  Any
    undefined product raises UndefinedProductError: these checks are
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

    index_count = group.order * len(all_perms(d))
    # the elements are numbered in order only for the products check
    elements = group.elements if index_count <= PRODUCTS_CHECK_LIMIT else ()
    basis = _Basis(d, all_perms(d), elements)
    ids, n, taus = basis.ids, basis.n, range(basis.n)

    def plain(w: WreathElement) -> dict[int, Scalar]:
        # the sum of the plain classes [Y_{w, tau}] over every tau
        i = _number(ids, basis.elements, w) * n
        return {i + t: 1 for t in taus}

    def times(a: dict[int, Scalar], rows: dict[int, list]) -> dict[int, Scalar]:
        out, blocked = _product(a, rows, basis)
        if blocked:
            _blocked(blocked, basis).expect()
        return {key: c for key, c in out.items() if c}

    # pure-top elements: each closure sum is its plain sum
    t = {k: plain(group.gen_t(k)) for k in range(1, d)}
    rows = {k: basis.rows(t[k]) for k in t}
    e = plain(group.identity)
    check("quadratic", ((lambda: f"t{k}^2", times(t[k], rows[k]), e) for k in range(1, d)))

    # the identity terms t_k * e and e * t_k do not depend on i
    e_rows = basis.rows(e)
    t_e = {k: (times(t[k], e_rows), times(e, rows[k])) for k in range(1, d)} if m > 1 else {}
    check("wreath", (
        (
            lambda: f"t{k} s{i}",
            _collect(chain(times(t[k], basis.rows(plain(group.gen_s(i, k)))).items(), t_e[k][0].items())),
            _collect(chain(times(plain(group.gen_s(i, k + 1)), rows[k]).items(), t_e[k][1].items())),
        )
        for k in range(1, d)
        for i in range(1, m)
    ))
    check("braid", (
        (
            lambda: f"t{k} t{k + 1} t{k}",
            times(times(t[k], rows[k + 1]), rows[k]),
            times(times(t[k + 1], rows[k]), rows[k + 1]),
        )
        for k in range(1, d - 1)
    ))
    check("commuting", (
        (lambda: f"t{k} t{l}", times(t[k], rows[l]), times(t[l], rows[k]))
        for k in range(1, d)
        for l in range(k + 2, d)
    ))

    if not elements:
        detail = f"{index_count} basis indices exceed the limit {PRODUCTS_CHECK_LIMIT}"
        checks.append(Check("products", "skipped", 0, detail))
    else:
        tops = [i for i, w in enumerate(elements) if w.has_trivial_factors()]
        down = [[ids[u] for u in wreath_downset(w)] for w in elements]
        # both sides are compared at tau id 0, which is e: `all_perms` lists
        # the identity first (the docstring says why one tau suffices)
        sums = [dict.fromkeys([u * n for u in us], 1) for us in down]
        plain_rows = [basis.rows(plain(w)) for w in elements]
        # parts[u, sigma] holds [Y_{u, e}] * plain(sigma) and [Y_{sigma, e}] * plain(u)
        parts = {
            (u, sigma): (times({u * n: 1}, plain_rows[sigma]), times({sigma * n: 1}, plain_rows[u]))
            for u in range(len(elements))
            for sigma in tops
        }
        # sums[w] is the sum of [Y_{u, e}] over u <= w, so a side sums its parts
        check("products", (
            (
                lambda: f"{group.word(elements[x])} * {group.word(elements[y])}",
                _collect(chain.from_iterable(parts[u, sigma][k].items() for u in down[w])),
                sums[ids[elements[x] * elements[y]]],
            )
            for w in range(len(elements))
            for sigma in tops
            for x, y, k in ((w, sigma, 0), (sigma, w, 1))
        ))

    return RelationReport(m, d, tuple(checks))
