"""The wreath product of two symmetric groups.

An element is a pair ``(factors, top)``: d permutations of degree m and a
permutation of degree d.  Multiplication follows the semidirect rule in
which the top permutes the factor slots:

    (a, s) * (b, t) = ((a_i o b_{s^-1(i)})_i, s o t)

The module also provides the block embedding into the symmetric group of
degree m*d, the product Bruhat order (equal tops, factorwise type A
comparison), Hasse diagrams with DOT/JSON emission, brute-force conjugacy
classes, cell statistics of the length grading, generator words, the
defining relations of the group and its block subgroups, and a
signed-permutation model of the type B Coxeter group for order comparison.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import factorial

from .combinatorics import (
    Perm,
    adjacent_transposition,
    all_perms,
    bruhat_downset,
    bruhat_leq_typeA,
    identity_perm,
    perm_compose,
    perm_inverse,
    perm_length,
    perm_to_word,
    type_a_relations,
)

DEFAULT_MAX_ELEMENTS = 50_000
BOUND_ENV_VAR = "WREATHSPRINGER_MAX_ELEMENTS"


class BoundExceededError(Exception):
    """Raised when a requested enumeration would exceed the configured bound."""


class CheckFailed(Exception):
    """Raised when a mathematical check fails (the CLI exits with code 1)."""


@dataclass(frozen=True)
class WreathElement:
    """An element of Sigma_m wr Sigma_d in (factors, top) form."""

    factors: tuple[Perm, ...]
    top: Perm

    @property
    def m(self) -> int:
        return len(self.factors[0])

    @property
    def d(self) -> int:
        return len(self.top)

    def __post_init__(self):
        if len(self.factors) != len(self.top):
            raise ValueError("number of factors must equal the top degree")

    def _check_compatible(self, other: "WreathElement") -> None:
        if self.m != other.m or self.d != other.d:
            raise ValueError(
                f"context mismatch: ({self.m},{self.d}) vs ({other.m},{other.d})"
            )

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        self._check_compatible(other)
        inv_top = perm_inverse(self.top)
        new_factors = tuple(
            perm_compose(self.factors[i], other.factors[inv_top[i]])
            for i in range(self.d)
        )
        return WreathElement(new_factors, perm_compose(self.top, other.top))

    def inverse(self) -> "WreathElement":
        new_factors = tuple(
            perm_inverse(self.factors[self.top[i]]) for i in range(self.d)
        )
        return WreathElement(new_factors, perm_inverse(self.top))

    def is_identity(self) -> bool:
        ident = identity_perm(self.m)
        return self.top == identity_perm(self.d) and all(
            f == ident for f in self.factors
        )

    def has_trivial_factors(self) -> bool:
        ident = identity_perm(self.m)
        return all(f == ident for f in self.factors)

    def key(self):
        """Deterministic sort key: top first, then the factor tuple."""
        return (self.top, self.factors)

    def cell_dim(self) -> int:
        """Sum of factor inversion counts: the dimension of the attracting
        cell labelled by this element."""
        return sum(perm_length(f) for f in self.factors)


def wreath_identity(m: int, d: int) -> WreathElement:
    return WreathElement(tuple(identity_perm(m) for _ in range(d)), identity_perm(d))


def wreath_presentation(m: int, d: int, swaps: tuple[int, ...]):
    """Presentation ``(relations, word_of)`` of Sigma_m wr T, T the subgroup
    of Sigma_d generated by the adjacent swaps (a, a+1), a in ``swaps``.

    Generators: s_i^(j) slot by slot, then t_a in the order of ``swaps``.
    Relations, as words equal to the identity: type A in each slot,
    commutation across slots, type A on the t_a, and the slot action
    t_a s_i^(j) t_a = s_i^(t_a(j)).  ``word_of`` gives the factors' reduced
    words slot by slot, then the top's reduced word.
    """
    k = m - 1
    top = {a: d * k + n for n, a in enumerate(swaps)}
    relations = [
        rel for j in range(d) for rel in type_a_relations((j * k + i, i) for i in range(k))
    ]
    relations += [
        (x, y) * 2 for x in range(d * k) for y in range(x + 1, d * k) if x // k != y // k
    ]
    relations += type_a_relations((top[a], a) for a in swaps)
    for a in swaps:
        moved = adjacent_transposition(d, a)
        relations += [
            (top[a], j * k + i, top[a], moved[j] * k + i) for j in range(d) for i in range(k)
        ]

    def word_of(x: WreathElement) -> tuple[int, ...]:
        factor_word = (j * k + i for j, f in enumerate(x.factors) for i in perm_to_word(f))
        return (*factor_word, *(top[a] for a in perm_to_word(x.top)))

    return tuple(relations), word_of


def embed_md(x: WreathElement) -> Perm:
    """Block embedding into the symmetric group of degree m*d: factor i
    permutes within block i, the top permutes the d blocks."""
    m, d = x.m, x.d
    images = [0] * (m * d)
    for j in range(d):
        t = x.top[j]
        for r in range(m):
            images[j * m + r] = t * m + x.factors[t][r]
    return tuple(images)


def bruhat_leq_wreath(x: WreathElement, y: WreathElement) -> bool:
    """Tops equal and every factor below in the type A Bruhat order."""
    x._check_compatible(y)
    if x.top != y.top:
        return False
    return all(
        bruhat_leq_typeA(xf, yf) for xf, yf in zip(x.factors, y.factors)
    )


def wreath_downset(x: WreathElement) -> list[WreathElement]:
    """All y <= x, i.e. the product of the factorwise type A down-sets."""
    factor_sets = [sorted(bruhat_downset(f)) for f in x.factors]
    return [
        WreathElement(fs, x.top) for fs in product(*factor_sets)
    ]


class WreathGroup:
    """Enumeration context for Sigma_m wr Sigma_d.

    Caches (elements, words, conjugacy classes) are built once on first use
    and are immutable afterwards; build before sharing across threads.
    """

    def __init__(self, m: int, d: int, max_elements: int | None = None):
        if m < 1 or d < 1:
            raise ValueError("m and d must be positive")
        self.m = m
        self.d = d
        if max_elements is None:
            max_elements = int(os.environ.get(BOUND_ENV_VAR, DEFAULT_MAX_ELEMENTS))
        self.max_elements = max_elements
        self.order = factorial(m) ** d * factorial(d)
        self.identity = wreath_identity(m, d)

    def __repr__(self):
        return f"WreathGroup(m={self.m}, d={self.d})"

    def check_bound(self) -> None:
        if self.order > self.max_elements:
            raise BoundExceededError(
                f"group of order {self.order} exceeds the enumeration bound "
                f"{self.max_elements} (override with {BOUND_ENV_VAR})"
            )

    @cached_property
    def elements(self) -> tuple[WreathElement, ...]:
        """All elements, sorted by (top, factors)."""
        self.check_bound()
        out = [
            WreathElement(fs, top)
            for top in all_perms(self.d)
            for fs in product(all_perms(self.m), repeat=self.d)
        ]
        out.sort(key=WreathElement.key)
        return tuple(out)

    # -- generators ---------------------------------------------------------

    def gen_s(self, i: int, j: int) -> WreathElement:
        """s_i^(j): the i-th adjacent transposition in factor slot j (1-based)."""
        if not (1 <= i <= self.m - 1 and 1 <= j <= self.d):
            raise ValueError(f"generator s{i}^{j} out of range for (m,d)=({self.m},{self.d})")
        factors = [identity_perm(self.m) for _ in range(self.d)]
        factors[j - 1] = adjacent_transposition(self.m, i - 1)
        return WreathElement(tuple(factors), identity_perm(self.d))

    def gen_t(self, k: int) -> WreathElement:
        """t_k: the k-th adjacent transposition acting on the d slots (1-based)."""
        if not 1 <= k <= self.d - 1:
            raise ValueError(f"generator t{k} out of range for d={self.d}")
        return WreathElement(
            tuple(identity_perm(self.m) for _ in range(self.d)),
            adjacent_transposition(self.d, k - 1),
        )

    @cached_property
    def named_generators(self) -> tuple[tuple[str, WreathElement], ...]:
        gens = [
            (f"s{i}^{j}", self.gen_s(i, j))
            for j in range(1, self.d + 1)
            for i in range(1, self.m)
        ]
        gens += [(f"t{k}", self.gen_t(k)) for k in range(1, self.d)]
        return tuple(gens)

    @property
    def generators(self) -> tuple[WreathElement, ...]:
        return tuple(g for _, g in self.named_generators)

    @cached_property
    def presentation(self):
        return wreath_presentation(self.m, self.d, tuple(range(self.d - 1)))

    def mul(self, a: WreathElement, b: WreathElement) -> WreathElement:
        return a * b

    def inv(self, a: WreathElement) -> WreathElement:
        return a.inverse()

    # -- words --------------------------------------------------------------

    @cached_property
    def _words(self) -> dict[WreathElement, str]:
        """Shortest word per element, breadth-first over the generators."""
        self.check_bound()
        words = {self.identity: "e"}
        queue = deque([self.identity])
        while queue:
            x = queue.popleft()
            for name, g in self.named_generators:
                y = x * g
                if y not in words:
                    words[y] = name if x.is_identity() else words[x] + " " + name
                    queue.append(y)
        return words

    def word(self, x: WreathElement) -> str:
        return self._words[x]

    def parse_word(self, text: str) -> WreathElement:
        """Parse an element word: tokens ``s<i>^<j>``, ``t<k>``, ``e``,
        multiplied left to right."""
        x = self.identity
        for token in text.split():
            if token == "e":
                continue
            if token.startswith("s"):
                body = token[1:]
                if "^" not in body:
                    raise ValueError(f"bad token {token!r}: expected s<i>^<j>")
                si, sj = body.split("^", 1)
                try:
                    g = self.gen_s(int(si), int(sj))
                except ValueError as exc:
                    raise ValueError(f"bad token {token!r}: {exc}") from None
            elif token.startswith("t"):
                try:
                    g = self.gen_t(int(token[1:]))
                except ValueError as exc:
                    raise ValueError(f"bad token {token!r}: {exc}") from None
            else:
                raise ValueError(f"bad token {token!r}")
            x = x * g
        return x

    # -- conjugacy ----------------------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[WreathElement, ...], ...]:
        """Brute-force conjugacy classes, each sorted, ordered by their
        minimal element; the first member of each class is the representative."""
        els = self.elements
        remaining = set(els)
        classes = []
        for x in els:
            if x not in remaining:
                continue
            cls = {g * x * g.inverse() for g in els}
            remaining -= cls
            classes.append(tuple(sorted(cls, key=WreathElement.key)))
        classes.sort(key=lambda c: c[0].key())
        return tuple(classes)

    @cached_property
    def _class_index(self) -> dict[WreathElement, int]:
        return {
            x: k for k, cls in enumerate(self.conjugacy_classes) for x in cls
        }

    def class_index(self, x: WreathElement) -> int:
        return self._class_index[x]

    @property
    def class_reps(self) -> tuple[WreathElement, ...]:
        return tuple(cls[0] for cls in self.conjugacy_classes)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.conjugacy_classes)


def hasse_covers(group: WreathGroup) -> list[tuple[WreathElement, WreathElement]]:
    """All covering pairs x < y of the wreath Bruhat order.

    In a product of graded posets a cover moves in exactly one coordinate,
    so: equal tops, one factor covered in type A, the rest equal.
    """
    covers = []
    for y in group.elements:
        for slot in range(group.d):
            f = y.factors[slot]
            lf = perm_length(f)
            for u in bruhat_downset(f):
                if perm_length(u) != lf - 1:
                    continue
                factors = list(y.factors)
                factors[slot] = u
                covers.append((WreathElement(tuple(factors), y.top), y))
    covers.sort(key=lambda pair: (pair[0].key(), pair[1].key()))
    return covers


def cell_statistics(group: WreathGroup) -> tuple[int, dict[int, int]]:
    """Cell count and the distribution dimension -> number of cells, where
    the cell of an element has dimension equal to its factor length sum."""
    dist: dict[int, int] = {}
    for x in group.elements:
        dim = x.cell_dim()
        dist[dim] = dist.get(dim, 0) + 1
    return len(group.elements), dict(sorted(dist.items()))


def dimension_polynomial_str(dist: dict[int, int]) -> str:
    terms = []
    for dim in sorted(dist):
        count = dist[dim]
        if dim == 0:
            terms.append(str(count))
        elif dim == 1:
            terms.append(f"{count}q")
        else:
            terms.append(f"{count}q^{dim}")
    return " + ".join(terms) if terms else "0"


def hasse_json(group: WreathGroup) -> dict:
    nodes = list(group.elements)
    index = {x: i for i, x in enumerate(nodes)}
    return {
        "m": group.m,
        "d": group.d,
        "nodes": [group.word(x) for x in nodes],
        "covers": [[index[x], index[y]] for x, y in hasse_covers(group)],
    }


def hasse_dot(group: WreathGroup) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in group.elements:
        lines.append(f'  "{group.word(x)}";')
    for x, y in hasse_covers(group):
        lines.append(f'  "{group.word(x)}" -> "{group.word(y)}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# type B Coxeter group as signed permutations

SignedPerm = tuple[int, ...]
# entry i holds the signed image of i+1; entries are nonzero, with
# {|w(1)|, ..., |w(d)|} = {1, ..., d}.


def signed_identity(d: int) -> SignedPerm:
    return tuple(range(1, d + 1))


def signed_mul(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """(a*b)(i) = sign(b(i)) * a(|b(i)|)."""
    out = []
    for v in b:
        img = a[abs(v) - 1]
        out.append(img if v > 0 else -img)
    return tuple(out)


def signed_inverse(a: SignedPerm) -> SignedPerm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        if v > 0:
            out[v - 1] = i + 1
        else:
            out[-v - 1] = -(i + 1)
    return tuple(out)


def typeB_generator(d: int, i: int) -> SignedPerm:
    """Generator i of the rank-d type B group: index 0 is the sign flip on
    the first letter, index i >= 1 swaps letters i and i+1."""
    if not 0 <= i <= d - 1:
        raise ValueError(f"type B generator index {i} out of range for rank {d}")
    if i == 0:
        return (-1,) + tuple(range(2, d + 1))
    img = list(range(1, d + 1))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def typeB_length(w: SignedPerm) -> int:
    """Type B inversion statistic: inv(w) + neg(w) + nsp(w)."""
    d = len(w)
    inv = sum(1 for i in range(d) for j in range(i + 1, d) if w[i] > w[j])
    neg = sum(1 for v in w if v < 0)
    nsp = sum(1 for i in range(d) for j in range(i + 1, d) if w[i] + w[j] < 0)
    return inv + neg + nsp


@lru_cache(maxsize=None)
def typeB_elements(d: int) -> tuple[SignedPerm, ...]:
    out = []
    for p in all_perms(d):
        for signs in product((1, -1), repeat=d):
            out.append(tuple(s * (v + 1) for s, v in zip(signs, p)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def typeB_reflections(d: int) -> tuple[SignedPerm, ...]:
    gens = [typeB_generator(d, i) for i in range(d)]
    refls = set()
    for g in typeB_elements(d):
        ginv = signed_inverse(g)
        for s in gens:
            refls.add(signed_mul(signed_mul(g, s), ginv))
    return tuple(sorted(refls))


@lru_cache(maxsize=None)
def typeB_downset(w: SignedPerm) -> frozenset[SignedPerm]:
    d = len(w)
    out = {w}
    lw = typeB_length(w)
    for t in typeB_reflections(d):
        u = signed_mul(w, t)
        if typeB_length(u) == lw - 1:
            out |= typeB_downset(u)
    return frozenset(out)


def typeB_leq(u: SignedPerm, w: SignedPerm) -> bool:
    if len(u) != len(w):
        raise ValueError("rank mismatch")
    return u in typeB_downset(w)


def eval_typeB_word(word, d: int) -> SignedPerm:
    """Evaluate a word (sequence of generator indices) left to right."""
    x = signed_identity(d)
    for i in word:
        x = signed_mul(x, typeB_generator(d, int(i)))
    return x


def coxeterB_leq(u_word, w_word, d: int) -> bool:
    """Bruhat order of the rank-d type B Coxeter group on two generator words."""
    return typeB_leq(eval_typeB_word(u_word, d), eval_typeB_word(w_word, d))


def wreath_to_typeB(group: WreathGroup) -> dict[WreathElement, SignedPerm]:
    """The identification of Sigma_2 wr Sigma_d with the type B group of
    rank d: s1^(1) goes to the sign flip, t_k to the k-th swap.  Computed by
    breadth-first search over the shared generating set."""
    if group.m != 2:
        raise ValueError("the type B identification requires m = 2")
    pairs = [(group.gen_s(1, 1), typeB_generator(group.d, 0))]
    pairs += [
        (group.gen_t(k), typeB_generator(group.d, k)) for k in range(1, group.d)
    ]
    images = {group.identity: signed_identity(group.d)}
    queue = deque([group.identity])
    while queue:
        x = queue.popleft()
        for g, img in pairs:
            y = x * g
            if y not in images:
                images[y] = signed_mul(images[x], img)
                queue.append(y)
    return images
