"""The wreath product of two symmetric groups.

An element is a pair ``(factors, top)``: d permutations of degree m and a
permutation of degree d.  Multiplication follows the semidirect rule in
which the top permutes the factor slots:

    (a, s) * (b, t) = ((a_i o b_{s^-1(i)})_i, s o t)

The module also provides the block embedding into the symmetric group of
degree m*d, the product Bruhat order (equal tops, factorwise type A
comparison), Hasse diagrams with DOT/JSON emission, conjugacy classes
grouped by Macdonald's class label, cell statistics of the length grading,
generator words, and the defining relations of the group and of its Young
wreath subgroups.  The type B Coxeter group is W(B_d) = Sigma_2 wr Sigma_d
itself; its elements are read as signed permutations only for its Bruhat
order, which is type A on the letters -d..-1, 1..d.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from math import factorial, prod
from operator import itemgetter
from typing import TextIO

from .combinatorics import (
    Perm,
    adjacent_transposition,
    all_perms,
    bruhat_downset,
    bruhat_leq_typeA,
    cycle_type,
    identity_perm,
    perm_compose,
    perm_inverse,
    perm_to_word,
    type_a_relations,
    upper_covers,
)

DEFAULT_MAX_ELEMENTS = 50_000
BOUND_ENV_VAR = "WREATHSPRINGER_MAX_ELEMENTS"


class BoundExceededError(Exception):
    """Raised when a requested enumeration would exceed the configured bound."""


class CheckFailed(Exception):
    """Raised when a mathematical check fails (the CLI exits with code 1)."""


class WreathElement:
    """An element of Sigma_m wr Sigma_d in (factors, top) form.

    Immutable.  The hash, that of the pair (factors, top), is computed once
    on construction, and `has_trivial_factors` once on first use."""

    __slots__ = ("factors", "top", "_hash", "_trivial")

    def __init__(self, factors: tuple[Perm, ...], top: Perm):
        if len(factors) != len(top):
            raise ValueError("number of factors must equal the top degree")
        _set_factors(self, factors)
        _set_top(self, top)
        _set_hash(self, hash((factors, top)))
        _set_trivial(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return WreathElement, (self.factors, self.top)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not WreathElement:
            return NotImplemented
        return self is other or (self.top == other.top and self.factors == other.factors)

    def __repr__(self) -> str:
        return f"WreathElement(factors={self.factors!r}, top={self.top!r})"

    @property
    def m(self) -> int:
        return len(self.factors[0])

    @property
    def d(self) -> int:
        return len(self.top)

    def _check_compatible(self, other: "WreathElement") -> None:
        if len(self.top) != len(other.top) or len(self.factors[0]) != len(other.factors[0]):
            raise ValueError(
                f"context mismatch: ({self.m},{self.d}) vs ({other.m},{other.d})"
            )

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        self._check_compatible(other)
        return self._mul_unchecked(other)

    # Products repeat: the relation checks of the class algebra form 4,116
    # products at (2,3) but only 540 distinct ones, and 284 of 878 at
    # (3,2).  The bound holds four times the larger count, and memory stays
    # flat at larger sizes.
    @lru_cache(maxsize=2048)
    def _mul_unchecked(self, other: "WreathElement") -> "WreathElement":
        """The product, for callers that have already checked (m, d)."""
        a, b, top = self.factors, other.factors, self.top
        # slot top[j] of the product holds a[top[j]] o b[j]
        factors = [None] * len(top)
        for j, t in enumerate(top):
            f = a[t]
            factors[t] = tuple([f[k] for k in b[j]])
        return WreathElement(tuple(factors), tuple([top[k] for k in other.top]))

    def inverse(self) -> "WreathElement":
        new_factors = tuple(
            perm_inverse(self.factors[self.top[i]]) for i in range(self.d)
        )
        return WreathElement(new_factors, perm_inverse(self.top))

    def has_trivial_factors(self) -> bool:
        trivial = self._trivial
        if trivial is None:
            factors = self.factors
            trivial = factors.count(tuple(range(len(factors[0])))) == len(factors)
            _set_trivial(self, trivial)
        return trivial

    def key(self):
        """Deterministic sort key: top first, then the factor tuple."""
        return (self.top, self.factors)


# the slots' own setters, which `__setattr__` refuses to reach
_set_factors = WreathElement.factors.__set__
_set_top = WreathElement.top.__set__
_set_hash = WreathElement._hash.__set__
_set_trivial = WreathElement._trivial.__set__


def wreath_identity(m: int, d: int) -> WreathElement:
    return WreathElement(tuple(identity_perm(m) for _ in range(d)), identity_perm(d))


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


def class_label(x: WreathElement, block_of) -> tuple:
    """Conjugacy class label of x in Sigma_m wr T, T the Young subgroup of
    the blocks that ``block_of`` assigns to the slots: one triple (block,
    length r, cycle type of the factor of x^r there) per cycle of x.top,
    sorted (Macdonald, *Symmetric Functions and Hall Polynomials*, Ch. I,
    App. B).  Walking the cycle forward from slot i and composing on the
    left gives f_{top^-1(i)} o ... o f_i, the factor of x^r in slot
    top^-1(i)."""
    top, factors = x.top, x.factors
    seen = [False] * len(top)
    label = []
    for i in range(len(top)):
        if seen[i]:
            continue
        seen[i] = True
        cycle_factor, r, j = factors[i], 1, top[i]
        while j != i:
            seen[j] = True
            cycle_factor = perm_compose(factors[j], cycle_factor)
            r, j = r + 1, top[j]
        label.append((block_of[i], r, cycle_type(cycle_factor)))
    return tuple(sorted(label))


def wreath_downset(x: WreathElement) -> list[WreathElement]:
    """All y <= x, i.e. the product of the factorwise type A down-sets."""
    factor_sets = [sorted(bruhat_downset(f)) for f in x.factors]
    return [
        WreathElement(fs, x.top) for fs in product(*factor_sets)
    ]


class WreathGroup:
    """Enumeration context for Sigma_m wr T, where T is the Young subgroup
    of Sigma_d that preserves consecutive blocks of the sizes ``blocks``
    (default ``(d,)``, the whole of Sigma_d).

    Two contexts are equal when their (m, d, blocks) are.  Caches (tops,
    elements, words, conjugacy classes) are built once on first use and are
    immutable afterwards; build before sharing across threads.
    """

    def __init__(self, m: int, d: int, blocks: tuple[int, ...] | None = None):
        if m < 1 or d < 1:
            raise ValueError("m and d must be positive")
        blocks = (d,) if blocks is None else tuple(blocks)
        if sum(blocks) != d or min(blocks) < 1:
            raise ValueError(f"block sizes {blocks} are not positive or do not sum to d={d}")
        self.m = m
        self.d = d
        self.blocks = blocks
        self.order = factorial(m) ** d * prod(factorial(c) for c in blocks)
        self.identity = wreath_identity(m, d)
        self._block_of = tuple(b for b, size in enumerate(blocks) for _ in range(size))
        # adjacent swaps (a, a+1), 0-based, that stay inside one block
        self.swaps = tuple(a for a in range(d - 1) if self._block_of[a] == self._block_of[a + 1])

    def __repr__(self):
        if self.blocks == (self.d,):
            return f"WreathGroup(m={self.m}, d={self.d})"
        return f"WreathGroup(m={self.m}, d={self.d}, blocks={self.blocks})"

    def __eq__(self, other):
        return isinstance(other, WreathGroup) and (self.m, self.d, self.blocks) == (
            other.m, other.d, other.blocks
        )

    def __hash__(self):
        return hash((self.m, self.d, self.blocks))

    def check_bound(self) -> None:
        bound = int(os.environ.get(BOUND_ENV_VAR, DEFAULT_MAX_ELEMENTS))
        if self.order > bound:
            raise BoundExceededError(
                f"group of order {self.order} exceeds the enumeration bound "
                f"{bound} (override with {BOUND_ENV_VAR})"
            )

    @cached_property
    def tops(self) -> tuple[Perm, ...]:
        """The permutations of the d slots that preserve every block, sorted."""
        block_of = self._block_of
        return tuple(
            p for p in all_perms(self.d) if all(block_of[v] == block_of[i] for i, v in enumerate(p))
        )

    @cached_property
    def elements(self) -> tuple[WreathElement, ...]:
        """All elements, sorted by (top, factors)."""
        self.check_bound()
        return tuple(
            WreathElement(fs, top)
            for top in self.tops
            for fs in product(all_perms(self.m), repeat=self.d)
        )

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
        if k - 1 not in self.swaps:
            raise ValueError(f"generator t{k} crosses the blocks {self.blocks}")
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
        gens += [(f"t{a + 1}", self.gen_t(a + 1)) for a in self.swaps]
        return tuple(gens)

    @property
    def generators(self) -> tuple[WreathElement, ...]:
        return tuple(g for _, g in self.named_generators)

    @cached_property
    def presentation(self):
        """``(relations, word_of)`` for the generators in the order of
        `named_generators`: the s_i^(j) slot by slot, then the t_a.

        Each relation is a pair ``(base, k)`` with base^k = e.  They are the
        standard presentation of a permutational wreath product (D. L.
        Johnson, *Presentations of Groups*) after Tietze moves that keep
        every generator.  Per block of `blocks`, with first slot f:

        - type A on the s_i^(f);
        - the definitions t_a s_i^(a) t_a s_i^(a+1), so the s of slot a+1
          are the s of slot a conjugated by t_a (their squares follow);
        - (t_a s_i^(f))^2 for the t_a that fix slot f;
        - (s_i^(f) s_i'^(f+1))^2 for i <= i' only: conjugating by t_f swaps
          slots f and f+1, which turns the pair (i, i') into (i', i).

        Then type A on all t_a, and commutation between the generators
        s_i^(f), t_a of different blocks.  With ``blocks = (1,) * d`` this
        is type A in each slot and commutation across slots.

        ``word_of`` gives the factors' lex-smallest reduced words slot by
        slot, then the top's: the lex-smallest shortest word of the element
        in this generator order.
        """
        m, d, swaps = self.m, self.d, self.swaps
        k = m - 1
        top = {a: d * k + n for n, a in enumerate(swaps)}
        relations = []
        block_gens = []  # per block: the generators of its first slot and its t_a
        first = 0
        for size in self.blocks:
            slot = [first * k + i for i in range(k)]
            block_swaps = range(first, first + size - 1)
            relations += type_a_relations(zip(slot, range(k)))
            relations += [
                ((top[a], a * k + i, top[a], (a + 1) * k + i), 1)
                for a in block_swaps
                for i in range(k)
            ]
            relations += [((top[a], g), 2) for a in block_swaps if a != first for g in slot]
            if size > 1:
                relations += [((g, h + k), 2) for g in slot for h in slot if g <= h]
            block_gens.append(slot + [top[a] for a in block_swaps])
            first += size
        relations += type_a_relations((top[a], a) for a in swaps)
        relations += [
            ((x, y), 2)
            for b, gens in enumerate(block_gens)
            for x in gens
            for other in block_gens[b + 1:]
            for y in other
            if min(x, y) < d * k  # two t_a already commute by type A
        ]

        def word_of(x: WreathElement) -> tuple[int, ...]:
            factor_word = (j * k + i for j, f in enumerate(x.factors) for i in perm_to_word(f))
            return (*factor_word, *(top[a] for a in perm_to_word(x.top)))

        return tuple(relations), word_of

    # -- words --------------------------------------------------------------

    @cached_property
    def words(self) -> tuple[str, ...]:
        """The presentation's normal-form word of each element ("e" for the
        identity), in `elements` order, built without the elements: the
        blocks of `_word_blocks` joined.  Every generator changes
        sum_j l(f_j) + l(top) by exactly one, so this is the lex-smallest
        shortest word in the order of `named_generators`.  The bound is
        checked before anything is built."""
        self.check_bound()
        return tuple(chain.from_iterable(_word_blocks(self)))

    @cached_property
    def _words(self) -> dict[WreathElement, str]:
        """`words` keyed by element, for `word`."""
        return dict(zip(self.elements, self.words))

    def word(self, x: WreathElement) -> str:
        return self._words[x]

    def parse_word(self, text: str) -> WreathElement:
        """Parse an element word: generator names of `named_generators` and
        ``e``, multiplied left to right."""
        gens = dict(self.named_generators, e=self.identity)
        x = self.identity
        for token in text.split():
            if token not in gens:
                raise ValueError(f"bad token {token!r}: not a generator of {self!r}")
            x = x * gens[token]
        return x

    # -- conjugacy ----------------------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[WreathElement, ...], ...]:
        """The conjugacy classes, each in key order, ordered by their minimal
        element; the first member of each class is the representative.
        One pass over `elements` groups them by `class_label`."""
        classes: dict[tuple, list[WreathElement]] = {}
        for x in self.elements:
            classes.setdefault(class_label(x, self._block_of), []).append(x)
        return tuple(tuple(cls) for cls in classes.values())

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


def _word_parts(group: WreathGroup, escape=str) -> list[tuple]:
    """`WreathGroup.words` as a pair ``(prefixes, t)`` per top's block of
    `elements`, its k-th word ``prefixes[k] + t``, with "e" for the identity;
    the M^d prefixes, M = m!, are built once.  `escape` maps each slot's and
    top's word, so it must distribute over concatenation, as JSON's does."""
    spaced = [""]
    for j in range(1, group.d + 1):
        slot = [escape("".join(f"s{i + 1}^{j} " for i in perm_to_word(f))) for f in all_perms(group.m)]
        spaced = list(map("".join, product(spaced, slot)))
    top_words = [escape(" ".join(f"t{a + 1}" for a in perm_to_word(top))) for top in group.tops]
    return [(spaced, t) if t else (["e", *map(str.rstrip, spaced[1:])], "") for t in top_words]


def _word_blocks(group: WreathGroup) -> Iterator[list[str]]:
    """The words of `WreathGroup.words`, one list per top's block."""
    return ([p + t for p in prefixes] for prefixes, t in _word_parts(group))


def _block_text(parts: list[str], t: str, lead: str, end: str, mark: str = "") -> str:
    """``lead + p + t + end`` for each p of `parts`, joined by `mark`, as
    one join whose separator carries t."""
    return "".join((lead, (t + end + mark + lead).join(parts), t, end))


def _cover_block(group: WreathGroup, shift: int = 0) -> list[list[int]]:
    """The covers (i, j) within the first top's block of `elements`, sorted
    by i, as ``i, j + shift`` in M = m! slices by the factor in the first
    slot.  `elements` is top-major, then the factors in mixed radix with
    base M: replacing the factor of index a in slot s by its upper cover u
    moves the position by (index(u) - a) * M^(d-1-s), and every other top's
    block is a shift of this one.  ``steps[i]`` holds the offsets from i,
    each plus the shift, slot by slot from the last, which sorts them."""
    perms = all_perms(group.m)
    index = {f: a for a, f in enumerate(perms)}
    steps = [()]
    for s in range(group.d):
        stride = len(perms) ** (group.d - 1 - s)
        slot = [tuple((index[u] - a) * stride + shift for u in upper_covers(f)) for a, f in enumerate(perms)]
        steps = [o + step for step in steps for o in slot]
    width = len(steps) // len(perms)
    return [[x for i in range(a, a + width) for o in steps[i] for x in (i, i + o)] for a in range(0, len(steps), width)]


def _gather(group: WreathGroup, blocks: Iterable[tuple], head: tuple, tail: tuple) -> Iterator[str]:
    """Per ``(parts, t)`` of `blocks` and slice of `_cover_block`, the join
    of ``head[0] + parts[i] + t + head[1] + tail[0] + parts[j] + t + tail[1]``
    over its covers (i, j): one `itemgetter` of two indices per cover (never
    one) on a table of the M^d heads, then the M^d tails, from one split."""
    getters = [itemgetter(*ends) for ends in _cover_block(group, group.order // len(group.tops)) if ends]
    for parts, t in blocks:
        table = "\0".join((_block_text(parts, t, *head, "\0"), _block_text(parts, t, *tail, "\0"))).split("\0")
        for get in getters:
            yield "".join(get(table))


def hasse_covers(group: WreathGroup) -> list[tuple[int, int]]:
    """All covering pairs x < y of the wreath Bruhat order, as positions
    ``(i, j)`` into ``group.elements``.

    In a product of graded posets a cover moves in exactly one coordinate,
    so: equal tops, one factor covered in type A, the rest equal.  The pairs
    come in (x.key(), y.key()) order: x runs through `elements`, and an
    upper cover is lexicographically larger than the factor it replaces, so
    y grows as its slot moves left and as the cover grows; see `_cover_block`."""
    group.check_bound()
    ends = list(chain.from_iterable(_cover_block(group)))
    size = group.order // len(group.tops)
    return [(b + i, b + j) for b in range(0, group.order, size) for i, j in zip(ends[::2], ends[1::2])]


def cell_statistics(group: WreathGroup) -> tuple[int, dict[int, int]]:
    """Cell count and the distribution dimension -> number of cells, where
    the cell of an element has dimension equal to its factor length sum:
    |T| * ([1]_q [2]_q ... [m]_q)^d, the bracket product being the inversion
    generating function of Sigma_m (Stanley, *EC1*, Cor. 1.3.13).  No
    element is built, but the enumeration bound still applies."""
    group.check_bound()
    coeffs = [group.order // factorial(group.m) ** group.d]
    for k in list(range(2, group.m + 1)) * group.d:
        # times [k]_q = 1 + q + ... + q^(k-1): sum a window of k coefficients
        coeffs = [sum(coeffs[max(0, n - k + 1):n + 1]) for n in range(len(coeffs) + k - 1)]
    return group.order, dict(enumerate(coeffs))


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


def _write_json_list(out: TextIO, chunks: Iterator[str]) -> None:
    """Write a JSON list, a top-level key's value under ``indent=2``, from
    chunks of its items, one per line at depth 2, each after ",\\n"."""
    first = next(chunks, None)
    out.write("[]" if first is None else "[" + first[1:])
    out.writelines(chunks)
    out.write("" if first is None else "\n  ]")


def hasse_json(group: WreathGroup, out: TextIO) -> None:
    """Write the diagram to `out` as the text of ``json.dumps({"m", "d",
    "nodes", "covers"}, indent=2)`` and a newline: the nodes one join per
    top's block of `_word_parts`, the covers by `_gather` from each block's
    position strings.  No element, no whole-group table and no whole-diagram
    string is built; a group the bound refuses gets no byte."""
    group.check_bound()
    parts = _word_parts(group, lambda s: encode_basestring_ascii(s)[1:-1])
    out.write(f'{{\n  "m": {group.m},\n  "d": {group.d},\n  "nodes": ')
    _write_json_list(out, (_block_text(p, t, ',\n    "', '"') for p, t in parts))
    out.write(',\n  "covers": ')
    size = group.order // len(group.tops)
    blocks = ((list(map(str, range(b, b + size))), "") for b in range(0, group.order, size))
    _write_json_list(out, _gather(group, blocks, (",\n    [\n      ", ",\n      "), ("", "\n    ]")))
    out.write("\n}\n")


def hasse_dot(group: WreathGroup, out: TextIO) -> None:
    """Write the diagram to `out` in DOT: a line per node in `elements` order,
    one join per top's block of `_word_parts`, then a line per cover, by
    `_gather` from its block's words.  Both passes share one prefix table."""
    group.check_bound()
    parts = _word_parts(group)
    out.write("digraph hasse {\n  rankdir=BT;\n")
    out.writelines(_block_text(p, t, '  "', '";\n') for p, t in parts)
    out.writelines(_gather(group, parts, ('  "', '" -> "'), ("", '";\n')))
    out.write("}\n")


# ---------------------------------------------------------------------------
# type B Coxeter group: Sigma_2 wr Sigma_d in signed coordinates

SignedPerm = tuple[int, ...]
# entry i holds the signed image of i+1; entries are nonzero, with
# {|w(1)|, ..., |w(d)|} = {1, ..., d}.


def _signed(x: WreathElement) -> SignedPerm:
    """The signed permutation of x in Sigma_2 wr Sigma_d: letter j goes to
    x.top(j), negated exactly when the factor in that slot is the swap."""
    return tuple(-(t + 1) if x.factors[t] != (0, 1) else t + 1 for t in x.top)


def _as_typeA(w: SignedPerm) -> Perm:
    """w as a permutation of the letters -d..-1, 1..d, which are relabelled
    0..2d-1 in that order; w(-a) = -w(a)."""
    d = len(w)
    images = [-v for v in reversed(w)] + list(w)
    return tuple(v + d if v < 0 else v + d - 1 for v in images)


def typeB_leq(u: SignedPerm, w: SignedPerm) -> bool:
    """The Bruhat order of the type B group is the one it inherits from the
    symmetric group on -d..-1, 1..d (Bjorner-Brenti, §8.1)."""
    if len(u) != len(w):
        raise ValueError("rank mismatch")
    return bruhat_leq_typeA(_as_typeA(u), _as_typeA(w))


def eval_typeB_word(word, d: int) -> SignedPerm:
    """The signed permutation of a word of Coxeter generator indices,
    multiplied left to right in Sigma_2 wr Sigma_d: index 0 is s1^(1), the
    sign flip on letter 1, and index i >= 1 is t_i, the swap of letters i
    and i+1.  No element list is built."""
    group = WreathGroup(2, d)
    x = group.identity
    for i in map(int, word):
        if not 0 <= i <= d - 1:
            raise ValueError(f"type B generator index {i} out of range for rank {d}")
        x = x * (group.gen_t(i) if i else group.gen_s(1, 1))
    return _signed(x)


def coxeterB_leq(u_word, w_word, d: int) -> bool:
    """Bruhat order of the rank-d type B Coxeter group on two generator words."""
    return typeB_leq(eval_typeB_word(u_word, d), eval_typeB_word(w_word, d))
