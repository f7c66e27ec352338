"""Independent oracles used to derive expected values.

Everything here is implemented from first principles, separately from the
package code paths it checks: rim-hook recursion for symmetric-group
characters, brute-force standard-tableau enumeration, Cayley-graph word
lengths, breadth-first generator words and type B images of wreath
elements, the subword criterion for the Bruhat order, the type B Bruhat
order by reflections and down-sets, the globally sorted Hasse covers, the
Hasse diagram as the dict that ``json.dumps`` encodes and as DOT text
rebuilt from the sorted covers, cell statistics by walking the elements,
the induced-character sum, minimal coset representatives by search,
brute-force wreath conjugacy classes, Macdonald's centralizer orders in
Sigma_m wr Sigma_d, signed-permutation conjugacy for the even-signed
groups, orbit labels deduplicated from all profiles, the matrix product
by the triple loop, the tensor product of two representations by
Kronecker products, the exhaustive homomorphism check, Young's seminormal
form by searching each tableau for the positions of k and k+1, Todd-Coxeter coset
enumeration, the wreath product by composing permutations, the
all-pairs bilinear extension of the basis convolution, and the class-algebra
products check with each side formed as one product of two closure-class
sums.

It also holds the helpers that only the tests use: the list of basis
classes and the rank of the closure-class sums (Q[G] inside the class
algebra), the character table as the traces of the induced matrix
modules, a character's value at any element and the inner product of two
characters, through an element-to-class map of their own, the block sizes
of every Young subgroup, and the d = 2 labels that ``tables --kind hu``
prints, read back as multipartition labels.
"""

import json
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod

from wreathspringer.combinatorics import all_perms, lower_covers, perm_compose, perm_inverse
from wreathspringer.convolution import (
    AlgebraVector, BasisIndex, Check, ProductResult, convolve, convolve_basis, y_bar_sum,
)
from wreathspringer.matrices import BlockMonomial, kron, mat_rank, trace
from wreathspringer.orbits import all_profiles, clifford_label, enumerate_IC, orbit_label
from wreathspringer.reptheory import Representation, char_of, clifford_irrep, inflate, standard_tableaux
from wreathspringer.wreath import WreathElement, WreathGroup, hasse_covers


# -- symmetric group characters (rim-hook recursion) ------------------------

def mn_character(lam, mu):
    """Character value of the irreducible labelled lam at cycle type mu."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    if not mu:
        return 1
    k = mu[0]
    betas = [lam[i] + len(lam) - 1 - i for i in range(len(lam))]
    total = 0
    for i, beta in enumerate(betas):
        new_beta = beta - k
        if new_beta < 0 or new_beta in betas:
            continue
        height = sum(1 for x in betas if new_beta < x < beta)
        rest = sorted([x for j, x in enumerate(betas) if j != i] + [new_beta], reverse=True)
        new_lam = tuple(x - (len(rest) - 1 - j) for j, x in enumerate(rest))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * mn_character(new_lam, mu[1:])
    return total


# -- standard tableaux by brute force ----------------------------------------

def count_syt_brute(lam):
    """Count standard fillings by trying every permutation of 1..n."""
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    n = len(cells)
    count = 0
    for values in permutations(range(1, n + 1)):
        grid = {}
        for cell, v in zip(cells, values):
            grid[cell] = v
        ok = True
        for (r, c), v in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < v:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] < v:
                ok = False
                break
        if ok:
            count += 1
    return count


# -- word lengths and the subword order ---------------------------------------

def bfs_word_lengths(n):
    """Distance from the identity in the Cayley graph on adjacent swaps."""
    start = tuple(range(n))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(n - 1):
                q = list(p)
                q[i], q[i + 1] = q[i + 1], q[i]
                q = tuple(q)
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def _reduced_word(p):
    q = list(p)
    rev = []
    while True:
        i = next((k for k in range(len(q) - 1) if q[k] > q[k + 1]), None)
        if i is None:
            break
        q[i], q[i + 1] = q[i + 1], q[i]
        rev.append(i)
    return tuple(reversed(rev))


def subword_downset(w):
    """All products of subwords of one reduced word of w: exactly the
    Bruhat down-set, by the subword property."""
    word = _reduced_word(w)
    n = len(w)
    out = set()
    for mask in range(1 << len(word)):
        p = tuple(range(n))
        for pos, letter in enumerate(word):
            if mask >> pos & 1:
                q = list(p)
                q[letter], q[letter + 1] = q[letter + 1], q[letter]
                p = tuple(q)
        out.add(p)
    return out


# -- type B Bruhat order by reflections and down-sets ---------------------------

def typeB_length(w):
    """Type B inversion statistic: inv(w) + neg(w) + nsp(w)."""
    d = len(w)
    inv = sum(1 for i in range(d) for j in range(i + 1, d) if w[i] > w[j])
    neg = sum(1 for v in w if v < 0)
    nsp = sum(1 for i in range(d) for j in range(i + 1, d) if w[i] + w[j] < 0)
    return inv + neg + nsp


def typeB_elements(d):
    """All signed permutations of rank d, sorted."""
    return sorted(
        tuple(s * v for s, v in zip(signs, p))
        for p in permutations(range(1, d + 1))
        for signs in product((1, -1), repeat=d)
    )


def typeB_generators(d):
    """The simple generators of rank d as signed permutations, by index:
    0 is the sign flip on letter 1, k >= 1 swaps letters k and k+1."""
    gens = [(-1,) + tuple(range(2, d + 1))]
    for k in range(1, d):
        swap = list(range(1, d + 1))
        swap[k - 1], swap[k] = swap[k], swap[k - 1]
        gens.append(tuple(swap))
    return gens


@lru_cache(maxsize=None)
def typeB_reflections(d):
    """The conjugates of the simple generators."""
    return frozenset(
        _signed_mul(_signed_mul(g, s), _signed_inv(g))
        for g in typeB_elements(d)
        for s in typeB_generators(d)
    )


@lru_cache(maxsize=None)
def typeB_downset(w):
    """All u <= w: recursion over the w*t, t a reflection, one shorter."""
    out = {w}
    for t in typeB_reflections(len(w)):
        u = _signed_mul(w, t)
        if typeB_length(u) == typeB_length(w) - 1:
            out |= typeB_downset(u)
    return frozenset(out)


# -- Hasse covers by a global sort ----------------------------------------------

def sorted_hasse_covers(group):
    """Every (x, y) with y in `group.elements` and x one factor lower cover
    away from y, sorted by (x.key(), y.key())."""
    covers = []
    for y in group.elements:
        for slot, f in enumerate(y.factors):
            for u in lower_covers(f):
                factors = list(y.factors)
                factors[slot] = u
                covers.append((WreathElement(tuple(factors), y.top), y))
    covers.sort(key=lambda pair: (pair[0].key(), pair[1].key()))
    return covers


# -- the Hasse diagram as a dict for json.dumps, and as DOT text ----------------

def hasse_json_dict(group):
    """The diagram whose ``json.dumps(..., indent=2)`` text `hasse_json`
    writes directly: the words in `elements` order and the cover positions."""
    return {
        "m": group.m,
        "d": group.d,
        "nodes": [group.word(x) for x in group.elements],
        "covers": hasse_covers(group),
    }


def hasse_dot_text(group):
    """The DOT text `hasse_dot` writes, rebuilt line by line: a node per
    element of `group.elements` and an edge per pair of the globally
    sorted covers, each named by `group.word`."""
    word = group.word
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += [f'  "{word(x)}";' for x in group.elements]
    lines += [f'  "{word(x)}" -> "{word(y)}";' for x, y in sorted_hasse_covers(group)]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- cell statistics by walking the elements -------------------------------------

def cell_statistics_by_elements(group):
    """Element count, and the number of elements per factor inversion sum."""
    dist = {}
    for x in group.elements:
        dim = sum(1 for f in x.factors for a in range(len(f)) for b in range(a) if f[b] > f[a])
        dist[dim] = dist.get(dim, 0) + 1
    return len(group.elements), dict(sorted(dist.items()))


# -- orbit labels by deduplication ------------------------------------------------

def deduplicated_orbit_labels(m, d):
    """The orbit label of every profile, each once, in descending order."""
    return sorted({orbit_label(p) for p in all_profiles(m, d)}, reverse=True)


# -- breadth-first search over wreath generators ---------------------------------

def bfs_words(group):
    """Shortest word per element of a WreathGroup, breadth-first over
    `named_generators` in their order: the first word found is the
    lex-smallest shortest one."""
    words = {group.identity: "e"}
    queue = deque([group.identity])
    while queue:
        x = queue.popleft()
        for name, g in group.named_generators:
            y = x * g
            if y not in words:
                words[y] = name if x == group.identity else words[x] + " " + name
                queue.append(y)
    return words


def bfs_typeB(group):
    """The signed permutation of each element of Sigma_2 wr Sigma_d, found
    breadth-first from s1^(1) -> sign flip on letter 1, t_k -> swap k."""
    d = group.d
    gens = [group.gen_s(1, 1)] + [group.gen_t(k) for k in range(1, d)]
    pairs = list(zip(gens, typeB_generators(d)))
    images = {group.identity: tuple(range(1, d + 1))}
    queue = deque([group.identity])
    while queue:
        x = queue.popleft()
        for g, img in pairs:
            y = x * g
            if y not in images:
                images[y] = _signed_mul(images[x], img)
                queue.append(y)
    return images


# -- induced characters --------------------------------------------------------

def induced_character_value(g, group_elements, h_elements, h_char, mul, inv):
    """(1/|H|) * sum over x in G of the H-character at x^-1 g x."""
    h_set = set(h_elements)
    total = Fraction(0)
    for x in group_elements:
        conj = mul(mul(inv(x), g), x)
        if conj in h_set:
            total += h_char(conj)
    return total / len(h_elements)


# -- minimal coset representatives by search ----------------------------------------

def minimal_coset_rep_by_search(w, blocks):
    """min(w o y) over every y that keeps each consecutive block of the
    given sizes in place."""
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    return min(
        tuple(w[y[i]] for i in range(len(w)))
        for y in permutations(range(len(w)))
        if all(block_of[y[i]] == block_of[i] for i in range(len(w)))
    )


# -- wreath conjugacy classes (Macdonald, Symmetric Functions, I, App. B) -------

def brute_force_classes(group):
    """Conjugacy classes found by conjugating each class representative by
    every element; each class sorted, the classes ordered by their minimal
    element."""
    els = group.elements
    pairs = [(g, g.inverse()) for g in els]
    remaining = set(els)
    classes = []
    for x in els:
        if x not in remaining:
            continue
        cls = {g * x * g_inv for g, g_inv in pairs}
        remaining -= cls
        classes.append(tuple(sorted(cls, key=WreathElement.key)))
    classes.sort(key=lambda c: c[0].key())
    return tuple(classes)


def _cycle_type(p):
    seen, lengths = set(), []
    for i in range(len(p)):
        length, j = 0, i
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def wreath_class_label(x):
    """The sorted pairs (r, rho), one per cycle of x.top: r is the cycle's
    length and rho the cycle type of the factor that x^r has on the cycle's
    slots, i.e. of the product of the factors around the cycle."""
    powers = [x]  # powers[k] = x^(k+1)
    seen, label = set(), []
    for i in range(len(x.top)):
        if i in seen:
            continue
        cycle, j = [i], x.top[i]
        while j != i:
            cycle.append(j)
            j = x.top[j]
        seen.update(cycle)
        r = len(cycle)
        while len(powers) < r:
            powers.append(powers[-1] * x)
        label.append((r, _cycle_type(powers[r - 1].factors[i])))
    return tuple(sorted(label))


def wreath_centralizer_order(label):
    """z = prod over distinct pairs (r, rho) occurring k times of
    (r * z_rho)^k * k!, where z_rho is the centralizer order of cycle type
    rho in the symmetric group."""
    z = 1
    for pair in set(label):
        r, rho = pair
        k = label.count(pair)
        z_rho = prod(i ** rho.count(i) * factorial(rho.count(i)) for i in set(rho))
        z *= (r * z_rho) ** k * factorial(k)
    return z


# -- even-signed permutation groups ---------------------------------------------

def _signed_mul(a, b):
    out = []
    for v in b:
        img = a[abs(v) - 1]
        out.append(img if v > 0 else -img)
    return tuple(out)


def _signed_inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        if v > 0:
            out[v - 1] = i + 1
        else:
            out[-v - 1] = -(i + 1)
    return tuple(out)


def even_signed_class_count(d):
    """Number of conjugacy classes of the rank-d even-signed permutation
    group, by brute force."""
    elements = []
    for p in permutations(range(1, d + 1)):
        for signs in product((1, -1), repeat=d):
            if list(signs).count(-1) % 2 == 0:
                elements.append(tuple(s * v for s, v in zip(signs, p)))
    remaining = set(elements)
    count = 0
    while remaining:
        x = next(iter(remaining))
        cls = {_signed_mul(_signed_mul(g, x), _signed_inv(g)) for g in elements}
        remaining -= cls
        count += 1
    return count


# -- representations ------------------------------------------------------------

def naive_mat_mul(a, b):
    """The product by the textbook triple loop: every (i, j, k) term is
    multiplied, zero or not."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(sum(a[i][j] * b[j][k] for j in range(inner)) for k in range(len(b[0])))
        for i in range(len(a))
    )


def naive_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def is_homomorphism(matrix, elements, generators, mul):
    """rho(x) rho(g) == rho(x g) for every element x and generator g; as the
    generators generate the group, this makes rho a homomorphism."""
    return all(
        naive_mat_mul(matrix(x), matrix(g)) == matrix(mul(x, g))
        for x in elements
        for g in generators
    )


def rep_tensor(a, b):
    """The inner tensor product of two representations of one group, as
    the Kronecker product of their matrices: the reference for the block
    module, which is the extension tensored with the inflation."""
    if a.group != b.group:
        raise ValueError("tensor factors must live over the same subgroup")

    def fn(x):
        return BlockMonomial.one_coset(kron(a.matrix(x).dense(), b.matrix(x).dense()))

    return Representation(a.group, fn, name=f"{a.name}(x){b.name}")


def _position(tab, value):
    for r, row in enumerate(tab):
        for c, v in enumerate(row):
            if v == value:
                return r, c
    raise ValueError(f"{value} not in tableau")


def _swap_entries(tab, a, b):
    return tuple(tuple(b if v == a else a if v == b else v for v in row) for row in tab)


def seminormal_generators_by_positions(lam):
    """Young's seminormal matrices on the standard-tableau basis, from the
    positions of k and k+1 in each tableau: 1 if they share a row, -1 if
    they share a column, and otherwise 1/dist on the diagonal plus a cross
    term to the tableau with k and k+1 swapped (1 from the tableau with
    dist < 0, 1 - 1/dist^2 back)."""
    tabs = standard_tableaux(lam)
    index = {tab: i for i, tab in enumerate(tabs)}
    size = len(tabs)
    mats = []
    for k in range(1, sum(lam)):
        rows = [[0] * size for _ in range(size)]
        for j, tab in enumerate(tabs):
            r1, c1 = _position(tab, k)
            r2, c2 = _position(tab, k + 1)
            dist = (c2 - r2) - (c1 - r1)
            if r1 == r2:
                rows[j][j] = 1
            elif c1 == c2:
                rows[j][j] = -1
            else:
                rows[j][j] = Fraction(1, dist)
                cross = 1 if dist < 0 else 1 - Fraction(1, dist * dist)
                rows[index[_swap_entries(tab, k, k + 1)]][j] = cross
        mats.append(tuple(tuple(row) for row in rows))
    return tuple(mats)


@lru_cache(maxsize=None)
def _class_of(group):
    """Each element's position among the group's conjugacy classes."""
    return {x: k for k, cls in enumerate(group.conjugacy_classes) for x in cls}


def value_at(group, chi, x):
    """The value at x of the character with values ``chi`` on
    ``group.class_reps``."""
    return chi[_class_of(group)[x]]


def inner(group, chi, psi):
    """The inner product (1/|G|) sum over the classes C of
    |C| chi(C) psi(C^-1), divided as a Fraction."""
    total = sum(
        size * value * value_at(group, psi, rep.inverse())
        for rep, size, value in zip(group.class_reps, group.class_sizes, chi)
    )
    return Fraction(total) / group.order


def compositions(d):
    """Every tuple of positive block sizes summing to d."""
    if d == 0:
        return [()]
    return [(first,) + rest for first in range(1, d + 1) for rest in compositions(d - first)]


def character_table(group):
    """Rows (label, dimension, character) for every irreducible, columns
    aligned with the group's class representatives, read off the induced
    matrix modules: the traces that the Murnaghan-Nakayama rule of
    ``tables --kind chars`` must equal.  The dimension is the module's, so
    no element is looked up in its class."""
    rows = []
    for label in enumerate_IC(group.m, group.d):
        rho = clifford_irrep(group, label)
        rows.append((label, rho.dim, char_of(rho)))
    return rows


def isotypic_character_by_elements(model, psi):
    """Left character values, on the class representatives, of the
    psi-isotypic part of a fiber bimodule: the projection summed over every
    element of the right group, on dense matrices."""
    right = model.right
    psi_rep = inflate(WreathGroup(1, model.group.d), psi)
    values = []
    for g in model.group.class_reps:
        left = model.left.matrix(g).dense()
        total = sum(
            trace(psi_rep.matrix(x).dense()) * trace(naive_mat_mul(left, right.matrix(x).dense()))
            for x in right.group.elements
        )
        values.append(Fraction(total) / right.group.order)
    return tuple(values)


# -- presentations (Todd-Coxeter, HLT strategy) ------------------------------

def coset_count(n_gens, relations, bound=500_000):
    """Order of the group generated by 0..n_gens-1 subject to `relations`,
    ``(base, k)`` pairs with base^k = e, by enumerating the cosets of the
    trivial subgroup.  A generator g that the relations declare an
    involution, with the pair ``((g,), 2)``, gets one table column, which is
    its own inverse's; every other generator gets a column and a second
    one for its inverse.  Raises RuntimeError once more than `bound` cosets
    have been defined."""
    words = [base * k for base, k in relations]
    inv = list(range(n_gens))
    for g in range(n_gens):
        if ((g,), 2) not in relations:
            inv[g] = len(inv)
            inv.append(g)
    n_cols = len(inv)
    table = [[None] * n_cols]
    parent = [0]

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c, x):
        if len(table) >= bound:
            raise RuntimeError(f"more than {bound} cosets")
        table.append([None] * n_cols)
        parent.append(len(parent))
        table[c][x] = len(table) - 1
        table[-1][inv[x]] = c

    def merge(a, b, queue):
        a, b = sorted((find(a), find(b)))
        if a != b:
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        for dead in queue:  # grows while it is walked
            for x in range(n_cols):
                other = table[dead][x]
                if other is None:
                    continue
                table[other][inv[x]] = None
                e, f = find(dead), find(other)
                if table[e][x] is not None:
                    merge(f, table[e][x], queue)
                elif table[f][inv[x]] is not None:
                    merge(e, table[f][inv[x]], queue)
                else:
                    table[e][x], table[f][inv[x]] = f, e

    def scan_and_fill(c, word):
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = table[f][word[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][inv[word[j]]] is not None:
                b, j = table[b][inv[word[j]]], j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]], table[b][inv[word[i]]] = b, f
                return
            define(f, word[i])

    c = 0
    while c < len(table):
        for word in words:
            if parent[c] != c:
                break
            scan_and_fill(c, word)
        if parent[c] == c:
            for x in range(n_cols):
                if table[c][x] is None:
                    define(c, x)
        c += 1
    return sum(1 for c in range(len(table)) if parent[c] == c)


# -- wreath product -----------------------------------------------------------

def wreath_product(x, y):
    """(a, s) * (b, t) = ((a_i o b_{s^-1(i)})_i, s o t), formed afresh."""
    inv_top = perm_inverse(x.top)
    factors = tuple(perm_compose(x.factors[i], y.factors[inv_top[i]]) for i in range(len(x.top)))
    return WreathElement(factors, perm_compose(x.top, y.top))


# -- class algebra ----------------------------------------------------------------

def basis_indices(group):
    return [
        BasisIndex(w, tau) for w in group.elements for tau in all_perms(group.d)
    ]


def y_plain_sum(group, w):
    """Sum of the plain classes [Y_{w, tau}] over every component index."""
    return AlgebraVector._of({BasisIndex(w, tau): 1 for tau in all_perms(group.d)})


def class_span_rank(group):
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


def convolve_all_pairs(a, b):
    """convolve() by visiting every basis pair, chaining or not, and adding
    each product into a fresh running total."""
    total = AlgebraVector.zero()
    blockers = []
    for ia, ca in a.items():
        for ib, cb in b.items():
            res = convolve_basis(ia, ib)
            if res.defined:
                total = total + (ca * cb) * res.vector
            else:
                blockers.extend(res.blockers)
    if blockers:
        key = lambda p: (p[0].key(), p[1].key())
        return ProductResult(None, tuple(sorted(set(blockers), key=key)))
    return ProductResult(total)


def products_check_by_whole_vectors(group):
    """The `products` check of verify_relations with each side formed as one
    product of two closure-class sums: y_bar_sum(x) * y_bar_sum(y) against
    y_bar_sum(x * y), for x, y a group element and a pure-top one in either
    order."""
    sums = {w: y_bar_sum(group, w) for w in group.elements}
    tops = [w for w in group.elements if w.has_trivial_factors()]
    instances, failures = 0, []
    for w in group.elements:
        for sigma in tops:
            for x, y in ((w, sigma), (sigma, w)):
                instances += 1
                if convolve(sums[x], sums[y]).expect() != sums[x * y]:
                    failures.append(f"{group.word(x)} * {group.word(y)}")
    return Check("products", "fail" if failures else "pass", instances, "; ".join(failures[:3]))


# -- the d = 2 index set ----------------------------------------------------------

def hu_to_clifford(text, m):
    """The bijection of a printed d = 2 label, ``[nu1,nu2]`` for a distinct
    pair and ``[nu,nu]+`` or ``[nu,nu]-`` for an equal one, with the
    multipartition labels: a plus pair carries the row shape (2,), a minus
    pair the column shape (1,1), and a distinct pair puts a single slot on
    each component."""
    body = text.rstrip("+-")
    sign = text[len(body):]
    nu1, nu2 = (tuple(nu) for nu in json.loads(body))
    if sign == "+":
        return clifford_label(m, {nu1: (2,)})
    if sign == "-":
        return clifford_label(m, {nu1: (1, 1)})
    return clifford_label(m, {nu1: (1,), nu2: (1,)})
