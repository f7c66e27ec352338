"""Independent oracles used to derive expected values.

Everything here is implemented from first principles, separately from the
package code paths it checks: rim-hook recursion for symmetric-group
characters, brute-force standard-tableau enumeration, Cayley-graph word
lengths, the subword criterion for the Bruhat order, the induced-character
sum, signed-permutation conjugacy for the even-signed groups, the
exhaustive homomorphism check, and Todd-Coxeter coset enumeration.
"""

from fractions import Fraction
from itertools import permutations, product


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

def _mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def is_homomorphism(matrix, elements, generators, mul):
    """rho(x) rho(g) == rho(x g) for every element x and generator g; as the
    generators generate the group, this makes rho a homomorphism."""
    return all(
        _mat_mul(matrix(x), matrix(g)) == matrix(mul(x, g))
        for x in elements
        for g in generators
    )


# -- presentations (Todd-Coxeter, HLT strategy) ------------------------------

def coset_count(n_gens, relations, bound=200_000):
    """Order of the group generated by involutions 0..n_gens-1 subject to
    `relations` (words equal to the identity), by enumerating the cosets of
    the trivial subgroup.  Each generator must square to the identity in
    the relations, so one table column per generator suffices.  Raises
    RuntimeError once more than `bound` cosets have been defined."""
    relations = [tuple(r) for r in relations]
    for g in range(n_gens):
        if (g, g) not in relations:
            raise ValueError(f"generator {g} is not declared an involution")
    table = [[None] * n_gens]
    parent = [0]

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c, g):
        if len(table) >= bound:
            raise RuntimeError(f"more than {bound} cosets")
        table.append([None] * n_gens)
        parent.append(len(parent))
        table[c][g] = len(table) - 1
        table[-1][g] = c

    def merge(a, b, queue):
        a, b = sorted((find(a), find(b)))
        if a != b:
            parent[b] = a
            queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        for dead in queue:  # grows while it is walked
            for g in range(n_gens):
                other = table[dead][g]
                if other is None:
                    continue
                table[other][g] = None
                e, f = find(dead), find(other)
                if table[e][g] is not None:
                    merge(f, table[e][g], queue)
                elif table[f][g] is not None:
                    merge(e, table[f][g], queue)
                else:
                    table[e][g], table[f][g] = f, e

    def scan_and_fill(c, word):
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = table[f][word[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j]] is not None:
                b, j = table[b][word[j]], j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]], table[b][word[i]] = b, f
                return
            define(f, word[i])

    c = 0
    while c < len(table):
        for word in relations:
            if parent[c] != c:
                break
            scan_and_fill(c, word)
        if parent[c] == c:
            for g in range(n_gens):
                if table[c][g] is None:
                    define(c, g)
        c += 1
    return sum(1 for c in range(len(table)) if parent[c] == c)
