"""Subarrangements of the augmented braid arrangement, combinatorially.

The ambient arrangement in Q^n consists of the coordinate hyperplanes
x_j = 0 and the difference hyperplanes x_i = x_j.  A hyperplane is stored as
a pair (i, j) with 0 <= i < j <= n: (0, j) is the coordinate hyperplane
x_j = 0 and (i, j) with i >= 1 is x_i - x_j = 0.  Equivalently the pairs are
the edges of a graph on vertices {0, 1, ..., n} where vertex 0 plays the
role of a frozen zero coordinate; that graph view drives essentiality,
chordality, and the intersection lattice.

Geometry used by several names here: the forms sit in a triangular dot grid
(render it with diagram()).  Column j collects the forms (i, j); row i
collects (i, j) for j > i.  An arrangement is "southwest closed" when with
every dot it contains the next dot one step toward the lower left, i.e.
(i, j) in A with j > i + 1 forces (i, j - 1) in A; concretely every row is a
prefix interval.

Point counts over Z/p check characteristic polynomials by the finite-field
method (Athanasiadis 1996); point_count takes one exact route for every p,
inclusion-exclusion over hyperplane subsets.
"""

from __future__ import annotations

import itertools
import math

from .polynomials import Polynomial, box_monomials, suite_cache


class Arrangement:
    """Immutable subarrangement of the ambient coordinate+difference family."""

    __slots__ = ("n", "pairs", "_hash")

    def __init__(self, n, pairs):
        if n < 0:
            raise ValueError(f"arrangement needs n >= 0, got n={n}")
        self.n = n
        clean = set()
        for i, j in pairs:
            if not (0 <= i < j <= n):
                raise ValueError(f"bad hyperplane pair ({i}, {j}) for n={n}")
            clean.add((i, j))
        self.pairs = frozenset(clean)
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, Arrangement)
            and self.n == other.n
            and self.pairs == other.pairs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.pairs))
        return self._hash

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair):
        return tuple(pair) in self.pairs

    def sorted_pairs(self):
        return sorted(self.pairs)

    def __repr__(self):
        return f"Arrangement({format_arrangement(self)!r})"


def full_arrangement(n):
    """All coordinate and difference hyperplanes: n(n+1)/2 pairs."""
    return Arrangement(n, itertools.combinations(range(n + 1), 2))


def braid_arrangement(n):
    """Difference hyperplanes only."""
    return Arrangement(n, itertools.combinations(range(1, n + 1), 2))


def skip_arrangement(skips, n):
    """Keep, for every index j off the skip set, the coordinate form x_j and
    all differences x_j - x_i with i > j."""
    skips = _skipset(skips, n)
    pairs = []
    for j in range(1, n + 1):
        if j in skips:
            continue
        pairs.append((0, j))
        for i in range(j + 1, n + 1):
            pairs.append((j, i))
    return Arrangement(n, pairs)


def subsets(items):
    """Every subset of items as a frozenset, by size, then in combination order."""
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def _skipset(skips, n):
    skips = frozenset(skips)
    for j in skips:
        if not 1 <= j <= n:
            raise ValueError(f"skip index {j} out of range 1..{n}")
    return skips


# -- staircase data ----------------------------------------------------------


def staircase(skips, n):
    """Step sequence: starts at 1, rises by 1 at each index off the skip set,
    stays flat on it; starting at 0 instead when 1 is skipped."""
    skips = _skipset(skips, n)
    out = []
    level = 0
    for i in range(1, n + 1):
        if i not in skips:
            level += 1
        out.append(level)
    return tuple(out)


def staircase_monomials(skips, n):
    """Exponent tuples strictly below the staircase, lex-descending.

    Empty when 1 is skipped (the first bound is then zero).
    """
    return box_monomials(staircase(skips, n))


# -- linear forms ------------------------------------------------------------


@suite_cache
def linear_form(pair, n):
    """x_j for (0, j); x_i - x_j for (i, j) with i >= 1."""
    i, j = pair
    if not 0 <= i < j <= n:
        raise ValueError(f"bad hyperplane pair {pair} for n={n}")
    if i == 0:
        return Polynomial.variable(n, j)
    return Polynomial.variable(n, i) - Polynomial.variable(n, j)


def linear_forms(A):
    return [linear_form(p, A.n) for p in A.sorted_pairs()]


def forms_product(pairs, n):
    """Product of linear_form(p, n) over the sorted pairs; 1 for none."""
    return math.prod(
        (linear_form(p, n) for p in sorted(pairs)), start=Polynomial.one(n)
    )


def skip_forms_product(skips, n):
    """Product of the ambient forms missing from skip_arrangement(skips, n):
    prod over skipped j of x_j * prod_{i>j} (x_j - x_i)."""
    return forms_product(
        full_arrangement(n).pairs - skip_arrangement(skips, n).pairs, n
    )


# -- southwest structure -----------------------------------------------------


def is_southwest(A):
    """Closed under the move (i, j) -> (i, j-1): every row a prefix interval."""
    for i, j in A.pairs:
        if j > i + 1 and (i, j - 1) not in A.pairs:
            return False
    return True


def column_counts(A):
    """h_j = number of forms in grid column j, for j = 1..n."""
    counts = [0] * A.n
    for _, j in A.pairs:
        counts[j - 1] += 1
    return tuple(counts)


def enumerate_southwest(n, essential_only=False):
    """All southwest-closed subarrangements, (n+1)! many, fixed order.

    Closure forces every row of the root poset to be a prefix interval, so
    the arrangements are indexed by the row endpoints.  essential_only keeps
    just those whose column counts are all positive.  Any n works; n = 6,
    the suites' cap, gives 5040 arrangements, 3447 of them essential.
    """
    out = []
    for ends in itertools.product(*[range(i, n + 1) for i in range(n)]):
        pairs = []
        for i, m in enumerate(ends):
            for j in range(i + 1, m + 1):
                pairs.append((i, j))
        A = Arrangement(n, pairs)
        if essential_only and not is_essential(A):
            continue
        out.append(A)
    return out


def delete(A, pair):
    pair = tuple(pair)
    if pair not in A.pairs:
        raise ValueError(f"{pair} not in the arrangement")
    return Arrangement(A.n, A.pairs - {pair})


def max_coordinate(A):
    """Largest p with the coordinate form x_p present, or None."""
    coords = [j for i, j in A.pairs if i == 0]
    return max(coords) if coords else None


def restrict_coordinate(A, p):
    """Restrict to x_p = 0 and reindex the surviving coordinates to n-1.

    Each surviving form is specialized at x_p = 0: differences x_i - x_p and
    x_p - x_j collapse to coordinate forms, duplicates merge.  Requires the
    coordinate form x_p itself to be present (restriction happens onto it).
    """
    if (0, p) not in A.pairs:
        raise ValueError(f"coordinate form x{p} not in the arrangement")
    out = set()
    for i, j in A.pairs:
        if (i, j) == (0, p):
            continue
        if j == p:
            a, b = 0, i
        elif i == p:
            a, b = 0, j
        else:
            a, b = i, j
        a = a if a < p else a - 1
        b = b if b < p else b - 1
        out.add((min(a, b), max(a, b)))
    return Arrangement(A.n - 1, out)


# -- graph predicates --------------------------------------------------------


def _adjacency(A):
    adj = {v: set() for v in range(A.n + 1)}
    for i, j in A.pairs:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def is_essential(A):
    """True iff the graph on {0..n} is connected (full-rank arrangement)."""
    return _block_connected(range(A.n + 1), _adjacency(A))


def is_chordal(A):
    """Greedy perfect-elimination search on the graph on {0..n}.

    A graph is chordal iff simplicial vertices can be eliminated one at a
    time; the greedy order is safe because removing a simplicial vertex
    preserves chordality.
    """
    adj = _adjacency(A)
    alive = set(adj)
    while alive:
        for v in sorted(alive):
            nb = sorted(adj[v] & alive)
            if all(
                b in adj[a] for a, b in itertools.combinations(nb, 2)
            ):
                alive.remove(v)
                break
        else:
            return False
    return True


# -- intersection lattice ----------------------------------------------------


def _set_partitions(items):
    items = list(items)

    def rec(i, blocks):
        if i == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def intersection_flats(A):
    """Flats as partitions of {0..n} whose blocks are connected in A's graph.

    Canonical form: tuple of blocks, each an ascending tuple, sorted by
    smallest element.  Guarded at n <= 7 (Bell-number growth).
    """
    if A.n > 7:
        raise ValueError("lattice enumeration is guarded at n <= 7")
    adj = _adjacency(A)
    flats = []
    for part in _set_partitions(range(A.n + 1)):
        if all(_block_connected(b, adj) for b in part):
            flats.append(tuple(sorted((tuple(sorted(b)) for b in part))))
    return flats


def _block_connected(block, adj):
    block = set(block)
    if len(block) <= 1:
        return True
    start = next(iter(block))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in block and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == block


def characteristic_polynomial(A):
    """Coefficient tuple (c_0, ..., c_n) of the characteristic polynomial.

    Moebius sum over the intersection lattice ordered by refinement; a flat
    with b blocks contributes to the t^(b-1) coefficient (the block holding
    vertex 0 is pinned to zero).
    """
    flats = intersection_flats(A)
    flats.sort(key=len, reverse=True)  # rank-ascending: many blocks first
    mu = {}
    for idx, X in enumerate(flats):
        owner = {v: k for k, b in enumerate(X) for v in b}
        total = 0
        for Y in flats[:idx]:
            # Y lies below X when each block of Y sits inside one block of X
            if len(Y) > len(X) and all(len({owner[v] for v in b}) == 1 for b in Y):
                total += mu[Y]
        mu[X] = 1 if idx == 0 else -total
    coeffs = [0] * (A.n + 1)
    for X, m in mu.items():
        coeffs[len(X) - 1] += m
    return tuple(coeffs)


def char_poly_eval(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


def roots_poly(roots):
    """Coefficient tuple of prod (t - r) over the given integer roots."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return tuple(coeffs)


# -- finite-field point count ------------------------------------------------


def smallest_prime_above(m):
    c = max(2, m + 1)
    while True:
        if all(c % d for d in range(2, math.isqrt(c) + 1)):
            return c
        c += 1


def point_count(A, p):
    """Number of points of (Z/p)^n lying on none of the hyperplanes.

    Inclusion-exclusion over hyperplane subsets: a subset S cuts out a
    subspace of dimension n - rank(S), read off a union-find on the graph
    on {0..n}, so it contributes (-1)^|S| p^(n - rank(S)).  The work is
    2^|A| subsets whatever p is.
    """
    edges = A.sorted_pairs()
    nv = A.n + 1
    total = 0

    def find(parent, v):
        while parent[v] != v:
            v = parent[v]
        return v

    def rec(idx, parent, merges, sign):
        nonlocal total
        if idx == len(edges):
            total += sign * p ** (nv - merges - 1)
            return
        rec(idx + 1, parent, merges, sign)
        a = find(parent, edges[idx][0])
        b = find(parent, edges[idx][1])
        if a == b:
            rec(idx + 1, parent, merges, -sign)
        else:
            child = dict(parent)
            child[a] = b
            rec(idx + 1, child, merges + 1, -sign)

    rec(0, {v: v for v in range(nv)}, 0, 1)
    return total


# -- text format ------------------------------------------------------------------


def format_arrangement(A):
    body = ",".join(f"{i}-{j}" for i, j in A.sorted_pairs())
    return f"n={A.n};H:{body}"


def parse_arrangement(s):
    s = s.replace(" ", "")
    head, sep, body = s.partition(";")
    if not head.startswith("n=") or sep != ";" or not body.startswith("H:"):
        raise ValueError(f"bad arrangement syntax {s!r}")
    n = int(head[2:])
    pairs = []
    rest = body[2:]
    if rest:
        for chunk in rest.split(","):
            i, _, j = chunk.partition("-")
            pairs.append((int(i), int(j)))
    return Arrangement(n, pairs)


def diagram(A):
    """ASCII dot grid: filled dots are members, open dots the other ambient
    forms.  Form (i, j) sits at height j-i-1, horizontal slot i+j-1."""
    n = A.n
    lines = []
    for h in range(n - 1, -1, -1):
        row = []
        for slot in range(2 * n - 1):
            if (slot - h) % 2:
                row.append(" ")
                continue
            i = (slot - h) // 2
            j = (slot + h) // 2 + 1
            if 0 <= i < j <= n:
                row.append("●" if (i, j) in A.pairs else "○")
            else:
                row.append(" ")
        lines.append(" ".join(row).rstrip())
    legend = ", ".join(
        ("x%d" % j if i == 0 else "x%d-x%d" % (i, j)) for i, j in A.sorted_pairs()
    )
    lines.append("members: " + (legend if legend else "(none)"))
    return "\n".join(lines)
