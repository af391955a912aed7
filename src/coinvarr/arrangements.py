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
method (Athanasiadis 1996).  The two sides take separate exact routes over
the vertex subsets of the graph: characteristic_polynomial sums Moebius
values over partitions into connected blocks, point_count counts proper
colourings through partitions into independent sets.
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


def _neighbours(A):
    """Neighbour bitmask of each vertex of the graph on {0..n}."""
    adj = [0] * (A.n + 1)
    for i, j in A.pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _connected(S, adj):
    """True iff the vertex bitmask S induces a connected subgraph."""
    reach = frontier = S & -S
    while frontier:
        v = frontier & -frontier
        frontier ^= v
        grow = adj[v.bit_length() - 1] & S & ~reach
        reach |= grow
        frontier |= grow
    return reach == S


def is_essential(A):
    """True iff the graph on {0..n} is connected (full-rank arrangement)."""
    return _connected((1 << (A.n + 1)) - 1, _neighbours(A))


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
#
# Both lattice routes below run over the vertex subsets S of the graph on
# {0..n}, as bitmasks, in increasing order.  A set partition of S is its
# block B holding S's lowest vertex plus a partition of S - B, which is a
# smaller mask, so one pass over those B per S covers every partition:
# 3^(n+1) steps in all, the cost of the size guard.


def _lattice_graph(A):
    if A.n > 10:
        raise ValueError("subset recursion (3^(n+1) steps) is guarded at n <= 10")
    return _neighbours(A)


def _low_subsets(S):
    """Every subset of the bitmask S that holds S's lowest bit, S first."""
    low = S & -S
    rest = S ^ low
    sub = rest
    while True:
        yield sub | low
        if not sub:
            return
        sub = (sub - 1) & rest


def _peel(S, weight, table):
    """Coefficients in t of the sum of weight[B] * t * table[S - B] over the
    blocks B of S that hold its lowest vertex; table[0] is [1]."""
    out = [0] * (S.bit_count() + 1)
    for B in _low_subsets(S):
        w = weight[B]
        if w:
            for k, c in enumerate(table[S ^ B], 1):
                out[k] += w * c
    return out


def characteristic_polynomial(A):
    """Coefficient tuple (c_0, ..., c_n) of the characteristic polynomial.

    The flats are the partitions of {0..n} into blocks connected in A's
    graph, and a flat X with b blocks adds mu(0, X) to the t^(b-1)
    coefficient (the block holding vertex 0 is pinned to zero).  The
    interval [0, X] is the product of the bond lattices of X's blocks, so
    mu(0, X) is the product of mu_B over them: 1 for a singleton, 0 for a
    disconnected B, and otherwise minus the sum of mu_B' * F(B - B')(1) over
    the proper B' holding B's lowest vertex, since the Moebius sum over the
    bond lattice of B vanishes.  Here F(S)(t) sums mu(0, X) t^b over the
    partitions X of S, so it is the sum of mu_B * t * F(S - B) over the
    blocks B holding S's lowest vertex, and the answer is F({0..n}) / t.
    """
    adj = _lattice_graph(A)
    size = 1 << (A.n + 1)
    mu = [0] * size
    F = [[1]] + [None] * (size - 1)
    for S in range(1, size):
        if not S & (S - 1):
            mu[S] = 1
        elif _connected(S, adj):
            mu[S] = -sum(mu[B] * sum(F[S ^ B]) for B in _low_subsets(S) if B != S)
        F[S] = _peel(S, mu, F)
    return tuple(F[-1][1:])


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

    With x_0 = 0 such a point is a proper colouring of A's graph on {0..n}
    by the p residues in which vertex 0 gets colour 0, so the count is the
    chromatic polynomial at p divided by p: the sum of a_k (p)_k / p, where
    a_k counts the partitions of {0..n} into k independent sets and (p)_k is
    the falling factorial.  The a_k come from characteristic_polynomial's
    recursion with independent blocks in place of connected ones, so the
    two routes share no lattice data.  The work is 3^(n+1) subset steps
    whatever p is.
    """
    adj = _lattice_graph(A)
    size = 1 << (A.n + 1)
    independent = [1] + [0] * (size - 1)
    parts = [[1]] + [None] * (size - 1)
    for S in range(1, size):
        low = S & -S
        if independent[S ^ low] and not adj[low.bit_length() - 1] & S:
            independent[S] = 1
        parts[S] = _peel(S, independent, parts)
    total = sum(a * math.perm(p, k) for k, a in enumerate(parts[-1]))
    count, rest = divmod(total, p)
    if rest:
        raise ArithmeticError("colouring count is not a multiple of p")
    return count


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
