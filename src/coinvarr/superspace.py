"""Superspace: polynomial-valued differential forms and their coinvariants.

The superspace ring has commuting variables x_1..x_n and anticommuting
t_1..t_n (t_i*t_j = -t_j*t_i, squares vanish).  As a module over
Q[x_1..x_n] it is free on the exterior monomials t_J, J an ascending tuple
of t-indices, so an element is a finite sum of p_J * t_J and is stored as
the dict J -> nonzero Polynomial p_J; all coefficient arithmetic is
Polynomial arithmetic, and _merge_sign is the one place the sign of t_a*t_b
is computed.  Everything is bigraded by (polynomial degree, anticommuting
degree).  The quotient by the ideal I of positive-degree diagonal-symmetric
elements is studied through exact per-bidegree linear algebra: spanning
rows for each ideal piece, ranks over the rationals (rank_of_elements, from
the polynomial core), and the staircase monomial family as a candidate
basis, certified in one pass over the bidegree grid.

The rows of a piece are few.  I is generated by the power sums p_k and
their total derivatives dp_k; with P the ideal of Q[x] that the p_k
generate, I_(i, j) = P_i (x) Lambda^j + sum_k dp_k * Omega_(i-k+1, j-1).
One echelon of each P_d gives its pivot rows and its standard monomials
(those holding no pivot).  Any x^a minus its reduction onto the standard
monomials lies in P, and P * Omega lies in I, so the pivot rows times each
t_J together with dp_k * x^s * t_J' for standard x^s span exactly I_(i, j).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .arrangements import staircase_monomials, subsets
from .polynomials import (
    AmbientMismatch,
    Polynomial,
    echelon_rows,
    grevlex_key,
    monomial_factors,
    rank_of_elements,
)
from .symmetric import complete, power_sum


class SuperMonomial:
    """One product x^exps * t_J with the t-indices stored ascending."""

    __slots__ = ("exps", "thetas")

    def __init__(self, exps, thetas):
        exps = tuple(exps)
        thetas = tuple(thetas)
        n = len(exps)
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        if list(thetas) != sorted(set(thetas)):
            raise ValueError("t-indices must be strictly increasing")
        if thetas and not (1 <= thetas[0] and thetas[-1] <= n):
            raise ValueError("t-index out of range")
        self.exps = exps
        self.thetas = thetas

    @property
    def n(self):
        return len(self.exps)

    def bidegree(self):
        return (sum(self.exps), len(self.thetas))

    def text(self):
        parts = monomial_factors(self.exps) + [f"t{i}" for i in self.thetas]
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        if not isinstance(other, SuperMonomial):
            return NotImplemented
        return self.exps == other.exps and self.thetas == other.thetas

    def __hash__(self):
        return hash((self.exps, self.thetas))

    def __repr__(self):
        return f"SuperMonomial({self.text()!r})"


def _merge_sign(a, b):
    """Sign and merged index tuple of t_a * t_b, both ascending; 0 on overlap."""
    if set(a) & set(b):
        return 0, ()
    inversions = sum(1 for i in a for j in b if i > j)
    return (-1) ** inversions, tuple(sorted(a + b))


class SuperElement:
    """Finite sum of p_J * t_J, stored as parts: ascending J -> nonzero p_J."""

    __slots__ = ("n", "parts")

    def __init__(self, n, parts=None):
        self.n = n
        clean = {}
        for thetas, p in (parts or {}).items():
            if not isinstance(p, Polynomial):
                raise TypeError(f"expected Polynomial part, got {type(p).__name__}")
            if p.n != n:
                raise AmbientMismatch(f"part of ambient n={p.n} in element of n={n}")
            if p:
                clean[thetas] = p
        self.parts = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, mono):
        # mono.exps is already a checked exponent tuple
        p = Polynomial._from_terms(mono.n, {mono.exps: 1})
        return cls(mono.n, {mono.thetas: p})

    @classmethod
    def from_polynomial(cls, p):
        return cls(p.n, {(): p})

    @classmethod
    def theta(cls, n, i):
        if not 1 <= i <= n:
            raise ValueError(f"t-index {i} out of range")
        return cls(n, {(i,): Polynomial.one(n)})

    @property
    def terms(self):
        """Flat read-only view {(exps, J): coefficient}, one entry per term."""
        return {(e, J): c for J, p in self.parts.items() for e, c in p.terms.items()}

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self.n == other.n and self.parts == other.parts

    def __add__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatch(f"cannot mix ambient n={self.n} with n={other.n}")
        out = dict(self.parts)
        for thetas, p in other.parts.items():
            out[thetas] = out[thetas] + p if thetas in out else p
        return SuperElement(self.n, out)

    def __neg__(self):
        return SuperElement(self.n, {J: -p for J, p in self.parts.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SuperElement(self.n, {J: p * other for J, p in self.parts.items()})
        if not isinstance(other, SuperElement):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatch(f"cannot mix ambient n={self.n} with n={other.n}")
        out = {}
        for ja, pa in self.parts.items():
            for jb, pb in other.parts.items():
                sign, merged = _merge_sign(ja, jb)
                if sign:
                    p = sign * (pa * pb)
                    out[merged] = out[merged] + p if merged in out else p
        return SuperElement(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def bidegree(self):
        degs = {(sum(e), len(J)) for J, p in self.parts.items() for e in p.terms}
        if len(degs) != 1:
            raise ValueError("element is zero or mixes bidegrees")
        return degs.pop()

    def __repr__(self):
        return f"SuperElement({self.n}, {self.parts!r})"


def euler_d(omega):
    """Total derivative: sum over i of t_i times the part-wise d/dx_i of omega."""
    n = omega.n
    out = SuperElement.zero(n)
    for i in range(1, n + 1):
        d_i = SuperElement(n, {J: p.partial(i) for J, p in omega.parts.items()})
        out = out + SuperElement.theta(n, i) * d_i
    return out


def invariant_generators(n):
    """Positive-degree diagonal invariants generating the quotient ideal.

    The power sums and their total derivatives suffice; the verification
    suite guards this choice through the total-dimension count.
    """
    gens = []
    for k in range(1, n + 1):
        p = SuperElement.from_polynomial(power_sum(k, n))
        gens.append(p)
        gens.append(euler_d(p))
    return gens


def dim_bidegree(n, i, j):
    """Dimension of the full bidegree-(i, j) piece of the tensor ring."""
    if i < 0 or j < 0 or j > n:
        return 0
    return comb(n, j) * comb(i + n - 1, n - 1)


def commutative_echelons(n, gens, top):
    """Echelon of each degree piece P_d, d <= top, of the ideal P of Q[x]
    that the t-free generators in gens generate: a list indexed by d of pairs
    (pivot rows as Polynomials, standard monomials).

    P_d is spanned by the products p * x^b of degree d; echelon_rows turns
    them into one pivot row per dimension.  The standard monomials of
    degree d are those that hold no pivot, grevlex-descending; every
    monomial of degree d is congruent modulo P_d to a combination of them.
    """
    polys = [g.parts[()] for g in gens if g.bidegree()[1] == 0]
    out = []
    for d in range(top + 1):
        products = [
            p * Polynomial._from_terms(n, {b: 1})
            for p in polys
            for b in complete(d - p.degree(), n).terms
        ]
        pivots = echelon_rows(products)
        leads = {min(row) for row in pivots}
        standard = sorted(
            (e for e in complete(d, n).terms if e not in leads), key=grevlex_key
        )
        out.append(([Polynomial._from_terms(n, row) for row in pivots], standard))
    return out


def invariant_ideal_rows(n, i, j, gens, echelons):
    """Spanning set of the bidegree-(i, j) piece I_(i, j) of the ideal
    generated by gens = invariant_generators(n), of about its dimension;
    echelons = commutative_echelons(n, gens, top) for some top >= i.

    With P the ideal of Q[x] generated by the power sums p_k,
    I_(i, j) = P_i (x) Lambda^j + sum_k dp_k * Omega_(i-k+1, j-1), where
    Omega is the whole ring.  The rows are (a) every pivot row of P_i times
    every t_J, first, and (b) dp_k * x^s * t_J' for every standard monomial
    x^s of degree i-k+1.  The span is unchanged: x^a minus its reduction
    onto the standard monomials lies in P, and P * Omega lies in the ideal,
    so the products dp_k * x^a * t_J' that (b) leaves out are combinations
    of (b) rows and rows of P_i (x) Lambda^j.  The (a) rows have distinct
    pivots (pivot monomial, J) that are each row's smallest key, so they
    enter the elimination of rank_of_elements without any reduction.
    """
    thetas = range(1, n + 1)
    rows = [
        SuperElement(n, {J: q})
        for J in itertools.combinations(thetas, j)
        for q in echelons[i][0]
    ]
    if j < 1:
        return rows
    for g in gens:
        gi, gj = g.bidegree()
        if gj != 1 or gi > i:
            continue
        standard = echelons[i - gi][1]
        for J in itertools.combinations(thetas, j - 1):
            for s in standard:
                rows.append(g * SuperElement.monomial(SuperMonomial(s, J)))
    return rows


def fubini(n):
    """Number of ordered set partitions of an n-element set."""
    vals = [1]
    for m in range(1, n + 1):
        vals.append(sum(comb(m, k) * vals[m - k] for k in range(1, m + 1)))
    return vals[n]


def _skip_sets(n):
    return sorted(
        subsets(range(1, n + 1)),
        key=lambda J: (len(J), tuple(sorted(-j for j in J))),
    )


def artin_monomials(n):
    """Staircase monomials decorated per skip set, in display order.

    Blocks are ordered by skip-set size and then colexicographically from
    the top; within a block the staircase monomials descend in lex order.
    """
    out = []
    for J in _skip_sets(n):
        thetas = tuple(sorted(J))
        for exps in staircase_monomials(J, n):
            out.append(SuperMonomial(exps, thetas))
    return out


def sr_basis_certificate(n):
    """Quotient dimensions per bidegree, and whether the decorated staircase
    monomials form a quotient basis: returns (table, ok).

    The echelons of the commutative pieces P_d are built once per n; one
    pass over the bidegree grid then builds each ideal piece once.  Its rank
    gives the table entry dim_bidegree - rank.  The candidate monomials of
    the bidegree must match that count, and stacked on the piece they must
    span the whole bidegree; with the matching count that makes them
    independent modulo the ideal.  The candidates go first, so that the
    elimination can stop once every column holds a pivot.  The grand total
    must match the ordered-set-partition count.

    The grid stops at x-degree top = C(n, 2), and the quotient vanishes
    above it: P has no standard monomial of degree top + 1, so P holds every
    monomial of x-degree above top, and P * Omega lies in the ideal.
    """
    mons = artin_monomials(n)
    buckets = {}
    for m in mons:
        buckets.setdefault(m.bidegree(), []).append(m)
    top = n * (n - 1) // 2
    gens = invariant_generators(n)
    echelons = commutative_echelons(n, gens, top + 1)
    table = {}
    ok = not echelons[top + 1][1]
    for i in range(top + 1):
        for j in range(n + 1):
            dim = dim_bidegree(n, i, j)
            rows = invariant_ideal_rows(n, i, j, gens, echelons)
            table[(i, j)] = dim - rank_of_elements(rows)
            candidates = buckets.get((i, j), [])
            if len(candidates) != table[(i, j)]:
                ok = False
            elif candidates and ok:
                monos = [SuperElement.monomial(m) for m in candidates]
                ok = rank_of_elements(monos + rows) == dim
            del rows  # release the piece before the next one is built
    return table, ok and sum(table.values()) == len(mons) == fubini(n)
