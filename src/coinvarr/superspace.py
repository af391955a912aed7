"""Superspace: polynomial-valued differential forms and their coinvariants.

The superspace ring has commuting variables x_1..x_n and anticommuting
t_1..t_n (t_i*t_j = -t_j*t_i, squares vanish).  As a module over
Q[x_1..x_n] it is free on the exterior monomials t_J, J an ascending tuple
of t-indices, so an element is a finite sum of p_J * t_J and is stored as
the dict J -> nonzero Polynomial p_J; all coefficient arithmetic is
Polynomial arithmetic, and _merge_sign is the one place the sign of t_a*t_b
is computed.  Everything is bigraded by (polynomial degree, anticommuting
degree).  The quotient by the ideal of positive-degree diagonal-symmetric
elements is studied through exact per-bidegree linear algebra: spanning
rows for the ideal piece, ranks over the rationals (rank_of_elements, from
the polynomial core), and the staircase monomial family as a candidate
basis, certified in one pass over the bidegree grid.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .arrangements import staircase_monomials, subsets
from .polynomials import (
    AmbientMismatch,
    Polynomial,
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
    def one(cls, n):
        return cls.from_polynomial(Polynomial.one(n))

    @classmethod
    def monomial(cls, mono, coeff=1):
        if coeff == 1:  # mono.exps is already a checked exponent tuple
            p = Polynomial._from_terms(mono.n, {mono.exps: 1})
        else:
            p = Polynomial.monomial(mono.n, mono.exps, coeff)
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


def super_monomials(n, i, j):
    """All monomials of bidegree (i, j), deterministic order."""
    if i < 0 or j < 0 or j > n:
        return []
    exps_list = sorted(complete(i, n).terms, key=grevlex_key)
    out = []
    for thetas in itertools.combinations(range(1, n + 1), j):
        for exps in exps_list:
            out.append(SuperMonomial(exps, thetas))
    return out


def dim_bidegree(n, i, j):
    """Dimension of the full bidegree-(i, j) piece of the tensor ring."""
    if i < 0 or j < 0 or j > n:
        return 0
    return comb(n, j) * comb(i + n - 1, n - 1)


def invariant_ideal_rows(n, i, j, gens):
    """Spanning set of the bidegree-(i, j) piece of the ideal generated by
    gens, which are invariant_generators(n).

    Every ideal element of this bidegree is a combination of generator
    times monomial products, so those products span the piece.
    """
    rows = []
    for g in gens:
        gi, gj = g.bidegree()
        for m in super_monomials(n, i - gi, j - gj):
            rows.append(g * SuperElement.monomial(m))
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

    One pass over the bidegree grid builds each ideal piece once.  Its rank
    gives the table entry dim_bidegree - rank.  The candidate monomials of
    the bidegree must match that count, and stacked on the piece they must
    span the whole bidegree; with the matching count that makes them
    independent modulo the ideal.  The candidates go first, so that the
    elimination can stop once every column holds a pivot.  The grand total
    must match the ordered-set-partition count.
    """
    mons = artin_monomials(n)
    buckets = {}
    for m in mons:
        buckets.setdefault(m.bidegree(), []).append(m)
    gens = invariant_generators(n)
    table = {}
    ok = True
    for i in range(n * (n - 1) // 2 + 1):
        for j in range(n + 1):
            dim = dim_bidegree(n, i, j)
            rows = invariant_ideal_rows(n, i, j, gens)
            table[(i, j)] = dim - rank_of_elements(rows)
            candidates = buckets.get((i, j), [])
            if len(candidates) != table[(i, j)]:
                ok = False
            elif candidates and ok:
                monos = [SuperElement.monomial(m) for m in candidates]
                ok = rank_of_elements(monos + rows) == dim
            del rows  # release the piece before the next one is built
    return table, ok and sum(table.values()) == len(mons) == fubini(n)
