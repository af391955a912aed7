"""Superspace: polynomial-valued differential forms and their coinvariants.

The superspace ring has commuting variables x_1..x_n and anticommuting
t_1..t_n (t_i*t_j = -t_j*t_i, squares vanish).  As a module over
Q[x_1..x_n] it is free on the exterior monomials t_J, J an ascending tuple
of t-indices, so an element is a finite sum of p_J * t_J and is stored as
the dict J -> nonzero Polynomial p_J; all coefficient arithmetic is
Polynomial arithmetic, and _merge_sign is the one place the sign of t_a*t_b
is computed.  Everything is bigraded by (polynomial degree, anticommuting
degree).  SuperElement and euler_d define the generators d(p_k); the
quotient by the ideal I of positive-degree diagonal-symmetric elements is
then studied through exact per-bidegree linear algebra on term-dict rows
{(exps, J): coefficient}: spanning rows for each ideal piece, one
fraction-free elimination of each piece over the rationals (echelon_rows,
from the polynomial core), and the staircase monomial family as a candidate
basis, certified in one pass over the bidegree grid.

The linear algebra runs modulo P, the ideal of Q[x] that the power sums
p_k generate.  P's reduced grevlex Groebner basis is h_k(x_k, ..., x_n),
k = 1..n (coinvariant_basis certifies it), so its standard monomials are
the staircase monomials x^a with a_k < k, of degree at most C(n, 2).  I is
generated by the p_k and their total derivatives dp_k, and P * Omega lies
in I, so the quotient in bidegree (i, j) is (Q[x]/P)_i (x) Lambda^j modulo
the normal forms of dp_k * x^s * t_J' for standard x^s: any x^a minus its
normal form lies in P.  Those rows are written directly from their parts:
reduced_parts reduces each part k * x_m^(k-1) * x^s of dp_k * x^s once per
x-degree i, and invariant_ideal_rows signs it into the row of every t-set
J' that misses m, for every j, so no row is formed as a product.  A
candidate x^a * t_J is no row but a column, ordered last, and the
candidates form a basis when they are exactly the free columns.
"""

from __future__ import annotations

import itertools
from math import comb

from .arrangements import staircase_monomials, subsets
from .groebner import normal_form
from .polynomials import (
    AmbientMismatch,
    Polynomial,
    echelon_rows,
    monomial_factors,
    rank_of_elements,
)
from .symmetric import complete, power_sum


def _thetas(thetas, n):
    """thetas as a tuple, checked strictly increasing within 1..n."""
    thetas = tuple(thetas)
    if any(a >= b for a, b in zip(thetas, thetas[1:])):
        raise ValueError("t-indices must be strictly increasing")
    if thetas and not (1 <= thetas[0] and thetas[-1] <= n):
        raise ValueError("t-index out of range")
    return thetas


class SuperMonomial:
    """One product x^exps * t_J with the t-indices stored ascending."""

    __slots__ = ("exps", "thetas")

    def __init__(self, exps, thetas):
        exps = tuple(exps)
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        self.exps = exps
        self.thetas = _thetas(thetas, len(exps))

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
    """Finite sum of p_J * t_J, stored as parts: ascending J -> nonzero p_J.

    Each key J must be strictly increasing within 1..n, so that it names one
    exterior monomial and _merge_sign reads its sign correctly.
    """

    __slots__ = ("n", "parts")

    def __init__(self, n, parts=None):
        self.n = n
        clean = {}
        for thetas, p in (parts or {}).items():
            thetas = _thetas(thetas, n)
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
    def from_polynomial(cls, p):
        return cls(p.n, {(): p})

    @classmethod
    def theta(cls, n, i):
        return cls(n, {(i,): Polynomial.one(n)})

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

    def __mul__(self, other):
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


def coinvariant_basis(n):
    """The reduced grevlex Groebner basis of P = <p_1, ..., p_n> in closed
    form, and its certificate: returns (basis, ok).

    The basis is g_k = h_k(x_k, ..., x_n), k = 1..n.  ok certifies three
    things.  The lead of g_k is x_k^k, so the leads are pairwise coprime and
    the g_k are a Groebner basis of the ideal they generate (Buchberger's
    first criterion); its standard monomials are then the x^a with a_k < k,
    staircase_monomials((), n).  Each p_k has normal form 0, so P lies in
    that ideal.  Each g_k lies in the span of the degree-k products
    p_m * x^b, so the ideal lies in P.
    """
    basis = [complete(k, n, range(k, n + 1)) for k in range(1, n + 1)]
    powers = [power_sum(k, n) for k in range(1, n + 1)]
    ok = all(
        g.leading()[0] == tuple(k if m == k else 0 for m in range(1, n + 1))
        for k, g in enumerate(basis, 1)
    )
    ok = ok and not any(normal_form(p, basis) for p in powers)
    for k, g in enumerate(basis, 1):
        products = [
            p * Polynomial._from_terms(n, {b: 1})
            for m, p in enumerate(powers[:k], 1)
            for b in complete(k - m, n).terms
        ]
        ok = ok and rank_of_elements(products) == rank_of_elements(products + [g])
    return basis, ok


def reduced_parts(n, i, gens, standard, basis):
    """The parts of the products dp_k * x^s of x-degree i, each reduced once
    modulo basis, for invariant_ideal_rows; gens = invariant_generators(n),
    basis is coinvariant_basis(n)'s, and standard[d] lists its standard
    monomials of degree d.

    dp_k has one part k * x_m^(k-1) * t_m per m, so dp_k * x^s has the part
    k * x_m^(k-1) * x^s * t_m.  Returns one list per dp_k with k-1 <= i,
    holding one list per standard x^s of degree i-k+1 (in standard's order)
    of the pairs ((m,), terms), where terms is the term dict of the normal
    form of k * x_m^(k-1) * x^s; when that monomial is standard it is
    {exps: k} as it stands, and only the others are reduced.
    """
    reduced = []
    for g in gens:
        gi, gj = g.bidegree()
        if gj != 1 or gi > i:
            continue
        reduced.append(
            [
                [(tm, _shifted_normal_form(p, s, basis)) for tm, p in g.parts.items()]
                for s in standard[i - gi]
            ]
        )
    return reduced


def _shifted_normal_form(p, s, basis):
    """Term dict of the normal form of p * x^s modulo basis (P's, from
    coinvariant_basis).  A product whose monomials are all standard is its
    own normal form, so it skips the reduction."""
    terms = {tuple(a + b for a, b in zip(e, s)): c for e, c in p.terms.items()}
    if all(_is_standard(e) for e in terms):
        return terms
    return normal_form(Polynomial._from_terms(p.n, terms), basis).terms


def _is_standard(exps):
    """True iff x^exps is a standard monomial of P: a_k < k for every k."""
    return all(a < k for k, a in enumerate(exps, 1))


def invariant_ideal_rows(n, j, reduced):
    """Spanning rows of the image of the bidegree-(i, j) piece I_(i, j) of
    the ideal generated by invariant_generators(n) in
    (Q[x]/P)_i (x) Lambda^j, as term dicts {(exps, J): coefficient}; reduced
    is reduced_parts(n, i, ...).

    The rows are dp_k * x^s * t_J' for every standard x^s of degree i-k+1,
    each with every t-part replaced by its normal form modulo P.  They span
    the image: P * Omega lies in the ideal, where Omega is the whole ring,
    so the p_k (x) Lambda^j rows vanish modulo P, and x^a minus its normal
    form lies in P, so dp_k * x^a * t_J' is congruent to a combination of
    the rows.

    Each row is written directly, without forming the product: its part m
    is the part m of dp_k * x^s times t_J', signed by _merge_sign((m,), J')
    and absent when m lies in J', and the normal form is linear.  So every
    part is reduced once, by reduced_parts, and shared by all the t-sets J'
    of every j, and each of the n signs per J' is computed once per call.
    The rows come ordered by generator, then J', then x^s.
    """
    rows = []
    if j < 1:
        return rows
    signs = {
        J: {(m,): _merge_sign((m,), J) for m in range(1, n + 1)}
        for J in itertools.combinations(range(1, n + 1), j - 1)
    }
    for by_s in reduced:
        for J, sign_of in signs.items():
            for parts in by_s:
                row = {}
                for tm, terms in parts:
                    sign, merged = sign_of[tm]
                    if sign:
                        for e, c in terms.items():
                            row[e, merged] = c if sign > 0 else -c
                rows.append(row)
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

    The work runs in (Q[x]/P) (x) Lambda: the columns of bidegree (i, j) are
    x^s * t_J for the standard monomials x^s of coinvariant_basis(n) of
    degree i, and ok needs that basis certified.  One pass over the bidegree
    grid reduces the parts of each x-degree once, and builds and eliminates
    each ideal piece once, in a column order that puts the bidegree's
    candidates C, the keys (exps, J) of its decorated monomials, last.  The
    table entry is the column count minus the pivot count.  C is a basis of
    the columns modulo the piece exactly when C is the set of free columns:
    the pivots outside C then fill every other column, so the piece and C
    span everything, and no pivot lies in C, so the piece meets the span of
    C in zero.  A candidate whose x^a is not standard is no column, so it
    fails the equality.  The grand total must match the ordered-set-partition
    count.

    The grid stops at x-degree C(n, 2), the top standard degree; the
    quotient vanishes above it, because Q[x]/P does.
    """
    mons = artin_monomials(n)
    buckets = {}
    for m in mons:
        buckets.setdefault(m.bidegree(), set()).add((m.exps, m.thetas))
    top = n * (n - 1) // 2
    basis, ok = coinvariant_basis(n)
    standard = [[] for _ in range(top + 1)]
    for s in staircase_monomials((), n):
        standard[sum(s)].append(s)
    gens = invariant_generators(n)
    table = {}
    for i in range(top + 1):
        reduced = reduced_parts(n, i, gens, standard, basis)
        for j in range(n + 1):
            ts = itertools.combinations(range(1, n + 1), j)
            columns = set(itertools.product(standard[i], ts))
            candidates = buckets.get((i, j), set())
            pivots = echelon_rows(
                invariant_ideal_rows(n, j, reduced), key=lambda c: (c in candidates, c)
            )
            table[(i, j)] = len(columns) - len(pivots)
            ok = ok and columns - pivots.keys() == candidates
            del pivots  # release the piece before the next one is built
    return table, ok and sum(table.values()) == len(mons) == fubini(n)
