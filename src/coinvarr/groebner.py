"""Groebner bases over Q: plain Buchberger with the sugar strategy.

The engine is deliberately unfancy.  One sugar-ordered queue holds the
generators, each at its degree, and the S-pairs.  A generator that comes
up is reduced against the rows held so far and stored only if it does not
reduce to zero.  A pair whose leads share no variable is settled when its
second row is stored and never queued, and a queued pair is skipped when
the chain criterion applies (both criteria as in Gebauer and Moeller, J.
Symbolic Comput. 1988); the settled pairs are one bitmask per row.  That
is fast enough for every ideal this library touches (n <= 6, small
degrees).  Most remaining S-pair reductions still go to zero, 2202 of 3363
in the n = 5 southwest sweep; a signature criterion could skip those, at a
cost in auditability.

Ideals, normal forms and leading terms all use grevlex.  Only
groebner_basis takes a monomial order, as a tuple of block sizes: blocks
compare first-block first, with grevlex inside each block, so (n,) is
grevlex, (1, n) is the order colon uses to eliminate a fresh first
variable, and (1,) * n is lex.  Reduced bases are canonical (monic,
auto-reduced, sorted by leading monomial, the smallest first).  Ideal
equality is containment both ways, read from the generators first: a
generator that is a scalar multiple of one on the other side is in that
ideal outright, so a side whose generators all are needs no basis; when
both sides need one, the reduced bases are compared.

Inside the kernel each monomial is one packed int (Monagan and Pearce,
CASC 2007) whose integer order is the monomial order; see _Packing.  A
product of monomials is a sum of ints, "lead divides term" is one guarded
subtraction and one AND, and a remainder's terms sit in a heap of negated
ints, so the largest live term pops next and each term is ordered once,
when it appears.  Terms go back to exponent tuples only in the returned
Polynomials.  normal_form keeps the packed rows of the last basis it saw,
since callers query one basis many times in a row, and
Ideal.monomial_remainders reduces a whole list of monomials against the
same rows, handing back the packed int remainders for a rank.

An Ideal reads its quotient in one walk, standard_monomials (None when the
quotient is infinite-dimensional); dimension and Hilbert series count it.

Reduction runs over the integers (pseudo-reduction with content removal;
Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992).  Every
basis row is a primitive int term dict with a positive lead coefficient lc:
denominators cleared and content divided out, once, when the row is made.
To cancel a remainder term c*x^o with a row, the remainder is multiplied by
lc/gcd(c, lc) rather than the row divided by lc, so no Fraction arises in
the loop.  Only the reduced basis, made monic once at the end, and a normal
form, divided by the accumulated scale, go back to Fractions.  Reducers
read a row's term dict in place and write only to the remainder they own.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .polynomials import (
    AmbientMismatch,
    Polynomial,
    box_monomials,
    coeff_div,
    exact_divide,
    suite_cache,
)

# -- packed monomials ---------------------------------------------------------


class _Packing:
    """Monomials of a block-grevlex order packed one int each.

    A block of m variables packs to deg << (m*b) - P, where P holds the
    block's exponents in b-bit fields, its last variable most significant,
    and deg is the block's degree; blocks stack first-block-most-significant,
    each with D = b + n.bit_length() bits of degree.  So the integer order
    is the monomial order, and packing is linear: it is the dot product
    with weights, and the pack of a product is the sum of the packs.

    raw(O) = (bias - O) & pmask is the exponent fields of every block in
    place (bias fills each degree field with ones, so no borrow crosses a
    block).  L divides E iff ((raw(E) | guard) - raw(L)) & guard == guard,
    where guard holds the top bit of every field; no borrow crosses a field
    while every field is below 2**(b-1).  Inputs are packed with b chosen
    from their degrees so that they fit, sums of two fitting monomials are
    exact, and _nf_dict rejects a monomial with a field at or above the limit
    when it is popped, before it can reduce, shift or be returned.
    """

    __slots__ = ("n", "bits", "weights", "positions", "guard", "pmask", "bias")

    def __init__(self, blocks, bits):
        n = sum(blocks)
        self.n = n
        self.bits = bits
        self.weights = [0] * n
        self.positions = [0] * n
        self.guard = self.pmask = self.bias = 0
        headroom = bits + n.bit_length()
        off = 0
        first = n
        for m in reversed(blocks):  # the last block is least significant
            first -= m
            top = off + m * bits
            for j in range(m):
                pos = off + j * bits
                self.positions[first + j] = pos
                self.weights[first + j] = (1 << top) - (1 << pos)
                self.guard |= 1 << (pos + bits - 1)
            self.pmask |= ((1 << (m * bits)) - 1) << off
            self.bias |= ((1 << headroom) - 1) << top
            off = top + headroom

    def pack(self, exps):
        return sum(map(int.__mul__, exps, self.weights))

    def pack_terms(self, terms, names):
        """A term dict keyed by exponent tuples, keyed by packed ints.

        Each packed key is recorded in names with its tuple.
        """
        w = self.weights
        out = {}
        for e, c in terms.items():
            o = sum(map(int.__mul__, e, w))
            out[o] = c
            names[o] = e
        return out

    def raw(self, o):
        return (self.bias - o) & self.pmask

    def unpack(self, o):
        raw = self.raw(o)
        mask = (1 << self.bits) - 1
        return tuple((raw >> p) & mask for p in self.positions)


@suite_cache
def _packing(blocks, bits):
    return _Packing(blocks, bits)


def _packing_for(blocks, degree):
    """The packing of the block order whose fields fit twice degree."""
    return _packing(blocks, max(8, degree.bit_length() + 2))


# -- raw term-dict plumbing (hot path) --------------------------------------


def _sub_shifted(t, g, coeff, shift, heap):
    """t -= coeff * x^shift * g on packed int term dicts, pushing t's new terms."""
    for e, c in g.items():
        k = e + shift
        s = t.get(k)
        if s is None:
            t[k] = -coeff * c
            heappush(heap, -k)
        else:
            s -= coeff * c
            if s:
                t[k] = s
            else:
                del t[k]


def _nf_dict(t, heap, rows, pk):
    """Pseudo-reduce packed int term dict t against rows [(lead, raw lead, g, lc)].

    Returns (r, scale): r is the normal form of scale * t, an int term dict
    listing its terms largest first, and scale is a positive int.  To cancel
    the term c*x^o with a row whose lead coefficient is lc, both the live
    remainder and the part already in r are multiplied by lc/d, with
    d = gcd(c, lc), and (c/d)*x^shift*g is subtracted.  t is consumed; heap
    holds its negated terms, so the largest live term comes next at every
    step.
    """
    out = {}
    scale = 1
    bias, pmask, guard = pk.bias, pk.pmask, pk.guard
    while heap:
        o = -heappop(heap)
        c = t.get(o)
        if c is None:
            continue  # cancelled since it was pushed
        raw = (bias - o) & pmask
        if raw & guard:
            limit = 1 << (pk.bits - 1)
            raise OverflowError(f"an exponent reached {limit}, the packed field limit")
        probe = raw | guard
        for lo, lraw, g, lc in rows:
            if (probe - lraw) & guard == guard:
                d = gcd(c, lc)
                if d != lc:
                    m = lc // d
                    t = {k: v * m for k, v in t.items()}
                    out = {k: v * m for k, v in out.items()}
                    scale *= m
                _sub_shifted(t, g, c // d, o - lo, heap)  # cancels o
                break
        else:
            out[o] = t.pop(o)
    return out, scale


def _cleared(t):
    """(D * t, D) for a term dict t over Q, D the lcm of its denominators."""
    den = lcm(*[c.denominator for c in t.values()])
    return {o: c.numerator * (den // c.denominator) for o, c in t.items()}, den


def _primitive(t):
    """Term dict t over Q as a primitive int term dict with a positive lead.

    Denominators are cleared and the content divided out, so the result is
    the unique such multiple of t.
    """
    t, _ = _cleared(t)
    content = gcd(*t.values())
    if t[max(t)] < 0:
        content = -content
    if content != 1:
        t = {o: c // content for o, c in t.items()}
    return t


def _row(pk, t):
    """(lead, raw lead, primitive t, its lead coefficient) for nonzero t."""
    t = _primitive(t)
    lead = max(t)
    return lead, pk.raw(lead), t, t[lead]


def _nf_heap(t):
    heap = [-o for o in t]
    heapify(heap)
    return heap


def _polynomial(pk, t, names):
    """Packed term dict t as a Polynomial.

    names maps packed keys to exponent tuples and memoises unpack, so the
    result shares its tuples with the inputs and with earlier results.
    """
    terms = {}
    for o, c in t.items():
        e = names.get(o)
        if e is None:
            e = names[o] = pk.unpack(o)
        terms[e] = c
    return Polynomial._from_terms(pk.n, terms)


def groebner_basis(polys, blocks=None):
    """Reduced Groebner basis of the ideal generated by polys.

    blocks is the monomial order as a tuple of block sizes summing to n,
    grevlex inside each block; None is (n,), grevlex.  Returns a canonical
    list of monic Polynomials sorted by leading monomial, the smallest first.

    The queue is ordered by (sugar, -lcm, i, j).  Generator k enters as the
    entry (degree, -lead, -1, k): it is made primitive, reduced against the
    rows stored so far and stored if nonzero.  Storing a row queues its
    pairs with the earlier rows whose leads share a variable with its own
    and settles the rest, whose S-polynomials reduce to zero.
    """
    nonzero = [p for p in polys if p]
    if not nonzero:
        return []
    n = nonzero[0].n
    for p in nonzero:
        if p.n != n:
            raise AmbientMismatch("generators disagree on ambient n")
    blocks = (n,) if blocks is None else tuple(blocks)
    if sum(blocks) != n or min(blocks, default=1) < 1:
        raise ValueError(f"blocks {blocks} do not split {n} variables")
    degrees = [p.degree() for p in nonzero]
    pk = _packing_for(blocks, max(degrees))

    # deterministic start: sort generators by leading monomial then content,
    # the smallest lead first; each is queued at its degree and enters as
    # the pair (-1, k)
    names = {}
    gens = sorted(
        ((pk.pack_terms(p.terms, names), d) for p, d in zip(nonzero, degrees)),
        key=lambda td: (max(td[0]), sorted(td[0].items())),
    )
    heap = [(d, -max(t), -1, k) for k, (t, d) in enumerate(gens)]
    heapify(heap)

    rows = []  # (lead, raw lead, primitive int term dict, lc) per basis element
    leads = []  # exponent tuples of the leads
    masks = []  # bitmask of the variables each lead involves
    sugars = []
    done = []  # done[i] has bit k set once the pair (i, k) is settled

    def push(t, sugar):
        """Store nonzero t as row j and queue its pairs that share a variable.

        A pair whose leads are coprime has an S-polynomial that reduces to
        zero, so it is settled at once and never queued.
        """
        row = _row(pk, t)
        j = len(rows)
        lj = pk.unpack(row[0])
        mj = sum(1 << v for v, a in enumerate(lj) if a)
        dj = sugar - sum(lj)
        settled = 0
        for i, li in enumerate(leads):
            if masks[i] & mj:
                lcm = tuple(map(max, li, lj))
                sugar_ij = max(sugars[i] - sum(li), dj) + sum(lcm)
                heappush(heap, (sugar_ij, -pk.pack(lcm), i, j))
            else:
                settled |= 1 << i
                done[i] |= 1 << j
        rows.append(row)
        leads.append(lj)
        masks.append(mj)
        sugars.append(sugar)
        done.append(settled)

    guard = pk.guard
    while heap:
        sugar, neg_lcm, i, j = heappop(heap)
        if i < 0:
            # a generator arrives: primitive, reduced against the rows so far
            t = _primitive(gens[j][0])
            t_heap = _nf_heap(t)
        else:
            done[i] |= 1 << j
            done[j] |= 1 << i
            lcm = -neg_lcm
            # chain criterion: a third lead dividing the lcm, both side pairs
            # settled (neither i nor j is a bit of both)
            probe = pk.raw(lcm) | guard
            both = done[i] & done[j]
            if any(
                both >> k & 1 and (probe - row[1]) & guard == guard
                for k, row in enumerate(rows)
            ):
                continue
            # cross-multiplied S-pair: (lc_j/d) x^(lcm-li) g_i - (lc_i/d) x^(lcm-lj) g_j
            (li, _, gi, ci), (lj, _, gj, cj) = rows[i], rows[j]
            d = gcd(ci, cj)
            t, t_heap = {}, []
            _sub_shifted(t, gi, -(cj // d), lcm - li, t_heap)
            _sub_shifted(t, gj, ci // d, lcm - lj, t_heap)
        h, _ = _nf_dict(t, t_heap, rows, pk)
        if h:
            push(h, sugar)

    # minimalize: drop elements whose lead another lead divides
    # (smallest lead first, so a lead's divisors are met before it)
    kept = []
    for row in sorted(rows, key=lambda row: row[0]):
        probe = row[1] | guard
        if not any((probe - k[1]) & guard == guard for k in kept):
            kept.append(row)
    # inter-reduce tails for the canonical reduced basis; no other lead
    # divides a kept lead, so each keeps its lead and kept's order, and is
    # made monic once, here
    reduced = []
    for row in kept:
        t = dict(row[2])
        others = [k for k in kept if k is not row]
        t, _ = _nf_dict(t, _nf_heap(t), others, pk)
        lc = t[row[0]]
        t = {o: coeff_div(c, lc) for o, c in t.items()}
        reduced.append(_polynomial(pk, t, names))
    return reduced


# the packed rows of the last basis reduced against, as [basis tuple, its
# ambient n (None if empty), its degree, packing, rows]; one entry, because
# keeping every basis packed would double the memory of the basis cache.  A
# packing made after clear_suite_caches is new, so rows rebuild then.
_LAST_ROWS = [None, None, -1, None, None]


def _packed_rows(basis, n, degree):
    """(packing, packed rows of basis) for inputs of ambient n and degree.

    The packing is grevlex on n variables with fields that fit degree and
    the basis degree.  The rows of the last basis seen are kept in
    _LAST_ROWS, and rebuilt only when the basis or the packing changes.
    """
    key = tuple(basis)
    memo = _LAST_ROWS
    if memo[0] != key:
        m = key[0].n if key else None
        if any(p.n != m for p in key):
            raise AmbientMismatch("basis polynomials disagree on ambient n")
        memo[:] = key, m, max((p.degree() for p in key), default=-1), None, None
    if n != memo[1] and memo[1] is not None:
        raise AmbientMismatch("ambient mismatch")
    pk = _packing_for((n,), max(degree, memo[2]))
    if pk is not memo[3]:
        memo[3:] = pk, [_row(pk, pk.pack_terms(p.terms, {})) for p in key if p]
    return pk, memo[4]


def normal_form(f, basis):
    """Fully reduce f against a list of Polynomials (typically a GB).

    f is reduced with its denominators cleared by D, against the primitive
    int rows of the basis; the remainder of scale * D * f is then divided by
    scale * D, so the result is the exact normal form of f.
    """
    pk, rows = _packed_rows(basis, f.n, f.degree())
    if not f:
        return Polynomial.zero(f.n)
    names = {}
    t, den = _cleared(pk.pack_terms(f.terms, names))
    t, scale = _nf_dict(t, _nf_heap(t), rows, pk)
    den *= scale
    return _polynomial(pk, {o: coeff_div(c, den) for o, c in t.items()}, names)


def s_polynomial(f, g):
    lf, cf = f.leading()
    lg, cg = g.leading()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Polynomial.monomial(f.n, tuple(a - b for a, b in zip(lcm, lf)), coeff_div(1, cf))
    mg = Polynomial.monomial(g.n, tuple(a - b for a, b in zip(lcm, lg)), coeff_div(1, cg))
    return mf * f - mg * g


# -- ideals ------------------------------------------------------------------

@suite_cache
def _reduced_basis(key):
    """The grevlex reduced basis of the ideal keyed (n, nonzero generator set)."""
    return groebner_basis(list(key[1]))


class Ideal:
    """An ideal of Q[x1..xn] held by generators, with cached reduced bases."""

    __slots__ = ("n", "gens", "_key")

    def __init__(self, n, gens):
        gens = tuple(g for g in gens)
        for g in gens:
            if g.n != n:
                raise AmbientMismatch("generator ambient mismatch")
        self.n = n
        self.gens = gens
        self._key = None

    def groebner(self):
        key = self._key
        if key is None:  # built on first use, once per Ideal
            key = self._key = (self.n, frozenset(g for g in self.gens if g))
        return _reduced_basis(key)

    def normal_form(self, f):
        if f.n != self.n:
            raise AmbientMismatch("ambient mismatch")
        return normal_form(f, self.groebner())

    def contains(self, f):
        return not self.normal_form(f)

    def monomial_remainders(self, exps):
        """Remainders of the monomials x^e, e in exps, against the reduced basis.

        Each is an int term dict keyed by packed monomials: a positive
        multiple of the normal form of x^e, so the remainders have the rank
        of the normal forms, and a standard monomial's is {its key: 1}.  All
        of them share one packing and the basis rows normal_form keeps.
        """
        if any(len(e) != self.n for e in exps):
            raise AmbientMismatch("ambient mismatch")
        degree = max(map(sum, exps), default=0)
        pk, rows = _packed_rows(self.groebner(), self.n, degree)
        return [_nf_dict({o: 1}, [-o], rows, pk)[0] for o in map(pk.pack, exps)]

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].degree() == 0

    def standard_monomials(self):
        """Exponent tuples of the quotient basis, grevlex-ascending, or None.

        These are the monomials that no leading term divides.  There are
        finitely many iff every variable has a pure power among the leads,
        and then they all lie in the box those powers bound; otherwise the
        quotient is infinite-dimensional and the answer is None.  The unit
        ideal's lead 1 bounds every variable by 0, so its box is empty.
        """
        leads = [g.leading()[0] for g in self.groebner()]
        bounds = [
            min((e[i] for e in leads if sum(e) == e[i]), default=None)
            for i in range(self.n)
        ]
        if None in bounds:
            return None
        pk = _packing_for((self.n,), max([sum(bounds), *map(sum, leads)]))
        guard = pk.guard
        lead_raws = [pk.raw(pk.pack(le)) for le in leads]
        out = []
        for exps in box_monomials(bounds):
            o = pk.pack(exps)
            probe = pk.raw(o) | guard
            if not any((probe - r) & guard == guard for r in lead_raws):
                out.append((o, exps))
        out.sort()
        return [exps for _, exps in out]

    def is_artinian(self):
        """True iff the quotient is finite-dimensional over Q."""
        return self.standard_monomials() is not None

    def dimension(self):
        """Vector-space dimension of the quotient, or None if infinite."""
        mons = self.standard_monomials()
        return None if mons is None else len(mons)

    def hilbert_series(self):
        """Graded quotient dimensions, or None if infinite; homogeneous only."""
        for g in self.gens:
            if not g.is_homogeneous():
                raise ValueError("Hilbert series needs homogeneous generators")
        mons = self.standard_monomials()
        if mons is None:
            return None
        counts = [0] * (max(map(sum, mons), default=-1) + 1)
        for e in mons:
            counts[sum(e)] += 1
        return tuple(counts)

    def __repr__(self):
        inner = ", ".join(g.text() for g in self.gens)
        return f"Ideal({self.n}, [{inner}])"


def _monic(p):
    """The term set of p divided by its leading coefficient (p nonzero)."""
    lc = p.leading()[1]
    return frozenset((e, coeff_div(c, lc)) for e, c in p.terms.items())


def ideal_equal(I, J):
    """True iff I and J are the same ideal: each contains the other.

    A generator that is a nonzero scalar multiple of one on the other side
    is contained outright.  When only one side has other generators, they
    must reduce to 0 against the other side's basis, the only basis built.
    When both sides have some, both bases are needed anyway, and equality
    is equality of the canonical reduced bases.
    """
    if I.n != J.n:
        raise AmbientMismatch("ambient mismatch")
    mine = {_monic(g): g for g in I.gens if g}
    theirs = {_monic(g): g for g in J.gens if g}
    extra = [g for key, g in mine.items() if key not in theirs]
    missing = [g for key, g in theirs.items() if key not in mine]
    if extra and missing:
        return I.groebner() == J.groebner()
    return all(J.contains(g) for g in extra) and all(I.contains(g) for g in missing)


def colon(I, f):
    """The colon ideal I : f = {g : f*g in I}.

    Route: if f in I the colon is the unit ideal outright.  Otherwise
    compute I ∩ (f) by eliminating a fresh leading variable t from
    t*G + ((1-t)*f) and divide the t-free basis elements by f, which must be
    exact.  G is I's reduced basis, which the membership test has just built
    and cached, rather than I's generators: it is already auto-reduced, so
    the elimination starts from fewer and smaller rows.  The fresh variable
    is eliminated by a block order, so no variable renaming is needed.
    """
    n = I.n
    if f.n != n:
        raise AmbientMismatch("ambient mismatch")
    if not f:
        raise ZeroDivisionError("colon by the zero polynomial")
    if I.contains(f):
        return Ideal(n, [Polynomial.one(n)])
    lifted = []
    for g in I.groebner():
        lifted.append(Polynomial(n + 1, {(1,) + e: c for e, c in g.terms.items()}))
    both = dict()
    for e, c in f.terms.items():
        both[(0,) + e] = c
        both[(1,) + e] = -c
    lifted.append(Polynomial(n + 1, both))  # (1 - t) * f
    gb = groebner_basis(lifted, (1, n))
    quotients = []
    for g in gb:
        if all(e[0] == 0 for e in g.terms):
            h = Polynomial(n, {e[1:]: c for e, c in g.terms.items()})
            q = exact_divide(h, f)
            if q is None:
                raise ArithmeticError("elimination produced a non-multiple of f")
            quotients.append(q)
    return Ideal(n, quotients)


def is_regular_sequence(polys, n):
    """Regularity test for exactly n homogeneous positive-degree polynomials.

    For a length-n homogeneous system of positive degrees, regularity is
    equivalent to the quotient being finite-dimensional, which the Groebner
    basis certifies through pure-power leading terms.
    """
    polys = list(polys)
    if len(polys) != n:
        raise ValueError(f"need exactly {n} polynomials, got {len(polys)}")
    for p in polys:
        if not p.is_homogeneous() or p.degree() < 1:
            raise ValueError("regularity test needs homogeneous positive degrees")
    return Ideal(n, polys).is_artinian()
