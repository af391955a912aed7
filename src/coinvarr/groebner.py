"""Groebner bases over Q: plain Buchberger with the sugar strategy.

The engine is deliberately unfancy.  Buchberger with sugar-ordered pair
selection plus the coprimality and chain criteria is fast enough for every
ideal this library touches (n <= 5, small degrees); signature-based
algorithms would buy nothing here and cost auditability.

Ideals, normal forms and leading terms all use grevlex.  Only
groebner_basis takes a monomial order, as a descending rank on exponent
tuples like grevlex_key, so that colon can eliminate a fresh variable under
the block order elim_key(1).  Reduced bases are canonical (monic,
auto-reduced, sorted by leading monomial, the smallest first), so ideal
equality is literal equality of reduced bases.

Reduction keeps each remainder's terms in a heap keyed by that rank
(Monagan and Pearce, CASC 2007): sub_scaled pushes a term when it creates
it, and pop_terms hands out the largest live term next, skipping entries
whose term has cancelled.  So each term is ranked once, not once per
reduction step.  normal_form takes leading terms from the memoised
Polynomial.leading() and reads a monic basis element's term dict in place;
reducers never write to the dicts of a basis, only to the remainder they
own.

The environment variable COINVARR_GB_TERM_CAP, when set, bounds the total
number of stored terms across a basis-in-progress; exceeding it raises
GroebnerResourceError instead of exhausting memory.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush

from .polynomials import (
    AmbientMismatch,
    Polynomial,
    box_monomials,
    coeff_div,
    exact_divide,
    grevlex_key,
    keyed_heap,
    pop_terms,
    sub_scaled,
)

ENV_TERM_CAP = "COINVARR_GB_TERM_CAP"


class GroebnerResourceError(RuntimeError):
    """Basis computation exceeded the configured term cap."""


def elim_key(k):
    """Descending rank of the block order eliminating the first k variables.

    Blocks compare first-block first, grevlex inside each block.
    """

    def key(exps):
        return (grevlex_key(exps[:k]), grevlex_key(exps[k:]))

    return key


def term_cap():
    """COINVARR_GB_TERM_CAP as a positive int, None when unset; else ValueError."""
    raw = os.environ.get(ENV_TERM_CAP)
    if not raw:
        return None
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{ENV_TERM_CAP} must be a positive integer, got {raw!r}")
    return int(raw)


# -- raw term-dict plumbing (hot path) --------------------------------------


def _nf_dict(t, heap, prepared, key):
    """Fully reduce term dict t against prepared [(lead, monic poly dict)] rows.

    t is consumed; heap is its keyed_heap, so each term is ranked once, when
    it appears, and the largest live term comes next at every step.
    """
    out = {}
    for e, c in pop_terms(t, heap):
        for le, g in prepared:
            if all(a >= b for a, b in zip(e, le)):
                shift = tuple(a - b for a, b in zip(e, le))
                sub_scaled(t, g, c, shift, heap, key)  # g is monic: cancels e
                break
        else:
            out[e] = t.pop(e)
    return out


def _monic(t, lc):
    """t scaled by 1/lc; t itself, uncopied, when lc is 1."""
    if lc == 1:
        return t
    return {e: coeff_div(c, lc) for e, c in t.items()}


def groebner_basis(polys, key=grevlex_key):
    """Reduced Groebner basis of the ideal generated by polys.

    key is the monomial order, a descending rank on exponent tuples (the
    larger monomial ranks lower).  Returns a canonical list of monic
    Polynomials sorted by leading monomial, the smallest first.
    """
    cap = term_cap()
    nonzero = [p for p in polys if p]
    if not nonzero:
        return []
    n = nonzero[0].n
    for p in nonzero:
        if p.n != n:
            raise AmbientMismatch("generators disagree on ambient n")

    # deterministic start: sort generators by leading monomial then content,
    # the smallest lead first
    start = sorted(
        (p.terms for p in nonzero),
        key=lambda t: (min(map(key, t)), sorted(t.items())),
        reverse=True,
    )

    basis = []  # term dicts, monic
    leads = []
    sugars = []
    total_terms = 0

    def push(t, sugar):
        nonlocal total_terms
        lead = min(t, key=key)
        t = _monic(t, t[lead])
        basis.append(t)
        leads.append(lead)
        sugars.append(sugar)
        total_terms += len(t)
        if cap is not None and total_terms > cap:
            raise GroebnerResourceError(
                f"basis grew past {cap} stored terms ({ENV_TERM_CAP})"
            )
        return len(basis) - 1

    heap = []

    def queue_pairs(j):
        lj = leads[j]
        dj = sugars[j] - sum(lj)
        for i in range(j):
            li = leads[i]
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            sugar = max(sugars[i] - sum(li), dj) + sum(lcm)
            heappush(heap, (sugar, key(lcm), i, j, lcm))

    for t in start:
        idx = push(t, max(sum(e) for e in t))
        queue_pairs(idx)

    done = set()
    while heap:
        sugar, _, i, j, lcm = heappop(heap)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        # coprimality criterion: disjoint leads give a reducible S-pair
        if all(min(a, b) == 0 for a, b in zip(li, lj)):
            continue
        # chain criterion: a third lead dividing the lcm, both side pairs done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if all(a <= b for a, b in zip(leads[k], lcm)):
                if (min(i, k), max(i, k)) in done and (
                    min(j, k),
                    max(j, k),
                ) in done:
                    skip = True
                    break
        if skip:
            continue
        s, s_heap = {}, []
        for g, lead, coeff in ((basis[i], li, -1), (basis[j], lj, 1)):
            shift = tuple(a - b for a, b in zip(lcm, lead))
            sub_scaled(s, g, coeff, shift, s_heap, key)
        h = _nf_dict(s, s_heap, list(zip(leads, basis)), key)
        if h:
            idx = push(h, sugar)
            queue_pairs(idx)

    # minimalize: drop elements whose lead another lead divides
    # (smallest lead first, so a lead's divisors are met before it)
    order_idx = sorted(range(len(basis)), key=lambda i: key(leads[i]), reverse=True)
    kept = []
    for i in order_idx:
        if any(all(a <= b for a, b in zip(leads[k], leads[i])) for k in kept):
            continue
        kept.append(i)
    # inter-reduce tails for the canonical reduced basis; no other lead
    # divides a kept lead, so each keeps its lead and kept's order
    reduced = []
    for i in kept:
        others = [(leads[k], basis[k]) for k in kept if k != i]
        t = dict(basis[i])
        t = _nf_dict(t, keyed_heap(t, key), others, key)
        reduced.append(Polynomial._from_terms(n, t))
    return reduced


def normal_form(f, basis):
    """Fully reduce f against a list of Polynomials (typically a GB)."""
    prepared = []
    for p in basis:
        if p:
            lead, lc = p.leading()
            prepared.append((lead, _monic(p.terms, lc)))
    t = dict(f.terms)
    return Polynomial._from_terms(
        f.n, _nf_dict(t, keyed_heap(t, grevlex_key), prepared, grevlex_key)
    )


def s_polynomial(f, g):
    lf, cf = f.leading()
    lg, cg = g.leading()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Polynomial.monomial(f.n, tuple(a - b for a, b in zip(lcm, lf)), coeff_div(1, cf))
    mg = Polynomial.monomial(g.n, tuple(a - b for a, b in zip(lcm, lg)), coeff_div(1, cg))
    return mf * f - mg * g


# -- ideals ------------------------------------------------------------------

# grevlex reduced bases keyed by (n, nonzero generator set); it lives for one
# suite: cli.run_suite empties it through st_algebras.clear_caches
_GB_CACHE = {}


def clear_basis_cache():
    """Forget every cached reduced basis."""
    _GB_CACHE.clear()


class Ideal:
    """An ideal of Q[x1..xn] held by generators, with cached reduced bases."""

    __slots__ = ("n", "gens")

    def __init__(self, n, gens):
        gens = tuple(g for g in gens)
        for g in gens:
            if g.n != n:
                raise AmbientMismatch("generator ambient mismatch")
        self.n = n
        self.gens = gens

    def groebner(self):
        key = (self.n, frozenset(g for g in self.gens if g))
        got = _GB_CACHE.get(key)
        if got is None:
            got = groebner_basis(list(self.gens))
            _GB_CACHE[key] = got
        return got

    def normal_form(self, f):
        if f.n != self.n:
            raise AmbientMismatch("ambient mismatch")
        return normal_form(f, self.groebner())

    def contains(self, f):
        return not self.normal_form(f)

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].degree() == 0

    def _lead_exps(self):
        return [g.leading()[0] for g in self.groebner()]

    def box_bounds(self):
        """Per-variable minimal pure-power lead degrees, or None if absent."""
        bounds = [None] * self.n
        for e in self._lead_exps():
            support = [i for i, a in enumerate(e) if a]
            if not support:
                return [0] * self.n  # unit ideal
            if len(support) == 1:
                i = support[0]
                if bounds[i] is None or e[i] < bounds[i]:
                    bounds[i] = e[i]
        return bounds

    def is_artinian(self):
        """True iff the quotient is finite-dimensional over Q.

        Criterion: every variable has a pure power among the leading terms
        of a Groebner basis (unit ideal counts, with dimension 0).
        """
        return None not in self.box_bounds()

    def standard_monomials(self):
        """Grevlex-sorted exponent tuples of the quotient basis.

        These are the monomials that no leading term divides; the ideal must
        be Artinian, so they all fit in the box of box_bounds().
        """
        bounds = self.box_bounds()
        if None in bounds:
            raise ValueError("standard monomials need an Artinian ideal")
        leads = self._lead_exps()
        out = [
            exps
            for exps in box_monomials(bounds)
            if not any(all(a >= b for a, b in zip(exps, le)) for le in leads)
        ]
        out.sort(key=grevlex_key, reverse=True)
        return out

    def dimension(self):
        """Vector-space dimension of the quotient, or None if infinite."""
        if not self.is_artinian():
            return None
        return len(self.standard_monomials())

    def hilbert_series(self):
        """Tuple of graded quotient dimensions (Artinian, homogeneous only)."""
        for g in self.gens:
            if not g.is_homogeneous():
                raise ValueError("Hilbert series needs homogeneous generators")
        mons = self.standard_monomials()
        if not mons:
            return ()
        top = max(sum(e) for e in mons)
        counts = [0] * (top + 1)
        for e in mons:
            counts[sum(e)] += 1
        return tuple(counts)

    def __repr__(self):
        inner = ", ".join(g.text() for g in self.gens)
        return f"Ideal({self.n}, [{inner}])"


def ideal_equal(I, J):
    """Ideal equality via canonical reduced bases."""
    if I.n != J.n:
        raise AmbientMismatch("ambient mismatch")
    return I.groebner() == J.groebner()


def colon(I, f):
    """The colon ideal I : f = {g : f*g in I}.

    Route: if f in I the colon is the unit ideal outright.  Otherwise
    compute I ∩ (f) by eliminating a fresh leading variable t from
    t*gens(I) + ((1-t)*f) and divide the t-free basis elements by f, which
    must be exact.  The fresh variable is eliminated by a block order, so no
    variable renaming is needed.
    """
    n = I.n
    if f.n != n:
        raise AmbientMismatch("ambient mismatch")
    if not f:
        raise ZeroDivisionError("colon by the zero polynomial")
    if I.contains(f):
        return Ideal(n, [Polynomial.one(n)])
    lifted = []
    for g in I.gens:
        if g:
            lifted.append(Polynomial(n + 1, {(1,) + e: c for e, c in g.terms.items()}))
    both = dict()
    for e, c in f.terms.items():
        both[(0,) + e] = c
        both[(1,) + e] = -c
    lifted.append(Polynomial(n + 1, both))  # (1 - t) * f
    gb = groebner_basis(lifted, elim_key(1))
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
