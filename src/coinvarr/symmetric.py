"""Symmetric polynomial toolkit on variable subsets.

All functions take an explicit ambient n and, where it matters, the subset A
of variable indices actually used.  Conventions, applied uniformly:
e_0 = h_0 = 1 (even for A empty), e_d = h_d = 0 for d < 0, and for d > 0 the
empty subset gives 0.

Membership in the ideal generated by the positive-degree symmetric invariants
is decided by the classical differential-operator criterion: f lies in the
ideal iff f, acting as a constant-coefficient differential operator, kills
the Vandermonde determinant.  That test is exact and needs no Groebner basis.
Groebner membership is the independent cross-check, run beside it by
st_algebras.cospan_check and by the steinberg-agreement rows of the
symmetric-toolkit suite.
"""

from __future__ import annotations

import itertools

from .polynomials import (
    Polynomial,
    diffop_apply,
    matrix_determinant,
    suite_cache,
    vandermonde,
)


def _subset(A, n):
    if A is None:
        return tuple(range(1, n + 1))
    A = tuple(sorted(set(A)))
    if A and not (1 <= A[0] and A[-1] <= n):
        raise ValueError(f"subset {A} not within 1..{n}")
    return A


def _index_monomials(n, combos):
    """Sum of the monomials that the index tuples name, coefficient 1 each.

    Each occurrence of an index i in a tuple adds 1 to the exponent of x_i.
    """
    terms = {}
    for combo in combos:
        exps = [0] * n
        for i in combo:
            exps[i - 1] += 1
        terms[tuple(exps)] = 1
    return Polynomial(n, terms)


def elementary(d, n, A=None):
    """Elementary symmetric polynomial e_d on the variables indexed by A."""
    A = _subset(A, n)
    if d < 0:
        return Polynomial.zero(n)
    return _index_monomials(n, itertools.combinations(A, d))


def complete(d, n, A=None):
    """Complete homogeneous symmetric polynomial h_d on A."""
    A = _subset(A, n)
    if d < 0:
        return Polynomial.zero(n)
    return _index_monomials(n, itertools.combinations_with_replacement(A, d))


def power_sum(k, n, A=None):
    """Power sum p_k = sum of x_i^k over A (k >= 1)."""
    A = _subset(A, n)
    if k < 1:
        raise ValueError("power sums need k >= 1")
    return _index_monomials(n, ((i,) * k for i in A))


def schur(shape, n, A=None):
    """Schur polynomial s_shape on the variables indexed by A.

    Computed by the Jacobi-Trudi determinant det(h_{shape_i - i + j}) of size
    len(shape); trailing zeros in the shape are ignored.
    """
    A = _subset(A, n)
    shape = tuple(x for x in shape if x)
    if any(x < 0 for x in shape) or any(
        a < b for a, b in zip(shape, shape[1:])
    ):
        raise ValueError(f"{shape} is not a partition")
    ell = len(shape)
    if ell == 0:
        return Polynomial.one(n)
    rows = [
        [complete(shape[i] - i + j, n, A) for j in range(ell)] for i in range(ell)
    ]
    return matrix_determinant(rows, n)


def partitions(total, max_part=None):
    """All integer partitions of total with parts <= max_part, descending."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


@suite_cache
def coinvariant_generators(n):
    """(e_1, ..., e_n): the positive-degree invariant generators, built once
    per n and shared by every caller of a suite."""
    return tuple(elementary(d, n) for d in range(1, n + 1))


def steinberg_member(f):
    """True iff f lies in the ideal generated by e_1..e_n.

    Differential criterion: f(d/dx) annihilates the Vandermonde determinant
    exactly when f is in the invariant ideal.  f need not be homogeneous:
    distinct homogeneous pieces land in distinct degrees, so no cancellation
    can mask a nonmember.
    """
    return not diffop_apply(f, vandermonde(f.n))


def eh_duality_check(d, A, B, n):
    """Check h_d(A) = (-1)^d e_d(B) modulo the invariant ideal, A ⊔ B = [n]."""
    A, B = _subset(A, n), _subset(B, n)
    if sorted(A + B) != list(range(1, n + 1)):
        raise ValueError("A and B must partition 1..n")
    diff = complete(d, n, A) - (-1) ** d * elementary(d, n, B)
    return steinberg_member(diff)
