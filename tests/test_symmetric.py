"""Symmetric toolkit: e/h/p conventions, Jacobi-Trudi Schur, membership tests."""

import itertools
import random
from fractions import Fraction

import pytest

from coinvarr.polynomials import Polynomial, diffop_apply, vandermonde, variables
from coinvarr.symmetric import (
    coinvariant_generators,
    complete,
    eh_duality_check,
    elementary,
    partitions,
    power_sum,
    schur,
    steinberg_member,
)


def _ssyt_schur(shape, A, n):
    """Independent Schur oracle: enumerate semistandard tableaux directly.

    Rows weakly increase left to right, columns strictly increase top to
    bottom, entries drawn from A.  The Schur polynomial is the generating
    function of entry multisets.
    """
    A = sorted(A)
    total = Polynomial.zero(n)

    def rows_of(length, lower_bounds):
        # weakly increasing rows over A, strictly above lower_bounds cellwise
        def rec(c, minval, acc):
            if c == length:
                yield tuple(acc)
                return
            for v in A:
                if v < minval or v <= lower_bounds[c]:
                    continue
                yield from rec(c + 1, v, acc + [v])

        yield from rec(0, A[0] if A else 1, [])

    def fill(r, above, acc_exps):
        nonlocal total
        if r == len(shape):
            total = total + Polynomial.monomial(n, tuple(acc_exps))
            return
        bounds = [above[c] if c < len(above) else 0 for c in range(shape[r])]
        for row in rows_of(shape[r], bounds):
            exps = list(acc_exps)
            for v in row:
                exps[v - 1] += 1
            fill(r + 1, row, exps)

    fill(0, (), [0] * n)
    return total


def test_eh_conventions():
    assert elementary(0, 3) == 1
    assert complete(0, 3) == 1
    assert elementary(-1, 3) == 0
    assert complete(-2, 3) == 0
    assert elementary(0, 3, A=()) == 1
    assert complete(0, 3, A=()) == 1
    assert elementary(2, 3, A=()) == 0
    assert complete(2, 3, A=()) == 0
    assert elementary(4, 3) == 0  # d beyond the subset size


def test_elementary_and_complete_small():
    x1, x2, x3 = variables(3)
    assert elementary(1, 3) == x1 + x2 + x3
    assert elementary(2, 3) == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary(3, 3) == x1 * x2 * x3
    assert complete(2, 3, A=(2, 3)) == x2 * x2 + x2 * x3 + x3 * x3
    assert power_sum(2, 3) == x1**2 + x2**2 + x3**2
    with pytest.raises(ValueError):
        power_sum(0, 3)
    with pytest.raises(ValueError):
        elementary(1, 3, A=(4,))


def test_generating_function_identity_random():
    # sum_d e_d(A) * t^d = prod_{a in A} (1 + x_a t), compared per t-degree
    # via the coefficient recurrence e_d(A) = e_d(A') + x_a e_{d-1}(A').
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = tuple(i for i in range(1, n + 1) if rng.random() < 0.7)
        if not A:
            continue
        a = A[-1]
        Ap = A[:-1]
        xa = Polynomial.variable(n, a)
        for d in range(0, len(A) + 1):
            assert elementary(d, n, A) == elementary(d, n, Ap) + xa * elementary(
                d - 1, n, Ap
            )
            # dual recurrence for h: h_d(A') = h_d(A) - x_a h_{d-1}(A)
            assert complete(d, n, Ap) == complete(d, n, A) - xa * complete(
                d - 1, n, A
            )


def test_newton_identity_random():
    # k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, an independent consistency
    # check tying e to p.
    for n in range(1, 5):
        for k in range(1, n + 1):
            lhs = k * elementary(k, n)
            rhs = Polynomial.zero(n)
            for i in range(1, k + 1):
                rhs = rhs + (-1) ** (i - 1) * elementary(k - i, n) * power_sum(i, n)
            assert lhs == rhs


def test_partitions_generator():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(partitions(6))) == 11
    assert list(partitions(3, max_part=2)) == [(2, 1), (1, 1, 1)]


def test_schur_fixtures():
    # single-row shapes are complete homogeneous, single-column elementary
    for n in range(1, 4):
        for d in range(0, 4):
            assert schur((d,), n) == complete(d, n)
        for d in range(0, n + 1):
            assert schur((1,) * d, n) == elementary(d, n)
    assert schur((), 3) == 1
    with pytest.raises(ValueError):
        schur((1, 2), 3)


def test_schur_against_tableau_oracle():
    # Jacobi-Trudi determinant vs direct semistandard tableau enumeration
    subsets = [(1,), (2,), (1, 2), (1, 3), (1, 2, 3)]
    shapes = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1)]
    for A in subsets:
        for shape in shapes:
            assert schur(shape, 3, A) == _ssyt_schur(shape, A, 3), (A, shape)


def test_schur_vanishes_when_too_tall():
    # more rows than variables kills every tableau; the determinant agrees
    assert schur((1, 1, 1), 3, A=(1, 2)) == 0
    assert schur((2, 2, 1), 3, A=(2, 3)) == 0
    assert schur((2, 1), 3, A=(3,)) == 0


def test_pieri_hook_identity():
    # e_{|A|}(A) h_m(A) = s_{(m,1^{|A|})}(A) + s_{(m+1,1^{|A|-1})}(A), m >= 1
    for n in range(1, 5):
        for r in range(1, n + 1):
            for A in itertools.combinations(range(1, n + 1), r):
                for m in range(1, 4):
                    lhs = elementary(len(A), n, A) * complete(m, n, A)
                    rhs = schur((m,) + (1,) * len(A), n, A) + schur(
                        (m + 1,) + (1,) * (len(A) - 1), n, A
                    )
                    assert lhs == rhs, (A, m)


def test_steinberg_member_fixtures():
    for n in range(1, 5):
        for g in coinvariant_generators(n):
            assert steinberg_member(g)
        assert not steinberg_member(Polynomial.one(n))
    # single variables are not invariant-ideal members once n >= 2
    assert not steinberg_member(Polynomial.variable(2, 1))
    assert not steinberg_member(Polynomial.variable(3, 3))
    # but x1 generates everything when n = 1
    assert steinberg_member(Polynomial.variable(1, 1))
    # ideal property: members absorb multiplication
    x1, x2 = variables(2)
    e2 = elementary(2, 2)
    assert steinberg_member(x1 * e2)
    assert steinberg_member((x1 + 3 * x2) * elementary(1, 2))


def test_vandermonde_is_shared_and_left_unchanged():
    # vandermonde(n) is built once and shared, so no caller may change it
    rng = random.Random(31)
    for n in range(1, 5):
        v = vandermonde(n)
        before = dict(v.terms)
        assert vandermonde(n) == v
        xs = variables(n)
        for _ in range(10):
            f = Polynomial.zero(n)
            for _ in range(rng.randint(1, 4)):
                f = f + rng.randint(-3, 3) * xs[rng.randrange(n)] ** rng.randint(0, 3)
            steinberg_member(f)
            steinberg_member(f * elementary(1, n))
            diffop_apply(f, v)
        assert v.terms == before
        assert vandermonde(n).terms == before


def test_coinvariant_generators_are_shared():
    # one tuple per n for the whole suite, so no caller can change it
    for n in range(1, 5):
        gens = coinvariant_generators(n)
        assert gens is coinvariant_generators(n)
        assert gens == tuple(elementary(d, n) for d in range(1, n + 1))


def test_steinberg_member_inhomogeneous():
    x1, x2 = variables(2)
    e1, e2 = coinvariant_generators(2)
    assert steinberg_member(e1 + e2)
    assert not steinberg_member(e1 + 1)
    assert not steinberg_member(e1 + x1)


def test_steinberg_closed_under_ideal_ops_random():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 4)
        gens = coinvariant_generators(n)
        f = Polynomial.zero(n)
        for g in gens:
            coeff = Polynomial(
                n,
                {
                    tuple(rng.randint(0, 2) for _ in range(n)): Fraction(
                        rng.randint(-3, 3)
                    )
                    for _ in range(rng.randint(0, 2))
                },
            )
            f = f + coeff * g
        assert steinberg_member(f)


def test_eh_duality_small():
    assert eh_duality_check(2, (1, 2), (3,), 3)
    for n in range(1, 5):
        idx = list(range(1, n + 1))
        for r in range(0, n + 1):
            for A in itertools.combinations(idx, r):
                B = tuple(i for i in idx if i not in A)
                for d in range(0, n + 2):
                    assert eh_duality_check(d, A, B, n), (A, B, d)
    with pytest.raises(ValueError):
        eh_duality_check(1, (1,), (1, 2), 2)
