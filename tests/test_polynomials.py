"""Exact polynomial core: arithmetic, calculus, canonical text form."""

import itertools
import math
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add

import pytest

from coinvarr.groebner import groebner_basis, normal_form
from coinvarr.polynomials import (
    AmbientMismatch,
    Polynomial,
    coeff_div,
    diffop_apply,
    divides,
    exact_divide,
    grevlex_key,
    matrix_determinant,
    vandermonde,
    variables,
)


def _random_poly(rng, n, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(n, terms)


def _perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def test_constructors_and_equality():
    x1 = Polynomial.variable(3, 1)
    assert x1.text() == "x1"
    assert Polynomial.zero(2) == 0
    assert Polynomial.constant(2, Fraction(3, 2)).text() == "3/2"
    assert Polynomial(2, {(0, 0): 0}) == Polynomial.zero(2)
    assert x1 != Polynomial.variable(3, 2)
    assert hash(x1) == hash(Polynomial.variable(3, 1))


def test_public_constructor_validates_terms():
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 2.0})
    with pytest.raises(TypeError):
        Polynomial.variable(2, 1) * 0.5
    with pytest.raises(AmbientMismatch):
        Polynomial(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError) as err:
        Polynomial(2, {(1, -1): 1})
    assert not isinstance(err.value, AmbientMismatch)
    with pytest.raises(ValueError):
        Polynomial(-1)


def _assert_exact_coefficients(*polys):
    for p in polys:
        for c in p.terms.values():
            assert type(c) in (int, Fraction), (p, c, type(c))


def test_coefficients_stay_int_or_fraction():
    # an integral value is stored as an int and is the same polynomial
    half_four = Polynomial(1, {(1,): Fraction(4, 2)})
    two = Polynomial(1, {(1,): 2})
    assert half_four == two
    assert hash(half_four) == hash(two)
    assert half_four.text() == two.text() == "2*x1"
    assert type(half_four.terms[(1,)]) is int
    # coefficient quotients: int when integral, Fraction otherwise
    for a, b, want in [
        (6, 3, 2),
        (-6, 3, -2),
        (1, 2, Fraction(1, 2)),
        (-3, 2, Fraction(-3, 2)),
        (Fraction(1, 2), Fraction(1, 4), 2),
        (Fraction(3, 2), 3, Fraction(1, 2)),
        (3, Fraction(3, 2), 2),
    ]:
        got = coeff_div(a, b)
        assert got == want and type(got) is type(want), (a, b, got)
    x1, x2 = variables(2)
    half = exact_divide(x1, 2 * x1)
    assert half == Fraction(1, 2) and type(half.terms[(0, 0)]) is Fraction
    assert type(exact_divide(6 * x1 * x2, 3 * x1).terms[(0, 1)]) is int
    _assert_exact_coefficients(half, exact_divide(6 * x1 * x2, 3 * x1))
    rng = random.Random(808)
    for _ in range(30):
        n = rng.randint(1, 3)
        f = _random_poly(rng, n, max_deg=3, max_terms=4)
        g = _random_poly(rng, n, max_deg=2, max_terms=3)
        k = Polynomial(n, {e: rng.randint(-4, 4) for e in f.terms})
        results = [f + g, f - g, -f, f * g, g * k, 3 * f, Fraction(2, 3) * k]
        results.append(f.partial(rng.randint(1, n)))
        for divisor in (g, k):
            if divisor:
                results.append(exact_divide(f * divisor, divisor))
                results.append(exact_divide(k * divisor, divisor))
        gb = groebner_basis([f, g, k])
        results += gb
        results.append(normal_form(_random_poly(rng, n), gb))
        _assert_exact_coefficients(*results)


def test_ambient_mismatch_refused():
    a = Polynomial.variable(2, 1)
    b = Polynomial.variable(3, 1)
    with pytest.raises(AmbientMismatch):
        a + b
    with pytest.raises(AmbientMismatch):
        a * b
    with pytest.raises(AmbientMismatch):
        diffop_apply(a, b)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 4)
        f, g, h = (_random_poly(rng, n) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == 0
        assert f * Polynomial.one(n) == f


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(10):
        f = _random_poly(rng, 2, max_deg=2, max_terms=3)
        acc = Polynomial.one(2)
        for k in range(5):
            assert f**k == acc
            acc = acc * f


def test_degree_and_homogeneity():
    x1, x2 = variables(2)
    f = x1 * x1 + x2
    assert f.degree() == 2
    assert not f.is_homogeneous()
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.zero(2).is_homogeneous()


def test_partial_derivatives_commute_random():
    rng = random.Random(202)
    for _ in range(30):
        n = rng.randint(2, 4)
        f = _random_poly(rng, n)
        i, j = rng.randint(1, n), rng.randint(1, n)
        assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_partial_leibniz_random():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(1, 3)
        f, g = _random_poly(rng, n), _random_poly(rng, n)
        i = rng.randint(1, n)
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_diffop_apply_basics():
    x1, x2 = variables(2)
    # x1 acts as d/dx1
    assert diffop_apply(x1, x1 * x1) == 2 * x1
    assert diffop_apply(x1, x2) == 0
    # falling factorial coefficient: d^2/dx1^2 (x1^3) = 6 x1
    assert diffop_apply(x1 * x1, x1 * x1 * x1) == 6 * x1
    # constants act by scaling
    assert diffop_apply(Polynomial.constant(2, 3), x1 * x2) == 3 * x1 * x2


def test_diffop_apply_composes_random():
    # acting by f then by g is acting by f*g (operators commute exactly)
    rng = random.Random(505)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = _random_poly(rng, n, max_deg=2, max_terms=3)
        g = _random_poly(rng, n, max_deg=2, max_terms=3)
        h = _random_poly(rng, n, max_deg=4, max_terms=4)
        assert diffop_apply(f, diffop_apply(g, h)) == diffop_apply(f * g, h)


def _pairwise_diffop_apply(f, g):
    """Reference: test every (f-term, g-term) pair for b >= a."""
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            if any(bi < ai for ai, bi in zip(a, b)):
                continue
            c = ca * cb
            for ai, bi in zip(a, b):
                if ai:
                    c *= math.perm(bi, ai)
            key = tuple(bi - ai for ai, bi in zip(a, b))
            out[key] = out.get(key, 0) + c
    return Polynomial(f.n, {e: c for e, c in out.items() if c})


def test_diffop_apply_against_pairwise_reference():
    # the divisibility index must visit exactly the pairs with b >= a:
    # sparse and dense g, constants, zeros, f of higher degree than g
    rng = random.Random(6113)
    for _ in range(200):
        n = rng.randint(1, 4)
        f = _random_poly(rng, n, max_deg=rng.randint(0, 3), max_terms=6)
        dense = rng.choice((3, 30))
        g = _random_poly(rng, n, max_deg=rng.randint(0, 5), max_terms=dense)
        assert diffop_apply(f, g) == _pairwise_diffop_apply(f, g)
    for n in range(1, 5):
        v = vandermonde(n)
        for _ in range(10):
            f = _random_poly(rng, n, max_deg=3, max_terms=8)
            assert diffop_apply(f, v) == _pairwise_diffop_apply(f, v)


def test_vandermonde_against_permutation_expansion():
    # Oracle: the alternating sum over permutations w of
    # sign(w) * prod_i x_{w(i)}^{n-i}, computed from scratch.
    for n in range(1, 5):
        expected = {}
        for w in itertools.permutations(range(n)):
            exps = [0] * n
            for i, wi in enumerate(w):
                exps[wi] = n - 1 - i
            expected[tuple(exps)] = Fraction(_perm_sign(list(w)))
        assert vandermonde(n) == Polynomial(n, expected)


def test_vandermonde_alternates_under_swaps():
    v = vandermonde(3)
    # swapping x1 <-> x2 in the term dict flips the sign
    swapped = Polynomial(3, {(b, a, c): v.terms[(a, b, c)] for (a, b, c) in v.terms})
    assert swapped == -v


def test_substitution_helpers():
    x1, x2, x3 = variables(3)
    f = x1 * x2 + x3 * x3 + x2
    assert f.set_var_zero(1) == x3 * x3 + x2
    g = f.set_var_zero(1)
    reduced = g.drop_var(1)
    assert reduced.n == 2
    y1, y2 = variables(2)
    assert reduced == y2 * y2 + y1
    with pytest.raises(ValueError):
        f.drop_var(1)


def test_evaluate_is_a_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(0, 3)
        p = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        f, g = _random_poly(rng, n), _random_poly(rng, n)
        assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)
        assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
    x1, x2 = variables(2)
    f = 3 * x1 * x1 * x2 - x2 + 5
    assert f.evaluate((2, -1)) == -6
    assert Polynomial.zero(2).evaluate((1, 2)) == 0
    with pytest.raises(AmbientMismatch):
        f.evaluate((1, 2, 3))


def test_exact_divide():
    x1, x2 = variables(2)
    f = (x1 - x2) * (x1 + 2 * x2)
    assert exact_divide(f, x1 - x2) == x1 + 2 * x2
    assert exact_divide(f, x1 + 2 * x2) == x1 - x2
    assert exact_divide(f, x1) is None
    assert divides(x1 - x2, f)
    assert not divides(x1, f)
    assert exact_divide(Polynomial.zero(2), x1) == 0
    with pytest.raises(ZeroDivisionError):
        exact_divide(x1, Polynomial.zero(2))


def test_exact_divide_random_products():
    rng = random.Random(606)
    for _ in range(25):
        n = rng.randint(1, 3)
        g = _random_poly(rng, n, max_deg=2, max_terms=3)
        h = _random_poly(rng, n, max_deg=2, max_terms=3)
        if not g or not h:
            continue
        assert exact_divide(g * h, g) == h


def test_exact_divide_past_cancellations():
    # dividing f = g*h by g cancels f's term x1^2*x2 in one step and creates
    # it again in a later one, so a term that has left the remainder must be
    # found again when it comes back
    g = Polynomial.parse("2*x1^2-2*x1*x2+2", 2)
    h = Polynomial.parse("-x1^2*x2-2*x1-2*x2", 2)
    assert exact_divide(g * h, g) == h
    # x2^3 lies below lead(g*h) = x1^4*x2, and lead(g) = x1^2 does not divide it
    assert exact_divide(g * h + Polynomial.parse("x2^3", 2), g) is None
    rng = random.Random(707)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 3)
        g = _random_poly(rng, n, max_deg=2, max_terms=4)
        h = _random_poly(rng, n, max_deg=2, max_terms=4)
        if not g or not h:
            continue
        f = g * h
        assert exact_divide(f, g) == h
        top, ge = f.leading()[0], g.leading()[0]
        r = tuple(rng.randint(0, 3) for _ in range(n))
        if grevlex_key(r) <= grevlex_key(top) or all(a >= b for a, b in zip(r, ge)):
            continue
        assert exact_divide(f + Polynomial.monomial(n, r, 3), g) is None
        checked += 1
    assert checked >= 10


def _heap_exact_divide(f, g):
    """Quotient term dict of f/g, or None: the keyed-heap division, the reference.

    The remainder's terms sit in a heap of (grevlex_key(e), e): each term is
    pushed when it appears, popped largest first, and skipped if it has
    cancelled since.
    """
    ge, gc = g.leading()
    work = dict(f.terms)
    heap = [(grevlex_key(e), e) for e in work]
    heapify(heap)
    quot = {}
    while heap:
        e = heappop(heap)[1]
        c = work.get(e)
        if c is None:
            continue
        if any(ei < gi for ei, gi in zip(e, ge)):
            return None
        shift = tuple(ei - gi for ei, gi in zip(e, ge))
        q = coeff_div(c, gc)
        quot[shift] = q
        for k, d in g.terms.items():
            k = tuple(map(add, shift, k))
            s = work.get(k)
            if s is None:
                work[k] = -q * d
                heappush(heap, (grevlex_key(k), k))
            else:
                s -= q * d
                if s:
                    work[k] = s
                else:
                    del work[k]
    return quot


def test_exact_divide_against_keyed_heap_reference():
    rng = random.Random(2024)
    quotients = refusals = inhomogeneous = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        g = Polynomial(
            n,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): Fraction(
                    rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)
                )
                for _ in range(rng.randint(1, 4))
            },
        )
        h = _random_poly(rng, n, max_deg=3, max_terms=5)
        r = _random_poly(rng, n, max_deg=3, max_terms=3)
        inhomogeneous += not g.is_homogeneous()
        for f in (g * h, g * h + r):
            f_terms, g_terms = dict(f.terms), dict(g.terms)
            want = _heap_exact_divide(f, g)
            got = exact_divide(f, g)
            assert f.terms == f_terms and g.terms == g_terms
            if want is None:
                assert got is None
                refusals += 1
                continue
            assert got.terms == want
            assert {e: type(c) for e, c in got.terms.items()} == {
                e: type(c) for e, c in want.items()
            }
            quotients += 1
        # g*h + r is divisible by g exactly when r is
        assert (_heap_exact_divide(g * h + r, g) is None) == (
            _heap_exact_divide(r, g) is None
        )
    assert quotients >= 300 and refusals >= 100 and inhomogeneous >= 100


def test_monomial_order_keys():
    # classic grevlex vs lex disagreement: x1*x3 vs x2^2 (n=3); grevlex_key
    # is a descending rank, so the grevlex-larger x2^2 ranks lower
    a, b = (1, 0, 1), (0, 2, 0)
    assert grevlex_key(a) > grevlex_key(b)
    assert a > b  # plain tuple comparison is lex
    # grevlex sorts by total degree first
    assert grevlex_key((3, 0, 0)) < grevlex_key((1, 1, 0))
    assert sorted([(1, 1, 0), (0, 0, 0), (3, 0, 0)], key=grevlex_key) == [
        (3, 0, 0),
        (1, 1, 0),
        (0, 0, 0),
    ]
    # lex fixture from the exponent tuples of x1 > x2 > x3
    assert (1, 0, 0) > (0, 9, 9)


def test_text_canonical_form():
    x1, x2 = variables(2)
    assert (x1 - x2).text() == "x1-x2"
    assert (x1 * x1 - 2 * x2 * x2).text() == "x1^2-2*x2^2"
    assert (Fraction(3, 2) * x1).text() == "3/2*x1"
    assert (-x1).text() == "-x1"
    assert Polynomial.zero(2).text() == "0"
    assert Polynomial.constant(2, Fraction(-5, 3)).text() == "-5/3"
    # grevlex-descending term order
    assert (x2 + x1 + 1).text() == "x1+x2+1"


def test_parse_round_trip_random():
    rng = random.Random(707)
    for _ in range(60):
        n = rng.randint(1, 4)
        f = _random_poly(rng, n)
        s = f.text()
        assert Polynomial.parse(s, n) == f
        assert Polynomial.parse(s, n).text() == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.parse("x5", 3)
    with pytest.raises(ValueError):
        Polynomial.parse("x1^", 2)
    with pytest.raises(ValueError):
        Polynomial.parse("", 2)
    with pytest.raises(ValueError):
        Polynomial.parse("1.5*x1", 2)
    # a sign or term the pieces do not account for, and a zero denominator
    for bad in ["x1-+x2", "-", "+", "x1+", "3-", "1/0", "x1-1/0*x2"]:
        with pytest.raises(ValueError):
            Polynomial.parse(bad, 2)
    x1, x2 = variables(2)
    assert Polynomial.parse("0", 2) == 0
    assert Polynomial.parse("+x1 - 1/2*x2", 2) == x1 - Fraction(1, 2) * x2


def _leibniz(m):
    """Determinant as a sum over permutations (Leibniz), the reference."""
    total = 0
    for p in itertools.permutations(range(len(m))):
        term = _perm_sign(p)
        for i, j in enumerate(p):
            term = term * m[i][j]
        total = total + term
    return total


def _checked_determinant(m, n):
    """matrix_determinant(m, n), asserting that it leaves m as it was."""
    before = [list(row) for row in m]
    det = matrix_determinant(m, n)
    assert m == before, m
    return det


def test_determinant_matches_leibniz():
    # one Bareiss loop over Q (n = 0) and over Q[x]; singular matrices and
    # zero leading pivots (which need a row swap) are in the mix
    rng = random.Random(1601)
    numbers = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 2, 0], [3, 0, 0]], [[0, 5], [0, 7]]]
    for _ in range(300):
        size = rng.randint(0, 5)
        if rng.random() < 0.5:
            entry = lambda: rng.choice((0, 0, 0, 1, -1, 2, -3))
        else:
            entry = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m = [[entry() for _ in range(size)] for _ in range(size)]
        if size > 1 and rng.random() < 0.3:
            m[-1] = [2 * v for v in m[0]]  # singular
        if size and rng.random() < 0.5:
            m[0][0] = 0  # the first pivot needs a swap
        numbers.append(m)
    swapped = singular = 0
    for m in numbers:
        want = _leibniz(m)
        det = _checked_determinant(m, 0)
        assert det == want and isinstance(det, (int, Fraction)), m
        swapped += bool(m and not m[0][0] and want)
        singular += not want
    assert swapped > 20 and singular > 20

    swapped = singular = 0
    for n in (1, 2, 3):
        x1 = Polynomial.variable(n, 1)
        for _ in range(30):
            size = rng.randint(0, 4)
            m = [
                [_random_poly(rng, n, max_deg=2, max_terms=3) for _ in range(size)]
                for _ in range(size)
            ]
            if size > 1 and rng.random() < 0.3:
                m[-1] = [x1 * v for v in m[0]]  # singular over Q[x]
            if size and rng.random() < 0.5:
                m[0][0] = Polynomial.zero(n)  # the first pivot needs a swap
            want = _leibniz(m)
            det = _checked_determinant(m, n)
            assert det == want and isinstance(det, Polynomial) and det.n == n, m
            swapped += bool(m and not m[0][0] and want)
            singular += not want
    assert swapped > 5 and singular > 5
