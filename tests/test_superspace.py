"""Supercommutative ring arithmetic and the quotient basis machinery."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from coinvarr import superspace
from coinvarr.groebner import Ideal
from coinvarr.polynomials import (
    AmbientMismatch,
    Polynomial,
    echelon_rows,
    grevlex_key,
    rank_of_elements,
)
from coinvarr.superspace import (
    SuperElement,
    SuperMonomial,
    artin_monomials,
    commutative_echelons,
    dim_bidegree,
    euler_d,
    fubini,
    invariant_generators,
    invariant_ideal_rows,
    sr_basis_certificate,
)
from coinvarr.symmetric import coinvariant_generators, complete, power_sum


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


def all_products_rows(n, i, j, gens):
    """Oracle spanning set of the bidegree-(i, j) ideal piece: every
    generator times every monomial of the complementary bidegree."""
    rows = []
    for g in gens:
        gi, gj = g.bidegree()
        for m in super_monomials(n, i - gi, j - gj):
            rows.append(g * SuperElement.monomial(m))
    return rows


def _piece(n, i, j):
    """invariant_ideal_rows(n, i, j) with the generators and echelons built
    here, as sr_basis_certificate builds them once per n."""
    gens = invariant_generators(n)
    return invariant_ideal_rows(n, i, j, gens, commutative_echelons(n, gens, i))


def _x(n, i):
    return SuperElement.from_polynomial(Polynomial.variable(n, i))


def _t(n, i):
    return SuperElement.theta(n, i)


def sn_act(w, omega):
    """Relabel both variable families along a permutation of 1..n.

    x_i goes to x_w(i) inside each p_J, and t_J to the product of the
    t_w(j) over j in J, taken in the order of J.  The oracle for the
    S_n-invariance of the ideal generators and pieces.
    """
    w = tuple(w)
    n = omega.n
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    source = [w.index(k) for k in range(1, n + 1)]
    out = SuperElement.zero(n)
    for thetas, p in omega.parts.items():
        moved = {tuple(e[s] for s in source): c for e, c in p.terms.items()}
        image = SuperElement.from_polynomial(Polynomial(n, moved))
        for j in thetas:
            image = image * _t(n, w[j - 1])
        out = out + image
    return out


def _random_element(rng, n, max_deg=3, terms=4, coeff=lambda rng: rng.randint(-3, 3)):
    out = SuperElement.zero(n)
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        thetas = tuple(
            sorted(i for i in range(1, n + 1) if rng.random() < 0.4)
        )
        mono = SuperMonomial(tuple(exps), thetas)
        out = out + SuperElement.monomial(mono) * coeff(rng)
    return out


def _random_bihomogeneous(rng, n):
    i = rng.randint(0, 3)
    j = rng.randint(0, n)
    mons = super_monomials(n, i, j)
    out = SuperElement.zero(n)
    for m in mons:
        if rng.random() < 0.5:
            out = out + SuperElement.monomial(m) * rng.randint(-2, 2)
    return out, i, j


def test_super_monomial_basics():
    m = SuperMonomial((0, 1, 2), (1, 3))
    assert m.bidegree() == (3, 2)
    assert m.text() == "x2*x3^2*t1*t3"
    assert SuperMonomial((0, 0), ()).text() == "1"
    with pytest.raises(ValueError):
        SuperMonomial((0, -1), ())
    with pytest.raises(ValueError):
        SuperMonomial((0, 0), (2, 1))
    with pytest.raises(ValueError):
        SuperMonomial((0, 0), (3,))


def test_multiply_sign_fixtures():
    n = 2
    t1, t2 = _t(n, 1), _t(n, 2)
    assert t2 * t1 == -(t1 * t2)
    assert t1 * t1 == SuperElement.zero(n)
    x1, x2 = _x(n, 1), _x(n, 2)
    prod = (x1 * t1) * (x2 * t2)
    assert prod == SuperElement(n, {(1, 2): Polynomial.monomial(n, (1, 1))})
    with pytest.raises(AmbientMismatch):
        t1 * _t(3, 1)


def test_parts_are_polynomials_with_exact_coefficients():
    mono = SuperMonomial((1, 0), (2,))
    with pytest.raises(TypeError):
        SuperElement.monomial(mono) * 0.5
    with pytest.raises(AmbientMismatch):
        SuperElement(2, {(): Polynomial.one(3)})
    assert SuperElement(2, {(1,): Polynomial.zero(2)}) == SuperElement.zero(2)
    rows = _piece(3, 2, 1)
    assert rows
    for row in rows:
        assert all(type(c) is int for c in row.terms.values())
    # the t-free parts multiply exactly as Polynomials do
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 3)
        f, g = (
            Polynomial(
                n,
                {
                    tuple(rng.randint(0, 2) for _ in range(n)): _random_fraction(rng)
                    for _ in range(rng.randint(0, 4))
                },
            )
            for _ in range(2)
        )
        product = SuperElement.from_polynomial(f) * SuperElement.from_polynomial(g)
        assert product == SuperElement.from_polynomial(f * g)


def test_multiply_associative_and_supercommutative():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        c = _random_element(rng, n)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for _ in range(25):
        n = rng.randint(1, 3)
        a, _, ja = _random_bihomogeneous(rng, n)
        b, _, jb = _random_bihomogeneous(rng, n)
        assert a * b == (-1) ** (ja * jb) * (b * a)


def test_euler_d_fixtures():
    n = 3
    assert euler_d(_x(n, 1)) == _t(n, 1)
    assert euler_d(_x(n, 1) * _t(n, 1)) == SuperElement.zero(n)
    p2 = SuperElement.from_polynomial(power_sum(2, n))
    expected = SuperElement.zero(n)
    for i in range(1, n + 1):
        expected = expected + 2 * (_x(n, i) * _t(n, i))
    assert euler_d(p2) == expected
    one = SuperElement.from_polynomial(Polynomial.one(n))
    assert euler_d(one) == SuperElement.zero(n)


def test_euler_d_squares_to_zero():
    rng = random.Random(29)
    for n in range(1, 5):
        for _ in range(25):
            omega = _random_element(rng, n)
            assert euler_d(euler_d(omega)) == SuperElement.zero(n)


def test_euler_d_super_leibniz():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        a, _, ja = _random_bihomogeneous(rng, n)
        b, _, _ = _random_bihomogeneous(rng, n)
        lhs = euler_d(a * b)
        rhs = euler_d(a) * b + (-1) ** ja * (a * euler_d(b))
        assert lhs == rhs


def test_sn_act_fixtures():
    n = 2
    t1t2 = _t(n, 1) * _t(n, 2)
    assert sn_act((2, 1), t1t2) == -t1t2
    omega = _x(n, 1) * _t(n, 2)
    assert sn_act((1, 2), omega) == omega
    assert sn_act((2, 1), omega) == _x(n, 2) * _t(n, 1)
    with pytest.raises(ValueError):
        sn_act((1, 1), omega)


def test_sn_act_group_law_and_equivariance():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 4)
        perms = list(itertools.permutations(range(1, n + 1)))
        w = rng.choice(perms)
        v = rng.choice(perms)
        omega = _random_element(rng, n)
        wv = tuple(w[v[i] - 1] for i in range(n))
        assert sn_act(w, sn_act(v, omega)) == sn_act(wv, omega)
        assert sn_act(w, euler_d(omega)) == euler_d(sn_act(w, omega))


def test_invariant_generators_are_invariant():
    for n in range(1, 4):
        for g in invariant_generators(n):
            for w in itertools.permutations(range(1, n + 1)):
                assert sn_act(w, g) == g


def _dense_rank(elements):
    # independent oracle: dense Gaussian elimination with row pivoting
    cols = sorted({key for e in elements for key in e.terms})
    idx = {key: k for k, key in enumerate(cols)}
    m = []
    for e in elements:
        row = [Fraction(0)] * len(cols)
        for key, c in e.terms.items():
            row[idx[key]] = c
        m.append(row)
    rank = 0
    for c in range(len(cols)):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class _Row:
    """A bare terms dict as an element, to feed echelon rows back in."""

    def __init__(self, terms):
        self.terms = terms


def _assert_rank(elems):
    # rank_of_elements and echelon_rows against the dense oracle: the pivot
    # rows are primitive integer rows with distinct pivots (smallest keys)
    # that span the elements' span
    rank = _dense_rank(elems)
    pivots = echelon_rows(elems)
    assert rank_of_elements(elems) == len(pivots) == rank
    leads = [min(row) for row in pivots]
    assert len(set(leads)) == len(leads)
    for row in pivots:
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1
    assert _dense_rank(elems + [_Row(row) for row in pivots]) == rank


def test_rank_matches_dense_oracle():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 3)
        elems = [_random_element(rng, n, 2, 3) for _ in range(rng.randint(1, 6))]
        _assert_rank(elems)
    # degenerate inputs
    z = SuperElement.zero(2)
    e = SuperElement.from_polynomial(Polynomial.one(2))
    assert rank_of_elements([z, z]) == 0
    assert rank_of_elements([e, e, 2 * e]) == 1
    q = _x(2, 1) * Fraction(3, 5) + _t(2, 2) * Fraction(-7, 11)
    big = Fraction(10**40 + 1, 10**20 + 3)
    assert rank_of_elements([]) == 0
    assert rank_of_elements([z, q, z, q, q]) == 1
    assert rank_of_elements([q, q * big, q * Fraction(-1, 9)]) == 1
    assert rank_of_elements([q * big, _t(2, 2), q]) == 2
    for elems in ([z, z], [e, e, 2 * e], [z, q, z, q, q], [q * big, _t(2, 2), q]):
        _assert_rank(elems)
    assert echelon_rows([]) == []


def _random_fraction(rng):
    # mixed denominators, and now and then a numerator far beyond a machine word
    num = rng.choice([rng.randint(-9, 9), rng.randint(-(10**30), 10**30)])
    return Fraction(num, rng.choice([1, 2, 3, 4, 6, 7, 9, 10, 12, 35, 10**18 + 9]))


def test_rank_matches_dense_oracle_on_rational_rows():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 3)
        elems = [
            _random_element(rng, n, 2, rng.randint(1, 4), _random_fraction)
            for _ in range(rng.randint(1, 6))
        ]
        # rational combinations of earlier rows keep the rank but not the shape
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(elems), rng.choice(elems)
            elems.append(a * _random_fraction(rng) + b * _random_fraction(rng))
        rng.shuffle(elems)
        _assert_rank(elems)


def test_rank_matches_dense_oracle_on_polynomials():
    # normal forms modulo the coinvariant ideal, as the quotient checks use
    rng = random.Random(47)
    n = 3
    ideal = Ideal(n, coinvariant_generators(n))
    for _ in range(10):
        rows = []
        for _ in range(rng.randint(1, 8)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 3) for _ in range(n))
                terms[exps] = _random_fraction(rng)
            rows.append(ideal.normal_form(Polynomial(n, terms)))
        _assert_rank(rows)
    x1, x2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    f = x1 * Fraction(2, 3) - x2 * Fraction(5, 7)
    assert rank_of_elements([f, f * Fraction(-21, 4)]) == 1
    assert rank_of_elements([f, f * Fraction(-21, 4), x1]) == 2


def test_ideal_pieces_cross_checked_against_dense_rank():
    for n in (2, 3):
        for i in range(n * (n - 1) // 2 + 1):
            for j in range(n + 1):
                rows = _piece(n, i, j)
                assert rank_of_elements(rows) == _dense_rank(rows), (n, i, j)


def test_rows_span_the_all_products_piece():
    # the basis-sized rows span exactly what every generator x monomial
    # product spans: every bidegree at n <= 3, the largest n = 4 piece
    # (6, 2), and (6, 3) and (5, 2) of the next size
    cases = [
        (n, i, j)
        for n in (1, 2, 3)
        for i in range(n * (n - 1) // 2 + 1)
        for j in range(n + 1)
    ]
    cases += [(4, 6, 2), (4, 6, 3), (4, 5, 2)]
    for n, i, j in cases:
        new = _piece(n, i, j)
        old = all_products_rows(n, i, j, invariant_generators(n))
        rank = rank_of_elements(new)
        assert rank == rank_of_elements(old) == rank_of_elements(new + old), (n, i, j)


def test_piece_rows_stay_basis_sized():
    # at n = 4 the pieces take 4206 rows in all, against 10551 generator x
    # monomial products; a return to all products fails here
    n = 4
    top = n * (n - 1) // 2
    gens = invariant_generators(n)
    echelons = commutative_echelons(n, gens, top)
    sizes = [
        len(invariant_ideal_rows(n, i, j, gens, echelons))
        for i in range(top + 1)
        for j in range(n + 1)
    ]
    assert sum(sizes) == 4206


def test_commutative_echelons_split_each_degree():
    # pivots and standard monomials partition the monomials of each degree,
    # and the standard ones count the coinvariant Hilbert series
    # (Mahonian numbers: [3]_q! = 1 + 2q + 2q^2 + q^3 at n = 3)
    n = 3
    gens = invariant_generators(n)
    echelons = commutative_echelons(n, gens, 4)
    for d, (pivots, standard) in enumerate(echelons):
        monos = set(complete(d, n).terms)
        leads = {min(p.terms) for p in pivots}
        assert len(leads) == len(pivots)
        assert leads | set(standard) == monos and not leads & set(standard)
    assert [len(standard) for _, standard in echelons] == [1, 2, 2, 1, 0]


def test_ideal_piece_fixtures():
    # n = 1: the ideal swallows everything in positive degree
    rows = _piece(1, 1, 0)
    assert rank_of_elements(rows) == dim_bidegree(1, 1, 0) == 1
    # n = 2, bidegree (0,1): the single row t1+t2, codimension 1
    rows = _piece(2, 0, 1)
    assert rank_of_elements(rows) == 1
    assert dim_bidegree(2, 0, 1) - 1 == 1
    # n = 3, bidegree (0,2): codimension 1
    rows = _piece(3, 0, 2)
    assert dim_bidegree(3, 0, 2) - rank_of_elements(rows) == 1


def test_ideal_pieces_are_symmetric_group_stable():
    for n in (2, 3):
        for i in range(3):
            for j in range(n + 1):
                rows = _piece(n, i, j)
                base = rank_of_elements(rows)
                for w in itertools.permutations(range(1, n + 1)):
                    acted = [sn_act(w, r) for r in rows]
                    assert rank_of_elements(rows + acted) == base


def test_super_monomials_count_and_uniqueness():
    for n in range(1, 4):
        for i in range(4):
            for j in range(n + 2):
                mons = super_monomials(n, i, j)
                assert len(mons) == len(set(mons)) == dim_bidegree(n, i, j)
    # within a t_J block the x-monomials run grevlex-descending
    assert [m.exps for m in super_monomials(3, 2, 0)] == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def _fubini_literal(n):
    # surjections onto an initial segment 1..k, one per ordered partition
    count = 0
    for f in itertools.product(range(1, n + 1), repeat=n):
        image = set(f)
        if image == set(range(1, len(image) + 1)):
            count += 1
    return count


def test_fubini_against_literal_enumeration():
    assert [fubini(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]
    for n in range(1, 6):
        assert fubini(n) == _fubini_literal(n)


def test_artin_monomials_display_n3():
    got = [m.text() for m in artin_monomials(3)]
    assert got == [
        "x2*x3^2",
        "x2*x3",
        "x2",
        "x3^2",
        "x3",
        "1",
        "x2*x3*t3",
        "x2*t3",
        "x3*t3",
        "t3",
        "x3*t2",
        "t2",
        "t2*t3",
    ]
    assert [m.text() for m in artin_monomials(1)] == ["1"]
    for n in range(1, 5):
        assert len(artin_monomials(n)) == fubini(n)


def test_bigraded_dimensions_match_monomial_bidegrees():
    for n in (1, 2, 3):
        table, _ = sr_basis_certificate(n)
        counted = {}
        for m in artin_monomials(n):
            counted[m.bidegree()] = counted.get(m.bidegree(), 0) + 1
        for key, dim in table.items():
            assert dim == counted.get(key, 0), (n, key)
        assert sum(table.values()) == fubini(n)


def test_verify_sr_basis_small():
    for n in (1, 2, 3):
        assert sr_basis_certificate(n)[1]


def test_sr_basis_certificate_has_teeth(monkeypatch):
    n = 3
    table, ok = sr_basis_certificate(n)
    assert ok
    good = artin_monomials(n)
    # at (2, 0) the right number of candidates can still be dependent
    # modulo the ideal piece; find such a set by brute force
    rows = _piece(n, 2, 0)
    dim = dim_bidegree(n, 2, 0)
    dependent = next(
        list(combo)
        for combo in itertools.combinations(super_monomials(n, 2, 0), table[(2, 0)])
        if rank_of_elements([SuperElement.monomial(m) for m in combo] + rows) < dim
    )
    swapped = [m for m in good if m.bidegree() != (2, 0)] + dependent
    assert len(swapped) == len(good)
    monkeypatch.setattr(superspace, "artin_monomials", lambda k: swapped)
    assert sr_basis_certificate(n) == (table, False)
    # a missing candidate fails too; the table never depends on the candidates
    monkeypatch.setattr(superspace, "artin_monomials", lambda k: good[1:])
    assert sr_basis_certificate(n) == (table, False)


def test_sr_basis_certificate_checks_vanishing_above_top(monkeypatch):
    # the grid stops at x-degree C(n, 2); the certificate also needs P to
    # swallow degree C(n, 2) + 1, so one standard monomial left there fails it
    n = 3
    top = 3
    table, ok = sr_basis_certificate(n)
    assert ok and max(i for i, _ in table) == top
    real = superspace.commutative_echelons

    def leaky(n, gens, upto):
        echelons = real(n, gens, upto)
        pivots, standard = echelons[top + 1]
        assert upto == top + 1 and not standard
        echelons[top + 1] = (pivots[1:], [min(pivots[0].terms)])
        return echelons

    monkeypatch.setattr(superspace, "commutative_echelons", leaky)
    assert sr_basis_certificate(n) == (table, False)


def test_stacked_rank_check_has_teeth():
    # a candidate living inside the ideal fails the stacking test
    n = 2
    rows = _piece(n, 0, 1)
    base = rank_of_elements(rows)
    inside = _t(n, 1) + _t(n, 2)
    assert rank_of_elements(rows + [inside]) == base
    outside = _t(n, 2)
    assert rank_of_elements(rows + [outside]) == base + 1
