"""Supercommutative ring arithmetic and the quotient basis machinery."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from coinvarr import superspace
from coinvarr.arrangements import staircase_monomials
from coinvarr.groebner import Ideal, normal_form
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
    coinvariant_basis,
    euler_d,
    fubini,
    invariant_generators,
    invariant_ideal_rows,
    reduced_parts,
    sr_basis_certificate,
)
from coinvarr.symmetric import coinvariant_generators, complete, power_sum


def dim_bidegree(n, i, j):
    """Dimension of the full bidegree-(i, j) piece of the tensor ring."""
    if i < 0 or j < 0 or j > n:
        return 0
    return math.comb(n, j) * math.comb(i + n - 1, n - 1)


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


def _mono(mono, c=1):
    """The element c * x^exps * t_J of a SuperMonomial."""
    n = len(mono.exps)
    return SuperElement(n, {mono.thetas: Polynomial.monomial(n, mono.exps, c)})


def _scale(omega, c):
    """The scalar multiple c * omega."""
    return SuperElement(omega.n, {J: p * c for J, p in omega.parts.items()})


def _terms(x):
    """x as a row {(exps, J): coefficient}: a row as it is, an element
    flattened part by part."""
    if isinstance(x, dict):
        return x
    return {(e, J): c for J, p in x.parts.items() for e, c in p.terms.items()}


def _element(n, row):
    """The element of a row {(exps, J): coefficient}."""
    parts = {}
    for (e, J), c in row.items():
        parts.setdefault(J, {})[e] = c
    return SuperElement(n, {J: Polynomial(n, terms) for J, terms in parts.items()})


def _rank(xs):
    """Rank over the rationals of rows and elements alike."""
    return len(echelon_rows([_terms(x) for x in xs]))


def all_products_rows(n, i, j, gens):
    """Oracle spanning set of the bidegree-(i, j) ideal piece: every
    generator times every monomial of the complementary bidegree."""
    rows = []
    for g in gens:
        gi, gj = g.bidegree()
        for m in super_monomials(n, i - gi, j - gj):
            rows.append(g * _mono(m))
    return rows


def _standard(n):
    """Standard monomials of the coinvariant basis, listed by degree."""
    standard = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for s in staircase_monomials((), n):
        standard[sum(s)].append(s)
    return standard


def _piece(n, i, j):
    """The rows of the bidegree-(i, j) piece, with the generators, the basis
    and its standard monomials built here, as sr_basis_certificate builds
    them once per n."""
    basis, ok = coinvariant_basis(n)
    assert ok
    reduced = reduced_parts(n, i, invariant_generators(n), _standard(n), basis)
    return invariant_ideal_rows(n, j, reduced)


def _reduce(omega):
    """omega with each t-part reduced modulo the coinvariant ideal, through
    the Buchberger basis of e_1..e_n rather than the closed form."""
    ideal = Ideal(omega.n, coinvariant_generators(omega.n))
    return SuperElement(omega.n, {J: ideal.normal_form(p) for J, p in omega.parts.items()})


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
        out = out + _mono(SuperMonomial(tuple(exps), thetas), coeff(rng))
    return out


def _random_bihomogeneous(rng, n):
    i = rng.randint(0, 3)
    j = rng.randint(0, n)
    mons = super_monomials(n, i, j)
    out = SuperElement.zero(n)
    for m in mons:
        if rng.random() < 0.5:
            out = out + _mono(m, rng.randint(-2, 2))
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
    assert t2 * t1 == _scale(t1 * t2, -1)
    assert t1 * t1 == SuperElement.zero(n)
    x1, x2 = _x(n, 1), _x(n, 2)
    prod = (x1 * t1) * (x2 * t2)
    assert prod == SuperElement(n, {(1, 2): Polynomial.monomial(n, (1, 1))})
    with pytest.raises(AmbientMismatch):
        t1 * _t(3, 1)


def test_malformed_t_keys_are_rejected():
    # t3 * t2t1 is -t1t2t3; a key (2, 1) would give it the sign of t3 * t1t2
    n = 3
    one = Polynomial.one(n)
    with pytest.raises(ValueError):
        SuperElement(n, {(3,): one}) * SuperElement(n, {(2, 1): one})
    for key in ((2, 1), (1, 1), (4,), (0,)):
        with pytest.raises(ValueError):
            SuperElement(n, {key: one})
        with pytest.raises(ValueError):
            SuperElement(n, {key: Polynomial.zero(n)})
    with pytest.raises(ValueError):
        SuperElement.theta(n, 4)
    assert _t(n, 3) * (_t(n, 2) * _t(n, 1)) == SuperElement(n, {(1, 2, 3): -one})


def test_parts_are_polynomials_with_exact_coefficients():
    with pytest.raises(TypeError):
        _mono(SuperMonomial((1, 0), (2,))) * 0.5
    with pytest.raises(TypeError):
        SuperElement(2, {(1,): Fraction(1, 2)})
    with pytest.raises(AmbientMismatch):
        SuperElement(2, {(): Polynomial.one(3)})
    assert SuperElement(2, {(1,): Polynomial.zero(2)}) == SuperElement.zero(2)
    rows = _piece(3, 2, 1)
    assert rows
    for row in rows:
        assert all(type(c) is int for c in row.values())
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
        assert a * b == _scale(b * a, (-1) ** (ja * jb))


def test_euler_d_fixtures():
    n = 3
    assert euler_d(_x(n, 1)) == _t(n, 1)
    assert euler_d(_x(n, 1) * _t(n, 1)) == SuperElement.zero(n)
    p2 = SuperElement.from_polynomial(power_sum(2, n))
    expected = SuperElement.zero(n)
    for i in range(1, n + 1):
        expected = expected + _scale(_x(n, i) * _t(n, i), 2)
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
        rhs = euler_d(a) * b + _scale(a * euler_d(b), (-1) ** ja)
        assert lhs == rhs


def test_sn_act_fixtures():
    n = 2
    t1t2 = _t(n, 1) * _t(n, 2)
    assert sn_act((2, 1), t1t2) == _scale(t1t2, -1)
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


def _dense_rank(rows):
    # independent oracle: dense Gaussian elimination with row pivoting
    cols = sorted({key for terms in rows for key in terms})
    idx = {key: k for k, key in enumerate(cols)}
    m = []
    for terms in rows:
        row = [Fraction(0)] * len(cols)
        for key, c in terms.items():
            row[idx[key]] = Fraction(c)  # int / int below would be a float
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
    """A term dict as an object with .terms, for rank_of_elements."""

    def __init__(self, terms):
        self.terms = terms


# the natural tuple order reversed, as a column order for echelon_rows
_REVERSED = functools.cmp_to_key(lambda a, b: (a < b) - (a > b))


def _assert_rank(rows):
    # echelon_rows and rank_of_elements against the dense oracle, under the
    # natural column order and its reverse: each pivot row is keyed by its
    # smallest key under the order, the keys are distinct, and the rows are
    # primitive integer rows that span the rows' span
    rank = _dense_rank(rows)
    assert rank_of_elements([_Row(row) for row in rows]) == rank
    for key in (None, _REVERSED):
        pivots = echelon_rows(rows, key=key)
        assert len(pivots) == rank
        leads = [min(row, key=key) for row in pivots.values()]
        assert leads == list(pivots)
        assert len(set(leads)) == len(leads)
        for row in pivots.values():
            assert all(type(v) is int and v for v in row.values())
            assert math.gcd(*row.values()) == 1
        assert _dense_rank(rows + list(pivots.values())) == rank


def test_rank_matches_dense_oracle():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 3)
        elems = [_random_element(rng, n, 2, 3) for _ in range(rng.randint(1, 6))]
        _assert_rank([_terms(e) for e in elems])
    # degenerate inputs
    z = SuperElement.zero(2)
    e = SuperElement.from_polynomial(Polynomial.one(2))
    assert _rank([z, z]) == 0
    assert _rank([e, e, _scale(e, 2)]) == 1
    q = _scale(_x(2, 1), Fraction(3, 5)) + _scale(_t(2, 2), Fraction(-7, 11))
    big = Fraction(10**40 + 1, 10**20 + 3)
    assert _rank([]) == 0
    assert _rank([z, q, z, q, q]) == 1
    assert _rank([q, _scale(q, big), _scale(q, Fraction(-1, 9))]) == 1
    assert _rank([_scale(q, big), _t(2, 2), q]) == 2
    for elems in ([z, z], [e, e, _scale(e, 2)], [z, q, z, q, q], [_scale(q, big), _t(2, 2), q]):
        _assert_rank([_terms(e) for e in elems])
    assert echelon_rows([]) == {}
    # a zero entry is no term: it must neither take a pivot nor hide a column
    rows = [{(0,): 0, (1,): 1}, {(0,): 1}]
    assert echelon_rows(rows) == {(1,): {(1,): 1}, (0,): {(0,): 1}}
    _assert_rank(rows)
    _assert_rank([{(0,): 0}, {(0,): Fraction(0, 3), (1,): Fraction(2, 3)}])


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
            elems.append(_scale(a, _random_fraction(rng)) + _scale(b, _random_fraction(rng)))
        rng.shuffle(elems)
        _assert_rank([_terms(e) for e in elems])


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
        _assert_rank([p.terms for p in rows])
        assert rank_of_elements(rows) == _dense_rank([p.terms for p in rows])
    x1, x2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
    f = x1 * Fraction(2, 3) - x2 * Fraction(5, 7)
    assert rank_of_elements([f, f * Fraction(-21, 4)]) == 1
    assert rank_of_elements([f, f * Fraction(-21, 4), x1]) == 2


def test_ideal_pieces_cross_checked_against_dense_rank():
    for n in (2, 3):
        for i in range(n * (n - 1) // 2 + 1):
            for j in range(n + 1):
                rows = _piece(n, i, j)
                assert _rank(rows) == _dense_rank(rows), (n, i, j)


def test_rows_span_the_all_products_piece():
    # modulo P, the basis-sized rows span exactly what every generator x
    # monomial product spans: every bidegree at n <= 3, the largest n = 4
    # piece (6, 2), and (6, 3) and (5, 2) of the next size
    cases = [
        (n, i, j)
        for n in (1, 2, 3)
        for i in range(n * (n - 1) // 2 + 1)
        for j in range(n + 1)
    ]
    cases += [(4, 6, 2), (4, 6, 3), (4, 5, 2)]
    for n, i, j in cases:
        new = _piece(n, i, j)
        old = [_reduce(r) for r in all_products_rows(n, i, j, invariant_generators(n))]
        rank = _rank(new)
        assert rank == _rank(old) == _rank(new + old), (n, i, j)


def product_rows(n, i, j, gens, standard, basis):
    """Oracle for invariant_ideal_rows: each row formed as the product
    dp_k * x^s * t_J', reduced part by part and flattened, in the same
    order."""
    rows = []
    if j < 1:
        return rows
    for g in gens:
        gi, gj = g.bidegree()
        if gj != 1 or gi > i:
            continue
        for J in itertools.combinations(range(1, n + 1), j - 1):
            for s in standard[i - gi]:
                row = g * _mono(SuperMonomial(s, J))
                parts = {K: normal_form(p, basis) for K, p in row.parts.items()}
                rows.append(_terms(SuperElement(n, parts)))
    return rows


def test_rows_match_the_reduced_products_row_by_row():
    # the rows are written from once-reduced parts; the normal form is
    # linear, so each must equal the reduced product, in the same place and
    # with its terms in the same order
    for n in (1, 2, 3):
        basis = coinvariant_basis(n)[0]
        gens = invariant_generators(n)
        standard = _standard(n)
        for i in range(n * (n - 1) // 2 + 1):
            reduced = reduced_parts(n, i, gens, standard, basis)
            for j in range(n + 1):
                rows = invariant_ideal_rows(n, j, reduced)
                oracle = product_rows(n, i, j, gens, standard, basis)
                assert [list(r.items()) for r in rows] == [
                    list(r.items()) for r in oracle
                ], (n, i, j)


def test_certificate_reduces_each_part_once(monkeypatch):
    # one normal form per part of dp_k * x^s, shared by every t-set J' of
    # every j, plus the basis check; the candidates need none: 45 at n = 3
    # (142 when each piece reduced its own parts and each candidate was
    # reduced, 184 when every row reduced its own product)
    calls = []
    real = superspace.normal_form

    def counted(f, basis):
        calls.append(f)
        return real(f, basis)

    monkeypatch.setattr(superspace, "normal_form", counted)
    assert sr_basis_certificate(3)[1]
    assert len(calls) <= 45


def test_table_matches_the_dense_all_products_oracle():
    # the table against dense elimination of every generator x monomial
    # product in the whole ring, with no normal form anywhere; one degree
    # past C(n, 2) the products fill every bidegree
    for n in (1, 2, 3):
        gens = invariant_generators(n)
        table, ok = sr_basis_certificate(n)
        top = n * (n - 1) // 2
        assert ok and set(table) == {(i, j) for i in range(top + 1) for j in range(n + 1)}
        for i in range(top + 2):
            for j in range(n + 1):
                rank = _dense_rank([_terms(r) for r in all_products_rows(n, i, j, gens)])
                assert table.get((i, j), 0) == dim_bidegree(n, i, j) - rank, (n, i, j)


def test_piece_rows_stay_basis_sized():
    # at n = 4 the pieces take 1230 rows in all, against 10551 generator x
    # monomial products; a return to all products fails here
    n = 4
    top = n * (n - 1) // 2
    sizes = [len(_piece(n, i, j)) for i in range(top + 1) for j in range(n + 1)]
    assert sum(sizes) == 1230


def test_coinvariant_basis_matches_buchberger():
    # the closed form is the reduced basis Buchberger finds for e_1..e_n, its
    # standard monomials are the staircase, and they count the coinvariant
    # Hilbert series (Mahonian numbers: [3]_q! = 1 + 2q + 2q^2 + q^3)
    for n in range(1, 6):
        basis, ok = coinvariant_basis(n)
        ideal = Ideal(n, coinvariant_generators(n))
        assert ok and basis == ideal.groebner(), n
        assert set(ideal.standard_monomials()) == set(staircase_monomials((), n)), n
    assert [len(d) for d in _standard(3)] == [1, 2, 2, 1]
    assert [len(d) for d in _standard(4)] == [1, 3, 5, 6, 5, 3, 1]


def test_ideal_piece_fixtures():
    # columns are standard monomials times t_J: n = 1 has none in degree 1,
    # and its one piece without t-part has no rows
    assert _piece(1, 0, 0) == [] and _standard(1) == [[(0,)]]
    # n = 2, bidegree (0, 1): the single row t1 + t2 among 2 columns
    rows = _piece(2, 0, 1)
    assert rows == [_terms(_t(2, 1) + _t(2, 2))]
    # n = 3, bidegree (0, 2): rank 2 among 3 columns, codimension 1
    assert _rank(_piece(3, 0, 2)) == 2
    # no row carries a term outside the standard columns
    for i, degree in enumerate(_standard(3)):
        for j in range(4):
            for row in _piece(3, i, j):
                assert {e for e, _ in row} <= set(degree), (i, j)


def test_ideal_pieces_are_symmetric_group_stable():
    # the image of the ideal modulo P is stable under S_n, once the acted
    # rows are reduced again
    for n in (2, 3):
        for i in range(n * (n - 1) // 2 + 1):
            for j in range(n + 1):
                rows = _piece(n, i, j)
                base = _rank(rows)
                for w in itertools.permutations(range(1, n + 1)):
                    acted = [_reduce(sn_act(w, _element(n, r))) for r in rows]
                    assert _rank(rows + acted) == base


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
    # modulo P; find such a set by brute force
    rows = _piece(n, 2, 0)
    dim = len(_standard(n)[2])
    dependent = next(
        list(combo)
        for combo in itertools.combinations(super_monomials(n, 2, 0), table[(2, 0)])
        if _rank([_reduce(_mono(m)) for m in combo] + rows) < dim
    )
    swapped = [m for m in good if m.bidegree() != (2, 0)] + dependent
    assert len(swapped) == len(good)
    monkeypatch.setattr(superspace, "artin_monomials", lambda k: swapped)
    assert sr_basis_certificate(n) == (table, False)
    # a missing candidate fails too; the table never depends on the candidates
    monkeypatch.setattr(superspace, "artin_monomials", lambda k: good[1:])
    assert sr_basis_certificate(n) == (table, False)


def test_free_columns_need_the_candidates_last():
    # the certificate reads the free columns of each piece with its
    # candidates ordered last; under the natural tuple order some piece at
    # n = 3 leaves other columns free, so a fixed order would refuse the
    # true basis, and only the candidates-last order makes the set equality
    # both necessary and sufficient
    n = 3
    standard = _standard(n)
    buckets = {}
    for m in artin_monomials(n):
        buckets.setdefault(m.bidegree(), set()).add((m.exps, m.thetas))
    differs = []
    for (i, j), candidates in buckets.items():
        rows = _piece(n, i, j)
        columns = {
            (s, J) for s in standard[i] for J in itertools.combinations(range(1, n + 1), j)
        }
        last = echelon_rows(rows, key=lambda c: (c in candidates, c))
        assert columns - last.keys() == candidates, (i, j)
        if columns - echelon_rows(rows).keys() != candidates:
            differs.append((i, j))
    assert differs


def test_sr_basis_certificate_fails_on_broken_rows(monkeypatch):
    # dropping dp_n, or losing the sign of t_a * t_b, changes the ideal pieces
    n = 3
    real_gens = superspace.invariant_generators
    monkeypatch.setattr(superspace, "invariant_generators", lambda k: real_gens(k)[:-1])
    assert not sr_basis_certificate(n)[1]
    monkeypatch.undo()
    real_sign = superspace._merge_sign

    def unsigned(a, b):
        sign, merged = real_sign(a, b)
        return abs(sign), merged

    monkeypatch.setattr(superspace, "_merge_sign", unsigned)
    assert not sr_basis_certificate(n)[1]


def _bent_complete(monkeypatch, key, extra):
    """Make superspace's complete(d, n, A) return h_d(A) + extra for key."""
    real = superspace.complete

    def bent(d, n, A=None):
        h = real(d, n, A)
        return h + extra if (d, n, tuple(A or ())) == key else h

    monkeypatch.setattr(superspace, "complete", bent)


def test_sr_basis_certificate_needs_the_closed_form_basis(monkeypatch):
    # h_2(x2, x3) + x3^2 keeps the lead x2^2 but leaves P
    n = 3
    _bent_complete(monkeypatch, (2, n, (2, 3)), Polynomial.monomial(n, (0, 0, 2)))
    assert not coinvariant_basis(n)[1]
    assert not sr_basis_certificate(n)[1]
    # with p_3 replaced by x1 * p_2, every p_k still reduces to 0 and the
    # leads are right, but the p_k generate less than the basis: x3^3 is no
    # combination of the degree-3 products, so only the span check fails
    monkeypatch.undo()
    real = superspace.power_sum
    x1p2 = Polynomial.variable(n, 1) * real(2, n)
    monkeypatch.setattr(
        superspace, "power_sum", lambda k, m: x1p2 if (k, m) == (3, n) else real(k, m)
    )
    assert not coinvariant_basis(n)[1]


def test_sr_basis_certificate_checks_vanishing_above_top(monkeypatch):
    # the grid stops at x-degree C(n, 2); the quotient vanishes above it only
    # because the basis leaves no standard monomial there, so a basis whose
    # last element is x3^4 (in P, but it leaves x2*x3^3 of degree 4) fails
    n = 3
    table, ok = sr_basis_certificate(n)
    assert ok and max(i for i, _ in table) == 3
    x3 = Polynomial.variable(n, 3)
    _bent_complete(monkeypatch, (3, n, (3,)), x3**4 - x3**3)
    basis, ok = coinvariant_basis(n)
    assert basis[-1] == x3**4 and not ok
    assert not sr_basis_certificate(n)[1]


def test_piece_gains_rank_only_from_a_row_outside_the_ideal():
    # piece (0, 1) at n = 2, the span of the ideal's rows in that bidegree:
    # t1 + t2 lies in it and adds no rank, t2 lies outside and adds one
    n = 2
    rows = _piece(n, 0, 1)
    base = _rank(rows)
    inside = _t(n, 1) + _t(n, 2)
    assert _rank(rows + [inside]) == base
    outside = _t(n, 2)
    assert _rank(rows + [outside]) == base + 1


def test_unit_row_candidates_need_standard_exponents(monkeypatch):
    # x1*x3 for x2*x3 keeps the count, and its unit row is independent of
    # x3^2's, so a count or a rank check would pass it; but x1*x3 is not
    # standard, so it is no column, and the free-column equality refuses it
    n = 3
    table, ok = sr_basis_certificate(n)
    assert ok
    good = artin_monomials(n)
    assert SuperMonomial((0, 1, 1), ()) in good
    bad = SuperMonomial((1, 0, 1), ())
    swapped = [bad if m == SuperMonomial((0, 1, 1), ()) else m for m in good]
    assert len(swapped) == len(good)
    assert len(echelon_rows([{(bad.exps, ()): 1}, {((0, 0, 2), ()): 1}])) == 2
    monkeypatch.setattr(superspace, "artin_monomials", lambda k: swapped)
    assert sr_basis_certificate(n) == (table, False)


def test_candidates_are_their_own_normal_forms():
    # every candidate's x^a is standard for the closed-form basis, so
    # every candidate is a column of its bidegree
    for n in range(1, 6):
        basis, ok = coinvariant_basis(n)
        assert ok
        for m in artin_monomials(n):
            x = Polynomial.monomial(n, m.exps)
            assert normal_form(x, basis) == x, (n, m)
