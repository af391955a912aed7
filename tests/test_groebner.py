"""Groebner engine: bases, normal forms, colon ideals, Artinian detection."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import coinvarr.groebner as groebner
from coinvarr.groebner import (
    Ideal,
    _packing,
    _packing_for,
    colon,
    groebner_basis,
    ideal_equal,
    is_regular_sequence,
    normal_form,
    s_polynomial,
)
from coinvarr.polynomials import (
    AmbientMismatch,
    Polynomial,
    clear_suite_caches,
    coeff_div,
    echelon_rows,
    grevlex_key,
    rank_of_elements,
    variables,
)
from coinvarr.symmetric import coinvariant_generators, elementary


def _parse(s, n):
    return Polynomial.parse(s, n)


def _lex_key(exps):
    """Descending rank of lex order: the lex-larger tuple ranks lower."""
    return tuple(-e for e in exps)


def elim_key(k):
    """Descending rank of the block order eliminating the first k variables.

    Blocks compare first-block first, grevlex inside each block: the
    reference rank for the engine's blocks=(k, n - k).
    """

    def key(exps):
        return (grevlex_key(exps[:k]), grevlex_key(exps[k:]))

    return key


def test_groebner_lex_fixture():
    # hand-derived: S(x1+x2, x1*x2) = x2^2 under lex, already reduced
    x1, x2 = variables(2)
    gb = groebner_basis([x1 + x2, x1 * x2], blocks=(1, 1))
    assert [g.text() for g in gb] == ["x2^2", "x1+x2"] or [
        g.text() for g in gb
    ] == ["x1+x2", "x2^2"]
    texts = {g.text() for g in gb}
    assert texts == {"x1+x2", "x2^2"}


def _ref_nf(t, basis, key):
    """Reference reducer: rank the whole remainder at every step.

    This is the reduction without a heap: the leading term is the min of
    key over every live term.  basis holds (lead, monic term dict) pairs.
    """
    t = dict(t)
    out = {}
    while t:
        e = min(t, key=key)
        c = t.pop(e)
        for le, g in basis:
            if all(a >= b for a, b in zip(e, le)):
                shift = tuple(a - b for a, b in zip(e, le))
                for ge, gc in g.items():
                    k = tuple(a + b for a, b in zip(shift, ge))
                    if k != e:
                        s = t.get(k, 0) - c * gc
                        if s:
                            t[k] = s
                        else:
                            t.pop(k, None)
                break
        else:
            out[e] = c
    return out


def _ref_monic(t, key):
    lead = min(t, key=key)
    return lead, {e: coeff_div(c, t[lead]) for e, c in t.items()}


def _ref_groebner(polys, key):
    """Reduced basis by textbook Buchberger over _ref_nf, as sorted term dicts."""
    basis = [_ref_monic(p.terms, key) for p in polys if p]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        (li, gi), (lj, gj) = basis[i], basis[j]
        if not any(a and b for a, b in zip(li, lj)):
            continue  # coprime leads: the S-polynomial reduces to zero
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        s = {}
        for g, lead, sign in ((gi, li, 1), (gj, lj, -1)):
            shift = tuple(a - b for a, b in zip(lcm, lead))
            for e, c in g.items():
                k = tuple(a + b for a, b in zip(shift, e))
                s[k] = s.get(k, 0) + sign * c
        h = _ref_nf({e: c for e, c in s.items() if c}, basis, key)
        if h:
            basis.append(_ref_monic(h, key))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []  # smallest lead first; drop a lead that a kept one divides
    for le, g in sorted(basis, key=lambda lg: key(lg[0]), reverse=True):
        if not any(all(a >= b for a, b in zip(le, lk)) for lk, _ in minimal):
            minimal.append((le, g))
    reduced = []
    for le, g in minimal:
        others = [(lk, gk) for lk, gk in minimal if lk != le]
        reduced.append((key(le), _ref_nf(g, others, key)))
    return [t for _, t in sorted(reduced, reverse=True)]


def _random_sparse(rng, n, max_deg, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
    return Polynomial(n, terms)


def test_heap_reduction_matches_whole_remainder_reference():
    # the heap reducers must pop terms in exactly the order of the key: the
    # reference ranks the whole remainder at every step, as the reduction
    # did before it kept a heap
    rng = random.Random(1009)
    for _ in range(24):
        n = rng.randint(3, 4)
        polys = [_random_sparse(rng, n, 2, 3) for _ in range(rng.randint(2, 3))]
        for key, blocks in (
            (grevlex_key, (n,)),
            (elim_key(1), (1, n - 1)),
            (_lex_key, (1,) * n),
        ):
            gb = groebner_basis(polys, blocks=blocks)
            assert [g.terms for g in gb] == _ref_groebner(polys, key)
        gb = groebner_basis(polys)
        prepared = [(g.leading()[0], g.terms) for g in gb]
        for _ in range(4):
            f = _random_sparse(rng, n, 3, 6)
            assert normal_form(f, gb).terms == _ref_nf(f.terms, prepared, grevlex_key)


def _random_rational(rng, n, max_deg, max_terms):
    """A sparse polynomial with Fraction coefficients and a non-unit lead."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        num = rng.choice((-9, -4, -3, -2, -1, 1, 2, 5, 6))
        terms[exps] = Fraction(num, rng.randint(1, 6))
    p = Polynomial(n, terms)
    lc = Fraction(rng.choice((-6, -2, 3, 4)))
    return p * Polynomial.constant(n, lc / p.leading()[1])


def _assert_clean(terms):
    # coeff_div's types: an int whenever the value is integral
    for c in terms.values():
        assert type(c) is int or c.denominator != 1, c


def test_integer_kernel_matches_monic_fraction_reference():
    # pseudo-reduction over the integers must give exactly what monic
    # reduction over Q gives: rational inputs, negative and non-unit leads
    rng = random.Random(2027)
    for _ in range(30):
        n = rng.randint(1, 4)
        polys = [_random_rational(rng, n, 2, 3) for _ in range(rng.randint(1, 3))]
        orders = [(grevlex_key, (n,)), (_lex_key, (1,) * n)]
        if n > 1:
            orders.append((elim_key(1), (1, n - 1)))
        for key, blocks in orders:
            gb = groebner_basis(polys, blocks=blocks)
            assert [g.terms for g in gb] == _ref_groebner(polys, key)
            for g in gb:
                _assert_clean(g.terms)
        gb = groebner_basis(polys)
        prepared = [(g.leading()[0], g.terms) for g in gb]
        for _ in range(4):
            f = _random_rational(rng, n, 3, 6)
            nf = normal_form(f, gb)
            assert nf.terms == _ref_nf(f.terms, prepared, grevlex_key)
            _assert_clean(nf.terms)
            seventh = Polynomial.constant(n, Fraction(1, 7))
            assert normal_form(f * seventh, gb) == nf * seventh


def test_stored_rows_are_primitive_with_positive_leads(monkeypatch):
    # every basis element and every reducer row is the primitive int
    # multiple of its polynomial, its lead coefficient positive and recorded
    real = groebner._row
    rows = []

    def checked(pk, t):
        row = real(pk, t)
        rows.append((pk, row))
        return row

    monkeypatch.setattr(groebner, "_row", checked)
    clear_suite_caches()
    rng = random.Random(3119)
    for _ in range(12):
        n = rng.randint(2, 4)
        polys = [_random_rational(rng, n, 2, 3) for _ in range(rng.randint(2, 3))]
        gb = groebner_basis(polys, blocks=(1, n - 1))
        normal_form(_random_rational(rng, n, 3, 5), groebner_basis(polys))
        normal_form(_random_rational(rng, n, 3, 5), gb)
    assert len(rows) > 100
    for pk, (lead, raw, t, lc) in rows:
        assert all(type(c) is int for c in t.values())
        assert math.gcd(*t.values()) == 1
        assert lead == max(t) and raw == pk.raw(lead)
        assert lc == t[lead] > 0


def test_packed_monomials_follow_the_block_orders():
    # for grevlex, the colon elimination order and lex: the packed int
    # orders as the reference rank, unpacks to its tuple, adds under
    # products, and its guarded subtraction is componentwise >=
    rng = random.Random(1511)
    for n in range(1, 8):
        orders = [((n,), grevlex_key), ((1,) * n, _lex_key)]
        if n > 1:
            orders.append(((1, n - 1), elim_key(1)))
        for blocks, key in orders:
            pk = _packing(blocks, 8)
            guard = pk.guard
            for _ in range(60):
                top = rng.choice((2, 5, 63))
                a, b = (tuple(rng.randint(0, top) for _ in range(n)) for _ in "ab")
                pa, pb = pk.pack(a), pk.pack(b)
                assert (pa < pb) == (key(a) > key(b)), (blocks, a, b)
                assert (pa == pb) == (a == b)
                assert pk.unpack(pa) == a
                s = tuple(x + y for x, y in zip(a, b))
                assert pk.pack(s) == pa + pb
                assert pk.unpack(pa + pb) == s
                divides = ((pk.raw(pa) | guard) - pk.raw(pb)) & guard == guard
                assert divides == all(x >= y for x, y in zip(a, b)), (blocks, a, b)


def test_exponent_at_the_packed_field_limit_raises():
    # lex reduction of x1^32 by x1 - x2^4 reaches x2^128; degree-32 inputs
    # pack into 8-bit fields that hold up to 127, so the pop guard must
    # raise rather than return a basis
    x1, x2 = variables(2)
    assert _packing_for((1, 1), 32).bits == 8
    with pytest.raises(OverflowError):
        groebner_basis([x1 - x2**4, x1**32], blocks=(1, 1))
    # one step below the limit the same route gives the basis
    gb = groebner_basis([x1 - x2**4, x1**31], blocks=(1, 1))
    assert gb == [x2**124, x1 - x2**4]


def test_normal_form_repacks_past_the_last_basis_fields():
    # normal_form keeps the packed rows of the last basis; a higher-degree f
    # needs wider fields, and a different basis must not reuse them
    x1, x2 = variables(2)
    gb = groebner_basis([x2**2 - x1])
    assert normal_form(x2**4, gb) == x1**2
    assert normal_form(x2**301, gb) == x1**150 * x2
    assert normal_form(x2**4, groebner_basis([x2**2 - 2 * x1])) == 4 * x1**2
    assert normal_form(x2**4, gb) == x1**2


def test_normal_form_fixture():
    x1, x2 = variables(2)
    gb = groebner_basis([x1 + x2, x1 * x2])
    assert [g.text() for g in gb] == ["x1+x2", "x2^2"]
    assert normal_form(x1, gb) == -x2
    assert normal_form(x1 * x2, gb) == 0
    assert normal_form(Polynomial.one(2), gb) == 1


def test_normal_form_rejects_a_mixed_ambient_n():
    # with mixed n the packing would zip exponent tuples of different
    # lengths and return a wrong normal form instead of raising
    (y1,) = variables(1)
    x1, x2 = variables(2)
    with pytest.raises(AmbientMismatch):
        normal_form(y1, [x1 + x2])
    with pytest.raises(AmbientMismatch):
        normal_form(x1 * x2, [y1])
    with pytest.raises(AmbientMismatch):
        normal_form(x1, [x1 + x2, y1])
    # the empty basis of the zero ideal fits every n
    assert normal_form(y1, []) == y1
    assert normal_form(x1 * x2, []) == x1 * x2


def test_s_polynomial_reduces_to_zero_inside_basis():
    x1, x2 = variables(2)
    gb = groebner_basis([x1 + x2, x1 * x2])
    for f, g in itertools.combinations(gb, 2):
        assert normal_form(s_polynomial(f, g), gb) == 0


def test_groebner_idempotent_and_canonical():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                tuple(rng.randint(0, 2) for _ in range(n)): Fraction(
                    rng.randint(-4, 4)
                )
                for _ in range(rng.randint(1, 4))
            }
            gens.append(Polynomial(n, terms))
        gb = groebner_basis(gens)
        assert groebner_basis(gb) == gb
        # generator order must not matter
        assert groebner_basis(list(reversed(gens))) == gb


def test_membership_agrees_across_orders():
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randint(2, 3)
        gens = coinvariant_generators(n)
        I = Ideal(n, gens)
        f = Polynomial(
            n,
            {
                tuple(rng.randint(0, 3) for _ in range(n)): Fraction(
                    rng.randint(-3, 3)
                )
                for _ in range(rng.randint(1, 4))
            },
        )
        # lex membership: f joins the ideal without changing its lex basis
        lex = (1,) * n
        lex_gb = groebner_basis(gens, blocks=lex)
        assert I.contains(f) == (groebner_basis([*gens, f], blocks=lex) == lex_gb)


def test_standard_monomials_fixture():
    x1, x2 = variables(2)
    I = Ideal(2, [x1 + x2, x1 * x2])
    mons = I.standard_monomials()
    assert set(mons) == {(0, 0), (0, 1)}
    assert I.dimension() == 2


def test_unit_and_zero_ideals():
    x1, x2 = variables(2)
    unit = Ideal(2, [x1, x1 + 1])
    assert unit.is_unit()
    assert unit.dimension() == 0
    assert unit.standard_monomials() == []
    zero = Ideal(2, [])
    assert zero.groebner() == []
    assert not zero.is_artinian()
    assert zero.dimension() is None


def test_basis_cache_ignores_generator_order_and_zeros(monkeypatch):
    # the cache key is the ambient n and the set of nonzero generators
    calls = []
    real = groebner.groebner_basis

    def counting(polys, *args, **kwargs):
        calls.append(polys)
        return real(polys, *args, **kwargs)

    monkeypatch.setattr(groebner, "groebner_basis", counting)
    clear_suite_caches()
    gens = coinvariant_generators(3)
    first = Ideal(3, gens).groebner()
    second = Ideal(3, list(reversed(gens)) + [Polynomial.zero(3)]).groebner()
    assert second is first
    assert len(calls) == 1
    assert groebner._reduced_basis.cache_info().currsize == 1


def test_artinian_detection():
    x1, x2 = variables(2)
    assert Ideal(2, [x1**2, x2**3]).is_artinian()
    assert Ideal(2, [x1**2, x2**3]).dimension() == 6
    assert not Ideal(2, [x1]).is_artinian()
    assert not Ideal(2, [x1**2, x1 * x2]).is_artinian()
    assert Ideal(2, [x1]).standard_monomials() is None


def test_one_walk_answers_every_quotient_question():
    # unit, zero, non-Artinian and Artinian: is_artinian, dimension and
    # hilbert_series all agree with standard_monomials
    x1, x2, x3 = variables(3)
    cases = {
        "unit": (Ideal(3, [2 * Polynomial.one(3), x1]), 0),
        "zero": (Ideal(3, []), None),
        "line": (Ideal(3, [x1, x2]), None),
        "coinvariant": (Ideal(3, coinvariant_generators(3)), 6),
        "box": (Ideal(3, [x1**2, x2**3, x3, x1 * x2]), 4),
    }
    for name, (I, want) in cases.items():
        mons = I.standard_monomials()
        assert I.is_artinian() == (mons is not None), name
        assert I.dimension() == want, name
        series = I.hilbert_series()
        if mons is None:
            assert want is None and series is None, name
        else:
            assert len(mons) == want and sum(series) == want, name
            assert mons == sorted(mons, key=grevlex_key, reverse=True), name
            for e in mons:  # a standard monomial is its own normal form
                m = Polynomial.monomial(3, e)
                assert I.normal_form(m) == m, name
    assert Ideal(3, [Polynomial.one(3)]).hilbert_series() == ()


def test_coinvariant_hilbert_series():
    # dimensions of the invariant-ideal quotient: n! total, q-factorial graded
    for n in range(1, 5):
        I = Ideal(n, coinvariant_generators(n))
        assert I.is_artinian()
        assert I.dimension() == math.factorial(n)
        series = I.hilbert_series()
        expected = [1]
        for d in range(2, n + 1):
            expected = _poly_mul(expected, [1] * d)
        assert list(series) == expected


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_hilbert_fixture_n3():
    I = Ideal(3, coinvariant_generators(3))
    assert I.hilbert_series() == (1, 2, 2, 1)


def test_hilbert_rejects_inhomogeneous():
    x1, x2 = variables(2)
    with pytest.raises(ValueError):
        Ideal(2, [x1 + 1, x2**2]).hilbert_series()


def test_colon_fixtures():
    x1, x2 = variables(2)
    # colon by a member is the unit ideal
    assert colon(Ideal(2, [x1]), x1).is_unit()
    # hand-derived: (e1, e2) : x2 = (x1, x2)
    e1, e2 = coinvariant_generators(2)
    got = colon(Ideal(2, [e1, e2]), x2)
    assert ideal_equal(got, Ideal(2, [x1, x2]))
    # colon by a unit leaves the ideal unchanged
    assert ideal_equal(colon(Ideal(2, [e1, e2]), Polynomial.one(2)), Ideal(2, [e1, e2]))
    with pytest.raises(ZeroDivisionError):
        colon(Ideal(2, [x1]), Polynomial.zero(2))


def test_colon_matches_membership_definition():
    # independent oracle: g in I:f iff f*g in I, checked over a monomial sweep
    rng = random.Random(51)
    for n in (2, 3):
        forms = [Polynomial.variable(n, i) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                forms.append(
                    Polynomial.variable(n, i) - Polynomial.variable(n, j)
                )
        I = Ideal(n, coinvariant_generators(n))
        for _ in range(6):
            f = Polynomial.one(n)
            for _ in range(rng.randint(1, 3)):
                f = f * rng.choice(forms)
            C = colon(I, f)
            for exps in itertools.product(range(3), repeat=n):
                g = Polynomial.monomial(n, exps)
                assert C.contains(g) == I.contains(f * g), (n, f.text(), exps)


def test_colon_iteration_agrees_with_single_shot():
    rng = random.Random(61)
    for n in (2, 3):
        forms = [Polynomial.variable(n, i) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                forms.append(
                    Polynomial.variable(n, i) - Polynomial.variable(n, j)
                )
        I = Ideal(n, coinvariant_generators(n))
        for _ in range(8):
            factors = [rng.choice(forms) for _ in range(rng.randint(1, 3))]
            product = Polynomial.one(n)
            iterated = I
            for h in factors:
                product = product * h
                iterated = colon(iterated, h)
            assert ideal_equal(colon(I, product), iterated), [
                h.text() for h in factors
            ]


def test_colon_quotient_dimensions_shrink():
    # multiplication by f embeds S/(I:f) into S/I in each degree
    e1, e2 = coinvariant_generators(2)
    I = Ideal(2, [e1, e2])
    x2 = Polynomial.variable(2, 2)
    C = colon(I, x2)
    hilb_I = I.hilbert_series()
    hilb_C = C.hilbert_series()
    for d, c in enumerate(hilb_C):
        assert c <= hilb_I[d + 1]  # deg f = 1 shift


def test_regular_sequence_judgement():
    for n in range(1, 5):
        assert is_regular_sequence(coinvariant_generators(n), n)
    x1, x2 = variables(2)
    assert not is_regular_sequence([x1**2, x1 * x2], 2)
    with pytest.raises(ValueError):
        is_regular_sequence([x1], 2)
    with pytest.raises(ValueError):
        is_regular_sequence([x1 + 1, x2], 2)


def test_elim_key_orders_out_first_block():
    key = elim_key(1)
    # any power of the eliminated variable beats any x-only monomial, and
    # the larger monomial has the smaller (descending) rank
    assert key((1, 0, 0)) < key((0, 9, 9))
    # within fixed t-degree the x-block uses grevlex
    assert key((1, 1, 0)) < key((1, 0, 1))


def test_cached_bases_are_never_mutated():
    # the reducers read basis and generator dicts in place, without copying
    rng = random.Random(1201)
    for n in (2, 3):
        gens = [*coinvariant_generators(n), _random_sparse(rng, n, 2, 3)]
        texts = [g.text() for g in gens]
        I = Ideal(n, gens)
        for _ in range(40):
            f = _random_sparse(rng, n, 4, 6)
            before = dict(f.terms)
            I.normal_form(f)
            I.contains(f * f)
            colon(I, _random_sparse(rng, n, 1, 2))
            assert f.terms == before
        cached = I.groebner()
        fresh = groebner_basis(list(gens))
        assert [g.terms for g in cached] == [g.terms for g in fresh]
        assert [g.leading() for g in cached] == [g.leading() for g in fresh]
        assert [g.text() for g in gens] == texts




# -- ideal equality by containment -------------------------------------------


def _bases_equal(I, J):
    """Oracle: equality of the canonical reduced bases."""
    return groebner_basis(list(I.gens)) == groebner_basis(list(J.gens))


def test_ideal_equal_sees_an_extra_generator_on_either_side():
    x1, x2, x3 = variables(3)
    pairs = [
        (Ideal(3, [x1, x2]), Ideal(3, [x1])),
        (Ideal(3, [x1 * x2, x1 + x3]), Ideal(3, [x1 + x3])),
        # same leads, different ideals: x1^2 is not in (x1^2 + x2^2)
        (Ideal(3, [x1**2 + x2**2, x1**2]), Ideal(3, [x1**2 + x2**2])),
    ]
    for big, small in pairs:
        assert not ideal_equal(big, small)
        assert not ideal_equal(small, big)
        assert ideal_equal(big, big) and ideal_equal(small, small)


def test_ideal_equal_reads_scaled_and_negated_generators():
    x1, x2 = variables(2)
    f, g = x1**2 - 3 * x2, x1 * x2 + Fraction(1, 2)
    I = Ideal(2, [f, g])
    assert ideal_equal(I, Ideal(2, [-f, 7 * g]))
    assert ideal_equal(Ideal(2, [Fraction(-2, 3) * g, f * 5]), I)
    # a scaled generator of a different polynomial is not a multiple
    assert not ideal_equal(I, Ideal(2, [f, g + 1]))
    assert not ideal_equal(Ideal(2, [f, -(g + 1)]), I)
    # equal ideals whose generators are not multiples of each other
    assert ideal_equal(Ideal(2, [x1, x2]), Ideal(2, [x1 + x2, x1 - x2]))


def test_ideal_equal_ignores_zero_generators():
    x1, x2 = variables(2)
    zero = Polynomial.zero(2)
    assert ideal_equal(Ideal(2, [zero]), Ideal(2, []))
    assert ideal_equal(Ideal(2, [x1, zero]), Ideal(2, [x1]))
    assert ideal_equal(Ideal(2, [zero, zero]), Ideal(2, [zero]))
    assert not ideal_equal(Ideal(2, [zero]), Ideal(2, [x2]))
    assert not ideal_equal(Ideal(2, [x2]), Ideal(2, [zero]))
    assert not ideal_equal(Ideal(2, []), Ideal(2, [Polynomial.one(2)]))


def test_ideal_equal_builds_a_basis_only_for_a_side_it_reduces_against(
    monkeypatch,
):
    x1, x2 = variables(2)
    built = []

    def counted(polys, blocks=None):
        built.append(len(polys))
        return groebner_basis(polys, blocks)

    monkeypatch.setattr(groebner, "groebner_basis", counted)
    cases = [
        # every generator a multiple of one on the other side: no basis
        (Ideal(2, [x1 - x2, x1 * x2]), Ideal(2, [3 * x1 * x2, x2 - x1]), True, []),
        # extras on the first side only: the second side's basis, once
        (Ideal(2, [x1, x2, x1 + x2]), Ideal(2, [-x2, x1]), True, [2]),
        (Ideal(2, [x1**2]), Ideal(2, [x1**2, x2]), False, [1]),
        # extras on both sides: both bases, compared
        (Ideal(2, [x1 + x2, x1 - x2]), Ideal(2, [x1, x2, x1**2]), True, [2, 3]),
    ]
    for I, J, equal, sizes in cases:
        clear_suite_caches()
        built.clear()
        assert ideal_equal(I, J) == equal
        assert sorted(built) == sizes, (I, J)
    clear_suite_caches()


def test_ideal_equal_rejects_a_mixed_ambient_n():
    x1 = Polynomial.variable(2, 1)
    y1 = Polynomial.variable(3, 1)
    with pytest.raises(AmbientMismatch):
        ideal_equal(Ideal(2, [x1]), Ideal(3, [y1]))
    with pytest.raises(AmbientMismatch):
        ideal_equal(Ideal(3, []), Ideal(2, []))


def test_ideal_equal_agrees_with_reduced_bases_random():
    # pairs built to be equal (sums, scalings and multiples of the
    # generators added) and pairs that may differ (one generator moved)
    rng = random.Random(3301)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [_random_sparse(rng, n, 2, 3) for _ in range(rng.randint(1, 3))]
        other = [g * rng.choice((-2, -1, Fraction(1, 3), 5)) for g in gens]
        a, b = rng.sample(range(len(gens)), 2) if len(gens) > 1 else (0, 0)
        other.append(gens[a] * _random_sparse(rng, n, 1, 2) + gens[b])
        rng.shuffle(other)
        if rng.random() < 0.5:
            other[0] = other[0] + _random_sparse(rng, n, 2, 2)
        I, J = Ideal(n, gens), Ideal(n, other)
        want = _bases_equal(I, J)
        assert ideal_equal(I, J) == want == ideal_equal(J, I)
        verdicts.add(want)
    assert verdicts == {True, False}


# -- packed remainders of monomials ------------------------------------------


def test_monomial_remainders_match_exact_normal_forms_random():
    # each remainder is a positive multiple of the exact normal form, term
    # for term (packed keys order as grevlex), so the ranks agree; and a
    # standard monomial's remainder is the monomial itself
    rng = random.Random(3313)
    standard = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = [_random_rational(rng, n, 3, 3) for _ in range(rng.randint(1, 3))]
        I = Ideal(n, gens)
        gb = I.groebner()
        exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(12)]
        rems = I.monomial_remainders(exps)
        forms = [normal_form(Polynomial.monomial(n, e), gb) for e in exps]
        assert len(rems) == len(exps)
        for e, r, nf in zip(exps, rems, forms):
            assert all(type(c) is int for c in r.values())
            want = sorted(nf.terms.items(), key=lambda t: grevlex_key(t[0]))
            got = sorted(r.items(), reverse=True)
            assert len(got) == len(want)
            if want:
                ratio = Fraction(got[0][1]) / want[0][1]
                assert ratio > 0
                assert [c for _, c in got] == [ratio * c for _, c in want]
            if nf == Polynomial.monomial(n, e):
                assert list(r.values()) == [1]
                standard += 1
        assert len(echelon_rows(rems)) == rank_of_elements(forms)
    assert standard


def test_monomial_remainders_edges():
    x1, x2 = variables(2)
    I = Ideal(2, [x1 + x2, x1 * x2])
    assert I.monomial_remainders([]) == []
    # x1 + x2 and x1*x2 lie in I; 1 and x2 are standard, x1 = -x2 modulo I
    rems = I.monomial_remainders([(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)])
    assert [len(r) for r in rems] == [1, 1, 1, 0, 0]
    assert rems[0] == {max(rems[0]): 1}
    assert list(rems[1].values()) == [1] and list(rems[2].values()) == [-1]
    assert rems[1].keys() == rems[2].keys()
    assert len(echelon_rows(rems)) == I.dimension() == 2
    # the zero ideal leaves every monomial as it is
    assert [list(r.values()) for r in Ideal(2, []).monomial_remainders([(3, 1)])] == [[1]]
    with pytest.raises(AmbientMismatch):
        I.monomial_remainders([(1, 0, 0)])
