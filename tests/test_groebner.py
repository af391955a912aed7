"""Groebner engine: bases, normal forms, colon ideals, Artinian detection."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import coinvarr.groebner as groebner
from coinvarr.groebner import (
    ENV_TERM_CAP,
    GroebnerResourceError,
    Ideal,
    colon,
    elim_key,
    groebner_basis,
    ideal_equal,
    is_regular_sequence,
    normal_form,
    s_polynomial,
)
from coinvarr.polynomials import Polynomial, variables
from coinvarr.symmetric import coinvariant_generators, elementary


def _parse(s, n):
    return Polynomial.parse(s, n)


def test_groebner_lex_fixture():
    # hand-derived: S(x1+x2, x1*x2) = x2^2 under lex, already reduced;
    # plain tuple comparison is the lex order
    x1, x2 = variables(2)
    gb = groebner_basis([x1 + x2, x1 * x2], key=tuple)
    assert [g.text() for g in gb] == ["x2^2", "x1+x2"] or [
        g.text() for g in gb
    ] == ["x1+x2", "x2^2"]
    texts = {g.text() for g in gb}
    assert texts == {"x1+x2", "x2^2"}


def test_normal_form_fixture():
    x1, x2 = variables(2)
    gb = groebner_basis([x1 + x2, x1 * x2])
    assert normal_form(x1, gb) == -x2
    assert normal_form(x1 * x2, gb) == 0
    assert normal_form(Polynomial.one(2), gb) == 1


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
        assert I.contains(f) == (
            groebner_basis(gens + [f], key=tuple) == groebner_basis(gens, key=tuple)
        )


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
    assert zero.is_zero()
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
    monkeypatch.setattr(groebner, "_GB_CACHE", {})
    gens = coinvariant_generators(3)
    first = Ideal(3, gens).groebner()
    second = Ideal(3, list(reversed(gens)) + [Polynomial.zero(3)]).groebner()
    assert second is first
    assert len(calls) == 1
    assert len(groebner._GB_CACHE) == 1


def test_artinian_detection():
    x1, x2 = variables(2)
    assert Ideal(2, [x1**2, x2**3]).is_artinian()
    assert Ideal(2, [x1**2, x2**3]).dimension() == 6
    assert not Ideal(2, [x1]).is_artinian()
    assert not Ideal(2, [x1**2, x1 * x2]).is_artinian()
    with pytest.raises(ValueError):
        Ideal(2, [x1]).standard_monomials()


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
    # any power of the eliminated variable beats any x-only monomial
    assert key((1, 0, 0)) > key((0, 9, 9))
    # within fixed t-degree the x-block uses grevlex
    assert key((1, 1, 0)) > key((1, 0, 1))


def test_term_cap_env(monkeypatch):
    x1, x2 = variables(2)
    monkeypatch.setenv(ENV_TERM_CAP, "1")
    with pytest.raises(GroebnerResourceError):
        groebner_basis([x1 + x2, x1 * x2])
    monkeypatch.delenv(ENV_TERM_CAP)
    assert len(groebner_basis([x1 + x2, x1 * x2])) == 2
