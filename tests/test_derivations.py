"""Derivation modules: Saito certification, explicit bases, restriction."""

import itertools
import math
import random

import pytest

from coinvarr import derivations
from coinvarr.arrangements import (
    Arrangement,
    braid_arrangement,
    column_counts,
    delete,
    enumerate_southwest,
    full_arrangement,
    is_essential,
    linear_form,
    linear_forms,
    max_coordinate,
    restrict_coordinate,
    skip_arrangement,
    skip_forms_product,
    staircase,
    subsets,
)
from coinvarr.derivations import (
    Derivation,
    is_derivation_of,
    restrict_derivation,
    saito_check,
    skip_basis,
    skip_generators,
    southwest_basis,
    st_ideal,
)
from coinvarr.cli import RunConfig, run_suite
from coinvarr.groebner import Ideal, colon, ideal_equal, is_regular_sequence
from coinvarr.polynomials import (
    AmbientMismatch,
    Polynomial,
    clear_suite_caches,
    divides,
    matrix_determinant,
    vandermonde,
    variables,
)
from coinvarr.symmetric import coinvariant_generators

EXAMPLE5 = Arrangement(
    5,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (2, 5)],
)


def _power_fields(n):
    # tail sums x_i^k d_i for k = 0..n-1, the classic pairwise-difference basis
    fields = []
    for k in range(n):
        fields.append(
            Derivation(
                [Polynomial.variable(n, i) ** k for i in range(1, n + 1)]
            )
        )
    return fields


def _random_poly(rng, n, deg, terms):
    p = Polynomial.zero(n)
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(n)] += 1
        p = p + Polynomial.monomial(n, exps, rng.randint(-3, 3))
    return p


def _random_derivation(rng, n, deg, terms):
    return Derivation([_random_poly(rng, n, deg, terms) for _ in range(n)])


def _zero_derivation(n):
    return Derivation([Polynomial.zero(n)] * n)


def _partial(n, k):
    """The bare partial derivative d/dx_k."""
    return Derivation(
        [Polynomial.one(n) if i == k else Polynomial.zero(n) for i in range(1, n + 1)]
    )


def test_derivation_construction_and_arithmetic():
    n = 3
    d1 = _partial(n, 1)
    e = Derivation.euler(n)
    x1, x2, x3 = variables(n)
    assert e.coeffs == (x1, x2, x3)
    assert (d1 + d1).coeffs[0] == 2 * Polynomial.one(n)
    assert (e - e) == _zero_derivation(n)
    assert not _zero_derivation(n)
    assert (x2 * d1).coeffs == (x2, Polynomial.zero(n), Polynomial.zero(n))
    with pytest.raises(ValueError):
        Derivation([x1, x2])  # three variables, two coefficients
    with pytest.raises(AmbientMismatch):
        Derivation([x1, Polynomial.variable(2, 1), x3])
    with pytest.raises(AmbientMismatch):
        e + Derivation.euler(2)


def test_apply_euler_identity():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = rng.randint(1, 4)
        f = _random_poly(rng, n, d, 4)
        for s in range(f.degree() + 1):
            part = Polynomial(n, {e: c for e, c in f.terms.items() if sum(e) == s})
            assert Derivation.euler(n).apply(part) == s * part


def test_apply_fixtures():
    x1, x2 = variables(2)
    diff = Derivation([Polynomial.one(2), -Polynomial.one(2)])
    rot = Derivation([x2, -x1])
    assert diff.apply(x1 + x2) == Polynomial.zero(2)
    assert rot.apply(x1 + x2) == x2 - x1


def test_apply_leibniz():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 3)
        theta = _random_derivation(rng, n, 2, 3)
        f = _random_poly(rng, n, 3, 3)
        g = _random_poly(rng, n, 3, 3)
        assert theta.apply(f * g) == f * theta.apply(g) + g * theta.apply(f)


def test_apply_matches_the_plain_sum_of_products():
    # linear f has constant partials, which apply scales as scalars
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 4)
        theta = _random_derivation(rng, n, 2, 3)
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        linear = Polynomial(n, {e: rng.randint(-3, 3) for e in units})
        for f in (linear, _random_poly(rng, n, 3, 3)):
            plain = Polynomial.zero(n)
            for k, c in enumerate(theta.coeffs, start=1):
                plain = plain + c * f.partial(k)
            assert theta.apply(f) == plain


def test_degree_and_homogeneity():
    n = 3
    assert Derivation.euler(n).degree() == 1
    assert _partial(n, 2).degree() == 0
    assert _zero_derivation(n).degree() == -1
    x1, x2, x3 = variables(n)
    # coefficients of unequal degrees, and one inhomogeneous coefficient
    mixed = Derivation([x1, Polynomial.one(n), Polynomial.zero(n)])
    lopsided = Derivation([x1 + Polynomial.one(n), Polynomial.zero(n), x2])
    for theta in (mixed, lopsided):
        with pytest.raises(ValueError, match="not homogeneous"):
            theta.degree()


def test_is_derivation_of_fixtures():
    for m, theta in enumerate(_power_fields(3)):
        assert is_derivation_of(theta, braid_arrangement(3)), m
    d1 = _partial(2, 1)
    assert not is_derivation_of(d1, Arrangement(2, [(0, 1)]))
    x1, x2 = variables(2)
    diff = Derivation([Polynomial.one(2), -Polynomial.one(2)])
    rot = Derivation([x2, -x1])
    assert is_derivation_of(diff, [x1 + x2])
    # the rotational field is tangent to circles, not to this line
    assert not is_derivation_of(rot, [x1 + x2])
    assert is_derivation_of(Derivation.euler(2), [x1 + x2])


def test_membership_matches_q_divisibility():
    # per-form divisibility agrees with divisibility of theta(Q) by Q
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 3)
        ambient = sorted(full_arrangement(n).pairs)
        pairs = [p for p in ambient if rng.random() < 0.5]
        A = Arrangement(n, pairs)
        theta = _random_derivation(rng, n, 2, 2)
        q = Polynomial.one(n)
        for p in pairs:
            q = q * linear_form(p, n)
        assert is_derivation_of(theta, A) == divides(q, theta.apply(q))


def test_saito_braid_power_fields():
    fields = _power_fields(3)
    assert saito_check(fields, braid_arrangement(3))
    det = matrix_determinant([f.coeffs for f in fields], 3)
    assert det in (vandermonde(3), -vandermonde(3))


def test_saito_line_fixture():
    x1, x2 = variables(2)
    diff = Derivation([Polynomial.one(2), -Polynomial.one(2)])
    euler = Derivation.euler(2)
    rot = Derivation([x2, -x1])
    assert saito_check([diff, euler], [x1 + x2])
    # rotation misses membership and its determinant spans the wrong line
    assert not saito_check([diff, rot], [x1 + x2])


def test_saito_degenerate_inputs():
    n = 2
    euler = Derivation.euler(n)
    full = full_arrangement(n)
    assert not saito_check([euler, _zero_derivation(n)], full)
    assert not saito_check([euler, euler], full)  # degree sum 2, three forms
    with pytest.raises(ValueError):
        saito_check([euler], full)
    x1, x2 = variables(n)
    bad = Derivation([x1 + x1 * x1, x2])
    with pytest.raises(ValueError):
        saito_check([bad, euler], full)
    # empty arrangement: the bare partials are a basis
    partials = [_partial(n, k) for k in (1, 2)]
    assert saito_check(partials, Arrangement(n, []))
    # nonessential single coordinate hyperplane
    a = Arrangement(2, [(0, 1)])
    assert saito_check([x1 * _partial(2, 1), partials[1]], a)


def test_saito_small_positive_fixture():
    # one difference hyperplane: tail sum of partials plus the Euler field
    n = 2
    diag = Derivation([Polynomial.one(n), Polynomial.one(n)])
    assert saito_check([diag, Derivation.euler(n)], braid_arrangement(2))


def test_saito_rejects_non_members_with_nonzero_determinant_at_p():
    # degrees 1 + 2 = |A| and det = x1^3 - x2^3 is -7 at (1, 2), but
    # theta(x1) = x2^2 is not a multiple of x1: membership alone rejects
    n = 2
    x1, x2 = variables(n)
    theta = Derivation([x2 * x2, x1 * x1])
    basis = [Derivation.euler(n), theta]
    det = matrix_determinant([t.coeffs for t in basis], n)
    assert det == x1**3 - x2**3
    assert det.evaluate((1, 2)) == -7
    assert not is_derivation_of(theta, full_arrangement(n))
    assert not saito_check(basis, full_arrangement(n))


def test_saito_repeated_form_keeps_the_division_route():
    # x1 d1 and x2 d2 are members of {x1, x1} with degree sum 2, and their
    # determinant x1*x2 is nonzero at (1, 2); it is still not a multiple
    # of x1^2, so the form list is rejected
    x1, x2 = variables(2)
    basis = [
        Derivation([x1, Polynomial.zero(2)]),
        Derivation([Polynomial.zero(2), x2]),
    ]
    assert all(is_derivation_of(t, [x1, x1]) for t in basis)
    assert not saito_check(basis, [x1, x1])
    assert saito_check(basis, Arrangement(2, [(0, 1), (0, 2)]))


def _dependent(basis):
    """The basis with its highest-degree field replaced by a monomial
    multiple of its lowest-degree one: still members of the same
    arrangement with the same degree sum, but with determinant zero."""
    degs = [t.degree() for t in basis]
    j = degs.index(max(degs))
    k = degs.index(min(degs))
    if j == k:
        k = (j + 1) % len(basis)
    x1 = Polynomial.variable(basis[0].n, 1)
    out = list(basis)
    out[j] = x1 ** (degs[j] - degs[k]) * basis[k]
    return out


def _swapped(basis):
    """Each field with its coefficients in reverse order; same degrees."""
    return [Derivation(reversed(t.coeffs)) for t in basis]


def test_saito_evaluation_route_agrees_with_form_list_route():
    # an Arrangement is decided by one determinant at (1, ..., n); its form
    # list by the polynomial determinant divided by Q, the reference
    cases = [
        (A, southwest_basis(A)) for n in range(1, 5) for A in enumerate_southwest(n)
    ]
    cases += [
        (skip_arrangement(skips, n), skip_basis(skips, n))
        for n in range(1, 5)
        for r in range(n + 1)
        for skips in itertools.combinations(range(1, n + 1), r)
    ]
    swapped = set()
    for A, basis in cases:
        if not A.pairs:
            continue  # an empty form list names no ambient
        forms = linear_forms(A)
        assert saito_check(basis, A) and saito_check(basis, forms), A
        if A.n > 1:
            # members with the right degree sum: the determinant decides
            dependent = _dependent(basis)
            assert all(is_derivation_of(t, A) for t in dependent)
            assert not saito_check(dependent, A), A
            assert not saito_check(dependent, forms), A
        verdict = saito_check(_swapped(basis), A)
        assert verdict == saito_check(_swapped(basis), forms), A
        swapped.add(verdict)
    assert swapped == {True, False}


def test_saito_builds_no_zero_variable_polynomial(monkeypatch):
    # an Arrangement's determinant at p is taken over plain numbers, so no
    # value is wrapped in a 0-variable Polynomial on the way
    built = []
    init, from_terms = Polynomial.__init__, Polynomial._from_terms.__func__

    def recording_init(self, n, terms=None):
        if n == 0:
            built.append(terms)
        init(self, n, terms)

    def recording_from_terms(cls, n, terms):
        if n == 0:
            built.append(terms)
        return from_terms(cls, n, terms)

    monkeypatch.setattr(Polynomial, "__init__", recording_init)
    monkeypatch.setattr(Polynomial, "_from_terms", classmethod(recording_from_terms))
    checked = 0
    for n in range(1, 4):
        for A in enumerate_southwest(n):
            assert saito_check(southwest_basis(A), A), A
            checked += 1
    assert checked > 10 and built == []


def test_evaluation_point_is_off_the_full_arrangement():
    for n in range(1, 7):
        p = range(1, n + 1)
        forms = linear_forms(full_arrangement(n))
        assert all(alpha.evaluate(p) != 0 for alpha in forms)


def test_southwest_basis_running_example():
    basis = southwest_basis(EXAMPLE5)
    x1, x2, x3, x4, x5 = variables(5)
    zero = Polynomial.zero(5)
    expected4 = Derivation(
        [
            zero,
            zero,
            zero,
            (x1 - x4) * (x2 - x4) * (x3 - x4),
            (x1 - x5) * (x2 - x5) * (x3 - x5),
        ]
    )
    assert basis[3] == expected4
    assert basis[0] == Derivation([x1, x2, x3, x4, x5])
    assert basis[4] == Derivation([zero, zero, zero, zero, x2 - x5])
    assert [t.degree() for t in basis] == [1, 2, 2, 3, 1]
    assert saito_check(basis, EXAMPLE5)


def test_southwest_basis_conventions():
    # empty column: bare tail sum of partials
    rho = southwest_basis(braid_arrangement(3))
    one = Polynomial.one(3)
    assert rho[0] == Derivation([one, one, one])
    # smallest full arrangement
    x1, x2 = variables(2)
    rho = southwest_basis(full_arrangement(2))
    assert rho[0] == Derivation([x1, x2])
    assert rho[1] == Derivation([Polynomial.zero(2), x2 * (x1 - x2)])
    with pytest.raises(ValueError):
        southwest_basis(Arrangement(2, [(0, 2)]))


def test_southwest_basis_degrees_match_column_counts():
    for n in range(1, 5):
        for A in enumerate_southwest(n):
            degs = [t.degree() for t in southwest_basis(A)]
            assert degs == list(column_counts(A))


def test_southwest_basis_certified_exhaustively_small():
    for n in range(1, 4):
        for A in enumerate_southwest(n):
            assert saito_check(southwest_basis(A), A), A


def test_skip_basis_fixtures():
    n = 3
    basis = skip_basis((), n)
    assert basis[0] == Derivation.euler(n)
    x1, x2 = variables(2)
    zero = Polynomial.zero(2)
    b2 = skip_basis((2,), 2)
    assert b2[0] == Derivation.euler(2)
    assert b2[1] == Derivation([zero, x1 - x2])


def test_skip_basis_degrees_and_certification():
    for n in range(1, 5):
        for r in range(0, n + 1):
            for skips in itertools.combinations(range(1, n + 1), r):
                degs = [t.degree() for t in skip_basis(skips, n)]
                assert degs == list(staircase(skips, n))
    for n in range(1, 4):
        for r in range(0, n + 1):
            for skips in itertools.combinations(range(1, n + 1), r):
                assert saito_check(
                    skip_basis(skips, n), skip_arrangement(skips, n)
                ), (n, skips)


def _southwest_basis_literal(A):
    # reference: the hand-written column products, one factor at a time
    n = A.n
    out = []
    for j in range(1, n + 1):
        col = sorted(i for i, jj in A.pairs if jj == j)
        coeffs = [Polynomial.zero(n)] * n
        for k in range(j, n + 1):
            xk = Polynomial.variable(n, k)
            c = Polynomial.one(n)
            for i in col:
                c = c * (xk if i == 0 else Polynomial.variable(n, i) - xk)
            coeffs[k - 1] = c
        out.append(Derivation(coeffs))
    return out


def _skip_basis_literal(skips, n):
    # reference: unskipped slot i sums x_k * prod (x_j - x_k) over k = i..n,
    # a skipped slot keeps only the k = i product without the x_k factor
    below = {i: [j for j in range(1, i) if j not in skips] for i in range(1, n + 1)}
    out = []
    for i in range(1, n + 1):
        coeffs = [Polynomial.zero(n)] * n
        if i in skips:
            xi = Polynomial.variable(n, i)
            c = Polynomial.one(n)
            for j in below[i]:
                c = c * (Polynomial.variable(n, j) - xi)
            coeffs[i - 1] = c
        else:
            for k in range(i, n + 1):
                xk = Polynomial.variable(n, k)
                c = xk
                for j in below[i]:
                    c = c * (Polynomial.variable(n, j) - xk)
                coeffs[k - 1] = c
        out.append(Derivation(coeffs))
    return out


def test_southwest_basis_matches_the_literal_column_products():
    # once on cold memos and once on warm ones, where the column derivations
    # come back as the very objects the first pass built
    clear_suite_caches()
    cases = [A for n in range(1, 6) for A in enumerate_southwest(n)]
    cold = {A: southwest_basis(A) for A in cases}
    for A in cases:
        literal = _southwest_basis_literal(A)
        assert cold[A] == literal, A
        warm = southwest_basis(A)
        assert warm == literal, A
        assert all(a is b for a, b in zip(warm, cold[A])), A
    clear_suite_caches()


def test_skip_basis_matches_the_literal_staircase_formula():
    # a skipped slot is the column product truncated to its k = i term; a
    # full k = i..n sum there differs whenever a slot below n is skipped
    clear_suite_caches()
    for _ in ("cold", "warm"):
        for n in range(1, 6):
            for skips in subsets(range(1, n + 1)):
                assert skip_basis(skips, n) == _skip_basis_literal(skips, n), (n, skips)
    clear_suite_caches()


def _one_coefficient_off(theta, k):
    # theta with the leading coefficient of its slot-k polynomial doubled
    c = theta.coeffs[k]
    e, v = c.leading()
    coeffs = list(theta.coeffs)
    coeffs[k] = c + Polynomial.monomial(c.n, e, v)
    assert coeffs[k] != c and coeffs[k].degree() == c.degree()
    return Derivation(coeffs)


def test_tangency_memo_keeps_near_identical_derivations_apart():
    # each variant differs from a certified derivation in one coefficient and
    # is no member (the plain division oracle says so); the memo must reject
    # it both before and after the certified basis itself was accepted
    clear_suite_caches()
    A = EXAMPLE5
    basis = southwest_basis(A)
    forms = linear_forms(A)
    variants = []
    for m, theta in enumerate(basis):
        for k, c in enumerate(theta.coeffs):
            if c:
                bad = _one_coefficient_off(theta, k)
                assert not all(divides(a, bad.apply(a)) for a in forms)
                variants.append(basis[:m] + [bad] + basis[m + 1 :])
    assert len(variants) == sum(1 for t in basis for c in t.coeffs if c)
    for bad_basis in variants:
        assert not saito_check(bad_basis, A)
    assert saito_check(basis, A)
    for bad_basis in variants:
        assert not saito_check(bad_basis, A)
        assert not saito_check(list(bad_basis), list(forms))
    assert saito_check(basis, A)
    clear_suite_caches()


def _derivation_memos():
    return [
        memo.cache_info().currsize
        for memo in (derivations._column, derivations._tangent, derivations._image)
    ]


def test_clear_caches_and_run_suite_empty_the_saito_memos():
    st_ideal(EXAMPLE5, southwest_basis(EXAMPLE5))
    skip_generators({2}, 3)
    assert all(_derivation_memos())
    clear_suite_caches()
    assert not any(_derivation_memos())
    for name in ("saito-southwest", "southwest-quotient", "skip-quotient"):
        st_ideal(EXAMPLE5, southwest_basis(EXAMPLE5))
        reports = run_suite(name, RunConfig(n=3))
        assert reports and all(r["pass"] for r in reports)
        assert not any(_derivation_memos()), name


def test_restrict_derivation_fixtures():
    for n in (2, 3, 4):
        for p in range(1, n + 1):
            assert restrict_derivation(Derivation.euler(n), p) == Derivation.euler(
                n - 1
            )
    x1, x2 = variables(2)
    theta = Derivation([Polynomial.zero(2), x2 * (x1 - x2)])
    assert restrict_derivation(theta, 2) == _zero_derivation(1)
    with pytest.raises(ValueError):
        restrict_derivation(_partial(2, 2), 2)
    with pytest.raises(ValueError):
        restrict_derivation(Derivation.euler(2), 3)


def test_restriction_lands_in_restricted_module():
    # running example: pushing the basis onto x_2 = 0 stays tangent there
    R = restrict_coordinate(EXAMPLE5, 2)
    for theta in southwest_basis(EXAMPLE5):
        eta = restrict_derivation(theta, 2)
        assert is_derivation_of(eta, R)
        if eta:
            assert eta.degree() == theta.degree()
    # and exhaustively for small essential southwest arrangements
    for n in (2, 3):
        for A in enumerate_southwest(n, essential_only=True):
            p = max_coordinate(A)
            Ap = restrict_coordinate(A, p)
            for theta in southwest_basis(A):
                assert is_derivation_of(restrict_derivation(theta, p), Ap)


def test_multiplication_by_form_embeds_smaller_module():
    # multiplying by the removed form carries tangent fields of the
    # deletion into tangent fields of the larger arrangement
    for n in (2, 3):
        for A in enumerate_southwest(n, essential_only=True):
            p = max_coordinate(A)
            B = delete(A, (0, p))
            xp = Polynomial.variable(n, p)
            for theta in southwest_basis(B):
                assert is_derivation_of(xp * theta, A)
    # same for the skip family inside the full arrangement
    for skips in ((), (2,), (3,), (2, 3)):
        f = skip_forms_product(skips, 3)
        for theta in skip_basis(skips, 3):
            assert is_derivation_of(f * theta, full_arrangement(3))


def test_coeff_map_basics():
    # theta(eta) sends d/dx_k to the partial of eta: 1 for x1 + x2, and
    # 2*x_k for x1^2 + x2^2
    n = 2
    x1, x2 = variables(n)
    eta = x1 + x2
    q = x1 * x1 + x2 * x2
    assert Derivation.euler(n).apply(eta) == x1 + x2
    assert Derivation.euler(n).apply(q) == 2 * (x1 * x1 + x2 * x2)
    rot = Derivation([x2, -x1])
    assert rot.apply(eta) == x2 - x1


def test_st_ideal_full_arrangement_is_coinvariant_ideal():
    for n in (1, 2, 3):
        A = full_arrangement(n)
        ideal = st_ideal(A, southwest_basis(A))
        assert ideal_equal(ideal, Ideal(n, coinvariant_generators(n)))


def test_st_ideal_braid_with_coords_map():
    # AMMN's classical instance eta = x1^2 + ... + xn^2 on the braid
    # arrangement gives the coinvariant ideal
    for n in (2, 3):
        basis = _power_fields(n)
        assert saito_check(basis, braid_arrangement(n))
        q = sum((x * x for x in variables(n)), Polynomial.zero(n))
        ideal = Ideal(n, [theta.apply(q) for theta in basis])
        assert ideal_equal(ideal, Ideal(n, coinvariant_generators(n)))


def test_st_ideal_line_fixture_infinite():
    x1, x2 = variables(2)
    diff = Derivation([Polynomial.one(2), -Polynomial.one(2)])
    ideal = st_ideal([x1 + x2], [diff, Derivation.euler(2)])
    assert ideal_equal(ideal, Ideal(2, [x1 + x2]))
    assert not ideal.is_artinian()
    assert not ideal.is_unit()


def test_st_ideal_nonessential_is_unit():
    x1 = Polynomial.variable(2, 1)
    a = Arrangement(2, [(0, 1)])
    basis = [x1 * _partial(2, 1), _partial(2, 2)]
    assert st_ideal(a, basis).is_unit()


def test_st_ideal_rejects_uncertified_basis():
    n = 2
    with pytest.raises(ValueError):
        st_ideal(
            full_arrangement(n),
            [Derivation.euler(n), Derivation.euler(n)],
        )


def test_skip_generators_fixtures():
    x1, x2 = variables(2)
    assert skip_generators((2,), 2) == [x1 + x2, x1 - x2]
    for n in (1, 2, 3, 4):
        gens = skip_generators((), n)
        assert gens[0] == sum(variables(n), Polynomial.zero(n))


def test_skip_generators_colon_instance():
    # one instance of the generating-set theorem; the acceptance suite
    # sweeps every skip set at n <= 4
    n, skips = 3, (2,)
    gens = skip_generators(skips, n)
    assert is_regular_sequence(gens, n)
    target = colon(
        Ideal(n, coinvariant_generators(n)), skip_forms_product(skips, n)
    )
    assert ideal_equal(Ideal(n, gens), target)
    # the empty skip set recovers the coinvariant ideal itself
    assert ideal_equal(
        Ideal(n, skip_generators((), n)), Ideal(n, coinvariant_generators(n))
    )


def test_ones_ideal_contains_coinvariants_and_equals_colon():
    # over both families at n = 3: the mapped ideal contains every
    # elementary generator and equals the colon by the complement product
    n = 3
    coinv = Ideal(n, coinvariant_generators(n))
    cases = []
    for A in enumerate_southwest(n):
        cases.append((A, southwest_basis(A)))
    for r in range(0, n + 1):
        for skips in itertools.combinations(range(1, n + 1), r):
            cases.append((skip_arrangement(skips, n), skip_basis(skips, n)))
    for A, basis in cases:
        ideal = st_ideal(A, basis)
        for g in coinv.gens:
            assert ideal.contains(g)
        missing = Arrangement(n, full_arrangement(n).pairs - A.pairs)
        product = math.prod(linear_forms(missing), start=Polynomial.one(n))
        assert ideal_equal(ideal, colon(coinv, product))
        if not is_essential(A):
            assert ideal.is_unit()
