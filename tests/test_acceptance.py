"""Acceptance gate: the ten headline checks, exact arithmetic, zero tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s) and enforces
its stated runtime budget.  Everything here is redundant with the unit
suites by design; this file is the single place a release is judged from.
"""

import itertools
import math
import random
import time

from coinvarr.arrangements import (
    Arrangement,
    char_poly_eval,
    characteristic_polynomial,
    column_counts,
    enumerate_southwest,
    full_arrangement,
    point_count,
    roots_poly,
    skip_arrangement,
    skip_forms_product,
    smallest_prime_above,
    staircase,
    staircase_monomials,
)
from coinvarr.derivations import (
    Derivation,
    saito_check,
    skip_basis,
    skip_generators,
    southwest_basis,
)
from coinvarr.groebner import Ideal, colon, ideal_equal, is_regular_sequence
from coinvarr.polynomials import Polynomial
from coinvarr.st_algebras import (
    classify,
    cospan_check,
    exact_sequence_check,
    verify_box_basis,
    verify_skip_quotient,
)
from coinvarr.superspace import (
    artin_monomials,
    fubini,
    sr_basis_certificate,
)
from coinvarr.symmetric import (
    coinvariant_generators,
    eh_duality_check,
    partitions,
    schur,
    steinberg_member,
)

EXAMPLE5 = Arrangement(
    5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (2, 5)]
)


def _gate(num, label, ok, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:2d}: {verdict} [{elapsed:6.2f}s] {label}")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def _conv(parts):
    out = [1]
    for m in parts:
        nxt = [0] * (len(out) + m - 1)
        for i, c in enumerate(out):
            for k in range(m):
                nxt[i + k] += c
        out = nxt
    return tuple(out)


def test_criterion_01_staircase_and_monomial_displays():
    start = time.perf_counter()
    ok = staircase({2, 4}, 5) == (1, 1, 2, 2, 3)
    skip_display = ", ".join(
        Polynomial.monomial(5, e).text() for e in staircase_monomials({2, 4}, 5)
    )
    ok = ok and skip_display == (
        "x3*x4*x5^2, x3*x4*x5, x3*x4, x3*x5^2, x3*x5, x3, "
        "x4*x5^2, x4*x5, x4, x5^2, x5, 1"
    )
    decorated = ", ".join(m.text() for m in artin_monomials(3))
    ok = ok and decorated == (
        "x2*x3^2, x2*x3, x2, x3^2, x3, 1, "
        "x2*x3*t3, x2*t3, x3*t3, t3, x3*t2, t2, t2*t3"
    )
    _gate(1, "staircase and monomial displays", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_super_coinvariant_basis():
    start = time.perf_counter()
    ok = True
    for n, want in ((1, 1), (2, 3), (3, 13)):
        table, certified = sr_basis_certificate(n)
        ok = ok and certified
        ok = ok and sum(table.values()) == want == fubini(n)
    small_elapsed = time.perf_counter() - start
    ok = ok and small_elapsed < 10.0
    table, certified = sr_basis_certificate(4)
    ok = ok and certified
    ok = ok and sum(table.values()) == 75 == fubini(4)
    _gate(2, "decorated monomial basis, n <= 4", ok, time.perf_counter() - start, 600.0)


def test_criterion_03_skip_quotient_bases():
    start = time.perf_counter()
    ok = all(
        verify_skip_quotient(J, n)
        for n in range(1, 5)
        for J in _subsets(range(1, n + 1))
    )
    _gate(3, "staircase bases of colon quotients, all J", ok, time.perf_counter() - start, 120.0)


def test_criterion_04_colon_generators():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        coinv = Ideal(n, coinvariant_generators(n))
        for J in _subsets(range(2, n + 1)):
            gens = skip_generators(J, n)
            ok = ok and is_regular_sequence(gens, n)
            quotient = colon(coinv, skip_forms_product(J, n))
            ok = ok and ideal_equal(Ideal(n, gens), quotient)
    _gate(4, "regular sequences generating the colon ideals", ok, time.perf_counter() - start, 300.0)


def test_criterion_05_saito_certifications():
    start = time.perf_counter()
    ok = all(
        saito_check(southwest_basis(A), A)
        for n in range(1, 5)
        for A in enumerate_southwest(n)
    )
    ok = ok and all(
        saito_check(skip_basis(J, 4), skip_arrangement(J, 4))
        for J in _subsets(range(1, 5))
    )
    _gate(5, "basis certification, southwest and skip families", ok, time.perf_counter() - start, 300.0)


def test_criterion_06_characteristic_polynomials():
    start = time.perf_counter()
    ok = True
    for J in _subsets(range(1, 6)):
        A = skip_arrangement(J, 5)
        mob = characteristic_polynomial(A)
        ok = ok and mob == roots_poly(staircase(J, 5))
        p = smallest_prime_above(5 * len(A))
        ok = ok and point_count(A, p) == char_poly_eval(mob, p)
    _gate(6, "factored characteristic polynomials with point counts", ok, time.perf_counter() - start, 120.0)


def test_criterion_07_cospan_biconditional():
    start = time.perf_counter()
    ok = True
    counts = []
    for n in (2, 3, 4):
        seen = 0
        for T in _subsets(full_arrangement(n).sorted_pairs()):
            ok = ok and cospan_check(T, n)
            seen += 1
        counts.append(seen)
    ok = ok and counts == [8, 64, 1024]
    _gate(7, "complement-span biconditional, both membership routes", ok, time.perf_counter() - start, 300.0)


def test_criterion_08_southwest_quotients():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for A in enumerate_southwest(n, essential_only=True):
            inst = classify(A)
            ok = ok and exact_sequence_check(inst)
            ok = ok and verify_box_basis(inst)
    inst = classify(EXAMPLE5)
    ok = ok and column_counts(EXAMPLE5) == (1, 2, 2, 3, 1)
    ok = ok and inst.dimension == 12
    ok = ok and inst.hilbert == _conv([2, 2, 3]) == (1, 3, 4, 3, 1)
    ok = ok and inst.hilbert == tuple(reversed(inst.hilbert))
    ok = ok and exact_sequence_check(inst) and verify_box_basis(inst)
    _gate(8, "additivity and box bases, essential southwest", ok, time.perf_counter() - start, 600.0)


def test_criterion_09_trichotomy_fixtures():
    start = time.perf_counter()
    ok = classify(Arrangement(2, [])).tag == "zero"
    one = Polynomial.one(2)
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    line = classify([x1 + x2], basis=[Derivation([one, -one]), Derivation.euler(2)])
    ok = ok and line.tag == "infinite"
    for n in range(1, 5):
        inst = classify(full_arrangement(n))
        ok = ok and inst.tag == "poincare-duality"
        ok = ok and inst.hilbert == _conv(range(1, n + 1))
        ok = ok and inst.dimension == math.factorial(n)
    _gate(9, "zero, infinite, and duality classifications", ok, time.perf_counter() - start, 120.0)


def test_criterion_10_symmetric_toolkit():
    start = time.perf_counter()
    ok = True
    rng = random.Random(20260814)
    for i in range(200):
        n = i % 3 + 1
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 4) for _ in range(n))
            terms[exps] = terms.get(exps, 0) + rng.randint(-4, 4)
        f = Polynomial(n, terms)
        ok = ok and steinberg_member(f) == Ideal(
            n, coinvariant_generators(n)
        ).contains(f)
    for n in range(1, 5):
        for A in _subsets(range(1, n + 1)):
            for total in range(1, 5):
                for shape in partitions(total):
                    if shape[0] > n - len(A):
                        ok = ok and steinberg_member(schur(shape, n, A))
            B = frozenset(range(1, n + 1)) - A
            ok = ok and all(eh_duality_check(d, A, B, n) for d in range(5))
    _gate(10, "membership toolkit: operator, Schur, duality", ok, time.perf_counter() - start, 120.0)
