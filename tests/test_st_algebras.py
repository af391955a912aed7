import itertools
import math

import pytest

from coinvarr.arrangements import (
    Arrangement,
    braid_arrangement,
    column_counts,
    delete,
    enumerate_southwest,
    full_arrangement,
    is_essential,
    is_southwest,
    skip_arrangement,
    skip_forms_product,
    staircase,
)
from coinvarr.derivations import Derivation, saito_check
from coinvarr.groebner import Ideal, colon
from coinvarr.polynomials import (
    Polynomial,
    clear_suite_caches,
    q_integer_product,
    variables,
)
from coinvarr import st_algebras
from coinvarr.st_algebras import (
    STInstance,
    certified_basis,
    classify,
    colon_descent_check,
    cospan_check,
    exact_sequence_check,
    verify_box_basis,
    verify_skip_quotient,
)
from coinvarr.symmetric import coinvariant_generators

EXAMPLE5 = Arrangement(
    5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (2, 5)]
)


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (set(c) for c in itertools.combinations(items, r))


# -- classification ----------------------------------------------------------


def test_classify_empty_is_zero():
    inst = classify(Arrangement(2, []))
    assert inst.tag == "zero"
    assert inst.hilbert == ()
    assert inst.dimension == 0
    assert inst.ideal.is_unit()


def test_classify_single_line_is_infinite():
    # One non-coordinate line: the quotient keeps a whole polynomial ring's
    # worth of monomials, and the ideal collapses to the line's own form.
    one = Polynomial.one(2)
    basis = [Derivation([one, -one]), Derivation.euler(2)]
    x1, x2 = variables(2)
    inst = classify([x1 + x2], basis=basis)
    assert inst.tag == "infinite"
    assert inst.hilbert is None and inst.dimension is None
    assert inst.ideal.groebner() == [x1 + x2]
    assert not inst.ideal.is_artinian()


def test_classify_full_n2():
    inst = classify(full_arrangement(2))
    assert inst.tag == "poincare-duality"
    assert inst.hilbert == (1, 1)
    assert inst.dimension == 2


def test_classify_running_example():
    inst = classify(EXAMPLE5)
    assert inst.tag == "poincare-duality"
    # (1+q)^2 (1+q+q^2) expanded, one factor per column count above one
    assert inst.hilbert == (1, 3, 4, 3, 1)
    assert inst.dimension == 12
    assert inst.hilbert == tuple(reversed(inst.hilbert))


def test_classify_skip_family_and_zero_branch():
    inst = classify(skip_arrangement({2}, 2))
    assert inst.tag == "poincare-duality"
    assert inst.hilbert == (1,)
    # skipping 1 drops the coordinate form x1 and the quotient dies
    assert classify(skip_arrangement({1}, 2)).tag == "zero"


def _quadratic_ideal(A):
    # AMMN's classical instance eta = x1^2 + ... + xn^2: theta(eta) is twice
    # the coordinate map d/dx_k -> x_k applied to theta
    basis = certified_basis(A)
    assert saito_check(basis, A)
    q = sum((x * x for x in variables(A.n)), Polynomial.zero(A.n))
    return Ideal(A.n, [theta.apply(q) for theta in basis]), basis


def test_classify_coords_map_braid():
    # with the coordinate map the braid line gives the rank-one coinvariants
    ideal, _ = _quadratic_ideal(braid_arrangement(2))
    assert ideal.is_artinian()
    assert ideal.hilbert_series() == (1, 1)


def test_classify_full_coords_map_factorial_dimension():
    # column counts (1..n) shift to (2..n+1) under the degree-two eta
    for n in range(1, 4):
        ideal, basis = _quadratic_ideal(full_arrangement(n))
        shifted = [theta.degree() + 1 for theta in basis]
        assert ideal.hilbert_series() == q_integer_product(shifted)
        assert ideal.dimension() == math.factorial(n + 1)


def test_certified_basis_families():
    assert len(certified_basis(full_arrangement(3))) == 3
    assert len(certified_basis(skip_arrangement({1, 3}, 3))) == 3
    with pytest.raises(ValueError):
        certified_basis(Arrangement(3, [(0, 2), (1, 3)]))
    with pytest.raises(ValueError):
        certified_basis([variables(2)[0]])


def test_classify_tags_exclusive():
    tags = set()
    for A in enumerate_southwest(3):
        inst = classify(A)
        tags.add(inst.tag)
        assert (inst.tag == "zero") == inst.ideal.is_unit()
        assert (inst.tag == "poincare-duality") == (
            inst.hilbert is not None and inst.dimension is not None and inst.hilbert != ()
        )
        if inst.tag == "poincare-duality":
            assert inst.hilbert == tuple(reversed(inst.hilbert))
    assert tags == {"zero", "poincare-duality"}


def test_classify_dimension_is_column_product():
    for A in enumerate_southwest(3, essential_only=True):
        inst = classify(A)
        want = 1
        for h in column_counts(A):
            want *= h
        assert inst.dimension == want


def test_classify_memoises_equal_arrangements():
    clear_suite_caches()
    first = classify(full_arrangement(3))
    again = classify(Arrangement(3, sorted(full_arrangement(3).pairs)))
    assert again is first
    assert st_algebras._classified.cache_info().currsize == 1
    clear_suite_caches()
    assert not st_algebras._classified.cache_info().currsize
    assert classify(full_arrangement(3)) is not first


def test_classify_explicit_bases_and_form_lists_are_not_memoised():
    clear_suite_caches()
    A = full_arrangement(2)
    basis = certified_basis(A)
    explicit = classify(A, basis=basis)
    assert classify(A, basis=basis) is not explicit
    assert not st_algebras._classified.cache_info().currsize
    one = Polynomial.one(2)
    line = [Derivation([one, -one]), Derivation.euler(2)]
    x1, x2 = variables(2)
    assert classify([x1 + x2], basis=line) is not classify([x1 + x2], basis=line)
    assert not st_algebras._classified.cache_info().currsize
    # the memoised value equals the one an explicit basis gives
    inst = classify(A)
    assert (inst.tag, inst.hilbert, inst.dimension) == (
        explicit.tag,
        explicit.hilbert,
        explicit.dimension,
    )
    assert inst.ideal.gens == explicit.ideal.gens


def test_checks_leave_a_memoised_instance_as_built():
    # every southwest check reads the one shared instance of each arrangement
    clear_suite_caches()
    for A in enumerate_southwest(3, essential_only=True):
        inst = classify(A)
        before = (inst.target, inst.ideal.gens, inst.tag, inst.hilbert, inst.dimension)
        assert verify_box_basis(inst)
        assert exact_sequence_check(inst)
        assert classify(A) is inst
        after = (inst.target, inst.ideal.gens, inst.tag, inst.hilbert, inst.dimension)
        assert after == before
    clear_suite_caches()


# -- short exact sequence ----------------------------------------------------


def test_exact_sequence_full_n2():
    A = full_arrangement(2)
    inst = classify(A)
    assert exact_sequence_check(inst)
    # the three series by hand: (1,1) = q*(1,) + (1,)
    assert inst.hilbert == (1, 1)
    assert classify(delete(A, (0, 2))).hilbert == (1,)


def test_exact_sequence_singleton_column_isomorphism():
    # both coordinate lines only: deleting the last one kills essentiality,
    # so the projection onto the restriction is an isomorphism
    A = Arrangement(2, [(0, 1), (0, 2)])
    assert exact_sequence_check(classify(A))
    assert classify(delete(A, (0, 2))).tag == "zero"


def test_exact_sequence_running_example():
    assert exact_sequence_check(classify(EXAMPLE5))


def test_exact_sequence_lowest_case():
    assert exact_sequence_check(classify(Arrangement(1, [(0, 1)])))


def test_exact_sequence_validation():
    with pytest.raises(ValueError):
        exact_sequence_check(classify(braid_arrangement(3)))  # not essential
    with pytest.raises(ValueError):
        # essential, but x3 is present without x2: not southwest
        exact_sequence_check(classify(skip_arrangement({2}, 3)))


def test_exact_sequence_sweep_n3():
    for A in enumerate_southwest(3, essential_only=True):
        assert exact_sequence_check(classify(A))


# -- box monomial bases ------------------------------------------------------


def test_box_basis_full_n2():
    inst = classify(full_arrangement(2))
    assert verify_box_basis(inst)
    # under h = (1, 2) the box is {1, x2}
    nf = inst.ideal.normal_form
    x1, x2 = variables(2)
    assert nf(x1) == -x2  # x1 + x2 lies in the ideal


def test_box_basis_running_example():
    assert verify_box_basis(classify(EXAMPLE5))


def test_box_basis_skips_unit_columns():
    # columns with a single form contribute no variable to any box monomial
    h = column_counts(EXAMPLE5)
    assert h == (1, 2, 2, 3, 1)
    inst = classify(EXAMPLE5)
    assert len(inst.ideal.standard_monomials()) == 12


def test_box_basis_requires_essential():
    with pytest.raises(ValueError):
        verify_box_basis(classify(braid_arrangement(2)))


def test_box_basis_sweep_n3():
    for A in enumerate_southwest(3, essential_only=True):
        assert verify_box_basis(classify(A))


# a monomial list with a repeat has the right count and a rank one short;
# a list missing one monomial has the count one short
_BROKEN_BASES = {
    "repeat": lambda exps: exps[:-1] + exps[:1],
    "drop": lambda exps: exps[:-1],
}


@pytest.mark.parametrize("break_basis", _BROKEN_BASES.values(), ids=_BROKEN_BASES)
def test_box_basis_certificate_can_fail(monkeypatch, break_basis):
    inst = classify(EXAMPLE5)
    assert verify_box_basis(inst)
    real = st_algebras.box_monomials
    monkeypatch.setattr(st_algebras, "box_monomials", lambda h: break_basis(real(h)))
    assert not verify_box_basis(inst)


@pytest.mark.parametrize("break_basis", _BROKEN_BASES.values(), ids=_BROKEN_BASES)
def test_skip_quotient_certificate_can_fail(monkeypatch, break_basis):
    assert verify_skip_quotient({2, 4}, 4)
    real = st_algebras.staircase_monomials
    monkeypatch.setattr(
        st_algebras, "staircase_monomials", lambda J, n: break_basis(real(J, n))
    )
    assert not verify_skip_quotient({2, 4}, 4)


def test_southwest_checks_require_an_arrangement():
    # box bases and additivity are statements about arrangements, not about
    # an explicit list of forms such as the line x1 + x2 = 0
    one = Polynomial.one(2)
    x1, x2 = variables(2)
    basis = [Derivation([one, -one]), Derivation.euler(2)]
    inst = classify([x1 + x2], basis=basis)
    assert inst.tag == "infinite"
    with pytest.raises(ValueError):
        verify_box_basis(inst)
    with pytest.raises(ValueError):
        exact_sequence_check(inst)


# -- staircase quotient bases ------------------------------------------------


def test_skip_quotient_n2():
    assert verify_skip_quotient({2}, 2)
    quotient = colon(Ideal(2, coinvariant_generators(2)), skip_forms_product({2}, 2))
    assert quotient.dimension() == 1


def test_skip_quotient_unit_branch():
    assert verify_skip_quotient({1}, 2)
    assert verify_skip_quotient({1, 2}, 2)
    assert verify_skip_quotient({1, 2, 3}, 3)


def test_skip_quotient_all_small():
    for n in (1, 2, 3):
        for J in subsets(range(1, n + 1)):
            assert verify_skip_quotient(J, n)


def test_skip_quotient_samples_n5():
    assert verify_skip_quotient({2, 4}, 5)
    for r in range(1, 6):
        assert verify_skip_quotient(set(range(r, 6)), 5)


def test_skip_quotient_dimension_matches_staircase():
    for J in subsets(range(1, 5)):
        if 1 in J:
            continue
        quotient = colon(
            Ideal(4, coinvariant_generators(4)), skip_forms_product(J, 4)
        )
        want = 1
        for b in staircase(J, 4):
            want *= b
        assert quotient.dimension() == want


# -- skip colons -------------------------------------------------------------


def test_skip_colon_matches_the_single_shot_colon():
    clear_suite_caches()
    for n in range(1, 5):
        coinv = Ideal(n, coinvariant_generators(n))
        for J in map(frozenset, subsets(range(1, n + 1))):
            want = colon(coinv, skip_forms_product(J, n)).groebner()
            assert st_algebras.skip_colon(J, n).groebner() == want, (n, J)
    clear_suite_caches()


def test_skip_colon_needs_the_smaller_colon():
    # colon by the factor q_j of j = max J alone, straight from the
    # coinvariant ideal, forgets the other factors of Q_J; the recursion
    # has to start from the ideal of J - {j}
    n = 3
    coinv = Ideal(n, coinvariant_generators(n))

    def one_factor(J):
        if not J:
            return coinv
        return colon(coinv, skip_forms_product({max(J)}, n))

    clear_suite_caches()
    differ = {
        J
        for J in map(frozenset, subsets(range(1, n + 1)))
        if one_factor(J).groebner() != st_algebras.skip_colon(J, n).groebner()
    }
    clear_suite_caches()
    assert differ == {J for J in map(frozenset, subsets(range(1, n + 1))) if len(J) > 1}


# -- complement span ---------------------------------------------------------


def test_cospan_hand_cases_n2():
    pairs = full_arrangement(2).sorted_pairs()
    for T in subsets(pairs):
        assert cospan_check(T, 2)


def test_cospan_edges():
    assert cospan_check([], 3)
    assert cospan_check(full_arrangement(3).sorted_pairs(), 3)
    with pytest.raises(ValueError):
        cospan_check([(1, 4)], 3)


def test_cospan_exhaustive_n3():
    pairs = full_arrangement(3).sorted_pairs()
    for T in subsets(pairs):
        assert cospan_check(T, 3)


# -- colon descent -----------------------------------------------------------


def test_colon_descent_holds():
    assert colon_descent_check(
        full_arrangement(2), skip_arrangement({2}, 2)) == "holds"
    assert colon_descent_check(
        full_arrangement(3), skip_arrangement({3}, 3)) == "holds"


def test_colon_descent_skipped_when_ratio_inside():
    # the whole defining product sits in the ideal once degrees run out
    verdict = colon_descent_check(
        full_arrangement(2), Arrangement(2, []))
    assert verdict == "skipped"
    # unit big ideal: everything is inside, nothing to test
    verdict = colon_descent_check(
        braid_arrangement(2), Arrangement(2, []))
    assert verdict == "skipped"


def test_colon_descent_validation():
    with pytest.raises(ValueError):
        colon_descent_check(
            skip_arrangement({2}, 2), full_arrangement(2))


def test_colon_descent_skip_family_sweep():
    # every skip arrangement inside the full one, where defined
    for J in subsets(range(1, 4)):
        verdict = colon_descent_check(
            full_arrangement(3), skip_arrangement(J, 3))
        assert verdict == ("skipped" if 1 in J else "holds")


# -- augmented skip arrangements ---------------------------------------------


def test_augmented_skip_column_counts():
    # adding back the skipped coordinate forms stays southwest and bumps
    # exactly the skipped columns by one
    for J in subsets(range(1, 5)):
        base = skip_arrangement(J, 4)
        pairs = set(base.pairs) | {(0, k) for k in J}
        B = Arrangement(4, pairs)
        assert is_southwest(B)
        assert is_essential(B)
        st = staircase(J, 4)
        want = tuple(st[k - 1] + (1 if k in J else 0) for k in range(1, 5))
        assert column_counts(B) == want


def test_repr_smoke():
    inst = classify(full_arrangement(2))
    assert "poincare-duality" in repr(inst)
    assert isinstance(inst, STInstance)
