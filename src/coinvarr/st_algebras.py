"""Solomon-Terao algebras of certified free arrangements.

The algebra of an arrangement is the quotient of the polynomial ring by the
ideal of the images theta(x1 + ... + xn) of its derivations.  With a
certified free basis in hand the quotient is classified exactly into one of
three mutually exclusive shapes: the zero ring, an infinite-dimensional
ring, or an Artinian ring with palindromic Hilbert series given by the basis
degrees; the unit test and one Hilbert series tell them apart.  The checks
in this module lean on that classification: short exact sequences become
Hilbert-series additivity plus one ideal identity, and the box and staircase
bases share one certificate: as many monomials as the quotient's dimension,
with normal forms of full rank.
"""

from .arrangements import (
    Arrangement,
    column_counts,
    delete,
    forms_product,
    full_arrangement,
    is_essential,
    is_southwest,
    linear_form,
    max_coordinate,
    restrict_coordinate,
    skip_arrangement,
    skip_forms_product,
    staircase_monomials,
)
from .derivations import skip_basis, southwest_basis, st_ideal
from .groebner import Ideal, colon, ideal_equal
from .polynomials import (
    box_monomials,
    echelon_rows,
    q_integer_product,
    rank_of_elements,
    suite_cache,
)
from .symmetric import coinvariant_generators, steinberg_member

__all__ = [
    "STInstance",
    "certified_basis",
    "classify",
    "exact_sequence_check",
    "verify_box_basis",
    "verify_skip_quotient",
    "skip_colon",
    "cospan_check",
    "colon_descent_check",
]


# -- classification ----------------------------------------------------------


class STInstance:
    """One classified quotient: target, ideal, and shape tag.

    tag is "zero" (unit ideal), "infinite" (non-Artinian quotient), or
    "poincare-duality" (Artinian; hilbert then holds the graded dimensions
    and dimension their sum).  Exactly one tag applies.
    """

    __slots__ = ("target", "ideal", "tag", "hilbert", "dimension")

    def __init__(self, target, ideal, tag, hilbert, dimension):
        self.target = target
        self.ideal = ideal
        self.tag = tag
        self.hilbert = hilbert
        self.dimension = dimension

    def __repr__(self):
        if self.tag == "poincare-duality":
            return f"STInstance(tag={self.tag}, hilbert={self.hilbert})"
        return f"STInstance(tag={self.tag})"


def certified_basis(A):
    """A free basis this library can certify for the arrangement.

    Southwest arrangements get the column-product basis; the skip family is
    recognized from its coordinate pattern and gets the staircase basis.
    Anything else raises: freeness in general is out of scope.
    """
    if not isinstance(A, Arrangement):
        raise ValueError("certified bases exist only for arrangement targets")
    if is_southwest(A):
        return southwest_basis(A)
    skips = frozenset(
        j for j in range(1, A.n + 1) if (0, j) not in A.pairs
    )
    if A == skip_arrangement(skips, A.n):
        return skip_basis(skips, A.n)
    raise ValueError("no certified basis known for this arrangement")


def classify(target, basis=None):
    """Classify the quotient by the Solomon-Terao ideal into its three shapes.

    The basis defaults to certified_basis(target) and is re-certified by
    st_ideal either way.  In the Artinian case the computed Hilbert series
    must match the product formula over the basis degrees and be
    palindromic; a mismatch means the certification is broken, so it raises
    rather than returning a report.  An Arrangement classified with its
    default basis is memoised by _classified; an explicit basis or a form
    list is classified afresh on every call.
    """
    if basis is None and isinstance(target, Arrangement):
        return _classified(target)
    return _classify(target, basis)


@suite_cache
def _classified(A):
    """classify(A) of an Arrangement with its certified basis."""
    return _classify(A, None)


def _classify(target, basis):
    if basis is None:
        basis = certified_basis(target)
    basis = tuple(basis)
    ideal = st_ideal(target, basis)
    if ideal.is_unit():
        return STInstance(target, ideal, "zero", (), 0)
    hilbert = ideal.hilbert_series()
    if hilbert is None:
        return STInstance(target, ideal, "infinite", None, None)
    if hilbert != q_integer_product(theta.degree() for theta in basis):
        raise ArithmeticError("Hilbert series disagrees with the basis degrees")
    if tuple(hilbert) != tuple(reversed(hilbert)):
        raise ArithmeticError("Artinian quotient has a non-palindromic series")
    return STInstance(target, ideal, "poincare-duality", tuple(hilbert), sum(hilbert))


# -- short exact sequence ----------------------------------------------------


def _coeff(h, k):
    return h[k] if 0 <= k < len(h) else 0


def _arrangement(inst):
    """The target of an instance when it is an Arrangement, else raise."""
    if not isinstance(inst.target, Arrangement):
        raise ValueError("the statement is about an arrangement")
    return inst.target


def exact_sequence_check(inst):
    """Certify the deletion/restriction sequence of a classified instance.

    inst is classify(A) for an essential southwest A; its Hilbert series
    and ideal are read as they are, and only the deletion of the largest
    coordinate form x_p and the restriction to x_p = 0 are classified here.
    The deletion stays in the certified family only at that p.  True iff
    the graded dimensions satisfy big = q*deleted + restricted
    coefficientwise (the zero algebra contributing nothing) and the
    restricted ideal equals the big ideal plus (x_p), read in the surviving
    variables.  That equality is read by containment: the restriction's
    basis is the one its classification built, and the projected ideal
    needs none while each restricted generator is a multiple of one of its
    generators.
    """
    A = _arrangement(inst)
    if not is_southwest(A) or not is_essential(A):
        raise ValueError("an essential southwest arrangement is required")
    p = max_coordinate(A)
    if p is None:
        raise ValueError("no coordinate form to delete")
    small = classify(delete(A, (0, p)))
    if A.n == 1:
        # The restriction lands in a zero-dimensional ambient space, where
        # the algebra is a single copy of the ground field.
        return small.tag == "zero" and inst.hilbert == (1,)
    rest = classify(restrict_coordinate(A, p))
    if inst.hilbert is None or small.hilbert is None or rest.hilbert is None:
        return False
    width = max(len(inst.hilbert), len(small.hilbert) + 1, len(rest.hilbert))
    for k in range(width):
        if _coeff(inst.hilbert, k) != _coeff(small.hilbert, k - 1) + _coeff(
            rest.hilbert, k
        ):
            return False
    projected = Ideal(
        A.n - 1,
        [g.set_var_zero(p).drop_var(p) for g in inst.ideal.gens],
    )
    return ideal_equal(projected, rest.ideal)


# -- monomial bases ----------------------------------------------------------


def _is_monomial_basis(ideal, exps, dimension):
    """True iff the checked exponent tuples exps give a basis of S / ideal:
    there are dimension of them, and their normal forms have full rank.
    The rank is read from the packed remainders, positive multiples of the
    normal forms.
    """
    if len(exps) != dimension:
        return False
    return len(echelon_rows(ideal.monomial_remainders(exps))) == dimension


def verify_box_basis(inst):
    """Check the box monomials under the column counts form a quotient basis.

    inst is classify(A) for an essential arrangement A.  Its quotient must be
    Artinian, and the box monomials must be a basis of it; the dimension is
    read from inst, so the quotient is not walked again.
    """
    A = _arrangement(inst)
    if not is_essential(A):
        raise ValueError("box bases are stated for essential arrangements")
    if inst.tag != "poincare-duality":
        return False
    exps = box_monomials(column_counts(A))
    return _is_monomial_basis(inst.ideal, exps, inst.dimension)


@suite_cache
def skip_colon(skips, n):
    """The colon ideal I : Q_J of the coinvariant ideal I by the skip set J.

    skips is J as a frozenset, and Q_J = skip_forms_product(J, n) is the
    product over j in J of q_j = x_j * prod_{i>j} (x_j - x_i).  Since
    (I : f) : g = I : fg, the ideal for J is the one for J - {j}, with
    j = max J, coloned by q_j alone.  The smaller ideal is memoised, so a
    suite that meets every skip set pays one elimination per non-empty set,
    by one factor of degree n - j + 1 rather than by all of Q_J.
    """
    if not skips:
        return Ideal(n, coinvariant_generators(n))
    j = max(skips)
    return colon(skip_colon(skips - {j}, n), skip_forms_product({j}, n))


def verify_skip_quotient(skips, n):
    """Check the staircase monomials against the colon-ideal quotient.

    The quotient is skip_colon(skips, n), built one memoised factor at a
    time.  When 1 is skipped the colon ideal must be the whole ring and
    there is nothing to span.  Otherwise the staircase monomials, as many
    as the staircase product, must be a basis of the quotient.
    """
    skips = frozenset(skips)
    quotient = skip_colon(skips, n)
    if 1 in skips:
        return quotient.is_unit()
    exps = staircase_monomials(skips, n)
    return _is_monomial_basis(quotient, exps, quotient.dimension())


# -- complement span ---------------------------------------------------------


def cospan_check(pairs, n):
    """Product of chosen forms lies in the symmetric ideal iff the rest
    of the forms fail to span the dual space; returns that biconditional.

    Membership goes through the differential-operator pairing, and it must
    also agree with Groebner membership in the ideal of elementary
    generators.
    """
    chosen = {tuple(p) for p in pairs}
    everything = full_arrangement(n).pairs
    if not chosen <= everything:
        raise ValueError("pairs must come from the full arrangement")
    product = forms_product(chosen, n)
    member = steinberg_member(product)
    rest = [linear_form(p, n) for p in sorted(everything - chosen)]
    spans = rank_of_elements(rest) == n
    if Ideal(n, coinvariant_generators(n)).contains(product) != member:
        return False
    return member == (not spans)


# -- colon descent between nested arrangements -------------------------------


def colon_descent_check(A, B):
    """Compare the small ideal with the big ideal coloned by the form ratio.

    Returns "holds" or "fails" when the two hypotheses are met: the big
    quotient is finite-dimensional and the ratio of defining polynomials
    stays outside the big ideal.  When either hypothesis fails there is
    nothing to test and the verdict is "skipped".
    """
    if not set(B.pairs) <= set(A.pairs):
        raise ValueError("the second arrangement must sit inside the first")
    big = st_ideal(A, certified_basis(A))
    ratio = forms_product(A.pairs - B.pairs, A.n)
    if not big.is_artinian():
        return "skipped"
    if big.contains(ratio):
        return "skipped"
    small = st_ideal(B, certified_basis(B))
    return "holds" if ideal_equal(small, colon(big, ratio)) else "fails"
