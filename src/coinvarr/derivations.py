"""Derivation modules of hyperplane arrangements.

A derivation is a polynomial vector field sum(c_k * d/dx_k).  The module
of an arrangement consists of the fields tangent to every hyperplane:
alpha | theta(alpha) for each defining form alpha.  Freeness is always
certified through Saito's criterion against an explicit basis; the module
itself is never materialized.  Membership is exact division of theta(alpha)
by alpha, decided once per suite for each distinct pair (theta, alpha); each
column derivation and each image theta(x1 + ... + xn) is likewise a
suite_cache memo.  Given membership, homogeneity and the degree sum, the
determinant of an Arrangement's basis is a constant times the product of
its distinct forms, which is nonzero at p = (1, 2, ..., n); so the
determinant of the coefficients' values at p, a matrix of plain numbers,
decides it.  An explicit form list may repeat a form, so there the
polynomial determinant is divided by the product instead.  Both go through
the one Bareiss loop of polynomials.matrix_determinant.  The Solomon-Terao
ideal of an arrangement is generated by the images theta(x1 + ... + xn) of
a certified basis; each image is the sum of the coefficients of theta.
Both certified bases come from one column-product formula: the southwest
basis is it, and the skip basis is it on the skip arrangement with each
skipped slot truncated to one term.

Targets are either an Arrangement or an explicit list of linear forms.
The latter keeps fixtures like {x1+x2 = 0} available even though the
arrangement type only models forms x_i - x_j and x_j.
"""

from __future__ import annotations

import math

from .arrangements import (
    Arrangement,
    forms_product,
    is_southwest,
    linear_forms,
    skip_arrangement,
)
from .groebner import Ideal
from .polynomials import (
    AmbientMismatch,
    Polynomial,
    divides,
    exact_divide,
    matrix_determinant,
    suite_cache,
)


class Derivation:
    """Vector field with polynomial coefficients, one per variable."""

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a derivation needs at least one coefficient")
        n = coeffs[0].n
        for c in coeffs:
            if not isinstance(c, Polynomial):
                raise TypeError("coefficients must be polynomials")
            if c.n != n:
                raise AmbientMismatch("mixed ambient dimensions in coefficients")
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        self.n = n
        self.coeffs = coeffs
        self._hash = None

    @classmethod
    def euler(cls, n):
        return cls([Polynomial.variable(n, k) for k in range(1, n + 1)])

    def apply(self, f):
        """theta(f) = sum over k of c_k * df/dx_k.

        A partial that is a constant scales c_k as a scalar, and a zero
        partial is skipped, so a linear f costs no polynomial product.
        """
        if f.n != self.n:
            raise AmbientMismatch("derivation and polynomial disagree on n")
        out = Polynomial.zero(self.n)
        for k, c in enumerate(self.coeffs, start=1):
            if not c:
                continue
            d = f.partial(k)
            if not d:
                continue
            if d.degree() == 0:
                (s,) = d.terms.values()
                out = out + (c if s == 1 else c * s)
            else:
                out = out + c * d
        return out

    def degree(self):
        """Common degree of every term of every coefficient, -1 when zero.

        Raises ValueError unless the derivation is homogeneous: every
        coefficient homogeneous, and all of one degree.
        """
        degs = {sum(e) for c in self.coeffs for e in c.terms}
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError("derivation is not homogeneous")
        return degs.pop()

    def __add__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatch("cannot add derivations with different n")
        return Derivation([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatch("cannot subtract derivations with different n")
        return Derivation([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Derivation([-c for c in self.coeffs])

    def __rmul__(self, scalar):
        return Derivation([scalar * c for c in self.coeffs])

    __mul__ = __rmul__

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:  # memo lookups hash the same derivation often
            self._hash = hash((self.n, self.coeffs))
        return self._hash

    def __repr__(self):
        parts = [
            f"({c.text()})*d{k}"
            for k, c in enumerate(self.coeffs, start=1)
            if c
        ]
        return "Derivation(" + (" + ".join(parts) or "0") + ")"


def _forms(target):
    """Normalize a target to its list of defining forms."""
    if isinstance(target, Arrangement):
        return [f for f in linear_forms(target)], target.n
    forms = list(target)
    if not forms:
        raise ValueError("an explicit form list must name its ambient; got none")
    n = forms[0].n
    for f in forms:
        if f.n != n:
            raise AmbientMismatch("mixed ambient dimensions in form list")
        if not f:
            raise ValueError("zero polynomial is not a hyperplane form")
    return forms, n


@suite_cache
def _tangent(theta, alpha):
    """alpha | theta(alpha): theta is tangent to the hyperplane alpha = 0."""
    return divides(alpha, theta.apply(alpha))


def is_derivation_of(theta, target):
    """True iff alpha divides theta(alpha) for every defining form."""
    forms, n = _forms(target)
    if theta.n != n:
        raise AmbientMismatch("derivation and target disagree on n")
    return all(_tangent(theta, alpha) for alpha in forms)


def saito_check(thetas, target):
    """Saito's criterion: certify n derivations as a free module basis.

    Checks that the derivations are homogeneous and nonzero, that their
    degrees sum to the number of hyperplanes, membership alpha | theta(alpha)
    for every form, and that the coefficient-matrix determinant is a nonzero
    constant times the product Q of the forms.  The last condition subsumes
    independence over the polynomial ring.

    For an Arrangement target the determinant is decided at the one point
    p = (1, 2, ..., n): the coefficients are evaluated there, and the
    determinant of those ints and Fractions is taken over Q.  The
    arrangement's forms are distinct primes, so membership gives
    Q | det; homogeneity and the degree sum make det = c * Q for a constant
    c; and Q(p) is a product of the nonzero integers j and i - j.  So
    det(p) != 0 exactly when c != 0.  An explicit form list may repeat a
    hyperplane, and then membership shows only that the product of the
    distinct forms divides det; so a form list keeps the polynomial
    determinant and its exact division by Q.
    """
    forms, n = _forms(target)
    if len(thetas) != n:
        raise ValueError(f"need exactly {n} derivations, got {len(thetas)}")
    for theta in thetas:
        if theta.n != n:
            raise AmbientMismatch("derivation and target disagree on n")
    degrees = [theta.degree() for theta in thetas]  # ValueError unless homogeneous
    if -1 in degrees:  # a zero derivation
        return False
    if sum(degrees) != len(forms):
        return False
    for theta in thetas:
        if not all(_tangent(theta, alpha) for alpha in forms):
            return False
    if isinstance(target, Arrangement):
        p = range(1, n + 1)
        rows = [[c.evaluate(p) for c in theta.coeffs] for theta in thetas]
        return bool(matrix_determinant(rows, 0))
    det = matrix_determinant([theta.coeffs for theta in thetas], n)
    quotient = exact_divide(det, math.prod(forms, start=Polynomial.one(n)))
    return quotient is not None and quotient.degree() == 0


def _column_derivation(A, j, slots):
    """Sum over k in slots of the product of the column-j forms of A with
    their second index moved to k, times d/dx_k."""
    return _column(tuple(sorted(i for i, jj in A.pairs if jj == j)), tuple(slots), A.n)


@suite_cache
def _column(col, slots, n):
    """The column derivation of the rows col over the given slots."""
    coeffs = [Polynomial.zero(n)] * n
    for k in slots:
        coeffs[k - 1] = forms_product([(i, k) for i in col], n)
    return Derivation(coeffs)


def southwest_basis(A):
    """The column-product free basis of a southwest arrangement.

    Entry j is the column-j derivation over the slots k = j..n.  An empty
    column gives the bare tail sum of partials.  Degrees are the column
    counts.
    """
    if not is_southwest(A):
        raise ValueError("basis formula requires a southwest arrangement")
    return [_column_derivation(A, j, range(j, A.n + 1)) for j in range(1, A.n + 1)]


def skip_basis(skips, n):
    """Free basis for the arrangement whose rows skip the given indices.

    The column-product formula on skip_arrangement(skips, n), truncated:
    an unskipped slot i sums over k = i..n, a skipped slot i keeps only its
    k = i term.  Degrees are the staircase entries.
    """
    skips = frozenset(skips)
    A = skip_arrangement(skips, n)
    return [
        _column_derivation(A, i, [i] if i in skips else range(i, n + 1))
        for i in range(1, n + 1)
    ]


def _eta(n):
    """x1 + ... + xn, whose partials are all 1."""
    units = (tuple(int(i == k) for i in range(n)) for k in range(n))
    return Polynomial(n, dict.fromkeys(units, 1))


@suite_cache
def _image(theta):
    """theta(x1 + ... + xn), the sum of theta's coefficients."""
    return theta.apply(_eta(theta.n))


def skip_generators(skips, n):
    """The images theta(x1 + ... + xn) of the skip_basis derivations."""
    return [_image(theta) for theta in skip_basis(skips, n)]


def restrict_derivation(theta, p):
    """Push a derivation onto the hyperplane x_p = 0.

    Sets x_p to zero in every coefficient and drops the p-th slot; only
    legal when x_p divides the p-th coefficient, which holds for members
    of any arrangement containing that hyperplane.  Degree is preserved.
    """
    n = theta.n
    if not 1 <= p <= n:
        raise ValueError(f"coordinate index {p} out of range")
    if not divides(Polynomial.variable(n, p), theta.coeffs[p - 1]):
        raise ValueError(
            f"coefficient of slot {p} is not divisible by x{p}; "
            "the derivation is not tangent to that hyperplane"
        )
    coeffs = []
    for k in range(1, n + 1):
        if k == p:
            continue
        coeffs.append(theta.coeffs[k - 1].set_var_zero(p).drop_var(p))
    return Derivation(coeffs)


def st_ideal(target, basis):
    """Ideal generated by theta(x1 + ... + xn) over a certified free basis.

    The basis must pass saito_check for the target; the resulting ideal
    does not depend on which certified basis was supplied.
    """
    _, n = _forms(target)
    if not saito_check(basis, target):
        raise ValueError("supplied basis fails Saito certification")
    return Ideal(n, [_image(theta) for theta in basis])
