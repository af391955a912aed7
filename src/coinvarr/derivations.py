"""Derivation modules of hyperplane arrangements.

A derivation is a polynomial vector field sum(c_k * d/dx_k).  The module
of an arrangement consists of the fields tangent to every hyperplane:
alpha | theta(alpha) for each defining form alpha.  Freeness is always
certified through Saito's criterion against an explicit basis; the module
itself is never materialized.

Targets are either an Arrangement or an explicit list of linear forms.
The latter keeps fixtures like {x1+x2 = 0} available even though the
arrangement type only models forms x_i - x_j and x_j.
"""

from __future__ import annotations

from .arrangements import (
    Arrangement,
    is_southwest,
    linear_forms,
    staircase,
)
from .groebner import Ideal
from .polynomials import (
    AmbientMismatch,
    Polynomial,
    divides,
    exact_divide,
    matrix_determinant,
)


class Derivation:
    """Vector field with polynomial coefficients, one per variable."""

    __slots__ = ("n", "coeffs")

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

    @classmethod
    def zero(cls, n):
        return cls([Polynomial.zero(n)] * n)

    @classmethod
    def euler(cls, n):
        return cls([Polynomial.variable(n, k) for k in range(1, n + 1)])

    def apply(self, f):
        if f.n != self.n:
            raise AmbientMismatch("derivation and polynomial disagree on n")
        out = Polynomial.zero(self.n)
        for k, c in enumerate(self.coeffs, start=1):
            if c:
                out = out + c * f.partial(k)
        return out

    def degree(self):
        """Common degree of the nonzero coefficients, -1 when zero."""
        degs = {c.degree() for c in self.coeffs if c}
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError("derivation is not homogeneous")
        return degs.pop()

    def is_homogeneous(self):
        return all(c.is_homogeneous() for c in self.coeffs) and (
            len({c.degree() for c in self.coeffs if c}) <= 1
        )

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
        return hash((self.n, self.coeffs))

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


def is_derivation_of(theta, target):
    """True iff alpha divides theta(alpha) for every defining form."""
    forms, n = _forms(target)
    if theta.n != n:
        raise AmbientMismatch("derivation and target disagree on n")
    return all(divides(alpha, theta.apply(alpha)) for alpha in forms)


def saito_check(thetas, target):
    """Saito's criterion: certify n derivations as a free module basis.

    Checks membership for every form, degree sum equal to the number of
    hyperplanes, and that the coefficient-matrix determinant is a nonzero
    constant times the product of the forms.  The last condition subsumes
    independence over the polynomial ring.
    """
    forms, n = _forms(target)
    if len(thetas) != n:
        raise ValueError(f"need exactly {n} derivations, got {len(thetas)}")
    for theta in thetas:
        if theta.n != n:
            raise AmbientMismatch("derivation and target disagree on n")
        if not theta.is_homogeneous():
            raise ValueError("Saito certification needs homogeneous derivations")
    if not all(thetas):
        return False
    if sum(theta.degree() for theta in thetas) != len(forms):
        return False
    for theta in thetas:
        if not all(divides(alpha, theta.apply(alpha)) for alpha in forms):
            return False
    det = matrix_determinant([theta.coeffs for theta in thetas], n)
    q = Polynomial.one(n)
    for alpha in forms:
        q = q * alpha
    quotient = exact_divide(det, q)
    return quotient is not None and quotient.degree() == 0


def southwest_basis(A):
    """The column-product free basis of a southwest arrangement.

    Entry j sums, over k = j..n, the product of the column-j forms with
    their second index moved to k, times d/dx_k.  An empty column gives
    the bare tail sum of partials.  Degrees are the column counts.
    """
    if not is_southwest(A):
        raise ValueError("basis formula requires a southwest arrangement")
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


def skip_basis(skips, n):
    """Free basis for the arrangement whose rows skip the given indices.

    Unskipped slot i: sum over k = i..n of x_k times the product of
    (x_j - x_k) over unskipped j below i, times d/dx_k.  Skipped slot i:
    the same product evaluated at k = i, times d/dx_i alone.  Degrees are
    the staircase entries.
    """
    skips = frozenset(skips)
    staircase(skips, n)  # validates the skip set
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


def skip_generators(skips, n):
    """Polynomials obtained from skip_basis by sending every partial to 1."""
    to_one = ones_map(n)
    return [to_one(theta) for theta in skip_basis(skips, n)]


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


class CoeffMap:
    """Module map from vector fields to polynomials: d/dx_k -> images[k].

    Images must be homogeneous of one common degree so that applying the
    map to a homogeneous derivation shifts degree uniformly.
    """

    __slots__ = ("n", "images", "degree")

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise ValueError("a coefficient map needs at least one image")
        n = images[0].n
        degs = set()
        for g in images:
            if g.n != n:
                raise AmbientMismatch("mixed ambient dimensions in images")
            if not g.is_homogeneous():
                raise ValueError("images must be homogeneous")
            if g:
                degs.add(g.degree())
        if len(degs) != 1:
            raise ValueError("images must share one degree and not all vanish")
        if len(images) != n:
            raise ValueError(f"expected {n} images, got {len(images)}")
        self.n = n
        self.images = images
        self.degree = degs.pop()

    def __call__(self, theta):
        if theta.n != self.n:
            raise AmbientMismatch("map and derivation disagree on n")
        out = Polynomial.zero(self.n)
        for g, c in zip(self.images, theta.coeffs):
            if g and c:
                out = out + g * c
        return out

    def __repr__(self):
        imgs = ", ".join(g.text() for g in self.images)
        return f"CoeffMap([{imgs}])"


def ones_map(n):
    """Every partial goes to 1."""
    return CoeffMap([Polynomial.one(n)] * n)


def coords_map(n):
    """Every partial goes to its own variable."""
    return CoeffMap([Polynomial.variable(n, k) for k in range(1, n + 1)])


def st_ideal(target, cmap, basis):
    """Ideal generated by the map's images of a certified free basis.

    The basis must pass saito_check for the target; the resulting ideal
    does not depend on which certified basis was supplied.
    """
    _, n = _forms(target)
    if cmap.n != n:
        raise AmbientMismatch("map and target disagree on n")
    if not saito_check(basis, target):
        raise ValueError("supplied basis fails Saito certification")
    return Ideal(n, [cmap(theta) for theta in basis])
