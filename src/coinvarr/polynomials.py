"""Exact multivariate polynomial arithmetic over the rationals.

A Polynomial fixes the ambient variable count n and stores its terms as a
dict mapping exponent tuples of length n to nonzero coefficients.  Every
coefficient is an int or a Fraction, never a float: the public constructor
stores an integral value as an int, and coefficient division goes through
coeff_div, because int / int would be a float.  Arithmetic on non-integral
coefficients may leave a Fraction with denominator 1; it compares and hashes
equal to the int, so equality, hashing and text() do not see the difference.
Mixing polynomials with different ambient n raises AmbientMismatch rather
than guessing a coercion.

The one monomial order of this module is grevlex, exposed as grevlex_key,
so that leading terms, exact division and canonical printing share one
definition; the Groebner kernel packs the same order into ints of its own
and does not call grevlex_key.  A monomial order is keyed as a descending
rank on exponent tuples: the larger monomial ranks lower, so min() gives the
leading term and sorted() lists terms from the largest down.  Plain tuple
comparison is lex.

exact_divide is one plain loop on a copy of the dividend's term dict: it
takes the grevlex-largest live term with min() at each step and subtracts
the shifted divisor in place.  Its operands are mostly linear forms and small
products of them, too small for a heap or for packed monomials to pay for
themselves; the Groebner kernel's normal form is the package's one
heap-ordered reducer.  Polynomial.leading() memoises the leading exponent,
like the hash.

It is also the one home of the kernels the other layers share: box
enumeration, q-integer products, monomial text, and exact linear algebra:
matrix_determinant, one fraction-free Bareiss loop over Q and over Q[x],
and the fraction-free echelon_rows, whose pivot count is rank_of_elements.
And it keeps the package's one memo lifetime: every memo is a suite_cache,
and clear_suite_caches empties all of them when a suite ends.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add


class AmbientMismatch(ValueError):
    """Two objects disagree on the ambient variable count."""


_SUITE_CACHES = []


def suite_cache(fn):
    """functools.cache(fn), recorded so that clear_suite_caches empties it.

    A suite meets the same inputs again and again: a southwest task
    certifies A, its deletion and its restriction.  So the package memoises
    them, and every memo lives for one suite.  Keys compare by value and
    nothing writes to a memoised result, so one object serves every caller.
    """
    memo = cache(fn)
    _SUITE_CACHES.append(memo)
    return memo


def clear_suite_caches():
    """Empty every memo that suite_cache recorded."""
    for memo in _SUITE_CACHES:
        memo.cache_clear()


def grevlex_key(exps):
    """Descending rank of an exponent tuple in graded reverse lex order.

    The grevlex-larger monomial has the smaller rank: higher total degree
    first, and within a degree the monomial whose rightmost differing
    exponent is smaller.  So min() finds the leading term and sorted() lists
    terms from the largest down.
    """
    return (-sum(exps), exps[::-1])


def _coerce(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected int or Fraction coefficient, got {type(c).__name__}")


def coeff_div(a, b):
    """Exact quotient a / b of int or Fraction coefficients.

    An int when b divides a, a Fraction otherwise; never the float that
    int / int gives.
    """
    q, r = divmod(a, b)
    return q if not r else Fraction(a, b)


def box_monomials(bounds):
    """Exponent tuples e with 0 <= e_i < bounds[i], lex-descending."""
    return list(itertools.product(*(range(b - 1, -1, -1) for b in bounds)))


def q_integer_product(sizes):
    """Coefficients of prod over sizes of (1 + q + ... + q^(m-1)), as a tuple.

    A size below one gives the empty tuple.
    """
    out = [1]
    for m in sizes:
        if m < 1:
            return ()
        nxt = [0] * (len(out) + m - 1)
        for i, c in enumerate(out):
            for k in range(m):
                nxt[i + k] += c
        out = nxt
    return tuple(out)


def monomial_factors(exps):
    """The factors xi and xi^e of x^exps, in variable order; 1 gives []."""
    return [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]


class Polynomial:
    """Immutable exact polynomial in variables x1..xn over Q."""

    __slots__ = ("n", "terms", "_hash", "_lead")

    def __init__(self, n, terms=None):
        if n < 0:
            raise ValueError("ambient variable count must be nonnegative")
        self.n = n
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise AmbientMismatch(f"exponent tuple {exps} has length != {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _coerce(c)
            if c:
                clean[exps] = c
        self.terms = clean
        self._hash = None
        self._lead = None

    @classmethod
    def _from_terms(cls, n, terms):
        """Wrap an already-clean term dict without checking or copying it.

        The caller guarantees that every key is a length-n tuple of
        nonnegative ints, that every value is a nonzero int or Fraction, and
        that nothing else keeps or mutates the dict: the polynomial owns it.
        """
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        self._hash = None
        self._lead = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def one(cls, n):
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i):
        """The variable x_i, 1-indexed."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls._from_terms(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n, exps, c=1):
        return cls(n, {tuple(exps): c})

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise AmbientMismatch(f"cannot mix ambient n={self.n} with n={other.n}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial._from_terms(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_terms(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return Polynomial.zero(self.n)
            out = {e: c * v for e, v in self.terms.items()}
            return Polynomial._from_terms(self.n, out)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Polynomial._from_terms(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure queries ---------------------------------------------

    def degree(self):
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self):
        """(exponent tuple, coefficient) of the grevlex-maximal term.

        The exponent is found once and memoised, like the hash.
        """
        e = self._lead
        if e is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            e = self._lead = min(self.terms, key=grevlex_key)
        return e, self.terms[e]

    # -- calculus --------------------------------------------------------

    def partial(self, i):
        """Partial derivative with respect to x_i (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        out = {}
        for e, c in self.terms.items():
            if e[i - 1]:
                f = list(e)
                f[i - 1] -= 1
                out[tuple(f)] = c * e[i - 1]
        return Polynomial._from_terms(self.n, out)

    # -- substitution ------------------------------------------------------

    def evaluate(self, point):
        """The value at a point of Q^n, as an int or a Fraction."""
        if len(point) != self.n:
            raise AmbientMismatch(f"point has {len(point)} coordinates, not {self.n}")
        return sum(
            c * math.prod(x**e for x, e in zip(point, exps) if e)
            for exps, c in self.terms.items()
        )

    def set_var_zero(self, i):
        """Substitute x_i -> 0, staying in the same ambient ring."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        return Polynomial._from_terms(
            self.n, {e: c for e, c in self.terms.items() if e[i - 1] == 0}
        )

    def drop_var(self, i):
        """Remove an unused variable x_i and reindex to ambient n-1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        out = {}
        for e, c in self.terms.items():
            if e[i - 1]:
                raise ValueError(f"polynomial depends on x{i}; substitute first")
            out[e[: i - 1] + e[i:]] = c  # distinct: e[i - 1] is 0
        return Polynomial._from_terms(self.n - 1, out)

    # -- text form ---------------------------------------------------------

    def text(self):
        """Canonical serialization: grevlex-descending terms, no spaces.

        Term grammar: coefficient as p or p/q, then *xi or *xi^e factors for
        the positive exponents; coefficient 1 / -1 compresses to nothing / a
        sign when a variable factor is present.  Round-trips through parse().
        """
        if not self.terms:
            return "0"
        chunks = []
        for e in sorted(self.terms, key=grevlex_key):
            c = self.terms[e]
            factors = monomial_factors(e)
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([_frac_text(mag)] + factors)
            else:
                body = _frac_text(mag)
            if not chunks:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append(("-" if c < 0 else "+") + body)
        return "".join(chunks)

    @classmethod
    def parse(cls, s, n):
        """Parse the text() format (tolerates whitespace)."""
        s = s.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        pieces = re.findall(r"([+-]?)([^+-]+)", s)
        if "".join(sign + body for sign, body in pieces) != s:
            raise ValueError(f"bad polynomial syntax in {s!r}")
        terms = {}
        for sign, body in pieces:
            coeff = Fraction(-1 if sign == "-" else 1)
            exps = [0] * n
            saw_coeff = False
            for part in body.split("*"):
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", part)
                if m:
                    i = int(m.group(1))
                    if not 1 <= i <= n:
                        raise ValueError(f"variable x{i} out of range 1..{n}")
                    exps[i - 1] += int(m.group(2) or 1)
                    continue
                m = re.fullmatch(r"(\d+)(?:/(\d+))?", part)
                if m and not saw_coeff:
                    den = int(m.group(2) or 1)
                    if not den:
                        raise ValueError(f"zero denominator in {s!r}")
                    coeff *= Fraction(int(m.group(1)), den)
                    saw_coeff = True
                    continue
                raise ValueError(f"bad term part {part!r} in {s!r}")
            key = tuple(exps)
            s2 = terms.get(key, 0) + coeff
            if s2:
                terms[key] = s2
            else:
                terms.pop(key, None)
        return cls(n, terms)

    def __repr__(self):
        return f"Polynomial({self.n}, {self.text()!r})"


def _frac_text(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def variables(n):
    """[x1, ..., xn] as Polynomials."""
    return [Polynomial.variable(n, i) for i in range(1, n + 1)]


def diffop_apply(f, g):
    """Apply f as a constant-coefficient differential operator to g.

    Each monomial c*x^a of f acts as c * d^a/dx^a.  The pairing is exact:
    x^a applied to x^b gives prod_i b_i!/(b_i-a_i)! * x^(b-a) when b >= a
    componentwise and 0 otherwise.  Only those pairs are visited: g's terms
    are indexed per variable by exponent, and x^a meets the intersection of
    the sets {b : b_i >= a_i} over its variables.  The index is built once
    per g, since callers apply many operators to one g.
    """
    if f.n != g.n:
        raise AmbientMismatch(f"cannot mix ambient n={f.n} with n={g.n}")
    gterms = g.terms
    at_least = _exponent_index(g)
    none = frozenset()
    out = {}
    for a, ca in f.terms.items():
        found = gterms
        for index, ai in zip(at_least, a):
            if ai:
                at = index.get(ai, none)
                found = at if found is gterms else found & at
                if not found:
                    break
        for b in found:
            cb = gterms[b]
            c = ca * cb
            for ai, bi in zip(a, b):
                if ai:
                    c *= math.perm(bi, ai)
            key = tuple(bi - ai for ai, bi in zip(a, b))
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return Polynomial(f.n, out)


@suite_cache
def _exponent_index(g):
    """at_least[i][v]: the set of g's exponents b with b_i >= v, for v >= 1."""
    at_least = [{} for _ in range(g.n)]
    for b in g.terms:
        for index, bi in zip(at_least, b):
            for v in range(1, bi + 1):
                index.setdefault(v, set()).add(b)
    return at_least


@suite_cache
def vandermonde(n):
    """prod_{1 <= i < j <= n} (x_i - x_j)."""
    xs = variables(n)
    result = Polynomial.one(n)
    for i in range(n):
        for j in range(i + 1, n):
            result = result * (xs[i] - xs[j])
    return result


def exact_divide(f, g):
    """Return f/g if g divides f exactly, else None.

    Single-divisor division: the remainder is zero iff g | f, because any
    nonzero remainder (f - q*g = (h - q)*g for f = h*g) would carry a term
    divisible by the leading term of g, which division forbids.
    """
    if f.n != g.n:
        raise AmbientMismatch(f"cannot mix ambient n={f.n} with n={g.n}")
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return Polynomial.zero(f.n)
    ge, gc = g.leading()
    work = dict(f.terms)
    quot = {}
    while work:
        e = min(work, key=grevlex_key)
        if any(ei < gi for ei, gi in zip(e, ge)):
            return None
        shift = tuple(ei - gi for ei, gi in zip(e, ge))
        q = quot[shift] = coeff_div(work[e], gc)
        for k, c in g.terms.items():  # work -= q * x^shift * g, which cancels e
            k = tuple(map(add, shift, k))
            s = work.get(k, 0) - q * c
            if s:
                work[k] = s
            else:
                del work[k]
    return Polynomial._from_terms(f.n, quot)


def divides(g, f):
    """True iff g divides f exactly (g nonzero)."""
    return exact_divide(f, g) is not None


def matrix_determinant(rows, n):
    """Determinant of a square matrix over Q (n = 0) or over Q[x1..xn].

    The entries are all ints and Fractions when n = 0, and all Polynomials
    in n variables otherwise; the determinant has the same type.  Both rings
    go through one fraction-free Bareiss elimination on a copy of the rows:
    after step k every entry below and right of the pivot is a (k+1)-minor,
    so each division by the previous pivot is exact, by coeff_div over Q and
    by exact_divide over Q[x], an integral domain.  A zero pivot swaps in a
    lower row with a nonzero entry in its column, negating the sign; with
    none left the matrix is singular.
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("matrix must be square")
    one, divide = (Polynomial.one(n), exact_divide) if n else (1, coeff_div)
    m = [list(r) for r in rows]
    sign, prev = 1, one
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return m[k][k]  # column k is zero from row k down: singular
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row = m[k][k], m[k]
        for i in range(k + 1, size):
            lower = m[i]
            head = lower[k]
            for j in range(k + 1, size):
                lower[j] = divide(pivot * lower[j] - head * row[j], prev)
        prev = pivot
    return sign * m[-1][-1] if size else one


def echelon_rows(rows):
    """Pivot rows of a fraction-free echelon form of the span of rows.

    Each row is a term dict from comparable keys to rational coefficients:
    a Polynomial's terms, or a superspace row {(exps, J): coefficient}.
    Returns one primitive integer row {key: int} per pivot, in the order the
    pivots were found; a row's pivot is its smallest key, and no two rows
    share one, so the rows are independent and span the rows' span.

    Each row is read once: its zero entries dropped and the rest scaled to
    integers by the lcm of their denominators, it is held as a row over
    column numbers in first-seen order.  Once every key is known, each row
    is renumbered as it is taken up, so that columns run in the keys'
    natural tuple order and lookups hash small ints.  Rows are reduced by
    sparse elimination (row = a*row - b*pivot, with a and b coprime), and a
    row that reaches a free column is stored primitive as that column's
    pivot.  Nonzero row scaling leaves the span unchanged, so the result is
    exact.  Once every column holds a pivot the remaining rows can only
    reduce to zero, so elimination stops there.
    """
    index = {}
    number = index.setdefault  # a key's column number, in first-seen order
    scaled = []
    for terms in rows:
        scale = lcm(*(c.denominator for c in terms.values()))
        scaled.append(
            {
                number(key, len(index)): c.numerator * (scale // c.denominator)
                for key, c in terms.items()
                if c
            }
        )
    keys = sorted(index)
    order = [0] * len(keys)
    for col, key in enumerate(keys):
        order[index[key]] = col
    scaled.reverse()  # popped in input order, each row freed once it is read
    pivots = {}
    while scaled and len(pivots) < len(keys):
        row = {order[c]: v for c, v in scaled.pop().items()}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                content = gcd(*row.values())
                if content != 1:
                    row = {c: v // content for c, v in row.items()}
                pivots[col] = row
                break
            a = piv[col]
            b = row.pop(col)
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                if c == col:
                    continue
                s = row.get(c, 0) - b * v
                if s:
                    row[c] = s
                else:
                    del row[c]
    return [{keys[c]: v for c, v in row.items()} for row in pivots.values()]


def rank_of_elements(elements):
    """Rank over the rationals of the span of the given elements, each with
    a terms dict: the number of pivot rows echelon_rows finds."""
    return len(echelon_rows([e.terms for e in elements]))
