"""Sparse rational cohomology classes: the tests' reference for κ.

The even cohomology ring of ``P^{n_1} x ... x P^{n_k}`` is
``Q[h_1,...,h_k] / (h_1^{n_1+1}, ..., h_k^{n_k+1})``.  A class maps exponent
vectors to ``Fraction``s; a monomial past a factor's dimension is zero and is
never stored, so equal classes have equal term maps.  An integral over a
complete intersection is the coefficient of the top monomial in the product
with its fundamental class.  Nothing here calls balcone's arithmetic: library
objects supply only dimensions, multidegrees and the pairing matrix.
"""

from fractions import Fraction
from functools import reduce
from operator import add, mul

from balcone.errors import DegreeMismatchError, ValidationError


class RingClass:
    """Element of the truncated ring of ``space``, in canonical sparse form."""

    def __init__(self, space, terms):
        self.space = space
        self._terms = {
            tuple(e): Fraction(c) for e, c in terms.items()
            if c and all(a <= n for a, n in zip(e, space))
        }

    def terms(self):
        return dict(self._terms)

    def is_zero(self):
        return not self._terms

    def degree(self):
        """Common total degree of the monomials; None for the zero class."""
        degrees = {sum(e) for e in self._terms}
        if len(degrees) > 1:
            raise ValidationError(f"class is not homogeneous (degrees {sorted(degrees)})")
        return degrees.pop() if degrees else None

    def __add__(self, other):
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return RingClass(self.space, out)

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, other):
        if not isinstance(other, RingClass):
            return RingClass(self.space, {e: c * other for e, c in self._terms.items()})
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return RingClass(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return reduce(mul, [self] * n, one(self.space))

    def __eq__(self, other):
        return self.space == other.space and self._terms == other._terms


def one(space):
    return RingClass(space, {(0,) * len(space): 1})


def generator(space, i):
    """The hyperplane class ``h_i`` of the i-th factor."""
    return RingClass(space, {tuple(int(j == i) for j in range(len(space))): 1})


def linear_combination(terms):
    """``Σ c_i p_i`` over (coefficient, class) pairs."""
    return reduce(add, (c * p for c, p in terms))


def divisor_class(space, multidegree):
    """``Σ d_i h_i``, the class of a divisor of multidegree d."""
    return linear_combination((d, generator(space, i)) for i, d in enumerate(multidegree))


def integrate(p):
    """Coefficient of the top monomial, which integrates to 1 over the ambient space."""
    return p.terms().get(p.space, Fraction(0))


def fundamental_class(ci):
    return reduce(mul, (divisor_class(ci.space, d) for d in ci.divisors), one(ci.space))


def intersection_number(ci, factors):
    """Integral over ``ci`` of a product of homogeneous classes of total degree ``ci.dim``."""
    degrees = [f.degree() for f in factors]
    if None in degrees:
        return Fraction(0)
    if sum(degrees) != ci.dim:
        raise DegreeMismatchError(ci.dim, sum(degrees))
    return integrate(reduce(mul, factors, fundamental_class(ci)))


def h11_classes(sc):
    return tuple(divisor_class(sc.ci.space, d) for d in sc.h11_multidegrees)


def express_in_basis(sc, p):
    """Coordinates c of a degree dim−1 class with M c = (∫ h1·p, ∫ h2·p), M the pairing."""
    w0, w1 = (intersection_number(sc.ci, [h, p]) for h in h11_classes(sc))
    (m00, m01), (m10, m11) = sc.pairing_matrix
    det = m00 * m11 - m01 * m10  # Cramer's rule, sharing no 2x2 code with balcone.cones
    return ((w0 * m11 - m01 * w1) / det, (m00 * w1 - w0 * m10) / det)
