"""Complete intersections in a product of projective spaces.

An intersection is recorded purely by the multidegrees of its defining
divisors.  Everything computed "on" the subvariety is pushed to the ambient
space: an integral over the intersection is the ambient integral against its
fundamental class, the product of the divisor classes.  The fundamental class
is kept as an integer polynomial in the hyperplane classes, so ``kappa``
multiplies linear forms in integers and builds no ring class; a scenario
reads every number it reports from that one pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Sequence, Tuple

from .errors import DegreeMismatchError, ValidationError
from .ring import AmbientSpace, CohomClass, check_multidegree, integrate


def _times_linear(poly, linear, dims):
    """poly · Σ d_i h_i in the truncated ring, on exponent -> integer coefficient dicts.

    Multidegrees are non-negative, so nothing cancels: the zero class is the empty dict.
    """
    out = {}
    for exp, c in poly.items():
        for i, d in enumerate(linear):
            if d and exp[i] < dims[i]:
                e = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                out[e] = out.get(e, 0) + c * d
    return out


class CompleteIntersection:
    """Intersection of divisors of the given multidegrees in an ambient product."""

    __slots__ = ("space", "divisors", "dim", "_fundamental")

    def __init__(self, space: AmbientSpace, divisors: Sequence[Sequence[int]]):
        divisors = tuple(check_multidegree(space, d) for d in divisors)
        dim = space.total_dim - len(divisors)
        if dim < 1:
            raise ValidationError(
                f"{len(divisors)} divisors in a {space.total_dim}-dimensional "
                f"ambient space leave dimension {dim}; need at least 1"
            )
        fundamental = {(0,) * space.nfactors: 1}
        for d in divisors:
            fundamental = _times_linear(fundamental, d, space.dims)
        if not fundamental:
            raise ValidationError(
                "divisor classes annihilate the ambient ring (zero fundamental class)"
            )
        self.space = space
        self.divisors = divisors
        self.dim = dim
        self._fundamental = fundamental

    def fundamental_class(self) -> CohomClass:
        """Product of the divisor classes; the unit class for no divisors."""
        return CohomClass(self.space, self._fundamental)

    def intersection_number(self, factors: Sequence[CohomClass]) -> Fraction:
        """Integral over the intersection of a product of ambient classes.

        Factors must be homogeneous ambient classes whose degrees sum to the
        intersection's dimension.  A zero factor short-circuits to 0 since
        the integral vanishes regardless of degree bookkeeping.
        """
        total = 0
        for f in factors:
            if f.space != self.space:
                raise ValidationError("factor lives on a different ambient space")
            d = f.degree()
            if d is None:
                return Fraction(0)
            total += d
        if total != self.dim:
            raise DegreeMismatchError(self.dim, total)
        acc = self.fundamental_class()
        for f in factors:
            acc = acc * f
        return integrate(acc)

    def kappa(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        """Integrals of a^j * b^(dim-j) over the intersection, j = 0..dim, for multidegrees a, b.

        The integral is the top coefficient of F·a^j·b^m, F the fundamental
        class, m = dim − j and h^n the top monomial.  A term c·h^e of F·a^j
        reaches h^n only through h^k, k = n − e, of b^m, whose coefficient is
        the multinomial m!/∏k_i! · ∏b_i^(k_i) (truncation drops monomials, it
        changes no coefficient).  The weights b_i^(k_i)·n_i!/k_i! keep the sum
        in integers over the common factor ∏n_i!.
        """
        dims = self.space.dims
        a, b = (check_multidegree(self.space, d) for d in (a, b))
        weights = [
            [b_i ** k * (factorial(n) // factorial(k)) for k in range(n + 1)]
            for n, b_i in zip(dims, b)
        ]
        denominator = prod(factorial(n) for n in dims)
        values, poly = [], self._fundamental
        for j in range(self.dim + 1):
            if j:
                poly = _times_linear(poly, a, dims)
            top = sum(
                c * prod(w[n - e] for w, n, e in zip(weights, dims, exp))
                for exp, c in poly.items()
            )
            values.append(factorial(self.dim - j) * top // denominator)
        return tuple(values)

    def __eq__(self, other):
        if not isinstance(other, CompleteIntersection):
            return NotImplemented
        return self.space == other.space and self.divisors == other.divisors

    def __hash__(self):
        return hash((self.space, self.divisors))

    def __repr__(self):
        return f"CompleteIntersection({self.space!r}, {list(self.divisors)})"
