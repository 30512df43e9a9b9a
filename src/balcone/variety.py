"""Complete intersections in a product of projective spaces.

An intersection is recorded purely by the multidegrees of its defining
divisors.  Everything computed "on" the subvariety is pushed to the ambient
space: an integral over the intersection is the ambient integral against its
fundamental class, the product of the divisor classes.  The fundamental class
is kept as an integer polynomial in the hyperplane classes, and ``kappa``
multiplies it by linear forms in integers; a scenario reads every number it
reports from that one pass.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import prod
from operator import mul
from typing import Sequence, Tuple

from .errors import ValidationError
from .ring import AmbientSpace, check_multidegree


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


def _weights(n, b):
    """b^k · n!/k! for k = 0..n, from running products."""
    falling = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]  # n!/k!
    return [f * p for f, p in zip(falling, accumulate(repeat(b, n), mul, initial=1))]


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
        weights = [_weights(n, b_i) for n, b_i in zip(dims, b)]
        denominator = prod(w[0] for w in weights)  # ∏n_i!
        factorials = list(accumulate(range(1, self.dim + 1), mul, initial=1))
        values, poly = [], self._fundamental
        for j in range(self.dim + 1):
            if j:
                poly = _times_linear(poly, a, dims)
            top = sum(
                c * prod(w[n - e] for w, n, e in zip(weights, dims, exp))
                for exp, c in poly.items()
            )
            values.append(factorials[self.dim - j] * top // denominator)
        return tuple(values)

    def __eq__(self, other):
        if not isinstance(other, CompleteIntersection):
            return NotImplemented
        return self.space == other.space and self.divisors == other.divisors

    def __hash__(self):
        return hash((self.space, self.divisors))

    def __repr__(self):
        return f"CompleteIntersection({self.space!r}, {list(self.divisors)})"
