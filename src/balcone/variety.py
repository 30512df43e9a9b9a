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

from collections.abc import Sequence
from itertools import accumulate, repeat
from math import prod
from operator import mul

from .errors import ValidationError
from .ring import AmbientSpace, check_multidegree


def _times_linear(poly, linear, digits):
    """poly · Σ d_i h_i in the truncated ring, on code -> integer coefficient dicts.

    An exponent vector e has the code Σ e_i·s_i, strides s_i = ∏_{j<i}(n_j+1);
    ``digits`` holds (s_i, n_i+1, n_i) per factor.  Multiplying by h_i adds s_i
    while the digit e_i = code // s_i % (n_i+1) is below n_i.  Multidegrees are
    non-negative, so nothing cancels: the zero class is the empty dict.
    """
    terms = [(d, s, base, n) for d, (s, base, n) in zip(linear, digits) if d]
    out = {}
    for code, c in poly.items():
        for d, s, base, n in terms:
            if code // s % base < n:
                out[code + s] = out.get(code + s, 0) + c * d
    return out


def _weights(n, b):
    """b^k · n!/k! for k = 0..n, from running products."""
    falling = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]  # n!/k!
    return [f * p for f, p in zip(falling, accumulate(repeat(b, n), mul, initial=1))]


class CompleteIntersection:
    """Intersection of divisors of the given multidegrees in an ambient product."""

    __slots__ = ("space", "divisors", "dim", "_digits", "_fundamental")

    def __init__(self, space: AmbientSpace, divisors: Sequence[Sequence[int]]):
        divisors = tuple(check_multidegree(space, d) for d in divisors)
        dim = sum(space) - len(divisors)
        if dim < 1:
            raise ValidationError(
                f"{len(divisors)} divisors in a {sum(space)}-dimensional "
                f"ambient space leave dimension {dim}; need at least 1"
            )
        strides = accumulate((n + 1 for n in space[:-1]), mul, initial=1)
        digits = tuple((s, n + 1, n) for s, n in zip(strides, space))
        fundamental = {0: 1}
        for d in divisors:
            fundamental = _times_linear(fundamental, d, digits)
        if not fundamental:
            raise ValidationError(
                "divisor classes annihilate the ambient ring (zero fundamental class)"
            )
        self.space = space
        self.divisors = divisors
        self.dim = dim
        self._digits = digits
        self._fundamental = fundamental

    def kappa(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Integrals of a^j * b^(dim-j) over the intersection, j = 0..dim, for multidegrees a, b.

        The integral is the top coefficient of F·a^j·b^m, F the fundamental
        class, m = dim − j and h^n the top monomial.  A term c·h^e of F·a^j
        reaches h^n only through h^k, k = n − e, of b^m, whose coefficient is
        the multinomial m!/∏k_i! · ∏b_i^(k_i) (truncation drops monomials, it
        changes no coefficient).  The weights b_i^(k_i)·n_i!/k_i! keep the sum
        in integers over the common factor ∏n_i!; each exponent e_i is read
        from the term's code as in :func:`_times_linear`.  The factors with
        b_i = 0 come first: their weight vanishes for every k_i > 0, so a term
        with e_i < n_i ends at its first zero.
        """
        a, b = (check_multidegree(self.space, d) for d in (a, b))
        order = sorted(zip(b, self._digits), key=lambda f: f[0] > 0)  # b_i = 0 first
        factors = [(_weights(n, b_i), s, base, n) for b_i, (s, base, n) in order]
        denominator = prod(f[0][0] for f in factors)  # ∏n_i!
        factorials = list(accumulate(range(1, self.dim + 1), mul, initial=1))
        values, poly = [], self._fundamental
        for j in range(self.dim + 1):
            if j:
                poly = _times_linear(poly, a, self._digits)
            top = 0
            for code, c in poly.items():
                for w, s, base, n in factors:
                    c *= w[n - code // s % base]
                    if not c:
                        break
                top += c
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
