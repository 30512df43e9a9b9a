"""Complete intersections in a product of projective spaces.

An intersection is recorded purely by the multidegrees of its defining
divisors.  Everything computed "on" the subvariety is pushed to the ambient
space: an integral over the intersection is the ambient integral against its
fundamental class, the product of the divisor classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .cones import Pairing
from .errors import DegreeMismatchError, ValidationError
from .ring import AmbientSpace, CohomClass, divisor_class, integrate


class CompleteIntersection:
    """Intersection of divisors of the given multidegrees in an ambient product."""

    __slots__ = ("space", "divisors", "dim", "_fundamental")

    def __init__(self, space: AmbientSpace, divisors: Sequence[Sequence[int]]):
        classes = [divisor_class(space, d) for d in divisors]
        dim = space.total_dim - len(classes)
        if dim < 1:
            raise ValidationError(
                f"{len(classes)} divisors in a {space.total_dim}-dimensional "
                f"ambient space leave dimension {dim}; need at least 1"
            )
        fundamental = space.one()
        for cls in classes:
            fundamental = fundamental * cls
        if fundamental.is_zero():
            raise ValidationError(
                "divisor classes annihilate the ambient ring (zero fundamental class)"
            )
        self.space = space
        self.divisors = tuple(tuple(d) for d in divisors)
        self.dim = dim
        self._fundamental = fundamental

    def fundamental_class(self) -> CohomClass:
        """Product of the divisor classes; the unit class for no divisors."""
        return self._fundamental

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
        acc = self._fundamental
        for f in factors:
            acc = acc * f
        return integrate(acc)

    def kappa(self, a: CohomClass, b: CohomClass) -> Tuple[Fraction, ...]:
        """Integrals of a^j * b^(dim-j) over the intersection, j = 0..dim, in one pass."""
        if any(c.degree() not in (None, 1) for c in (a, b)):
            raise ValidationError("kappa needs two degree-1 classes")
        b_powers = [self.space.one()]
        for _ in range(self.dim):
            b_powers.append(b_powers[-1] * b)
        values, acc = [], self._fundamental
        for b_power in reversed(b_powers):
            values.append(integrate(acc * b_power))
            acc = acc * a
        return tuple(values)

    def pairing_matrix(self, row_basis, col_basis) -> Pairing:
        """2x2 pairing of degree-1 rows against degree dim-1 columns."""
        rows = tuple(row_basis)
        cols = tuple(col_basis)
        for i, r in enumerate(rows):
            if r.degree() != 1:
                raise ValidationError(f"row class {i} must have degree 1")
        for j, c in enumerate(cols):
            d = c.degree()
            if d is not None and d != self.dim - 1:
                raise ValidationError(
                    f"column class {j} must have degree {self.dim - 1}, got {d}"
                )
        entries = tuple(
            tuple(self.intersection_number([r, c]) for c in cols) for r in rows
        )
        return Pairing(entries)

    def __eq__(self, other):
        if not isinstance(other, CompleteIntersection):
            return NotImplemented
        return self.space == other.space and self.divisors == other.divisors

    def __hash__(self):
        return hash((self.space, self.divisors))

    def __repr__(self):
        return f"CompleteIntersection({self.space!r}, {list(self.divisors)})"
