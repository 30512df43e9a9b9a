"""Salient rational cones in the plane, with duality under a bilinear pairing.

A ray is a primitive integer pair and a cone is the pair of its two rays in
counterclockwise order (positive determinant), so equality of cones is
structural and both compare, hash and unpack as the tuples they are; so
does a pairing, the pair of its matrix rows.
Openness is a membership mode rather than a separate type.  Rational input
vectors are normalized to primitive integer rays on entry.  Determinants and
membership are exact arithmetic in the input's own type (``int`` on rays);
barycentric coordinates and pairings are ``Fraction``.  Nothing is rounded.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import DegeneratePairingError, ValidationError


class Ray(namedtuple("Ray", "x y")):
    """Primitive integer direction vector: the pair ``(x, y)`` with gcd 1."""

    __slots__ = ()
    # namedtuple's _replace builds through _make, which would skip the checks.
    _make = classmethod(lambda cls, pair: cls(*pair))

    def __new__(cls, x, y):
        if not isinstance(x, int) or not isinstance(y, int) or bool in (type(x), type(y)):
            raise ValidationError(f"ray entries must be integers, got ({x!r}, {y!r})")
        if x == 0 and y == 0:
            raise ValidationError("zero vector does not span a ray")
        if gcd(x, y) != 1:
            raise ValidationError(f"ray ({x}, {y}) is not primitive")
        return super().__new__(cls, x, y)


def ray_normalize(v) -> Ray:
    """Primitive integer ray in the direction of a rational vector.

    Clears denominators, divides out the gcd, and preserves orientation.
    An ``int`` pair only divides by its gcd.
    """
    if isinstance(v, Ray):
        return v
    a, b = v
    if not (type(a) is int and type(b) is int):  # a bool takes this path too
        a, b = Fraction(a), Fraction(b)
        scale = lcm(a.denominator, b.denominator)
        a, b = int(a * scale), int(b * scale)
    g = gcd(a, b)
    if g == 0:
        raise ValidationError("zero vector does not span a ray")
    return Ray(a // g, b // g)


def det2(u, v) -> int | Fraction:
    """Determinant of a 2x2 matrix with the given rows, exact in their own type:
    ``int`` on integers, ``Fraction`` on rationals.  Any other result (a rounded
    float product) is redone in ``Fraction``, which reads a float exactly."""
    d = u[0] * v[1] - u[1] * v[0]
    if not isinstance(d, (int, Fraction)):
        d = Fraction(u[0]) * Fraction(v[1]) - Fraction(u[1]) * Fraction(v[0])
    return d


class Cone2D(namedtuple("Cone2D", "r1 r2")):
    """Salient full-dimensional cone: the pair of rays ``(r1, r2)`` with det > 0.

    Either input may be a ray or a rational vector; both are normalized,
    swapped into counterclockwise order when needed, and rejected when
    parallel or antipodal.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, pair: cls(*pair))

    def __new__(cls, r1, r2):
        r1, r2 = ray_normalize(r1), ray_normalize(r2)
        d = det2(r1, r2)
        if d == 0:
            raise ValidationError(
                f"rays ({r1.x}, {r1.y}) and ({r2.x}, {r2.y}) "
                "are parallel or antipodal; the cone is degenerate"
            )
        if d < 0:
            r1, r2 = r2, r1
        return super().__new__(cls, r1, r2)

    def barycentric(self, v) -> tuple[Fraction, Fraction]:
        """Coefficients (s, t) with v = s*r1 + t*r2, exactly."""
        denom = det2(self.r1, self.r2)
        return (Fraction(det2(v, self.r2), denom), Fraction(det2(self.r1, v), denom))

    def contains(self, v, mode: str = "closed") -> bool:
        """Membership of a rational vector, in closed or open mode."""
        # det2(r1, r2) > 0, so the numerators of barycentric(v) carry its signs
        s, t = det2(v, self.r2), det2(self.r1, v)
        if mode == "closed":
            return s >= 0 and t >= 0
        if mode == "open":
            return s > 0 and t > 0
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")

    def __repr__(self):
        return f"Cone2D({tuple(self.r1)}, {tuple(self.r2)})"


def is_subcone(inner: Cone2D, outer: Cone2D) -> bool:
    """Whether both generators of ``inner`` lie in the closed ``outer`` cone."""
    return outer.contains(inner.r1) and outer.contains(inner.r2)


class Pairing(tuple):
    """Non-degenerate 2x2 rational pairing p(x, y) = x^T M y: the rows of M as
    ``Fraction`` pairs.

    Row vectors x and column vectors y live in two a priori different
    coordinate spaces.  A singular matrix raises ``DegeneratePairingError``.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValidationError("pairing matrix must be 2x2")
        pairing = super().__new__(cls, rows)
        if pairing.det == 0:
            raise DegeneratePairingError("pairing matrix is singular")
        return pairing

    @property
    def det(self) -> Fraction:
        return det2(*self)

    def functional(self, r) -> tuple[Fraction, Fraction]:
        """The linear form y -> p(r, y) on the column space, i.e. M^T r."""
        x, y = r
        (m00, m01), (m10, m11) = self
        return (m00 * x + m10 * y, m01 * x + m11 * y)

    def pair(self, x, y) -> Fraction:
        fx = self.functional(x)
        yx, yy = y
        return fx[0] * yx + fx[1] * yy

    def __repr__(self):
        return "Pairing((%s))" % ", ".join("(%s, %s)" % row for row in self)


def _dual_edges(cone: Cone2D, pairing: Pairing):
    """Unnormalized edges (e1, e2) of the dual cone: with f_i the functional of
    r_i, p(r1, e1) = p(r2, e2) = 0 and p(r2, e1) = p(r1, e2) = |det2(f1, f2)| > 0.

    det2(f1, f2) = det M · det2(r1, r2), so its sign s is never 0."""
    f1, f2 = (pairing.functional(r) for r in cone)
    s = 1 if det2(f1, f2) > 0 else -1
    return (-s * f1[1], s * f1[0]), (s * f2[1], -s * f2[0])


def dual_cone(cone: Cone2D, pairing: Pairing) -> Cone2D:
    """Cone of column vectors pairing non-negatively with everything in ``cone``.

    Each boundary ray of the result annihilates exactly one generator of the
    input under the pairing and is strictly positive against the other.
    """
    return Cone2D(*_dual_edges(cone, pairing))
