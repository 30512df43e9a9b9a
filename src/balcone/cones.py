"""Salient rational cones in the plane, with duality under a bilinear pairing.

A ray is a primitive integer pair and a cone is the pair of its two rays in
counterclockwise order (positive determinant), so equality of cones is
structural and both compare, hash and unpack as the tuples they are; so
does a pairing, the pair of its matrix rows.
Openness is a membership mode rather than a separate type.  One number model
holds throughout: a coordinate is an object whose type is exactly ``int`` or
``Fraction`` (a bool, a float, a string or a subclass is not one), and a vector
is a list or tuple of two coordinates, read by ``_pair`` alone.  Vectors are
normalized to primitive integer rays on entry.  Determinants and membership are
exact arithmetic on coordinates (``int`` on rays); barycentric coordinates and
pairings are ``Fraction``.  Nothing is rounded.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import DegeneratePairingError, ValidationError, _entries


class Ray(namedtuple("Ray", "x y")):
    """Primitive integer direction vector: the pair ``(x, y)`` with gcd 1."""

    __slots__ = ()
    # namedtuple's _replace builds through _make, which would skip the checks.
    _make = classmethod(lambda cls, pair: cls(*pair))

    def __new__(cls, x, y):
        if type(x) is not int or type(y) is not int:
            raise ValidationError(f"ray entries must be integers, got ({x!r}, {y!r})")
        if x == 0 and y == 0:
            raise ValidationError("zero vector does not span a ray")
        if gcd(x, y) != 1:
            raise ValidationError(f"ray ({x}, {y}) is not primitive")
        return super().__new__(cls, x, y)


_COORDS = frozenset([int, Fraction])


def _pair(value, name):
    """``value`` as a tuple of two coordinates, or refused naming ``name``."""
    return _entries(value, f"{name} needs exactly two coordinates, each an integer or a fraction",
                    2, _COORDS)


def ray_normalize(v) -> Ray:
    """Primitive integer ray in the direction of a pair of coordinates.

    Clears denominators, divides out the gcd, and preserves orientation; an
    ``int`` is its own numerator over 1.  Anything but a pair of coordinates is a
    ``ValidationError``.
    """
    if isinstance(v, Ray):
        return v
    a, b = _pair(v, "ray")
    a, b = a.numerator * b.denominator, b.numerator * a.denominator
    g = gcd(a, b) or 1  # 0 only for the zero vector, which Ray refuses
    return Ray(a // g, b // g)


def det2(u, v) -> int | Fraction:
    """Determinant of the 2x2 matrix with rows ``u`` and ``v``, exact on coordinates:
    ``int`` on integers, ``Fraction`` once an entry is a fraction."""
    return u[0] * v[1] - u[1] * v[0]


class Cone2D(namedtuple("Cone2D", "r1 r2")):
    """Salient full-dimensional cone: the pair of rays ``(r1, r2)`` with det > 0.

    Either input may be a ray or a pair of coordinates; both are normalized,
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
        v, denom = _pair(v, "vector"), det2(self.r1, self.r2)
        return (Fraction(det2(v, self.r2), denom), Fraction(det2(self.r1, v), denom))

    def contains(self, v, mode: str = "closed") -> bool:
        """Membership of a vector, in closed or open mode."""
        # det2(r1, r2) > 0, so the numerators of barycentric(v) carry its signs
        v = _pair(v, "vector")
        s, t = det2(v, self.r2), det2(self.r1, v)
        if mode == "closed":
            return s >= 0 and t >= 0
        if mode == "open":
            return s > 0 and t > 0
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")

    def __repr__(self):
        return f"Cone2D({tuple(self.r1)}, {tuple(self.r2)})"


class Pairing(tuple):
    """Non-degenerate 2x2 rational pairing p(x, y) = x^T M y: the rows of M as
    ``Fraction`` pairs.

    Row vectors x and column vectors y live in two a priori different
    coordinate spaces.  A singular matrix raises ``DegeneratePairingError``.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple([tuple([Fraction(v) for v in _pair(row, "each row of a 2x2 pairing matrix")])
                      for row in _entries(rows, "pairing matrix must be 2x2", 2)])
        pairing = super().__new__(cls, rows)
        if pairing.det == 0:
            raise DegeneratePairingError("pairing matrix is singular")
        return pairing

    @property
    def det(self) -> Fraction:
        return det2(*self)

    def functional(self, r) -> tuple[Fraction, Fraction]:
        """The linear form y -> p(r, y) on the column space, i.e. M^T r."""
        x, y = _pair(r, "row vector")
        (m00, m01), (m10, m11) = self
        return (m00 * x + m10 * y, m01 * x + m11 * y)

    def pair(self, x, y) -> Fraction:
        fx = self.functional(x)
        yx, yy = _pair(y, "column vector")
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


def dual_cone(cone, pairing: Pairing) -> Cone2D:
    """Cone of column vectors pairing non-negatively with everything in ``Cone2D(*cone)``.

    Each boundary ray of the result annihilates exactly one generator of the
    input under the pairing and is strictly positive against the other.
    """
    cone = Cone2D(*_entries(cone, "a cone needs exactly two vectors", 2))
    return Cone2D(*_dual_edges(cone, pairing))
