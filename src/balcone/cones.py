"""Salient rational cones in the plane, with duality under a bilinear pairing.

Cones are stored as two primitive integer rays in counterclockwise order
(positive determinant), so equality of cones is structural.  Openness is a
membership mode rather than a separate type.  Rational input vectors are
normalized to primitive integer rays on entry; after that all cone
arithmetic is integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from .errors import DegeneratePairingError, ValidationError


@dataclass(frozen=True)
class Ray:
    """Primitive integer direction vector; gcd of the entries is 1."""

    x: int
    y: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise ValidationError(f"ray entries must be integers, got ({self.x!r}, {self.y!r})")
        if self.x == 0 and self.y == 0:
            raise ValidationError("zero vector does not span a ray")
        if gcd(self.x, self.y) != 1:
            raise ValidationError(f"ray ({self.x}, {self.y}) is not primitive")

    @property
    def coords(self) -> Tuple[int, int]:
        return (self.x, self.y)


def ray_normalize(v) -> Ray:
    """Primitive integer ray in the direction of a rational vector.

    Clears denominators, divides out the gcd, and preserves orientation.
    """
    if isinstance(v, Ray):
        return v
    a, b = (Fraction(t) for t in v)
    if a == 0 and b == 0:
        raise ValidationError("zero vector does not span a ray")
    scale = lcm(a.denominator, b.denominator)
    x = int(a * scale)
    y = int(b * scale)
    g = gcd(x, y)
    return Ray(x // g, y // g)


def det2(u, v) -> Fraction:
    """Determinant of a 2x2 matrix with the given rows."""
    return Fraction(u[0]) * Fraction(v[1]) - Fraction(u[1]) * Fraction(v[0])


@dataclass(frozen=True)
class Cone2D:
    """Salient full-dimensional cone spanned by two independent rays.

    The generators are stored with det(r1, r2) > 0; constructors swap the
    input order when needed and reject parallel or antipodal rays.
    """

    r1: Ray
    r2: Ray

    def __post_init__(self):
        d = det2(self.r1.coords, self.r2.coords)
        if d == 0:
            raise ValidationError(
                f"rays ({self.r1.x}, {self.r1.y}) and ({self.r2.x}, {self.r2.y}) "
                "are parallel or antipodal; the cone is degenerate"
            )
        if d < 0:
            r1, r2 = self.r1, self.r2
            object.__setattr__(self, "r1", r2)
            object.__setattr__(self, "r2", r1)

    def generators(self) -> Tuple[Ray, Ray]:
        return (self.r1, self.r2)

    def barycentric(self, v) -> Tuple[Fraction, Fraction]:
        """Coefficients (s, t) with v = s*r1 + t*r2, exactly."""
        x, y = (v.x, v.y) if isinstance(v, Ray) else v
        denom = det2(self.r1.coords, self.r2.coords)
        s = det2((x, y), self.r2.coords) / denom
        t = det2(self.r1.coords, (x, y)) / denom
        return (s, t)

    def contains(self, v, mode: str = "closed") -> bool:
        """Membership of a rational vector, in closed or open mode."""
        s, t = self.barycentric(v)
        if mode == "closed":
            return s >= 0 and t >= 0
        if mode == "open":
            return s > 0 and t > 0
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")

    def __repr__(self):
        return f"Cone2D(({self.r1.x}, {self.r1.y}), ({self.r2.x}, {self.r2.y}))"


def cone_new(a, b) -> Cone2D:
    """Cone spanned by two rays or rational vectors, in canonical orientation."""
    return Cone2D(ray_normalize(a), ray_normalize(b))


def is_subcone(inner: Cone2D, outer: Cone2D) -> bool:
    """Whether both generators of ``inner`` lie in the closed ``outer`` cone."""
    return outer.contains(inner.r1) and outer.contains(inner.r2)


@dataclass(frozen=True)
class Pairing:
    """Non-degenerate 2x2 rational pairing p(x, y) = x^T M y.

    Row vectors x and column vectors y live in two a priori different
    coordinate spaces.  A singular matrix raises ``DegeneratePairingError``.
    """

    entries: Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValidationError("pairing matrix must be 2x2")
        object.__setattr__(self, "entries", rows)
        if self.det == 0:
            raise DegeneratePairingError("pairing matrix is singular")

    @property
    def det(self) -> Fraction:
        (m00, m01), (m10, m11) = self.entries
        return m00 * m11 - m01 * m10

    def functional(self, r) -> Tuple[Fraction, Fraction]:
        """The linear form y -> p(r, y) on the column space, i.e. M^T r."""
        x, y = (r.x, r.y) if isinstance(r, Ray) else r
        (m00, m01), (m10, m11) = self.entries
        return (m00 * x + m10 * y, m01 * x + m11 * y)

    def pair(self, x, y) -> Fraction:
        fx = self.functional(x)
        yx, yy = (y.x, y.y) if isinstance(y, Ray) else y
        return fx[0] * yx + fx[1] * yy

    def solve(self, w) -> Tuple[Fraction, Fraction]:
        """The column vector c with M c = w, exactly."""
        det = self.det
        (m00, m01), (m10, m11) = self.entries
        return ((w[0] * m11 - m01 * w[1]) / det, (m00 * w[1] - w[0] * m10) / det)


def _edge_ray(zero_on, positive_on) -> Ray:
    ray = ray_normalize((-zero_on[1], zero_on[0]))
    value = positive_on[0] * ray.x + positive_on[1] * ray.y
    if value == 0:
        raise AssertionError(
            "pairing functionals of independent rays are dependent; "
            "salient input and invertible pairing exclude this"
        )
    return ray if value > 0 else Ray(-ray.x, -ray.y)


def dual_cone(cone: Cone2D, pairing: Pairing) -> Cone2D:
    """Cone of column vectors pairing non-negatively with everything in ``cone``.

    Each boundary ray of the result annihilates exactly one generator of the
    input under the pairing and is strictly positive against the other.
    """
    f1, f2 = (pairing.functional(r) for r in cone.generators())
    return Cone2D(_edge_ray(f1, f2), _edge_ray(f2, f1))
