"""End-to-end cone computations on a rank-2 complete-intersection scenario.

A scenario fixes a complete intersection, a 2-element basis (h1, h2) of
degree-1 classes, a 2-element basis of degree dim-1 classes, and two cones
written in degree-1 coordinates: the Kähler cone and the (pseudo-)effective
cone.  The effective cone is input, not derived; what the pipeline verifies
about it is arithmetic (pairing certificates), not geometry.

Every reported number is read from κ_j = ∫ h1^j h2^(dim−j), integers
computed once per scenario from the multidegrees of h1 and h2, through
:func:`integrate_forms`.  Classes in h1 and h2, such as the codim basis, are
binary forms: a tuple of d+1 coefficients, entry j that of h1^j h2^(d−j).
A :class:`Scenario` computes κ and the pairing at construction and its gap
report, ``sc.gap``, on first use; the demo and gap payloads of that object
share the report, while :func:`gap_report` still computes it from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, repeat
from math import lcm
from typing import Optional, Tuple

from .cones import Cone2D, Pairing, Ray, cone_new, dual_cone, is_subcone, ray_normalize
from .errors import ComputationError, DegeneratePairingError, DegreeMismatchError, ValidationError
from .variety import CompleteIntersection

H11_FORMS = ((0, 1), (1, 0))  # h1 and h2 as binary forms of degree 1


def _product(f, g):
    """Product of two binary forms, skipping the zero coefficients of monomial forms."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return out


@dataclass(frozen=True)
class Scenario:
    """Input datum for the cone pipeline; immutable after validation."""

    ci: CompleteIntersection
    h11_names: Tuple[str, str]
    h11_multidegrees: Tuple[Tuple[int, ...], Tuple[int, ...]]
    codim_names: Tuple[str, str]
    codim_forms: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]
    kahler_cone: Cone2D
    effective_cone: Cone2D
    prime_divisors: Tuple[Tuple[str, Tuple[int, int]], ...] = ()
    codim_exprs: Optional[Tuple[str, str]] = None
    kappa: Tuple[int, ...] = field(init=False, compare=False, repr=False)
    pairing_matrix: Pairing = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dim = self.ci.dim
        if len(self.h11_names) != 2 or len(self.h11_multidegrees) != 2:
            raise ValidationError("scenario needs exactly two degree-1 basis classes")
        if len(self.codim_names) != 2 or len(self.codim_forms) != 2:
            raise ValidationError(f"scenario needs exactly two degree-{dim - 1} basis classes")
        for i, h in enumerate(self.h11_multidegrees):
            if not any(h):
                raise ValidationError(f"row class {i} must have degree 1")
        for j, c in enumerate(self.codim_forms):
            if len(c) != dim:
                raise ValidationError(
                    f"column class {j} must have degree {dim - 1}, got {len(c) - 1}"
                )
        object.__setattr__(self, "kappa", self.ci.kappa(*self.h11_multidegrees))
        try:
            pm = Pairing([[integrate_forms(self, (h, c)) for c in self.codim_forms]
                          for h in H11_FORMS])
        except DegeneratePairingError:
            raise ValidationError(
                "intersection pairing of the chosen bases is degenerate"
            ) from None
        object.__setattr__(self, "pairing_matrix", pm)

    @cached_property
    def gap(self) -> GapReport:
        """This scenario's :func:`gap_report`, computed on first use and kept."""
        return gap_report(self)


@dataclass(frozen=True)
class GapReport:
    """Comparison of the balanced-map image closure with the balanced cone.

    ``gap_generators`` are the two rays bounding the difference region,
    ordered (image-side ray, balanced-side ray); both are empty/None when
    the inclusion is not strict.
    """

    image_closure: Cone2D
    balanced_cone: Cone2D
    strict: bool
    gap_generators: Tuple[Ray, ...]
    witness: Optional[Ray]


def integrate_forms(scenario: Scenario, forms) -> Fraction:
    """Integral over the intersection of a product of binary forms, read from κ."""
    acc = reduce(_product, forms, [1])
    if len(acc) != len(scenario.kappa):
        raise DegreeMismatchError(scenario.ci.dim, len(acc) - 1)
    return sum([c * k for c, k in zip(acc, scenario.kappa) if c], Fraction(0))


def balanced_image_closure(scenario: Scenario) -> Cone2D:
    """Closure of the image of the open Kähler cone under x -> x^(dim-1).

    The boundary rays are the first terms with non-zero codim coordinates
    scanning the binomial expansion from the u-dominant end and from the
    v-dominant end.  Leading non-zero terms, not boundary samples: a
    generator with u^(dim-1) = 0 still sends the boundary to the ray of the
    next surviving mixed term, and the scan captures that exactly.  Up to its
    positive binomial factor, u^j v^(dim-1-j) pairs with (u, v) to (k_(j+1), k_j),
    where k_j = ∫ u^j v^(dim−j) comes from :func:`integrate_forms`.
    """
    rays = scenario.kahler_cone.generators()
    d = scenario.ci.dim
    u_powers, v_powers = (
        list(accumulate(repeat((r.y, r.x), d), _product, initial=(1,))) for r in rays
    )
    k = [integrate_forms(scenario, (u_powers[j], v_powers[d - j])) for j in range(d + 1)]
    live = [j for j in range(d) if k[j] or k[j + 1]]
    if not live:
        raise ComputationError("balanced map degenerate on this cone (all terms vanish)")
    uv_pairing = Pairing(tuple(scenario.pairing_matrix.functional(r) for r in rays))
    first, last = (uv_pairing.solve((k[j + 1], k[j])) for j in (live[-1], live[0]))
    try:
        return cone_new(first, last)
    except ValidationError as e:
        raise ComputationError(
            f"balanced-map image closure is not a planar cone: {e}"
        ) from e


def balanced_cone(scenario: Scenario) -> Cone2D:
    """Dual of the effective cone under the intersection pairing.

    Lives in codim coordinates; its boundary rays annihilate the boundary
    rays of the effective cone.
    """
    return dual_cone(scenario.effective_cone, scenario.pairing_matrix)


def divisor_bound_functional(scenario: Scenario, known_prime, ample) -> Tuple[Fraction, Fraction]:
    """Coefficients (l1, l2) of a1, a2 in the bound functional of a known prime.

    For D = a1*h1 + a2*h2 the integral of D ^ P ^ A^(dim-2) over the
    intersection equals l1*a1 + l2*a2, where P is the known prime divisor
    class and A the ample class, both given in degree-1 coordinates.  The
    integrand has the top degree dim, and on a threefold it is the triple
    product D ^ P ^ A.  The integral is linear in D, so l_i is the integral
    of h_i ^ P ^ A^(dim-2).  Non-negativity of this form on valid (a1, a2)
    certifies bounds on prime divisor classes.  P and A are scaled to integer
    forms by the common denominator q, so P·A^(dim−2) is built in integers and
    the integrals are divided by q^(dim−1) at the end.
    """
    a = tuple(Fraction(x) for x in ample)
    if len(a) != 2:
        raise ValidationError("ample class needs exactly two coordinates")
    if a[0] <= 0 or a[1] <= 0:
        raise ValidationError("ample coordinates must be strictly positive")
    kp = tuple(Fraction(x) for x in known_prime)
    if len(kp) != 2:
        raise ValidationError("prime divisor class needs exactly two coordinates")
    q = lcm(*(x.denominator for x in a + kp))
    (a1, a2), (p1, p2) = ([int(x * q) for x in v] for v in (a, kp))
    rest = reduce(_product, [(a2, a1)] * (scenario.ci.dim - 2), (p2, p1))
    return tuple(integrate_forms(scenario, (h, rest)) / q ** (scenario.ci.dim - 1)
                 for h in H11_FORMS)


def _gap_witness(image_ray: Ray, balanced_ray: Ray) -> Ray:
    # Sum after rescaling both rays to a common last coordinate, so the
    # witness agrees with the monic normalization of the boundary classes;
    # plain ray sum when that rescaling is undefined.
    if image_ray.y > 0 and balanced_ray.y > 0:
        m = lcm(image_ray.y, balanced_ray.y)
        v = (
            image_ray.x * (m // image_ray.y) + balanced_ray.x * (m // balanced_ray.y),
            2 * m,
        )
    else:
        v = (image_ray.x + balanced_ray.x, image_ray.y + balanced_ray.y)
    return ray_normalize(v)


def gap_report(scenario: Scenario) -> GapReport:
    """Image closure, balanced cone, and the gap between them.

    Raises a computation error if the image escapes the balanced cone,
    which signals an effective cone inconsistent with the pairing.
    """
    image = balanced_image_closure(scenario)
    bal = balanced_cone(scenario)
    if not is_subcone(image, bal):
        raise ComputationError(
            "balanced-map image is not contained in the balanced cone; "
            "the supplied effective cone is inconsistent with the pairing"
        )
    # Both cones are counterclockwise and image ⊆ bal, so a balanced generator
    # outside the image lies past the image generator on its own side.
    if not image.contains(bal.r2):
        pair = (image.r2, bal.r2)
    elif not image.contains(bal.r1):
        pair = (image.r1, bal.r1)
    else:
        return GapReport(image, bal, False, (), None)
    return GapReport(image, bal, True, pair, _gap_witness(*pair))

