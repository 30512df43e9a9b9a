"""End-to-end cone computations on a rank-2 complete-intersection scenario.

A scenario fixes a complete intersection, a 2-element basis (h1, h2) of
degree-1 classes, a 2-element basis of degree dim-1 classes, and two cones
written in degree-1 coordinates: the Kähler cone and the (pseudo-)effective
cone.  The effective cone is input, not derived; what the pipeline verifies
about it is arithmetic (pairing certificates), not geometry.

Every reported number is read from κ_j = ∫ h1^j h2^(dim−j), one ring pass
per scenario.  Classes in h1 and h2, such as the codim basis, are binary
forms: a form of degree d is a tuple of d+1 coefficients, entry j that of
h1^j h2^(d−j).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import comb, lcm
from typing import Optional, Tuple

from .cones import Cone2D, Pairing, Ray, cone_new, det2, dual_cone, is_subcone, ray_normalize
from .errors import ComputationError, DegreeMismatchError, ValidationError
from .ring import CohomClass
from .variety import CompleteIntersection

H11_FORMS = ((0, 1), (1, 0))  # h1 and h2 as binary forms of degree 1


def _product(f, g):
    """Product of two binary forms."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _dot(form, kappa) -> Fraction:
    """Σ_j form_j κ_j, skipping the zero coefficients that monomial forms are made of."""
    return sum([c * k for c, k in zip(form, kappa) if c], Fraction(0))


@dataclass(frozen=True)
class Scenario:
    """Input datum for the cone pipeline; immutable after validation."""

    ci: CompleteIntersection
    h11_names: Tuple[str, str]
    h11_classes: Tuple[CohomClass, CohomClass]
    codim_names: Tuple[str, str]
    codim_forms: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]
    kahler_cone: Cone2D
    effective_cone: Cone2D
    prime_divisors: Tuple[Tuple[str, Tuple[int, int]], ...] = ()
    codim_exprs: Optional[Tuple[str, str]] = None
    kappa: Tuple[Fraction, ...] = field(init=False, compare=False, repr=False)
    pairing_matrix: Pairing = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dim = self.ci.dim
        if len(self.h11_names) != 2 or len(self.h11_classes) != 2:
            raise ValidationError("scenario needs exactly two degree-1 basis classes")
        if len(self.codim_names) != 2 or len(self.codim_forms) != 2:
            raise ValidationError(f"scenario needs exactly two degree-{dim - 1} basis classes")
        for i, h in enumerate(self.h11_classes):
            if h.degree() != 1:
                raise ValidationError(f"row class {i} must have degree 1")
        for j, c in enumerate(self.codim_forms):
            if len(c) != dim:
                raise ValidationError(
                    f"column class {j} must have degree {dim - 1}, got {len(c) - 1}"
                )
        object.__setattr__(self, "kappa", self.ci.kappa(*self.h11_classes))
        # ∫ h1·c = Σ c_j κ_(j+1) and ∫ h2·c = Σ c_j κ_j for a codim form c
        pm = Pairing([[_dot(c, self.kappa[1 - i:]) for c in self.codim_forms] for i in (0, 1)])
        if pm.det == 0:
            raise ValidationError(
                "intersection pairing of the chosen bases is degenerate"
            )
        object.__setattr__(self, "pairing_matrix", pm)

    def prime_divisor_coords(self, name: str) -> Tuple[int, int]:
        for n, coords in self.prime_divisors:
            if n == name:
                return coords
        raise ValidationError(f"scenario declares no prime divisor named {name!r}")


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


def express_in_basis(scenario: Scenario, p) -> Tuple[Fraction, Fraction]:
    """Coordinates of a degree dim-1 ring class in the scenario's codim basis.

    Solves M c = w where M is the scenario's pairing matrix and
    w_i = intersection number of h11_i with p.  The result c makes p
    numerically equivalent to c1*codim1 + c2*codim2 on the intersection.
    """
    w = [scenario.ci.intersection_number([h, p]) for h in scenario.h11_classes]
    return scenario.pairing_matrix.solve(w)


def integrate_forms(scenario: Scenario, forms) -> Fraction:
    """Integral over the intersection of a product of binary forms, read from κ."""
    acc = reduce(_product, forms, [1])
    if len(acc) != len(scenario.kappa):
        raise DegreeMismatchError(scenario.ci.dim, len(acc) - 1)
    return _dot(acc, scenario.kappa)


def balanced_image_closure(scenario: Scenario) -> Cone2D:
    """Closure of the image of the open Kähler cone under x -> x^(dim-1).

    The boundary rays are the first terms with non-zero codim coordinates
    scanning the binomial expansion from the u-dominant end and from the
    v-dominant end.  Leading non-zero terms, not boundary samples: a
    generator with u^(dim-1) = 0 still sends the boundary to the ray of the
    next surviving mixed term, and the scan captures that exactly.  Up to its
    positive binomial factor, u^j v^(dim-1-j) pairs with (u, v) to (k_(j+1), k_j).
    Here k_j = ∫ u^j v^(dim−j) times a positive integer: Horner's rule expands
    κ(s, t) = Σ_i C(dim, i) κ_i s^i t^(dim−i) at s·h1 + t·h2 = x·u + y·v in
    integers over the common denominator of κ; x^j y^(dim−j) gets C(dim, j) k_j.
    """
    rays = scenario.kahler_cone.generators()
    (u1, u2), (v1, v2) = (r.coords for r in rays)
    d, kappa = scenario.ci.dim, scenario.kappa
    den = lcm(*[q.denominator for q in kappa])
    a = [comb(d, i) * q.numerator * (den // q.denominator) for i, q in enumerate(kappa)]
    acc, t_power = [a[d]], [1]
    for i in range(d - 1, -1, -1):
        t_power = _product(t_power, [v2, u2])
        acc = [x + a[i] * y for x, y in zip(_product(acc, [v1, u1]), t_power)]
    k = [c // comb(d, j) for j, c in enumerate(acc)]
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
    certifies bounds on prime divisor classes.
    """
    a = tuple(Fraction(x) for x in ample)
    if len(a) != 2:
        raise ValidationError("ample class needs exactly two coordinates")
    if a[0] <= 0 or a[1] <= 0:
        raise ValidationError("ample coordinates must be strictly positive")
    kp = tuple(Fraction(x) for x in known_prime)
    if len(kp) != 2:
        raise ValidationError("prime divisor class needs exactly two coordinates")
    # s_e integrates h1^e h2^(2-e) A^m, expanding A^m binomially in h1, h2.
    m = scenario.ci.dim - 2
    weights = [comb(m, j) * a[0] ** j * a[1] ** (m - j) for j in range(m + 1)]
    s0, s1, s2 = (sum(w * k for w, k in zip(weights, scenario.kappa[e:])) for e in range(3))
    return (kp[0] * s2 + kp[1] * s1, kp[0] * s1 + kp[1] * s0)


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
    if not is_subcone(image, bal, strict=True):
        return GapReport(image, bal, False, (), None)
    outside = [g for g in bal.generators() if not image.contains(g)]
    gap_ray = next(
        (g for g in outside if det2(image.r2.coords, g.coords) > 0), None
    )
    if gap_ray is not None:
        pair = (image.r2, gap_ray)
    else:
        gap_ray = next(g for g in outside if det2(g.coords, image.r1.coords) > 0)
        pair = (image.r1, gap_ray)
    return GapReport(image, bal, True, pair, _gap_witness(*pair))


def quintic_conifold_scenario() -> Scenario:
    """Built-in scenario: the small resolution of the quintic conifold.

    The threefold sits in P^4 x P^1, cut out by equations of multidegree
    (1,1) and (4,1).  The degree-1 basis is (α, β) with α pulled back from
    P^1 and β from P^4; the degree-2 basis is (α∧β, β∧β).  The Kähler cone
    is the coordinate quadrant and the effective cone is spanned by α and
    β−α, with the prime divisors E1 = β−α and E2 = 4β−α recorded.  Built
    from ``scenario_io.DEMO_SCENARIO_DOCUMENT``, the one copy of this data.
    """
    from .scenario_io import DEMO_SCENARIO_DOCUMENT, document_to_scenario

    return document_to_scenario(DEMO_SCENARIO_DOCUMENT)
