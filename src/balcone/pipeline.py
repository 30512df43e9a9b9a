"""End-to-end cone computations on a rank-2 complete-intersection scenario.

A scenario fixes a complete intersection, a 2-element basis (h1, h2) of
degree-1 classes, a 2-element basis of degree dim-1 classes, and two cones
written in degree-1 coordinates: the Kähler cone and the (pseudo-)effective
cone.  The effective cone is input, not derived; what the pipeline verifies
about it is arithmetic (pairing certificates), not geometry.

Every reported number is read from κ_j = ∫ h1^j h2^(dim−j), integers
computed once per scenario from the multidegrees of h1 and h2, through
:func:`integrate_forms` (the pairing, ``intersect``, the bound functional) or
:func:`kappa_in_basis` (the image closure, in O(dim²) integer products, its rays
k_(j+1)·ev + k_j·eu with (eu, ev) the ``cones._dual_edges`` of the Kähler cone).  Classes
in h1 and h2, such as the codim basis, are binary forms: a tuple of d+1
coefficients, entry j that of h1^j h2^(d−j).
A :class:`Scenario` computes κ and the pairing at construction and its gap
report, ``sc.gap``, on first use; the demo and gap payloads of that object
share the report, while :func:`gap_report` still computes it from scratch.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, repeat
from math import comb, lcm

from .cones import Cone2D, Pairing, Ray, _dual_edges, dual_cone, is_subcone, ray_normalize
from .errors import (ComputationError, DegeneratePairingError, DegreeMismatchError, ScenarioError,
                     ValidationError, _immutable, _located)
from .ring import check_multidegree

H11_FORMS = ((0, 1), (1, 0))  # h1 and h2 as binary forms of degree 1
_TRANSLIT = str.maketrans({"α": "alpha", "β": "beta", "γ": "gamma", "δ": "delta", "∧": "*",
                           "−": "-", "·": "*", "×": "*", " ": None, "\t": None})


def _canonical(name: str) -> str:
    return name.translate(_TRANSLIT).lower()


def _refuse_repeat(seen, name, here):
    """Record the entry at ``here``; refuse its name if it folds to one ``seen`` holds."""
    earlier, where = seen.setdefault(_canonical(name), (name, here))
    if where != here:
        raise ScenarioError(f"{name!r} repeats {earlier!r} at {where}", path=f"{here}/name")


def _product(f, g):
    """Product of two binary forms, skipping the zero coefficients of monomial forms."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return out


class Scenario(namedtuple("Scenario", "ci h11_names h11_multidegrees codim_names codim_forms "
                            "kahler_cone effective_cone prime_divisors codim_exprs",
                            defaults=((), None))):
    """Input datum for the cone pipeline; immutable after validation.

    It compares, hashes and prints as the tuple of its nine inputs.  κ and the
    pairing are computed from them at construction and kept beside the tuple.
    """

    # namedtuple's _replace builds through _make, which would skip the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        # The fields are the document's keys, so each refusal names the path it reads.
        self = super().__new__(cls, *args, **kwargs)
        dim = self.ci.dim
        if len(self.h11_names) != 2 or len(self.h11_multidegrees) != 2:
            raise ScenarioError("scenario needs exactly two degree-1 basis classes",
                                path="/h11_basis")
        if len(self.codim_names) != 2 or len(self.codim_forms) != 2:
            raise ScenarioError(f"scenario needs exactly two degree-{dim - 1} basis classes",
                                path="/codim_basis")
        seen = {}
        for key, names in (("h11_basis", self.h11_names), ("codim_basis", self.codim_names)):
            for i, name in enumerate(names):
                _refuse_repeat(seen, name, f"/{key}/{i}")
        seen = {}  # a prime divisor may share a basis class's name
        for i, (name, _) in enumerate(self.prime_divisors):
            _refuse_repeat(seen, name, f"/prime_divisors/{i}")
        multidegrees = []
        for i, h in enumerate(self.h11_multidegrees):
            path = f"/h11_basis/{i}/multidegree"
            multidegrees.append(h := _located(path, check_multidegree, self.ci.space, h))
            if not any(h):
                raise ScenarioError(f"row class {i} must have degree 1", path=path)
        if self.h11_multidegrees != (multidegrees := tuple(multidegrees)):
            # keep the tuples check_multidegree returns: lists would not hash or compare equal
            self = super().__new__(cls, self.ci, self.h11_names, multidegrees, *self[3:])
        for j, c in enumerate(self.codim_forms):
            if len(c) != dim:
                raise ScenarioError(f"column class {j} must have degree {dim - 1}, "
                                    f"got {len(c) - 1}", path=f"/codim_basis/{j}/expr")
        vars(self)["kappa"] = self.ci.kappa(*self.h11_multidegrees)
        try:
            vars(self)["pairing_matrix"] = Pairing(
                [[integrate_forms(self, (h, c)) for c in self.codim_forms] for h in H11_FORMS])
        except DegeneratePairingError:
            raise ScenarioError("intersection pairing of the chosen bases is degenerate",
                                path="/") from None
        return self

    __setattr__ = __delattr__ = _immutable

    @cached_property
    def gap(self) -> GapReport:
        """This scenario's :func:`gap_report`, computed on first use and kept."""
        return gap_report(self)


class GapReport(namedtuple("GapReport",
                           "image_closure balanced_cone strict gap_generators witness")):
    """Comparison of the balanced-map image closure with the balanced cone.

    ``gap_generators`` are the two rays bounding the difference region,
    ordered (image-side ray, balanced-side ray); both are empty/None when
    the inclusion is not strict.
    """

    __slots__ = ()


def integrate_forms(scenario: Scenario, forms) -> Fraction:
    """Integral over the intersection of a product of binary forms, read from κ."""
    acc = reduce(_product, forms, [1])
    if len(acc) != len(scenario.kappa):
        raise DegreeMismatchError(scenario.ci.dim, len(acc) - 1)
    return sum([c * k for c, k in zip(acc, scenario.kappa) if c], Fraction(0))


def kappa_in_basis(scenario: Scenario, u, v) -> list[int]:
    """k_j = ∫ u^j v^(dim−j) for j = 0..dim, u and v integer pairs in (h1, h2) coordinates.

    With L1 = X·u₀ + Y·v₀ and L2 = X·u₁ + Y·v₁, Σ C(dim,j)·k_j·X^j·Y^(dim−j) equals
    Σ C(dim,i)·κ_i·L1^i·L2^(dim−i): one Horner pass in L1, O(dim²) integer products."""
    d = scenario.ci.dim
    h, l2_powers = [], list(accumulate(repeat((v[1], u[1]), d), _product, initial=(1,)))
    for i in range(d, -1, -1):
        h, c = _product(h, (v[0], u[0])), comb(d, i) * scenario.kappa[i]
        h = [a + c * b for a, b in zip(h, l2_powers[d - i])] if c else h
    return [a // comb(d, j) for j, a in enumerate(h)]  # exact: each k_j is an integer


def balanced_image_closure(scenario: Scenario) -> Cone2D:
    """Closure of the image of the open Kähler cone under x -> x^(dim-1).

    The boundary rays are the first terms with non-zero codim coordinates
    scanning the binomial expansion from the u-dominant end and from the
    v-dominant end.  Leading non-zero terms, not boundary samples: a
    generator with u^(dim-1) = 0 still sends the boundary to the ray of the
    next surviving mixed term, and the scan captures that exactly.  Up to its
    positive binomial factor, u^j v^(dim-1-j) pairs with (u, v) to (k_(j+1), k_j),
    k_j = ∫ u^j v^(dim−j) from :func:`kappa_in_basis`; so its ray is
    k_(j+1)·ev + k_j·eu, where the edges (eu, ev) of the Kähler cone's dual
    pair with (u, v) to (0, δ) and (δ, 0) for one δ > 0.
    """
    d = scenario.ci.dim
    k = kappa_in_basis(scenario, *scenario.kahler_cone)
    # Some term is live: all k_j = 0 would make κ ≡ 0, whose pairing Scenario refuses.
    live = [j for j in range(d) if k[j] or k[j + 1]]
    eu, ev = _dual_edges(scenario.kahler_cone, scenario.pairing_matrix)
    first, last = ([k[j + 1] * a + k[j] * b for a, b in zip(ev, eu)] for j in (live[-1], live[0]))
    try:
        return Cone2D(first, last)
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


def divisor_bound_functional(scenario: Scenario, known_prime, ample) -> tuple[Fraction, Fraction]:
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
    a = tuple([Fraction(x) for x in ample])
    if len(a) != 2:
        raise ValidationError("ample class needs exactly two coordinates")
    if a[0] <= 0 or a[1] <= 0:
        raise ValidationError("ample coordinates must be strictly positive")
    kp = tuple([Fraction(x) for x in known_prime])
    if len(kp) != 2:
        raise ValidationError("prime divisor class needs exactly two coordinates")
    q = lcm(*[x.denominator for x in a + kp])
    (a1, a2), (p1, p2) = ([int(x * q) for x in v] for v in (a, kp))
    rest = reduce(_product, [(a2, a1)] * (scenario.ci.dim - 2), (p2, p1))
    return tuple([integrate_forms(scenario, (h, rest)) / q ** (scenario.ci.dim - 1)
                  for h in H11_FORMS])


def _gap_witness(image_ray: Ray, balanced_ray: Ray) -> Ray:
    # Sum after rescaling both rays to the common last coordinate y1·y2, so
    # the witness agrees with the monic normalization of the boundary classes;
    # plain ray sum when that rescaling is undefined.
    if image_ray.y > 0 and balanced_ray.y > 0:
        v = (image_ray.x * balanced_ray.y + balanced_ray.x * image_ray.y,
             2 * image_ray.y * balanced_ray.y)
    else:
        v = (image_ray.x + balanced_ray.x, image_ray.y + balanced_ray.y)
    return ray_normalize(v)


def gap_report(scenario: Scenario) -> GapReport:
    """Image closure, balanced cone, and the gap between them.

    Raises a computation error if the image escapes the balanced cone.  It
    names the Kähler cone when some k_j = ∫ u^j v^(dim−j) on its rays is
    negative, so that the cone cannot be nef, and the effective cone otherwise.
    """
    image = balanced_image_closure(scenario)
    bal = balanced_cone(scenario)
    if not is_subcone(image, bal):
        k = kappa_in_basis(scenario, *scenario.kahler_cone)
        culprit = (f"the supplied Kähler cone {[list(r) for r in scenario.kahler_cone]} is not "
                   f"nef: k_j = ∫ u^j v^(dim−j) on its rays is {tuple(k)}" if min(k) < 0 else
                   "the supplied effective cone is inconsistent with the pairing")
        raise ComputationError(
            f"balanced-map image is not contained in the balanced cone; {culprit}")
    # Both cones are counterclockwise and image ⊆ bal, so a balanced generator
    # outside the image lies past the image generator on its own side.
    if not image.contains(bal.r2):
        pair = (image.r2, bal.r2)
    elif not image.contains(bal.r1):
        pair = (image.r1, bal.r1)
    else:
        return GapReport(image, bal, False, (), None)
    return GapReport(image, bal, True, pair, _gap_witness(*pair))

