"""End-to-end cone computations on a rank-2 complete-intersection scenario.

A scenario fixes a complete intersection, a 2-element basis (h1, h2) of
degree-1 classes, a 2-element basis of degree dim-1 classes, and two cones
written in degree-1 coordinates: the Kähler cone and the (pseudo-)effective
cone.  The effective cone is input, not derived; what the pipeline verifies
about it is arithmetic (pairing certificates), not geometry.

Every reported number is read from κ_j = ∫ h1^j h2^(dim−j), integers computed once per
scenario from the multidegrees of h1 and h2, through :func:`integrate_forms`, the one
integrator of binary forms (the pairing, ``intersect``, the bound functional on its classes
as given), or :func:`kappa_in_basis` (the image closure, in O(dim²) integer products, its
rays k_(j+1)·ev + k_j·eu with (eu, ev) the ``cones._dual_edges`` of the Kähler cone).
Classes in h1 and h2, such as the codim basis, are binary forms: a tuple of d+1
coefficients, entry j that of h1^j h2^(d−j).
A :class:`Scenario` computes κ and the pairing at construction and its gap
report, ``sc.gap``, on first use; the demo and gap payloads of that object
share the report, while :func:`gap_report` still computes it from scratch.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, repeat
from math import comb

from .cones import _COORDS, Cone2D, Pairing, Ray, _dual_edges, _pair, dual_cone, ray_normalize
from .errors import (ComputationError, DegeneratePairingError, DegreeMismatchError, ScenarioError,
                     ValidationError, _entries, _immutable, _located)
from .ring import _INT, AmbientSpace, check_multidegree
from .variety import CompleteIntersection

H11_FORMS = ((0, 1), (1, 0))  # h1 and h2 as binary forms of degree 1
_NUMBER = re.compile(r"\d+(?:/\d+)?")
# An h11 name is one expr factor: no whitespace or arithmetic sign, no leading digit.
_H11_NAME = re.compile(r"[^\s\d+\-*/][^\s+\-*/]*")
_TRANSLIT = str.maketrans({"α": "alpha", "β": "beta", "γ": "gamma", "δ": "delta", "∧": "*",
                           "−": "-", "·": "*", "×": "*", " ": None, "\t": None})


def _canonical(name: str) -> str:
    return name.translate(_TRANSLIT).lower()


def _product(f, g):
    """Product of two binary forms, skipping the zero coefficients of monomial forms."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return out


def _cone(value, path):
    value = _entries(value, "expected two integer pairs", 2, path=path)
    return _located(path, Cone2D, *[_entries(v, "expected a pair of integers", 2, _INT,
                                             f"{path}/{i}") for i, v in enumerate(value)])


def _too_long() -> str:
    limit = sys.get_int_max_str_digits()
    return f"number has more than {limit} digits, the limit for reading an integer"


def parse_class_expr(expr, names, path="expr"):
    """Binary form of a combination like ``"β*β - 1/4*α*β"`` of h11 names.

    Entry j is the coefficient of h1^j h2^(d−j), d the degree shared by all
    terms; ``names[0]`` is h1 and any other name h2.  No name or number holds
    a sign, so the signs split the terms and ``*`` splits each term's factors.
    """
    if not isinstance(expr, str) or not expr.strip():
        raise ScenarioError("expected a non-empty expression string", path=path)
    parts = re.split(r"([+-])", expr if expr.lstrip()[0] in "+-" else "+" + expr)
    terms = []  # (degree, power of h1, coefficient)
    for sign, term in zip(parts[1::2], parts[2::2]):
        coeff, degree, j = Fraction(1 if sign == "+" else -1), 0, 0
        for factor in map(str.strip, term.split("*")):
            if factor in names:
                degree += 1
                j += factor == names[0]
            elif _NUMBER.fullmatch(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ScenarioError(f"zero denominator in {factor!r}", path=path) from None
                except ValueError:  # more digits than int's string conversion allows
                    raise ScenarioError(_too_long(), path=path) from None
            elif not factor:
                raise ScenarioError("expected a name or number", path=path)
            elif _H11_NAME.fullmatch(factor):
                raise ScenarioError(f"unknown class name {factor!r}", path=path)
            else:
                raise ScenarioError(f"cannot tokenize {factor!r}", path=path)
        terms.append((degree, j, coeff))
    degrees = sorted({t[0] for t in terms})
    if len(degrees) > 1:
        raise ScenarioError(f"terms must share one degree, got degrees {degrees}", path=path)
    form = [Fraction(0)] * (degrees[0] + 1)
    for _, j, coeff in terms:
        form[j] += coeff
    return tuple(form)


class Scenario(namedtuple("Scenario", "space divisors h11_names h11_multidegrees codim_names "
                            "codim_exprs kahler_cone effective_cone prime_divisors",
                            defaults=((),))):
    """Input datum for the cone pipeline: the tuple of its document's keys, immutable.

    It compares, hashes and prints as that tuple of nine inputs.  The intersection
    ``ci``, the codim forms parsed from the exprs, κ and the pairing are computed from
    them at construction and kept beside the tuple.
    """

    # namedtuple's _replace builds through _make, which would skip the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        # The fields are the document's keys, so each refusal names the path it reads.  Each
        # rule is checked once, the cheap ones first, and the intersection is built last.
        (space, divisors, h11_names, h11_multidegrees, codim_names, codim_exprs, kahler,
         effective, primes) = super().__new__(cls, *args, **kwargs)
        # tuples throughout, whatever sequences the caller passes: lists would not hash
        primes = [*_entries(primes, "expected a list of pairs", path="/prime_divisors")]
        for i, entry in enumerate(primes):
            path = f"/prime_divisors/{i}"
            name, coords = _entries(entry, "expected a (name, coords) pair", 2, path=path)
            primes[i] = name, _entries(coords, "expected a pair of integers", 2, _INT,
                                       f"{path}/coords")
        kahler, effective = _cone(kahler, "/kahler_cone"), _cone(effective, "/effective_cone")
        # Count both bases before parsing any expr: it would read a third h11 name as h2.
        h11_names, h11_multidegrees, codim_names, codim_exprs = [
            _entries(v, "expected exactly two basis classes", 2, path=path) for v, path in (
                (h11_names, "/h11_basis"), (h11_multidegrees, "/h11_basis"),
                (codim_names, "/codim_basis"), (codim_exprs, "/codim_basis"))]
        # One pass over the names; each entry is recorded in ``seen`` under its folded name,
        # and a prime divisor may share a basis class's name.
        basis = {}
        for key, names, seen in (("h11_basis", h11_names, basis),
                                 ("codim_basis", codim_names, basis),
                                 ("prime_divisors", [name for name, _ in primes], {})):
            for i, name in enumerate(names):
                here, path = f"/{key}/{i}", f"/{key}/{i}/name"
                if not isinstance(name, str) or not name:
                    raise ScenarioError("name must be a non-empty string", path=path)
                if any("\ud800" <= c <= "\udfff" for c in name):  # JSON's "\ud800" decodes to one
                    raise ScenarioError("name has a lone surrogate, not UTF-8 text", path=path)
                if key == "h11_basis" and not _H11_NAME.fullmatch(name):
                    raise ScenarioError(
                        "h11 names may not start with a digit or contain whitespace or + - * /",
                        path=path,
                    )
                earlier, where = seen.setdefault(_canonical(name), (name, here))
                if where != here:
                    raise ScenarioError(f"{name!r} repeats {earlier!r} at {where}", path=path)
        space = _located("/ambient", AmbientSpace, space)
        multidegrees = []
        for i, h in enumerate(h11_multidegrees):
            path = f"/h11_basis/{i}/multidegree"
            multidegrees.append(h := _located(path, check_multidegree, space, h))
            if not any(h):
                raise ScenarioError(f"row class {i} must have degree 1", path=path)
        codim_forms = tuple([parse_class_expr(e, h11_names, path=f"/codim_basis/{j}/expr")
                             for j, e in enumerate(codim_exprs)])
        # dim = Σn_i − r needs no intersection, so the divisors are read as a list and the
        # exprs' degree checked before the build, which refuses an entry or dim < 1.
        divisors = _entries(divisors, "expected a list of multidegrees", path="/divisors")
        dim = sum(space) - len(divisors)
        for j, c in enumerate(codim_forms):
            if 0 < dim != len(c):
                raise ScenarioError(f"column class {j} must have degree {dim - 1}, "
                                    f"got {len(c) - 1}", path=f"/codim_basis/{j}/expr")
        ci = _located("/divisors", CompleteIntersection, space, divisors)
        self = super().__new__(cls, space, ci.divisors, h11_names, tuple(multidegrees),
                               codim_names, codim_exprs, kahler, effective, tuple(primes))
        vars(self).update(ci=ci, codim_forms=codim_forms, kappa=ci.kappa(*multidegrees))
        try:
            vars(self)["pairing_matrix"] = Pairing(
                [[integrate_forms(self, (h, c)) for c in codim_forms] for h in H11_FORMS])
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
    """Integral over the intersection of a product of binary forms, read from κ: ``forms`` is
    a list or tuple of forms, each a list or tuple of ``int`` or ``Fraction`` coefficients."""
    forms = [_entries(f, "a binary form needs integer or fraction coefficients", kinds=_COORDS)
             for f in _entries(forms, "expected a list of binary forms")]
    acc = reduce(_product, forms, [1])
    if len(acc) != len(scenario.kappa):
        raise DegreeMismatchError(scenario.ci.dim, len(acc) - 1)
    return sum([c * k for c, k in zip(acc, scenario.kappa) if c], Fraction(0))


def kappa_in_basis(scenario: Scenario, u, v) -> list[int]:
    """k_j = ∫ u^j v^(dim−j) for j = 0..dim, u and v integer pairs in (h1, h2) coordinates.

    With L1 = X·u₀ + Y·v₀ and L2 = X·u₁ + Y·v₁, Σ C(dim,j)·k_j·X^j·Y^(dim−j) equals
    Σ C(dim,i)·κ_i·L1^i·L2^(dim−i): one Horner pass in L1, O(dim²) integer products."""
    u, v = [_entries(w, "basis class needs exactly two coordinates, each an integer", 2, _INT)
            for w in (u, v)]
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

    That cone is the closure only when it holds every live term; otherwise, as on a
    Kähler cone that is not nef, a ``ComputationError`` names the first term outside.
    """
    d = scenario.ci.dim
    k = kappa_in_basis(scenario, *scenario.kahler_cone)
    # Some term is live: all k_j = 0 would make κ ≡ 0, whose pairing Scenario refuses.
    live = [j for j in range(d) if k[j] or k[j + 1]]
    eu, ev = _dual_edges(scenario.kahler_cone, scenario.pairing_matrix)
    (fx, fy), (lx, ly) = ends = [(k[j], k[j + 1]) for j in (live[-1], live[0])]
    first, last = ([y * a + x * b for a, b in zip(ev, eu)] for x, y in ends)
    try:
        cone = Cone2D(first, last)
    except ValidationError as e:
        raise ComputationError(
            f"balanced-map image closure is not a planar cone: {e}"
        ) from e
    # (x, y) -> x·eu + y·ev is one-to-one and keeps conic combinations, so a term lies in
    # the cone of the end terms exactly when (k_j, k_(j+1)) lies in the cone of theirs.
    s = fx * ly - fy * lx  # not 0, since the end terms span a planar cone
    for j in live:
        if (k[j] * ly - k[j + 1] * lx) * s < 0 or (fx * k[j + 1] - fy * k[j]) * s < 0:
            raise ComputationError(
                f"balanced-map image closure is not the cone of its end terms: term j = {j} "
                f"of ω^(dim−1) = (s·u + t·v)^{d - 1} on the supplied Kähler cone "
                f"{[list(r) for r in scenario.kahler_cone]} lies outside it")
    return cone


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
    certifies bounds on prime divisor classes.  P·A^(dim−2) is built on the classes
    as given, with ``int`` or ``Fraction`` coefficients, and each l_i is read from κ
    by :func:`integrate_forms`.
    """
    a1, a2 = _pair(ample, "ample class")
    if a1 <= 0 or a2 <= 0:
        raise ValidationError("ample coordinates must be strictly positive")
    p1, p2 = _pair(known_prime, "prime divisor class")
    rest = reduce(_product, [(a2, a1)] * (scenario.ci.dim - 2), (p2, p1))
    return tuple([integrate_forms(scenario, (h, rest)) for h in H11_FORMS])


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
    if not all(map(bal.contains, image)):
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

