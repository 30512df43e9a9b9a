"""The κ path of the pipeline against the ring path, on random scenario documents.

The pairing, the image closure, the bound functional and the demo's
intersection numbers read κ_j = ∫ h1^j h2^(dim−j); here each is compared
with the same quantity computed term by term in the cohomology ring.  The
cone properties of a scenario (duality, annihilating boundary rays, the image
inside the balanced cone) and the document round trip are checked on the
same draws.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from balcone.cones import cone_new, det2, dual_cone, is_subcone
from balcone.errors import ComputationError, ScenarioError, ValidationError
from balcone.pipeline import (
    balanced_cone,
    balanced_image_closure,
    divisor_bound_functional,
)
from balcone.ring import AmbientSpace, divisor_class, linear_combination
from balcone.scenario_io import (
    document_to_scenario,
    parse_scenario,
    scenario_to_document,
    serialize_scenario,
)
from balcone.variety import CompleteIntersection

from _helpers import reference_image_closure

_PAIR = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_NEF_PAIR = st.tuples(st.integers(0, 4), st.integers(0, 4))
_COEFF = st.fractions(-3, 3, max_denominator=4)
# The cone and round-trip properties are cheap to check; most of their time
# goes into drawing documents, so they run on fewer draws.
_FEWER = settings(max_examples=50)


def _cone_rays(draw, pairs):
    r1 = draw(pairs.filter(any))
    r2 = draw(pairs.filter(lambda r: det2(r1, r) != 0))
    return [list(r1), list(r2)]


def _expr(form):
    """Document spelling of a binary form in the names h1, h2."""
    d = len(form) - 1
    terms = [
        (c, "*".join([str(abs(c))] + ["h1"] * j + ["h2"] * (d - j)))
        for j, c in enumerate(form) if c
    ]
    text = "".join(f" {'-' if c < 0 else '+'} {t}" for c, t in terms)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


@st.composite
def documents(draw, kahler_rays=_PAIR):
    """2–3 factors of dimension ≤ 3 (on one factor h1 and h2 are proportional and
    every pairing degenerates), random divisors, h11 multidegrees and
    codim forms, skew Kähler and effective cones."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    multidegree = st.lists(st.integers(0, 2), min_size=len(dims), max_size=len(dims))
    r = draw(st.integers(0, sum(dims) - 2))
    divisors = draw(st.lists(multidegree, min_size=r, max_size=r))
    dim = sum(dims) - r
    forms = [
        draw(st.lists(_COEFF, min_size=dim, max_size=dim).filter(any)) for _ in range(2)
    ]
    return {
        "ambient": dims,
        "divisors": divisors,
        "h11_basis": [
            {"name": n, "multidegree": draw(multidegree.filter(any))} for n in ("h1", "h2")
        ],
        "codim_basis": [
            {"name": n, "expr": _expr(f)} for n, f in zip(("c1", "c2"), forms)
        ],
        "kahler_cone": _cone_rays(draw, kahler_rays),
        "effective_cone": _cone_rays(draw, _PAIR),
    }


def _scenario(doc):
    """The scenario of a drawn document; draws the parser rejects are discarded."""
    try:
        return document_to_scenario(doc)
    except ScenarioError as e:
        event(f"rejected at {e.path}")
        assume(False)


def _ring_class(sc, form):
    h1, h2 = sc.h11_classes
    d = len(form) - 1
    return linear_combination((c, (h1 ** j) * (h2 ** (d - j))) for j, c in enumerate(form))


def _image_outcome(image_closure, sc):
    """The closure, or the class of the error raised on a degenerate draw."""
    try:
        return image_closure(sc)
    except ComputationError as e:
        event("degenerate")
        return type(e)


@given(
    documents(),
    _PAIR,
    st.tuples(*[st.fractions(Fraction(1, 4), 4, max_denominator=6)] * 2),
)
def test_kappa_path_matches_ring_path(doc, prime, ample):
    sc = _scenario(doc)
    h1, h2 = sc.h11_classes
    dim = sc.ci.dim
    assert sc.kappa == tuple(
        sc.ci.intersection_number([h1] * j + [h2] * (dim - j)) for j in range(dim + 1)
    )
    codim = [_ring_class(sc, f) for f in sc.codim_forms]
    assert sc.pairing_matrix.entries == tuple(
        tuple(sc.ci.intersection_number([h, c]) for c in codim) for h in sc.h11_classes
    )
    assert _image_outcome(balanced_image_closure, sc) == \
        _image_outcome(reference_image_closure, sc)
    p = linear_combination(zip(prime, sc.h11_classes))
    a_power = linear_combination(zip(ample, sc.h11_classes)) ** (dim - 2)
    assert divisor_bound_functional(sc, prime, ample) == tuple(
        sc.ci.intersection_number([h, p, a_power]) for h in sc.h11_classes
    )


@_FEWER
@given(documents())
def test_dual_cone_involution(doc):
    sc = _scenario(doc)
    pm = sc.pairing_matrix
    assert dual_cone(dual_cone(sc.effective_cone, pm), pm.transpose()) == sc.effective_cone


@_FEWER
@given(documents())
def test_balanced_rays_annihilate_one_effective_ray(doc):
    sc = _scenario(doc)
    effective = sc.effective_cone.generators()
    for b in balanced_cone(sc).generators():
        assert sum(sc.pairing_matrix.pair(e, b) == 0 for e in effective) == 1


@_FEWER
@given(documents(kahler_rays=_NEF_PAIR))
def test_image_inside_balanced_on_nef_kahler(doc):
    """Products of nef classes integrate to non-negative numbers, so on a
    Kähler cone in the h1, h2 quadrant the image pairs non-negatively with
    the effective divisors h1 and h2."""
    sc = dataclasses.replace(_scenario(doc), effective_cone=cone_new((1, 0), (0, 1)))
    try:
        image = balanced_image_closure(sc)
    except ComputationError:
        event("degenerate")
        return
    assert is_subcone(image, balanced_cone(sc))


@_FEWER
@given(documents())
def test_document_round_trip(doc):
    sc = _scenario(doc)
    assert parse_scenario(serialize_scenario(sc)) == sc
    assert scenario_to_document(sc) == {
        **doc,
        "kahler_cone": [list(r.coords) for r in sc.kahler_cone.generators()],
        "effective_cone": [list(r.coords) for r in sc.effective_cone.generators()],
    }


def test_kappa_rejects_classes_of_other_degree():
    space = AmbientSpace([4, 1])
    ci = CompleteIntersection(space, [(1, 1), (4, 1)])
    alpha, beta = divisor_class(space, (0, 1)), divisor_class(space, (1, 0))
    assert ci.kappa(alpha, beta) == (5, 4, 0, 0)
    with pytest.raises(ValidationError, match="degree-1"):
        ci.kappa(alpha, beta * beta)
