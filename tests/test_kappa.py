"""The κ path of the pipeline against the ring path, on random scenario documents.

The pairing, the image closure, the bound functional and the demo's
intersection numbers read κ_j = ∫ h1^j h2^(dim−j), directly or moved into
another basis; here each is compared with the same quantity computed term
by term in the cohomology ring.  The cone properties of a scenario (duality,
annihilating boundary rays, the image inside the balanced cone) and the
document round trip are checked on the same draws.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import Phase, assume, event, given, settings, strategies as st

from balcone.cones import Cone2D, Pairing, det2, dual_cone, is_subcone
from balcone.errors import ComputationError, ScenarioError, ValidationError
from balcone.pipeline import (
    balanced_cone,
    balanced_image_closure,
    divisor_bound_functional,
    kappa_in_basis,
)
from balcone.ring import AmbientSpace
from balcone.scenario_io import (
    document_to_scenario,
    parse_scenario,
    scenario_to_document,
    serialize_scenario,
)
from balcone.variety import CompleteIntersection

from _helpers import pn_document, reference_image_closure
from _ring_oracle import (
    divisor_class,
    express_in_basis,
    h11_classes,
    intersection_number,
    linear_combination,
)

_PAIR = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_NEF_PAIR = st.tuples(st.integers(0, 4), st.integers(0, 4))
_COEFF = st.fractions(-3, 3, max_denominator=4)
# The cone and round-trip properties are cheap to check; most of their time
# goes into drawing documents, so they run on fewer draws.
_FEWER = settings(max_examples=50)
# The ring oracle is slow, and shrinking re-runs it on every candidate: a wrong
# κ took minutes to report.  The draws are the same without the shrink phase.
_NO_SHRINK = settings(phases=[p for p in Phase if p is not Phase.shrink])


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
    h1, h2 = h11_classes(sc)
    d = len(form) - 1
    return linear_combination((c, (h1 ** j) * (h2 ** (d - j))) for j, c in enumerate(form))


def _ring_kappa(sc):
    h1, h2 = h11_classes(sc)
    dim = sc.ci.dim
    return tuple(intersection_number(sc.ci, [h1] * j + [h2] * (dim - j)) for j in range(dim + 1))


def _image_outcome(image_closure, sc):
    """The closure, or the class of the error raised on a degenerate draw."""
    try:
        return image_closure(sc)
    except ComputationError as e:
        event("degenerate")
        return type(e)


@_NO_SHRINK
@given(
    documents(),
    _PAIR,
    st.tuples(*[st.fractions(Fraction(1, 4), 4, max_denominator=6)] * 2),
    _PAIR,
    _PAIR,
)
def test_kappa_path_matches_ring_path(doc, prime, ample, u, v):
    sc = _scenario(doc)
    h11 = h11_classes(sc)
    dim = sc.ci.dim
    assert sc.kappa == _ring_kappa(sc)
    # every k_j of κ in the basis (u, v), not only those the image closure keeps;
    # the draws include axis rays, negative entries, parallel and zero pairs
    big_u, big_v = (linear_combination(zip(r, h11)) for r in (u, v))
    assert kappa_in_basis(sc, u, v) == [
        intersection_number(sc.ci, [big_u] * j + [big_v] * (dim - j)) for j in range(dim + 1)
    ]
    codim = [_ring_class(sc, f) for f in sc.codim_forms]
    assert sc.pairing_matrix == tuple(
        tuple(intersection_number(sc.ci, [h, c]) for c in codim) for h in h11
    )
    assert _image_outcome(balanced_image_closure, sc) == \
        _image_outcome(reference_image_closure, sc)
    p = linear_combination(zip(prime, h11))
    a_power = linear_combination(zip(ample, h11)) ** (dim - 2)
    assert divisor_bound_functional(sc, prime, ample) == tuple(
        intersection_number(sc.ci, [h, p, a_power]) for h in h11
    )


@_FEWER
@given(documents())
def test_dual_cone_involution(doc):
    sc = _scenario(doc)
    pm = sc.pairing_matrix
    transpose = Pairing(tuple(zip(*pm)))
    assert dual_cone(dual_cone(sc.effective_cone, pm), transpose) == sc.effective_cone


@_FEWER
@given(documents())
def test_balanced_rays_annihilate_one_effective_ray(doc):
    sc = _scenario(doc)
    effective = sc.effective_cone
    for b in balanced_cone(sc):
        assert sum(sc.pairing_matrix.pair(e, b) == 0 for e in effective) == 1


@_FEWER
@given(documents(kahler_rays=_NEF_PAIR))
def test_image_inside_balanced_on_nef_kahler(doc):
    """Products of nef classes integrate to non-negative numbers, so on a
    Kähler cone in the h1, h2 quadrant the image pairs non-negatively with
    the effective divisors h1 and h2."""
    sc = _scenario(doc)._replace(effective_cone=Cone2D((1, 0), (0, 1)))
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
        "kahler_cone": [list(r) for r in sc.kahler_cone],
        "effective_cone": [list(r) for r in sc.effective_cone],
    }


def test_kappa_rejects_malformed_multidegrees():
    ci = CompleteIntersection(AmbientSpace([4, 1]), [(1, 1), (4, 1)])
    assert ci.kappa((0, 1), (1, 0)) == (5, 4, 0, 0)
    with pytest.raises(ValidationError, match="length"):
        ci.kappa((0, 1), (1, 0, 0))
    with pytest.raises(ValidationError, match="integer"):
        ci.kappa((0, Fraction(1, 2)), (1, 0))


def test_kappa_on_many_factors():
    """(P^1)^8 cut by four (1,…,1) divisors, α and β on the two halves of the
    factors: more factors than the random draws reach."""
    space = AmbientSpace([1] * 8)
    ci = CompleteIntersection(space, [(1,) * 8] * 4)
    alpha, beta = (1,) * 4 + (0,) * 4, (0,) * 4 + (1,) * 4
    kappa = ci.kappa(alpha, beta)
    assert kappa == (576, 2304, 3456, 2304, 576)
    assert all(type(k) is int for k in kappa)
    a, b = divisor_class(space, alpha), divisor_class(space, beta)
    assert kappa == tuple(intersection_number(ci, [a] * j + [b] * (4 - j)) for j in range(5))


@pytest.mark.parametrize("k", (8, 12, 16))
def test_kappa_closed_form_on_p1_products(k):
    """(P^1)^k cut by m = k/2 divisors (1,…,1), α on the first h = k/2 factors
    and β on the rest: κ_j = m!·j!·(d−j)!·C(h,j)·C(k−h,d−j), d = k − m."""
    m = h = k // 2
    d = k - m
    ci = CompleteIntersection(AmbientSpace([1] * k), [(1,) * k] * m)
    assert ci.kappa((1,) * h + (0,) * (k - h), (0,) * h + (1,) * (k - h)) == tuple(
        factorial(m) * factorial(j) * factorial(d - j) * comb(h, j) * comb(k - h, d - j)
        for j in range(d + 1)
    )


@st.composite
def intersections(draw):
    """1–5 factors of dimension 1–3, random divisors and multidegrees a, b;
    b has a zero entry, so κ's contraction meets a zero weight."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    multidegree = st.lists(st.integers(0, 2), min_size=len(dims), max_size=len(dims))
    r = draw(st.integers(0, sum(dims) - 1))
    divisors = draw(st.lists(multidegree, min_size=r, max_size=r))
    b = draw(multidegree)
    b[draw(st.integers(0, len(dims) - 1))] = 0
    return dims, divisors, draw(multidegree), b


@_NO_SHRINK
@given(intersections())
def test_kappa_matches_ring_on_products(case):
    dims, divisors, a, b = case
    space = AmbientSpace(dims)
    try:
        ci = CompleteIntersection(space, divisors)
    except ValidationError:
        event("zero fundamental class")
        assume(False)
    h1, h2 = divisor_class(space, a), divisor_class(space, b)
    assert ci.kappa(a, b) == tuple(
        intersection_number(ci, [h1] * j + [h2] * (ci.dim - j)) for j in range(ci.dim + 1)
    )


def test_ring_reference_does_not_call_the_dp(monkeypatch):
    """κ, codim coordinates and the image closure of the ring reference come
    out right with ``CompleteIntersection.kappa`` switched off."""
    sc = document_to_scenario(pn_document(5))

    def refuse(*args):
        raise AssertionError("the ring reference called CompleteIntersection.kappa")

    monkeypatch.setattr(CompleteIntersection, "kappa", refuse)
    assert _ring_kappa(sc) == sc.kappa
    assert express_in_basis(sc, h11_classes(sc)[1] ** 3) == (0, 1)
    assert reference_image_closure(sc) == balanced_image_closure(sc)
