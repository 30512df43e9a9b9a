"""The κ path of the pipeline against the ring path, on random scenario documents.

The pairing, the image closure, the bound functional and the demo's
intersection numbers read κ_j = ∫ h1^j h2^(dim−j), directly or moved into
another basis; here each is compared with the same quantity computed term
by term in the cohomology ring.  The cone properties of a scenario (duality,
annihilating boundary rays, the image inside the balanced cone) and the
document round trip are checked on the same draws.  The κ DP is also checked
against the mixed finite difference, which shares no code with it, and
against relations that need no second implementation.
"""

import tracemalloc
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, event, example, given, settings, strategies as st

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
    DEMO_SCENARIO_DOCUMENT,
    document_to_scenario,
    parse_scenario,
    scenario_to_document,
    serialize_scenario,
)
from balcone import variety
from balcone.variety import CompleteIntersection

from _helpers import finite_difference_kappa, pn_document, reference_image_closure
from _ring_oracle import (
    divisor_class,
    express_in_basis,
    fundamental_class,
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


def _powers_outside_image(sc):
    """(i, c) for each ω^(dim−1) whose codim coordinates c lie outside the image closure.

    ω = s·u + t·v on the Kähler rays u, v, with s/(s+t) = i/8 for i = 1…7.  The
    coordinates solve P·c = (∫h1·ω^(dim−1), ∫h2·ω^(dim−1)) by Cramer's rule, with
    the integrals read from κ: no binomial term is scanned, so the check shares
    nothing with the closure's end-term rule.  A refused closure holds nothing.
    """
    try:
        image = balanced_image_closure(sc)
    except ComputationError:
        event("refused")
        return []
    n, (u, v) = sc.ci.dim - 1, sc.kahler_cone
    (p11, p12), (p21, p22) = pm = sc.pairing_matrix
    outside = []
    for i in range(1, 8):
        a, b = i * u[0] + (8 - i) * v[0], i * u[1] + (8 - i) * v[1]  # ω = a·h1 + b·h2
        terms = [comb(n, j) * a ** j * b ** (n - j) for j in range(n + 1)]
        w1 = sum(t * k for t, k in zip(terms, sc.kappa[1:]))
        w2 = sum(t * k for t, k in zip(terms, sc.kappa))
        c = ((w1 * p22 - p12 * w2) / pm.det, (p11 * w2 - p21 * w1) / pm.det)
        if any(c) and not image.contains(c):
            outside.append((i, c))
    return outside


@_FEWER
@given(documents(kahler_rays=_NEF_PAIR))
def test_image_closure_holds_the_powers_of_kahler_classes(doc):
    assert _powers_outside_image(_scenario(doc)) == []


@pytest.mark.parametrize("doc", [
    pytest.param(DEMO_SCENARIO_DOCUMENT, id="quintic"),
    pytest.param(dict(DEMO_SCENARIO_DOCUMENT, kahler_cone=[[1, 0], [-1, 2]],
                      effective_cone=[[0, 1], [-1, 4]]), id="r1-gap"),
    pytest.param(dict(DEMO_SCENARIO_DOCUMENT, kahler_cone=[[1, 0], [-1, 2]],
                      effective_cone=[[1, 0], [-1, 4]]), id="no-gap"),
    # A Kähler cone that cannot be nef (k = (−360, 336, −312, 288)): the closure
    # spans the end terms (6,1), (4,1), and six of the seven powers fall outside it.
    pytest.param({
        "ambient": [4, 1],
        "divisors": [[2, 0], [3, 0]],
        "h11_basis": [{"name": "a", "multidegree": [0, 1]},
                      {"name": "b", "multidegree": [2, 2]}],
        "codim_basis": [{"name": "c1", "expr": "b*a"}, {"name": "c2", "expr": "b*b"}],
        "kahler_cone": [[2, 1], [-3, -1]],
        "effective_cone": [[1, 0], [0, 1]],
    }, id="not-nef", marks=pytest.mark.xfail(
        strict=True, reason="the end-term closure is wrong on a Kähler cone that is not nef")),
])
def test_image_closure_holds_the_powers_on_fixed_documents(doc):
    assert _powers_outside_image(document_to_scenario(doc)) == []


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


@pytest.mark.parametrize("k, scale", [
    pytest.param(8, 1, id="8"),
    pytest.param(12, 1, id="12"),
    pytest.param(16, 1, id="16"),
    pytest.param(20, 1, id="20"),
    pytest.param(24, 1, id="24"),
    pytest.param(12, 10 ** 1000, id="12-wide"),
])
def test_kappa_closed_form_on_p1_products(k, scale):
    """(P^1)^k cut by m = k/2 divisors (1,…,1), scale·α on the first h = k/2 factors
    and β on the rest: κ_j = scale^j·m!·j!·(d−j)!·C(h,j)·C(k−h,d−j), d = k − m."""
    m = h = k // 2
    d = k - m
    ci = CompleteIntersection(AmbientSpace([1] * k), [(1,) * k] * m)
    assert ci.kappa((scale,) * h + (0,) * (k - h), (0,) * h + (1,) * (k - h)) == tuple(
        scale ** j * factorial(m) * factorial(j) * factorial(d - j) * comb(h, j)
        * comb(k - h, d - j) for j in range(d + 1)
    )


@st.composite
def intersections(draw):
    """1–5 factors of dimension 1–3, random divisors and multidegrees a, b;
    b has a zero entry, so κ's pass meets a zero weight."""
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


# The finite difference and the relations run cheap draws; 50 each keep all six near 2 s.
_FEWER_NO_SHRINK = settings(_NO_SHRINK, max_examples=50)


@st.composite
def products(draw):
    """1–4 factors of dimension 1–3 (at most 4^4 grid points for the finite
    difference), random divisors and non-negative multidegrees a, b; draws with
    a zero fundamental class are discarded."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    multidegree = st.lists(st.integers(0, 2), min_size=len(dims), max_size=len(dims))
    r = draw(st.integers(0, sum(dims) - 1))
    divisors = draw(st.lists(multidegree, min_size=r, max_size=r))
    try:
        ci = CompleteIntersection(AmbientSpace(dims), divisors)
    except ValidationError:
        event("zero fundamental class")
        assume(False)
    return ci, draw(multidegree), draw(multidegree)


def _kappa(dims, divisors, a, b):
    return CompleteIntersection(AmbientSpace(dims), divisors).kappa(a, b)


@_FEWER_NO_SHRINK
@given(products())
def test_kappa_matches_finite_difference(case):
    ci, a, b = case
    assert ci.kappa(a, b) == finite_difference_kappa(ci.space, ci.divisors, a, b)


# Entries up to 2^64 make the weights a_i^q·b_i^(s−q) of κ wide and mix them with zeros,
# which leave a single q.
_WIDE_ENTRY = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, 2 ** 64))


# Entries up to 2^4096: weights of thousands of bits on every factor.
_HUGE_ENTRY = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, 2 ** 4096))


@st.composite
def wide_products(draw, entry=_WIDE_ENTRY):
    """1–3 factors of dimension 1–3, divisors and multidegrees a, b with ``entry``
    entries; draws with a zero fundamental class are discarded."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    multidegree = st.lists(entry, min_size=len(dims), max_size=len(dims))
    r = draw(st.integers(0, sum(dims) - 1))
    divisors = draw(st.lists(multidegree, min_size=r, max_size=r))
    try:
        ci = CompleteIntersection(AmbientSpace(dims), divisors)
    except ValidationError:
        event("zero fundamental class")
        assume(False)
    return ci, draw(multidegree), draw(multidegree)


@_NO_SHRINK
@given(wide_products())
def test_kappa_matches_finite_difference_on_wide_entries(case):
    ci, a, b = case
    assert ci.kappa(a, b) == finite_difference_kappa(ci.space, ci.divisors, a, b)


_P30 = CompleteIntersection(AmbientSpace([30, 1]), [(1, 1), (30, 1)])


@_FEWER_NO_SHRINK
@given(wide_products(_HUGE_ENTRY))
@example((_P30, (10 ** 300, 3), (7, 1)))
def test_kappa_matches_finite_difference_on_huge_entries(case):
    ci, a, b = case
    assert ci.kappa(a, b) == finite_difference_kappa(ci.space, ci.divisors, a, b)


@pytest.mark.parametrize("ci, a, b", [
    pytest.param(_P30, (10 ** 300, 3), (7, 1), id="P30xP1"),
    pytest.param(CompleteIntersection(AmbientSpace([1] * 12), [(1,) * 12] * 6),
                 (10 ** 1000,) * 6 + (0,) * 6, (0,) * 6 + (1,) * 6, id="P1^12"),
    pytest.param(CompleteIntersection(AmbientSpace([60, 1]), [(1, 1), (60, 1)]),
                 (10 ** 1000, 0), (1, 0), id="P60xP1"),
    pytest.param(CompleteIntersection(AmbientSpace([60, 1]), [(1, 1), (60, 1)]),
                 (10 ** 1000, 0), (10 ** 1000, 1), id="P60xP1-both-wide"),
])
def test_kappa_of_huge_entries_holds_little_memory(ci, a, b):
    """A wide entry on a high-dimensional factor, and wide entries on twelve factors: a
    pass that packed every κ_j into one integer held 3.9 and 7.2 MB of weight tables
    there.  On P^60 × P^1, κ itself holds 0.9 MB; a pass that kept every x-state after
    the P^60 step, or took that step before the P^1 step, held 2.5 and 6.3 MB, and a
    contraction of F that kept every power of the wide entry 3.1 MB.  With both entries
    wide on P^60, κ holds 1.7 MB; that contraction held 3.2 MB, and a pass from F that
    kept a table of b_i^0…b_i^n 2.6 MB.  ``kappa`` (from F on the two-factor products,
    from x-powers on (P^1)^12) stays under 2 MB."""
    tracemalloc.start()
    try:
        ci.kappa(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("n, k, kappa", [
    (1, 16, (1625702400, 13005619200, 45519667200, 91039334400, 113799168000,
             91039334400, 45519667200, 13005619200, 1625702400)),
    (2, 8, (6350400, 50803200, 177811200, 355622400, 444528000,
            355622400, 177811200, 50803200, 6350400)),
])
def test_kappa_on_the_scaling_products(n, k, kappa):
    """(P^1)^16 and (P^2)^8, each cut by eight divisors (1,…,1), α and β on the
    two halves of the factors: the values an earlier contraction of the fundamental class
    gave."""
    ci = CompleteIntersection(AmbientSpace([n] * k), [(1,) * k] * 8)
    h = k // 2
    assert ci.kappa((1,) * h + (0,) * h, (0,) * h + (1,) * h) == kappa


@st.composite
def repeated_divisors(draw):
    """1–4 factors of dimension 1–3 and divisors drawn from a pool of at most two
    multidegrees, so that most draws repeat a divisor (m_g ≥ 2), and multidegrees a, b."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    multidegree = st.lists(st.integers(0, 2), min_size=len(dims), max_size=len(dims))
    pool = draw(st.lists(multidegree.map(tuple), min_size=1, max_size=2))
    r = draw(st.integers(min(2, sum(dims) - 1), sum(dims) - 1))
    divisors = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r))
    event(f"largest multiplicity {max(map(divisors.count, pool))}")
    return dims, divisors, draw(multidegree), draw(multidegree)


@_NO_SHRINK
@given(repeated_divisors())
def test_kappa_of_repeated_divisors_matches_finite_difference(case):
    """κ's pass groups equal divisors; the zero check agrees with the ring's class."""
    dims, divisors, a, b = case
    space = AmbientSpace(dims)
    zero = fundamental_class(SimpleNamespace(space=space, divisors=divisors)).is_zero()
    if zero:
        event("zero fundamental class")
        with pytest.raises(ValidationError, match="annihilate"):
            CompleteIntersection(space, divisors)
        return
    assert _kappa(dims, divisors, a, b) == finite_difference_kappa(dims, divisors, a, b)


@st.composite
def distinct_divisors(draw):
    """1–2 factors of dimension 2–4 cut by up to Σn_i − 1 distinct divisors, and
    multidegrees a, b with zero and wide entries: many draws have more x-states,
    ∏(m_g+1), than F has terms in one degree, so κ's pass starts from the fundamental
    class."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    multidegree = st.lists(st.integers(0, 3), min_size=len(dims), max_size=len(dims))
    r = draw(st.integers(max(1, sum(dims) - 3), sum(dims) - 1))
    divisors = draw(st.lists(multidegree.map(tuple), min_size=r, max_size=r, unique=True))
    wide = st.lists(_WIDE_ENTRY, min_size=len(dims), max_size=len(dims))
    return dims, divisors, draw(wide), draw(wide)


@_NO_SHRINK
@given(distinct_divisors())
def test_kappa_of_distinct_divisors_matches_finite_difference(case):
    """Either bound may be the smaller; κ and the zero check agree with the references."""
    dims, divisors, a, b = case
    space = AmbientSpace(dims)
    zero = fundamental_class(SimpleNamespace(space=space, divisors=divisors)).is_zero()
    if zero:
        event("zero fundamental class")
        with pytest.raises(ValidationError, match="annihilate"):
            CompleteIntersection(space, divisors)
        return
    ci = CompleteIntersection(space, divisors)
    event("fundamental class" if ci._fundamental is not None else "pass")
    assert ci.kappa(a, b) == finite_difference_kappa(dims, divisors, a, b)


@pytest.mark.parametrize("dims, divisors", [
    pytest.param([16], [(k,) for k in range(1, 16)], id="P16-degrees-1..15"),
    pytest.param([13, 1], [(k, 1) for k in range(1, 13)], id="P13xP1"),
    pytest.param([10, 10], [(1 + k % 5, 1 + k // 5) for k in range(12)], id="P10xP10"),
    pytest.param([1] * 12, [(1,) * 12] * 6, id="P1^12"),
])
def test_kappa_takes_the_smaller_state_bound(dims, divisors):
    """Every divisor distinct: a pass over the factors keeps one x field per divisor and up
    to 2^r states, and held 1.5, 0.4 and 1.2 MB of traced memory on the first three.  One
    divisor six times on (P^1)^12: the fundamental class has C(12, 6) terms, and building
    and contracting it held 0.16 MB.  Build plus κ, from F on the first three and from
    x-powers on the last, stay under 50 kB on all four."""
    space, a, b = AmbientSpace(dims), (1,) + (0,) * (len(dims) - 1), (1,) * len(dims)
    tracemalloc.start()
    try:
        kappa = CompleteIntersection(space, divisors).kappa(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kappa == finite_difference_kappa(dims, divisors, a, b)
    assert peak < 50_000


def test_kappa_pass_keeps_no_state_past_dim():
    """(P^1)^12 cut by six distinct divisors, each (1,…,1) with one zero, and five
    (1,…,1): 2^6·6 x-states against F's 924 terms of degree 6, so the pass runs.  With
    y + z ≤ dim unchecked, states whose x lag behind the slots taken survive to the end;
    that held 130 kB here, against 54 kB."""
    k = 12
    divisors = [tuple([int(i != g) for i in range(k)]) for g in range(6)] + [(1,) * k] * 5
    a, b = (1,) * 6 + (0,) * 6, (1,) * k
    tracemalloc.start()
    try:
        kappa = CompleteIntersection(AmbientSpace([1] * k), divisors).kappa(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kappa == finite_difference_kappa([1] * k, divisors, a, b)
    assert peak < 90_000


_ONE_ZERO_EACH = [tuple([int(i != g) for i in range(12)]) for g in range(6)] + [(1,) * 12] * 5


@pytest.mark.parametrize("dims, divisors, a, b, build, kappa", [
    pytest.param([1] * 12, _ONE_ZERO_EACH, (1,) * 6 + (0,) * 6, (1,) * 12, (766, 14), (1149, 32),
                 id="P1^12-x-powers"),
    pytest.param([13, 1], [(k, 1) for k in range(1, 13)], (1, 1), (2, 1), (23, 0), (0, 8),
                 id="P13xP1-from-F"),
])
def test_kappa_work_is_pinned(monkeypatch, dims, divisors, a, b, build, kappa):
    """The states fed to ``_times_linear`` and the binomials taken, by the constructor and by
    κ: the x-powers side on the document above (its constructor runs the zero check's
    pass), and F's side on P^13 × P^1.  Waste that the readout drops shows here: on the
    first, taking weights for s = dim + 1, where every key passes w ≤ dim, read (1149, 33)
    for κ, and keeping states up to w = 2·dim read (1901, 32)."""
    counts = [0, 0]
    times_linear, choose = variety._times_linear, variety.comb

    def counted_times_linear(poly, terms):
        counts[0] += len(poly)
        return times_linear(poly, terms)

    def counted_comb(n, k):
        counts[1] += 1
        return choose(n, k)

    monkeypatch.setattr(variety, "_times_linear", counted_times_linear)
    monkeypatch.setattr(variety, "comb", counted_comb)
    ci = CompleteIntersection(AmbientSpace(dims), divisors)
    assert (tuple(counts), ci._fundamental is not None) == (build, dims == [13, 1])
    counts[:] = [0, 0]
    assert ci.kappa(a, b) == finite_difference_kappa(dims, divisors, a, b)
    assert tuple(counts) == kappa


def test_finite_difference_on_the_quintic():
    assert finite_difference_kappa([4, 1], [(1, 1), (4, 1)], (0, 1), (1, 0)) == (5, 4, 0, 0)


@_FEWER_NO_SHRINK
@given(products(), st.randoms(use_true_random=False))
def test_kappa_invariant_under_factor_permutation(case, rng):
    ci, a, b = case
    order = list(range(len(ci.space)))
    rng.shuffle(order)
    moved = [[d[i] for i in order] for d in (ci.space, a, b, *ci.divisors)]
    assert _kappa(moved[0], moved[3:], moved[1], moved[2]) == ci.kappa(a, b)


@_FEWER_NO_SHRINK
@given(products(), st.randoms(use_true_random=False))
def test_kappa_invariant_under_divisor_order(case, rng):
    ci, a, b = case
    divisors = list(ci.divisors)
    rng.shuffle(divisors)
    assert _kappa(ci.space, divisors, a, b) == ci.kappa(a, b)


@_FEWER_NO_SHRINK
@given(products(), st.integers(1, 2))
def test_kappa_unchanged_by_a_point_factor(case, m):
    """X × point: a factor P^m cut by m hyperplanes of it, where a and b vanish."""
    ci, a, b = case
    k = len(ci.space)
    divisors = [(*d, 0) for d in ci.divisors] + [(0,) * k + (1,)] * m
    assert _kappa((*ci.space, m), divisors, (*a, 0), (*b, 0)) == ci.kappa(a, b)


@_FEWER_NO_SHRINK
@given(products())
def test_kappa_in_the_basis_h1_plus_h2(case):
    """The DP on the multidegree a + b against the Horner substitution u = h1 + h2, v = h2."""
    ci, a, b = case
    summed = [x + y for x, y in zip(a, b)]
    stand_in = SimpleNamespace(ci=ci, kappa=ci.kappa(a, b))  # all kappa_in_basis reads
    assert list(ci.kappa(summed, b)) == kappa_in_basis(stand_in, (1, 1), (0, 1))


def test_kappa_in_the_basis_h1_plus_h2_on_the_quintic():
    sc = document_to_scenario(pn_document(4))
    assert sc.ci.kappa((1, 1), (1, 0)) == (5, 9, 13, 17)
    assert kappa_in_basis(sc, (1, 1), (0, 1)) == [5, 9, 13, 17]


@_FEWER_NO_SHRINK
@given(products())
def test_kappa_reversed_by_swapping_h1_and_h2(case):
    ci, a, b = case
    assert ci.kappa(b, a) == ci.kappa(a, b)[::-1]
