"""The κ path of the pipeline against the ring path, on random scenarios.

The image closure, the bound functional and the demo's intersection numbers
read κ_j = ∫ h1^j h2^(dim−j); here each is compared with the same quantity
computed term by term in the cohomology ring.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, event, given, strategies as st

from balcone.cones import cone_new, det2
from balcone.errors import ComputationError, ValidationError
from balcone.pipeline import Scenario, balanced_image_closure, divisor_bound_functional
from balcone.ring import AmbientSpace, CohomClass, divisor_class, linear_combination
from balcone.variety import CompleteIntersection

from _helpers import reference_image_closure

_PAIR = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def scenarios(draw):
    """1–3 factors of dimension ≤ 3, random divisors and h11 classes, skew Kähler cone."""
    dims = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda d: sum(d) >= 2)
    )
    space = AmbientSpace(dims)
    multidegree = st.lists(st.integers(0, 2), min_size=len(dims), max_size=len(dims))
    r = draw(st.integers(0, sum(dims) - 2))
    divisors = draw(st.lists(multidegree, min_size=r, max_size=r))
    try:
        ci = CompleteIntersection(space, divisors)
    except ValidationError:
        assume(False)
    h11 = tuple(divisor_class(space, draw(multidegree.filter(any))) for _ in range(2))
    # Codim classes are ambient monomials of degree dim-1, so they need not
    # lie in the subring of h1 and h2; keep pairs with a non-degenerate pairing.
    monomials = [
        CohomClass(space, {e: 1})
        for e in product(*(range(d + 1) for d in dims))
        if sum(e) == ci.dim - 1
    ]
    w = [tuple(ci.intersection_number([h, m]) for h in h11) for m in monomials]
    pairs = [(a, b) for a in range(len(w)) for b in range(a) if det2(w[a], w[b]) != 0]
    assume(pairs)
    codim = tuple(monomials[i] for i in draw(st.sampled_from(pairs)))
    r1 = draw(_PAIR.filter(any))
    r2 = draw(_PAIR)
    if det2(r1, r2) == 0:
        r2 = (-r1[1], r1[0])
    kahler = cone_new(r1, r2)
    return Scenario(ci, ("h1", "h2"), h11, ("c1", "c2"), codim, kahler, kahler)


def _image_outcome(image_closure, sc):
    """The closure, or the class of the error raised on a degenerate draw."""
    try:
        return image_closure(sc)
    except ComputationError as e:
        event("degenerate")
        return type(e)


@given(
    scenarios(),
    _PAIR,
    st.tuples(*[st.fractions(Fraction(1, 4), 4, max_denominator=6)] * 2),
)
def test_kappa_path_matches_ring_path(sc, prime, ample):
    h1, h2 = sc.h11_classes
    dim = sc.ci.dim
    assert sc.kappa == tuple(
        sc.ci.intersection_number([h1] * j + [h2] * (dim - j)) for j in range(dim + 1)
    )
    assert _image_outcome(balanced_image_closure, sc) == \
        _image_outcome(reference_image_closure, sc)
    p = linear_combination(zip(prime, sc.h11_classes))
    a_power = linear_combination(zip(ample, sc.h11_classes)) ** (dim - 2)
    assert divisor_bound_functional(sc, prime, ample) == tuple(
        sc.ci.intersection_number([h, p, a_power]) for h in sc.h11_classes
    )


def test_kappa_rejects_classes_of_other_degree():
    space = AmbientSpace([4, 1])
    ci = CompleteIntersection(space, [(1, 1), (4, 1)])
    alpha, beta = divisor_class(space, (0, 1)), divisor_class(space, (1, 0))
    assert ci.kappa(alpha, beta) == (5, 4, 0, 0)
    with pytest.raises(ValidationError, match="degree-1"):
        ci.kappa(alpha, beta * beta)
