import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from balcone.cones import (
    Cone2D,
    Pairing,
    Ray,
    _dual_edges,
    det2,
    dual_cone,
    is_subcone,
    ray_normalize,
)
from balcone.errors import DegeneratePairingError, ValidationError
from balcone.ring import AmbientSpace
from balcone.variety import CompleteIntersection

from _helpers import nonneg_combination, random_cone, random_pairing

QUADRANT = Cone2D((1, 0), (0, 1))
BALANCED = Cone2D((1, 0), (-1, 4))
QUINTIC_PAIRING = Pairing(((0, 4), (4, 5)))


class TestRay:
    def test_gcd_reduction(self):
        assert ray_normalize((2, 4)) == Ray(1, 2)

    def test_clears_denominators(self):
        assert ray_normalize((Fraction(-1, 4), 1)) == Ray(-1, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError, match="zero vector"):
            ray_normalize((0, 0))
        with pytest.raises(ValidationError, match="zero vector"):
            Ray(0, 0)

    def test_direction_preserved(self):
        assert ray_normalize((-6, -9)) == Ray(-2, -3)

    @pytest.mark.parametrize("pair, ray", [
        ((6, -4), (3, -2)), ((0, -5), (0, -1)), ((-7, 0), (-1, 0)), ((-6, -9), (-2, -3)),
        ((1, 1), (1, 1)), ((3 * 10**30, -2 * 10**30), (3, -2)),
        ((10**30 + 1, -10**30), (10**30 + 1, -10**30)),
    ])
    def test_int_pairs_match_the_fraction_path(self, pair, ray):
        assert ray_normalize(pair) == ray_normalize(tuple(map(Fraction, pair))) == Ray(*ray)

    def test_non_primitive_constructor_rejected(self):
        with pytest.raises(ValidationError, match="primitive"):
            Ray(2, 4)

    @pytest.mark.parametrize("pair", [(True, 0), (1, False), (1.0, 0), (Fraction(1), 0)])
    def test_non_integer_entries_rejected(self, pair):
        # bool is an int subclass: a JSON `true` must not pass as the entry 1
        with pytest.raises(ValidationError, match="ray entries must be integers"):
            Ray(*pair)


class TestValueSemantics:
    """Rays, cones, pairings and complete intersections are the tuples they validate."""

    @pytest.mark.parametrize(
        "value, pair, text",
        [
            (Ray(-1, 8), (-1, 8), "Ray(x=-1, y=8)"),
            (BALANCED, ((1, 0), (-1, 4)), "Cone2D((1, 0), (-1, 4))"),
            (QUINTIC_PAIRING, ((0, 4), (4, 5)), "Pairing(((0, 4), (4, 5)))"),
            (Pairing(((Fraction(-1, 4), 1), (1, 0))), ((Fraction(-1, 4), 1), (1, 0)),
             "Pairing(((-1/4, 1), (1, 0)))"),
            (CompleteIntersection(AmbientSpace([4, 1]), [[1, 1], [4, 1]]),
             ((4, 1), ((1, 1), (4, 1))),
             "CompleteIntersection(space=AmbientSpace([4, 1]), divisors=((1, 1), (4, 1)))"),
        ],
        ids=["Ray", "Cone2D", "Pairing", "Pairing-fraction", "CompleteIntersection"],
    )
    def test_is_its_tuple(self, value, pair, text):
        assert value == pair and hash(value) == hash(pair)
        first, second = value
        assert (first, second) == pair
        assert repr(value) == text
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)

    def test_replace_revalidates(self):
        with pytest.raises(ValidationError, match="primitive"):
            Ray(1, 0)._replace(x=2)
        with pytest.raises(ValidationError, match="parallel or antipodal"):
            QUADRANT._replace(r2=Ray(1, 0))
        assert QUADRANT._replace(r2=(-2, 8)) == BALANCED


class TestConeNew:
    def test_quadrant(self):
        c = Cone2D((1, 0), (0, 1))
        assert tuple(c) == (Ray(1, 0), Ray(0, 1))

    @pytest.mark.parametrize(
        "a, b", [((2, 0), (0, 3)), ((0, Fraction(2, 5)), (Fraction(7, 3), 0))], ids=repr
    )
    def test_vectors_normalized(self, a, b):
        cone = Cone2D(a, b)
        assert cone == (Ray(1, 0), Ray(0, 1))
        assert all(type(r) is Ray for r in cone)

    def test_orientation_fixed(self):
        assert Cone2D((0, 1), (1, 0)) == QUADRANT

    def test_antipodal_rejected(self):
        with pytest.raises(ValidationError, match="parallel or antipodal"):
            Cone2D((1, 0), (-1, 0))

    def test_parallel_rejected(self):
        with pytest.raises(ValidationError):
            Cone2D((1, 2), (2, 4))


class TestDualCone:
    def test_quintic_effective_dual(self):
        effective = Cone2D((1, 0), (-1, 1))
        assert dual_cone(effective, QUINTIC_PAIRING) == BALANCED

    def test_identity_self_dual_quadrant(self):
        identity = Pairing(((1, 0), (0, 1)))
        assert dual_cone(QUADRANT, identity) == QUADRANT

    def test_derived_example(self):
        p = Pairing(((2, 1), (1, 2)))
        assert dual_cone(QUADRANT, p) == Cone2D((2, -1), (-1, 2))

    def test_derived_example_against_grid_sampling(self):
        # Dense cross-check: membership in the computed dual must agree
        # with the sign conditions that define it, over a rational grid.
        p = Pairing(((2, 1), (1, 2)))
        dual = dual_cone(QUADRANT, p)
        half = Fraction(1, 2)
        grid = [Fraction(n) * half for n in range(-6, 7)]
        for x in grid:
            for y in grid:
                if x == 0 and y == 0:
                    continue
                by_signs = (
                    p.pair((1, 0), (x, y)) >= 0 and p.pair((0, 1), (x, y)) >= 0
                )
                assert dual.contains((x, y)) == by_signs

    def test_degenerate_pairing_rejected(self):
        with pytest.raises(DegeneratePairingError):
            Pairing(((1, 2), (2, 4)))

    @pytest.mark.parametrize("rows", [((1, 2, 3), (4, 5, 6)), ((1, 0),), ((1, 0), (0, 1), (1, 1))])
    def test_non_square_pairing_rejected(self, rows):
        with pytest.raises(ValidationError, match="2x2"):
            Pairing(rows)


class TestContains:
    def test_interior(self):
        assert QUADRANT.contains((1, 1), "open")

    def test_boundary(self):
        assert QUADRANT.contains((1, 0))
        assert not QUADRANT.contains((1, 0), "open")

    def test_balanced_boundary_ray(self):
        assert BALANCED.contains((-1, 4))
        assert not BALANCED.contains((-1, 4), "open")

    def test_rational_vectors(self):
        assert BALANCED.contains((Fraction(-1, 8), 1), "open")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            QUADRANT.contains((1, 1), "fuzzy")

    def test_float_entries_read_exactly(self):
        # 0.1 * 3 rounds to 0.30000000000000004, but the binary value of 0.1
        # times 3 lies below it, so the vector is just outside the cone.
        cone, v = Cone2D((1, 0), (1, 3)), (0.1, 0.30000000000000004)
        assert not cone.contains(v)
        exact = tuple(map(Fraction, v))
        assert cone.barycentric(v) == cone.barycentric(exact)
        assert cone.barycentric(v)[0] < 0


class TestDet2:
    def test_exact_in_the_input_type(self):
        assert type(det2((1, 2), (3, 4))) is int and det2((1, 2), (3, 4)) == -2
        assert det2((Fraction(1, 2), 1), (1, 1)) == Fraction(-1, 2)

    def test_past_float_precision(self):
        # the products agree in their first 30 digits; a float reads 0
        big = 10**30
        assert det2((big + 1, big), (big, big - 1)) == -1


class TestBarycentric:
    CONES = [QUADRANT, BALANCED, Cone2D((2, -1), (-1, 1)), Cone2D((3, 5), (-2, -1))]
    INPUTS = [Ray(-1, 8), (3, -7), (Fraction(-1, 4), Fraction(5, 3)), (0, 0)]

    @pytest.mark.parametrize("cone", CONES, ids=repr)
    @pytest.mark.parametrize("v", INPUTS, ids=repr)
    def test_exact_and_rebuilds_input(self, cone, v):
        s, t = cone.barycentric(v)
        assert type(s) is Fraction and type(t) is Fraction
        x, y = v
        assert (s * cone.r1.x + t * cone.r2.x, s * cone.r1.y + t * cone.r2.y) == (x, y)

    @pytest.mark.parametrize("cone", CONES, ids=repr)
    def test_signs_decide_membership(self, cone):
        for v in product(range(-4, 5), repeat=2):
            s, t = cone.barycentric(v)
            assert cone.contains(v) == (s >= 0 and t >= 0)
            assert cone.contains(v, "open") == (s > 0 and t > 0)


# Ray entries near 10**30 make products that agree past a float's 53 bits.
_ENTRY = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda sign, d: sign * (10**30 + d), st.sampled_from((1, -1)), st.integers(-3, 3)),
)
_VECTOR_ENTRY = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))


@st.composite
def cones_and_vectors(draw):
    """A cone and a vector: a free vector, or a combination of the rays with
    a zero, positive or negative coefficient, so boundaries are drawn too."""
    a, b = draw(st.tuples(_ENTRY, _ENTRY)), draw(st.tuples(_ENTRY, _ENTRY))
    assume(det2(a, b) != 0)
    cone = Cone2D(a, b)
    if draw(st.booleans()):
        return cone, draw(st.tuples(_VECTOR_ENTRY, _VECTOR_ENTRY))
    s, t = draw(_VECTOR_ENTRY), draw(_VECTOR_ENTRY)
    return cone, (s * cone.r1.x + t * cone.r2.x, s * cone.r1.y + t * cone.r2.y)


@given(cones_and_vectors())
def test_membership_is_the_sign_rule_on_barycentric(case):
    cone, v = case
    s, t = cone.barycentric(v)
    assert (s * cone.r1.x + t * cone.r2.x, s * cone.r1.y + t * cone.r2.y) == v
    assert cone.contains(v) == (s >= 0 and t >= 0)
    assert cone.contains(v, "open") == (s > 0 and t > 0)


@given(st.tuples(_ENTRY, _ENTRY), st.tuples(_ENTRY, _ENTRY),
       st.tuples(*[_VECTOR_ENTRY] * 4))
def test_dual_edges_annihilate_one_ray_and_share_one_positive_value(a, b, m):
    assume(det2(a, b) != 0 and det2(m[:2], m[2:]) != 0)
    cone, pairing = Cone2D(a, b), Pairing((m[:2], m[2:]))
    e1, e2 = _dual_edges(cone, pairing)
    delta = abs(det2(*(pairing.functional(r) for r in cone)))
    assert delta > 0
    assert pairing.pair(cone.r1, e1) == pairing.pair(cone.r2, e2) == 0
    assert pairing.pair(cone.r2, e1) == pairing.pair(cone.r1, e2) == delta
    assert dual_cone(cone, pairing) == Cone2D(e1, e2)


class TestIsSubcone:
    def test_strict_inclusion(self):
        assert is_subcone(QUADRANT, BALANCED)
        assert not is_subcone(BALANCED, QUADRANT)

    def test_self_inclusion_not_strict(self):
        assert is_subcone(QUADRANT, QUADRANT)
        assert all(QUADRANT.contains(g) for g in QUADRANT)

    def test_reverse_fails(self):
        assert not is_subcone(BALANCED, QUADRANT)


class TestConeProperties:
    def test_involution_positivity_annihilation(self):
        rng = random.Random(13)
        for _ in range(300):
            cone = random_cone(rng)
            pairing = random_pairing(rng)
            dual = dual_cone(cone, pairing)

            # canonical form
            assert det2(dual.r1, dual.r2) > 0

            # involution under the transposed pairing
            assert dual_cone(dual, Pairing(tuple(zip(*pairing)))) == cone

            # each generator of the input is annihilated by some dual ray
            for r in cone:
                assert any(pairing.pair(r, s) == 0 for s in dual)

            # exact positivity on random members
            for _ in range(5):
                x = nonneg_combination(rng, cone)
                y = nonneg_combination(rng, dual)
                assert pairing.pair(x, y) >= 0
