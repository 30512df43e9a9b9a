import random
from fractions import Fraction
from itertools import product

import pytest

from balcone.cones import (
    Cone2D,
    Pairing,
    Ray,
    cone_new,
    det2,
    dual_cone,
    is_subcone,
    ray_normalize,
)
from balcone.errors import DegeneratePairingError, ValidationError

from _helpers import nonneg_combination, random_cone, random_pairing

QUADRANT = cone_new((1, 0), (0, 1))
BALANCED = cone_new((1, 0), (-1, 4))
QUINTIC_PAIRING = Pairing(((0, 4), (4, 5)))


class TestRay:
    def test_gcd_reduction(self):
        assert ray_normalize((2, 4)) == Ray(1, 2)

    def test_clears_denominators(self):
        assert ray_normalize((Fraction(-1, 4), 1)) == Ray(-1, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError, match="zero vector"):
            ray_normalize((0, 0))

    def test_direction_preserved(self):
        assert ray_normalize((-6, -9)) == Ray(-2, -3)

    def test_non_primitive_constructor_rejected(self):
        with pytest.raises(ValidationError, match="primitive"):
            Ray(2, 4)


class TestConeNew:
    def test_quadrant(self):
        c = cone_new((1, 0), (0, 1))
        assert c.generators() == (Ray(1, 0), Ray(0, 1))

    def test_orientation_fixed(self):
        assert cone_new((0, 1), (1, 0)) == QUADRANT

    def test_antipodal_rejected(self):
        with pytest.raises(ValidationError, match="parallel or antipodal"):
            cone_new((1, 0), (-1, 0))

    def test_parallel_rejected(self):
        with pytest.raises(ValidationError):
            cone_new((1, 2), (2, 4))


class TestDualCone:
    def test_quintic_effective_dual(self):
        effective = cone_new((1, 0), (-1, 1))
        assert dual_cone(effective, QUINTIC_PAIRING) == BALANCED

    def test_identity_self_dual_quadrant(self):
        identity = Pairing(((1, 0), (0, 1)))
        assert dual_cone(QUADRANT, identity) == QUADRANT

    def test_derived_example(self):
        p = Pairing(((2, 1), (1, 2)))
        assert dual_cone(QUADRANT, p) == cone_new((2, -1), (-1, 2))

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


class TestBarycentric:
    CONES = [QUADRANT, BALANCED, cone_new((2, -1), (-1, 1)), cone_new((3, 5), (-2, -1))]
    INPUTS = [Ray(-1, 8), (3, -7), (Fraction(-1, 4), Fraction(5, 3)), (0, 0)]

    @pytest.mark.parametrize("cone", CONES, ids=repr)
    @pytest.mark.parametrize("v", INPUTS, ids=repr)
    def test_exact_and_rebuilds_input(self, cone, v):
        s, t = cone.barycentric(v)
        assert type(s) is Fraction and type(t) is Fraction
        x, y = v.coords if isinstance(v, Ray) else v
        assert (s * cone.r1.x + t * cone.r2.x, s * cone.r1.y + t * cone.r2.y) == (x, y)

    @pytest.mark.parametrize("cone", CONES, ids=repr)
    def test_signs_decide_membership(self, cone):
        for v in product(range(-4, 5), repeat=2):
            s, t = cone.barycentric(v)
            assert cone.contains(v) == (s >= 0 and t >= 0)
            assert cone.contains(v, "open") == (s > 0 and t > 0)


class TestIsSubcone:
    def test_strict_inclusion(self):
        assert is_subcone(QUADRANT, BALANCED)
        assert not is_subcone(BALANCED, QUADRANT)

    def test_self_inclusion_not_strict(self):
        assert is_subcone(QUADRANT, QUADRANT)
        assert all(QUADRANT.contains(g) for g in QUADRANT.generators())

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
            assert det2(dual.r1.coords, dual.r2.coords) > 0

            # involution under the transposed pairing
            assert dual_cone(dual, Pairing(tuple(zip(*pairing.entries)))) == cone

            # each generator of the input is annihilated by some dual ray
            for r in cone.generators():
                assert any(pairing.pair(r, s) == 0 for s in dual.generators())

            # exact positivity on random members
            for _ in range(5):
                x = nonneg_combination(rng, cone)
                y = nonneg_combination(rng, dual)
                assert pairing.pair(x, y) >= 0
