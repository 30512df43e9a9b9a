"""The library's AmbientSpace and check_multidegree, and the tests' sparse
rational ring (``_ring_oracle``) against the ring axioms and a dense product."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from balcone.errors import ValidationError
from balcone.ring import AmbientSpace, check_multidegree

from _helpers import dense_mul, random_class, random_fraction, random_space
from _ring_oracle import (
    RingClass,
    divisor_class,
    generator,
    integrate,
    linear_combination,
    one,
)


@pytest.fixture
def p41():
    return AmbientSpace([4, 1])


def beta(space):
    return generator(space, 0)


def alpha(space):
    return generator(space, 1)


class TestAmbientSpace:
    def test_total_dim(self):
        assert sum(AmbientSpace([4, 1])) == 5
        assert sum(AmbientSpace([2])) == 2

    def test_zero_dimensional_factor_rejected(self):
        with pytest.raises(ValidationError, match="factor 1"):
            AmbientSpace([4, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            AmbientSpace([])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="factor 0"):
            AmbientSpace([-2, 1])

    def test_value_equality(self):
        assert AmbientSpace([4, 1]) == AmbientSpace([4, 1])
        assert AmbientSpace([4, 1]) != AmbientSpace([1, 4])

    def test_is_its_tuple(self, p41):
        assert p41 == (4, 1) and hash(p41) == hash((4, 1))
        n, m = p41
        assert (n, m, len(p41)) == (4, 1, 2)
        assert repr(p41) == "AmbientSpace([4, 1])"
        for twin in (pickle.loads(pickle.dumps(p41)), copy.deepcopy(p41)):
            assert twin == p41 and type(twin) is AmbientSpace


class TestDivisorClass:
    def test_bidegree_1_1(self, p41):
        assert divisor_class(p41, (1, 1)) == alpha(p41) + beta(p41)

    def test_bidegree_4_1(self, p41):
        assert divisor_class(p41, (4, 1)) == alpha(p41) + 4 * beta(p41)

    def test_zero_multidegree(self, p41):
        assert divisor_class(p41, (0, 0)).is_zero()

    def test_length_mismatch(self, p41):
        with pytest.raises(ValidationError, match="length"):
            check_multidegree(p41, (1,))

    def test_negative_entry(self, p41):
        with pytest.raises(ValidationError, match="entry 1"):
            check_multidegree(p41, (1, -1))


class TestLinearCombination:
    def test_difference(self, p41):
        got = linear_combination([(1, beta(p41)), (-1, alpha(p41))])
        assert got == beta(p41) - alpha(p41)

    def test_cancellation(self, p41):
        p = divisor_class(p41, (2, 3))
        assert linear_combination([(1, p), (-1, p)]).is_zero()

    def test_annihilation(self, p41):
        p = divisor_class(p41, (2, 3))
        assert linear_combination([(0, p)]).is_zero()


class TestMul:
    def test_defining_product(self, p41):
        a, b = alpha(p41), beta(p41)
        got = (a + b) * (a + 4 * b)
        assert got == 5 * (a * b) + 4 * (b * b)

    def test_truncation(self, p41):
        b = beta(p41)
        assert ((b ** 4) * b).is_zero()

    def test_unit(self, p41):
        p = divisor_class(p41, (3, 1)) * divisor_class(p41, (1, 1))
        assert one(p41) * p == p

    def test_constructor_drops_truncated_monomials(self, p41):
        assert RingClass(p41, {(5, 0): 1}).is_zero()


class TestIntegrate:
    def test_top_monomial(self, p41):
        assert integrate(alpha(p41) * beta(p41) ** 4) == 1

    def test_full_product(self, p41):
        a, b = alpha(p41), beta(p41)
        cls = (a + b) * (a + 4 * b) * a * b * b
        assert integrate(cls) == 4

    def test_non_top_degree(self, p41):
        assert integrate(beta(p41) ** 2) == 0


class TestRingProperties:
    def test_axioms(self):
        rng = random.Random(20260810)
        for _ in range(300):
            space = random_space(rng)
            p = random_class(rng, space)
            q = random_class(rng, space)
            r = random_class(rng, space)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            for cls in (p * q, p + q, p - q):
                assert all(
                    e <= n for exp in cls.terms() for e, n in zip(exp, space)
                )

    def test_integrate_linear(self):
        rng = random.Random(4)
        for _ in range(200):
            space = random_space(rng)
            p = random_class(rng, space)
            q = random_class(rng, space)
            a = random_fraction(rng)
            b = random_fraction(rng)
            combo = linear_combination([(a, p), (b, q)])
            assert integrate(combo) == a * integrate(p) + b * integrate(q)

    def test_sparse_mul_matches_dense_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            space = random_space(rng, max_total=6)
            p = random_class(rng, space)
            q = random_class(rng, space)
            assert (p * q).terms() == dense_mul(space, p, q)

    def test_degree(self, p41):
        assert RingClass(p41, {}).degree() is None
        assert one(p41).degree() == 0
        assert divisor_class(p41, (2, 1)).degree() == 1
        with pytest.raises(ValidationError, match="homogeneous"):
            (one(p41) + alpha(p41)).degree()

    def test_scalar_fraction(self, p41):
        b = beta(p41)
        assert Fraction(1, 4) * b == b * Fraction(1, 4)
        assert (Fraction(1, 4) * b).terms() == {(1, 0): Fraction(1, 4)}
