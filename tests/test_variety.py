import random
from fractions import Fraction

import pytest

from balcone.cones import Cone2D
from balcone.errors import DegreeMismatchError, ScenarioError, ValidationError
from balcone.pipeline import Scenario
from balcone.ring import AmbientSpace, check_multidegree
from balcone.scenario_io import quintic_conifold_scenario
from balcone.variety import CompleteIntersection

from _helpers import finite_difference_kappa, random_fraction
from _ring_oracle import (
    RingClass,
    divisor_class,
    fundamental_class,
    generator,
    intersection_number,
    linear_combination,
    one,
)


@pytest.fixture
def quintic_ci():
    return CompleteIntersection(AmbientSpace([4, 1]), [(1, 1), (4, 1)])


def basis(ci):
    # factor 0 carries beta (the P^4 hyperplane), factor 1 carries alpha
    return generator(ci.space, 1), generator(ci.space, 0)


class TestConstruction:
    def test_dimension(self, quintic_ci):
        assert quintic_ci.dim == 3

    def test_ambient_as_intersection(self):
        ci = CompleteIntersection(AmbientSpace([2]), [])
        assert ci.dim == 2
        assert fundamental_class(ci) == one(ci.space)

    @pytest.mark.parametrize("divisors", [[(2, 1)], [(0, 1), (1, 1), (1, 0), (2, 0)]],
                             ids=["x-powers", "fundamental"])
    def test_replace_revalidates(self, quintic_ci, divisors):
        """``_replace`` builds a new intersection: its checks, and a pass plan of its own
        from either side, whose κ the finite difference confirms."""
        with pytest.raises(ValidationError, match="length"):
            quintic_ci._replace(divisors=[(1, 1, 0)])
        with pytest.raises(ValidationError, match="annihilate"):
            quintic_ci._replace(divisors=[(0, 1), (0, 1)])
        twin = quintic_ci._replace(divisors=divisors)
        assert twin == (quintic_ci.space, tuple(divisors)) and twin.dim == 5 - len(divisors)
        assert (twin._fundamental is None) is (len(divisors) == 1)
        for a, b in [((0, 1), (1, 0)), ((2, 3), (1, 1))]:
            assert twin.kappa(a, b) == finite_difference_kappa(twin.space, divisors, a, b)

    def test_refused_divisor_named_by_its_path(self):
        """A bad divisor is named by its document path; a ``ScenarioError`` is still the
        ``ValidationError`` the intersection raised before."""
        with pytest.raises(ScenarioError) as info:
            CompleteIntersection((4, 1), [(1, 1), (4, -1)])
        assert info.value.path == "/divisors/1"
        assert str(info.value) == ("at /divisors/1: multidegree entry 1: "
                                   "expected a non-negative integer, got -1")

    @pytest.mark.parametrize("build, message", [
        (lambda ci: AmbientSpace(5), "expected a list of integers"),
        (lambda ci: AmbientSpace(["x"]), "expected a list of integers"),
        (lambda ci: check_multidegree(ci.space, 5), "expected a list of integers"),
        (lambda ci: CompleteIntersection(ci.space, 5), "expected a list of multidegrees"),
        (lambda ci: CompleteIntersection(ci.space, [5]), "expected a list of integers"),
        (lambda ci: ci.kappa(5, (1, 0)), "expected a list of integers"),
        (lambda ci: CompleteIntersection([0, 2], [(0, 1)]), "must be a positive integer"),
        (lambda ci: CompleteIntersection([True, 3], [(0, 1)]), "expected a list of integers"),
    ], ids=["space-int", "space-str-entry", "multidegree-int", "divisors-int",
            "divisor-int", "kappa-int", "space-zero", "space-bool"])
    def test_records_refuse_what_is_not_a_list_of_integers(self, quintic_ci, build, message):
        """The records check the integers they hold, each with the one integer-list rule of
        ``ring``: only a ``ValidationError`` escapes."""
        with pytest.raises(ValidationError, match=message):
            build(quintic_ci)

    def test_space_built_as_an_ambient_space(self):
        """A list of factor dimensions is kept as the ``AmbientSpace`` it validates, so the
        intersection equals and hashes as the scenario's."""
        ci, sc = CompleteIntersection([4, 1], [(1, 1), (4, 1)]), quintic_conifold_scenario()
        assert type(ci.space) is AmbientSpace
        assert ci == sc.ci and hash(ci) == hash(sc.ci)

    def test_ambient_space_kept_as_given(self):
        """An ``AmbientSpace`` is already validated: the intersection keeps that object."""
        space = AmbientSpace([4, 1])
        assert CompleteIntersection(space, [(1, 1), (4, 1)]).space is space
        sc = quintic_conifold_scenario()  # one AmbientSpace per parse
        assert sc.ci.space is sc.space

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValidationError, match="dimension"):
            CompleteIntersection(AmbientSpace([4, 1]), [(1, 0)] * 5)

    def test_zero_fundamental_class_rejected(self):
        # two divisors pulled back from the P^1 factor multiply to zero
        with pytest.raises(ValidationError, match="annihilate"):
            CompleteIntersection(AmbientSpace([4, 1]), [(0, 1), (0, 1)])

    @pytest.mark.parametrize("dims, divisors", [
        pytest.param([1, 1, 2], [(1, 1, 0)] * 2 + [(1, 0, 0)], id="(h1+h2)^2·h1"),
        pytest.param([2, 2], [(1, 0)] * 3, id="h1^3"),
    ])
    def test_zero_class_of_a_repeated_divisor_rejected(self, dims, divisors):
        """Zero only through the multiplicity: (h1+h2)^2 = 2h1h2 and h1^2 are not zero."""
        space = AmbientSpace(dims)
        fewer = CompleteIntersection(space, divisors[:-1])
        assert fundamental_class(fewer) != RingClass(space, {})
        with pytest.raises(ValidationError, match="annihilate"):
            CompleteIntersection(space, divisors)

    def test_zero_class_of_distinct_divisors_rejected(self):
        """Four distinct divisors on P^4 × P^1: more x-states (16) than F has terms in
        one degree (2), so F itself is built, and (0,1)·(0,2) = 2h2^2 is zero."""
        with pytest.raises(ValidationError, match="annihilate"):
            CompleteIntersection(AmbientSpace([4, 1]), [(0, 1), (0, 2), (1, 0), (2, 0)])
        ci = CompleteIntersection(AmbientSpace([4, 1]), [(0, 1), (1, 1), (1, 0), (2, 0)])
        assert ci.kappa((1, 0), (0, 1)) == (0, 2)

    def test_repeated_divisor_with_a_third_factor_accepted(self):
        ci = CompleteIntersection(AmbientSpace([1, 1, 2]), [(1, 1, 0)] * 2 + [(0, 0, 1)])
        h = [generator(ci.space, i) for i in range(3)]
        assert fundamental_class(ci) == 2 * (h[0] * h[1] * h[2])


class TestFundamentalClass:
    def test_quintic(self, quintic_ci):
        alpha, beta = basis(quintic_ci)
        assert fundamental_class(quintic_ci) == 5 * (alpha * beta) + 4 * (beta * beta)

    def test_quadric_in_p3(self):
        ci = CompleteIntersection(AmbientSpace([3]), [(2,)])
        assert fundamental_class(ci) == 2 * generator(ci.space, 0)


class TestIntersectionNumber:
    def test_alpha_beta_beta(self, quintic_ci):
        alpha, beta = basis(quintic_ci)
        assert intersection_number(quintic_ci, [alpha, beta, beta]) == 4

    def test_beta_beta_beta(self, quintic_ci):
        _, beta = basis(quintic_ci)
        assert intersection_number(quintic_ci, [beta, beta, beta]) == 5

    def test_alpha_alpha_beta(self, quintic_ci):
        alpha, beta = basis(quintic_ci)
        assert intersection_number(quintic_ci, [alpha, alpha, beta]) == 0

    def test_degree_mismatch(self, quintic_ci):
        alpha, beta = basis(quintic_ci)
        with pytest.raises(DegreeMismatchError) as info:
            intersection_number(quintic_ci, [alpha, beta])
        assert info.value.expected == 3
        assert info.value.actual == 2

    def test_zero_factor_short_circuits(self, quintic_ci):
        alpha, beta = basis(quintic_ci)
        zero = RingClass(quintic_ci.space, {})
        assert intersection_number(quintic_ci, [alpha, beta, zero]) == 0

    def test_multilinear_and_symmetric(self, quintic_ci):
        rng = random.Random(7)
        alpha, beta = basis(quintic_ci)
        for _ in range(100):
            coords = [(random_fraction(rng), random_fraction(rng)) for _ in range(3)]
            factors = [
                linear_combination([(c1, alpha), (c2, beta)]) for c1, c2 in coords
            ]
            base = intersection_number(quintic_ci, factors)
            shuffled = factors[:]
            rng.shuffle(shuffled)
            assert intersection_number(quintic_ci, shuffled) == base
            a = random_fraction(rng)
            b = random_fraction(rng)
            extra = linear_combination([(random_fraction(rng), alpha),
                                        (random_fraction(rng), beta)])
            mixed = linear_combination([(a, factors[0]), (b, extra)])
            lhs = intersection_number(quintic_ci, [mixed, factors[1], factors[2]])
            rhs = a * base + b * intersection_number(
                quintic_ci, [extra, factors[1], factors[2]]
            )
            assert lhs == rhs


# α and β of the quintic as multidegrees, in the order of ``basis``
ALPHA_BETA = ((0, 1), (1, 0))


def scenario(ci, h11, codim_exprs):
    """Scenario on ``ci`` with h11 multidegrees ``h11`` named h1, h2; its pairing is read
    from κ."""
    quadrant = Cone2D((1, 0), (0, 1))
    return Scenario(ci.space, ci.divisors, ("h1", "h2"), h11, ("c1", "c2"), codim_exprs,
                    quadrant, quadrant)


class TestPairingMatrix:
    """The scenario's pairing of the h11 basis with the codim basis forms."""

    def test_quintic_pairing(self, quintic_ci):
        # α∧β and β∧β
        pm = scenario(quintic_ci, ALPHA_BETA, ["h1*h2", "h2*h2"]).pairing_matrix
        assert pm == ((0, 4), (4, 5))
        assert pm.det == -16
        assert pm.det != 0

    def test_projective_plane(self):
        ci = CompleteIntersection(AmbientSpace([2]), [])
        h = generator(ci.space, 0)
        assert intersection_number(ci, [h, h]) == 1
        with pytest.raises(ValidationError, match="exactly two basis classes"):
            scenario(ci, [(1,)], ["h2", "h1"])

    def test_p1_x_p1(self):
        ci = CompleteIntersection(AmbientSpace([1, 1]), [])
        pm = scenario(ci, [(1, 0), (0, 1)], ["h1", "h2"]).pairing_matrix
        assert pm == ((0, 1), (1, 0))

    def test_entries_recompute(self, quintic_ci):
        alpha, beta = basis(quintic_ci)
        forms = [(2, Fraction(-1, 3), 0), (Fraction(1, 2), 1, 7)]
        exprs = ["2*h2*h2 - 1/3*h1*h2", "1/2*h2*h2 + h1*h2 + 7*h1*h1"]
        sc = scenario(quintic_ci, ALPHA_BETA, exprs)
        assert list(sc.codim_forms) == forms
        pm = sc.pairing_matrix
        for j, f in enumerate(forms):
            c = f[0] * beta * beta + f[1] * alpha * beta + f[2] * alpha * alpha
            for i, r in enumerate((alpha, beta)):
                assert pm[i][j] == intersection_number(quintic_ci, [r, c])

    def test_row_degree_validated(self, quintic_ci):
        # the zero multidegree is the only one of another degree (none)
        with pytest.raises(ValidationError, match="row"):
            scenario(quintic_ci, [(0, 0), (1, 0)], ["h1*h2", "h2*h2"])

    def test_col_degree_validated(self, quintic_ci):
        with pytest.raises(ValidationError, match="column"):
            scenario(quintic_ci, ALPHA_BETA, ["h1", "h2"])

    def test_degenerate_bases_rejected(self, quintic_ci):
        with pytest.raises(ValidationError, match="degenerate"):
            scenario(quintic_ci, ALPHA_BETA, ["h1*h2", "2*h1*h2"])


class TestDivisorRelations:
    def test_exceptional_classes(self, quintic_ci):
        space = quintic_ci.space
        alpha, beta = basis(quintic_ci)
        e1 = divisor_class(space, (1, 0)) - divisor_class(space, (0, 1))
        e2 = divisor_class(space, (4, 0)) - divisor_class(space, (0, 1))
        assert e1 == beta - alpha
        assert e2 == 4 * beta - alpha
