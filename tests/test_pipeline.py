import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from balcone import pipeline
from balcone.cones import Cone2D, Ray, det2
from balcone.errors import ComputationError, DegreeMismatchError, ScenarioError, ValidationError
from balcone.pipeline import (
    Scenario,
    balanced_cone,
    balanced_image_closure,
    divisor_bound_functional,
    gap_report,
    integrate_forms,
    kappa_in_basis,
)
from balcone.report import gap_payload
from balcone.ring import AmbientSpace
from balcone.scenario_io import (
    DEMO_SCENARIO_JSON,
    document_to_scenario,
    parse_scenario,
    quintic_conifold_scenario,
)
from balcone.variety import CompleteIntersection

from _helpers import pn_document
from _ring_oracle import express_in_basis, h11_classes


@pytest.fixture(scope="module")
def sc():
    return quintic_conifold_scenario()


class TestScenario:
    def test_pairing_matrix(self, sc):
        assert sc.pairing_matrix == ((0, 4), (4, 5))
        assert sc.pairing_matrix.det == -16

    def test_dimension(self, sc):
        assert sc.ci.dim == 3

    def test_is_its_nine_inputs(self):
        sc = quintic_conifold_scenario()
        # compares and hashes as its inputs; ci, the forms, kappa, the pairing and gap
        # sit beside them
        assert len(sc) == 9 and sc == tuple(sc) and hash(sc) == hash(tuple(sc))
        # the document's keys in document order, each basis as its names and its values
        assert sc._fields == ("space", "divisors", "h11_names", "h11_multidegrees",
                              "codim_names", "codim_exprs", "kahler_cone", "effective_cone",
                              "prime_divisors")
        assert sorted(vars(sc)) == ["ci", "codim_forms", "kappa", "pairing_matrix"]
        assert (sc.space, sc.divisors) == sc.ci

    def test_replace_revalidates(self, sc):
        with pytest.raises(ValidationError, match="degenerate"):
            sc._replace(codim_exprs=(sc.codim_exprs[0],) * 2)
        with pytest.raises(ValidationError, match="exactly two basis classes"):
            sc._replace(h11_names=("α",))
        with pytest.raises(ValidationError, match="exactly two basis classes"):
            sc._replace(codim_exprs=sc.codim_exprs + (sc.codim_exprs[0],))
        assert sc._replace(effective_cone=sc.effective_cone) == sc

    @pytest.mark.parametrize("fields, path", [
        ({"h11_names": ("α",)}, "/h11_basis"),
        ({"codim_exprs": ("α*β",)}, "/codim_basis"),
        ({"h11_multidegrees": ((0, 1), (0, 0))}, "/h11_basis/1/multidegree"),
        ({"codim_exprs": ("α*β", "β")}, "/codim_basis/1/expr"),
        ({"codim_exprs": ("α*β", "2*α*β")}, "/"),
        ({"codim_exprs": ("α*β", "β*γ")}, "/codim_basis/1/expr"),
        ({"space": (4, 0)}, "/ambient"),
        ({"divisors": ((1, 1),) * 5}, "/divisors"),
        ({"h11_names": ("α", "b c")}, "/h11_basis/1/name"),
        ({"h11_multidegrees": ((0, 1), (1, 0, 0))}, "/h11_basis/1/multidegree"),
        ({"h11_multidegrees": ((0, 1), (-1, 2))}, "/h11_basis/1/multidegree"),
        ({"h11_names": ("α", "α")}, "/h11_basis/1/name"),
        ({"codim_names": ("x", "x")}, "/codim_basis/1/name"),
        ({"codim_names": ("α∧β", "Alpha")}, "/codim_basis/1/name"),  # Alpha folds to α
        ({"prime_divisors": (("E1", (-1, 1)), ("e1", (-1, 4)))}, "/prime_divisors/1/name"),
        # names, cones and coords that a document cannot hold either
        ({"h11_names": (5, "β")}, "/h11_basis/0/name"),
        ({"codim_names": (5, "b")}, "/codim_basis/0/name"),
        ({"prime_divisors": (("E1", (-1, 1)), (5, (-1, 4)))}, "/prime_divisors/1/name"),
        ({"codim_names": ("", "b")}, "/codim_basis/0/name"),
        ({"prime_divisors": (("", (-1, 1)),)}, "/prime_divisors/0/name"),
        ({"codim_names": ("a\ud800", "b")}, "/codim_basis/0/name"),  # no encoding writes it
        ({"kahler_cone": ((0, 0), (0, 1))}, "/kahler_cone"),
        ({"prime_divisors": (("E1", (1, 2, 3)),)}, "/prime_divisors/0/coords"),
        ({"prime_divisors": (("E1", "ab"),)}, "/prime_divisors/0/coords"),
        # fields that are not lists, or list entries of the wrong shape
        ({"h11_names": 5}, "/h11_basis"),
        ({"h11_names": "αβ"}, "/h11_basis"),  # not read as the names ("α", "β")
        ({"h11_multidegrees": 5}, "/h11_basis"),
        ({"codim_exprs": None}, "/codim_basis"),
        ({"prime_divisors": 5}, "/prime_divisors"),
        ({"prime_divisors": [5]}, "/prime_divisors/0"),
        ({"prime_divisors": [("E1", (-1, 1), 3)]}, "/prime_divisors/0"),
    ])
    def test_refusals_name_the_document_path(self, sc, fields, path):
        """A library caller's ``Scenario`` is refused at the document key of the field."""
        with pytest.raises(ScenarioError) as info:
            sc._replace(**fields)
        assert info.value.path == path
        assert str(info.value).startswith(f"at {path}: ")

    @pytest.mark.parametrize("fields, path", [
        ({"h11_names": ("α", "Alpha")}, "/h11_basis/1/name"),
        ({"codim_exprs": ("α β", "β*β")}, "/codim_basis/0/expr"),
        ({"h11_names": ("α", "β", "γ"), "h11_multidegrees": ((0, 1), (1, 0), (1, 0))},
         "/h11_basis"),
        ({"kahler_cone": ((0, 0), (0, 1))}, "/kahler_cone"),
        ({"codim_names": ("", "b")}, "/codim_basis/0/name"),
        ({"codim_exprs": ("α*β*β", "β*β")}, "/codim_basis/0/expr"),  # degree 3, dim − 1 = 2
        ({"divisors": 5}, "/divisors"),  # counted for dim through the one list reader
    ])
    def test_refused_before_the_intersection_is_built(self, sc, fields, path, monkeypatch):
        """A library caller's ``Scenario`` checks every name, cone and expr before it builds
        the intersection, whose κ is the costly part."""
        def refuse(*args):
            raise AssertionError("the complete intersection was built before the names")

        monkeypatch.setattr(pipeline, "CompleteIntersection", refuse)
        with pytest.raises(ScenarioError) as info:
            sc._replace(**fields)
        assert info.value.path == path

    @pytest.mark.parametrize("field", ["space", "divisors", "h11_names", "h11_multidegrees",
                                       "codim_names", "codim_exprs", "kahler_cone",
                                       "effective_cone", "prime_divisors"])
    def test_replace_stores_tuples(self, sc, field):
        """Lists, from a library caller or the document reader, are kept as tuples and cones
        as ``Cone2D``, so the scenario still equals the document's and hashes."""
        def lists(value):
            return [lists(v) for v in value] if isinstance(value, tuple) else value

        twin = sc._replace(**{field: lists(getattr(sc, field))})
        assert getattr(twin, field) == getattr(sc, field)
        assert twin == sc and hash(twin) == hash(sc)
        assert twin.kappa == sc.kappa

    @pytest.mark.parametrize("cone", [((0, 1), (1, 0)), [[2, 0], [0, 3]]],
                             ids=["clockwise", "non-primitive"])
    def test_cones_stored_as_cone2d(self, sc, cone):
        """A cone is kept as its ``Cone2D``, primitive and counterclockwise, so a scenario
        equals and hashes as the document's whatever pairs span the same cone."""
        twin = sc._replace(kahler_cone=cone)
        assert type(twin.kahler_cone) is Cone2D and twin.kahler_cone == sc.kahler_cone
        assert twin == sc and hash(twin) == hash(sc)

    @pytest.mark.parametrize("name", ["ci", "codim_forms", "kappa", "pairing_matrix", "gap"])
    def test_immutable(self, name):
        sc = quintic_conifold_scenario()
        before = getattr(sc, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(sc, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(sc, name)
        assert getattr(sc, name) is before

    @pytest.mark.parametrize("name", ["space", "divisors", "dim"])
    def test_immutable_all_the_way_down(self, name):
        """The intersection a scenario holds refuses assignment too, so neither the
        scenario's hash nor its κ can drift from the datum it was built from."""
        sc = quintic_conifold_scenario()
        before = hash(sc)
        with pytest.raises(AttributeError):
            setattr(sc.ci, name, ((1, 1), (5, 1)))
        with pytest.raises(AttributeError):
            delattr(sc.ci, name)
        assert sc.ci == ((4, 1), ((1, 1), (4, 1))) and sc.ci.dim == 3
        assert hash(sc) == before and sc.kappa == (5, 4, 0, 0)

    def test_copies_keep_derived_data(self):
        sc = quintic_conifold_scenario()
        report = sc.gap
        twins = (pickle.loads(pickle.dumps(sc)), copy.copy(sc), copy.deepcopy(sc))
        for twin in twins:
            assert twin == sc and hash(twin) == hash(sc) and type(twin) is Scenario
            assert twin.kappa == sc.kappa
            assert twin.pairing_matrix == sc.pairing_matrix
            assert type(twin.pairing_matrix) is type(sc.pairing_matrix)
            assert vars(twin)["gap"] == report
        assert twins[1].gap is report

    def test_exceptional_divisor_coords_consistent(self, sc):
        # 4*(0,1) + 1*(-1,0) = (-1,4), matching class(4,0) - class(0,1)
        coords = dict(sc.prime_divisors)["E2"]
        assert coords == (-1, 4)
        assert (4 * 0 + (-1), 4 * 1 + 0) == coords


class TestExpressInBasis:
    def test_basis_element(self, sc):
        beta = h11_classes(sc)[1]
        got = express_in_basis(sc, beta * beta)
        assert got == (0, 1)

    def test_square_of_sum(self, sc):
        alpha, beta = h11_classes(sc)
        got = express_in_basis(sc, (alpha + beta) ** 2)
        assert got == (2, 1)

    def test_zero_class(self, sc):
        alpha = h11_classes(sc)[0]
        got = express_in_basis(sc, alpha * alpha)
        assert got == (0, 0)


class TestBalancedImageClosure:
    def test_quintic(self, sc):
        assert balanced_image_closure(sc) == Cone2D((1, 0), (0, 1))

    def test_interior_sample(self, sc):
        alpha, beta = h11_classes(sc)
        coords = express_in_basis(sc, (alpha + beta) ** 2)
        assert balanced_image_closure(sc).contains(coords, "open")

    def test_v_dominant_ray_is_top_power(self, sc):
        beta = h11_classes(sc)[1]
        coords = express_in_basis(sc, beta * beta)
        assert Ray(*(int(c) for c in coords)) in balanced_image_closure(sc)

    def test_scaling_generators_is_invariant(self, sc):
        scaled = sc._replace(kahler_cone=Cone2D((Fraction(7, 3), 0), (0, Fraction(2, 5))))
        assert balanced_image_closure(scaled) == balanced_image_closure(sc)


class TestBalancedCone:
    def test_quintic(self, sc):
        assert balanced_cone(sc) == Cone2D((1, 0), (-1, 4))

    def test_nef_closure_as_effective(self, sc):
        got = balanced_cone(sc._replace(effective_cone=Cone2D((1, 0), (0, 1))))
        assert got == Cone2D((1, 0), (-5, 4))

    def test_identity_pairing_quadrant(self):
        scenario = Scenario(
            space=AmbientSpace([1, 1]),
            divisors=(),
            h11_names=("h0", "h1"),
            h11_multidegrees=((1, 0), (0, 1)),
            codim_names=("c0", "c1"),
            codim_exprs=("h1", "h0"),  # the pairing is the identity
            kahler_cone=Cone2D((1, 0), (0, 1)),
            effective_cone=Cone2D((1, 0), (0, 1)),
        )
        assert scenario.pairing_matrix == ((1, 0), (0, 1))
        assert balanced_cone(scenario) == Cone2D((1, 0), (0, 1))


class TestIntegrateForms:
    def test_lists_and_tuples_of_exact_coefficients(self, sc):
        assert integrate_forms(sc, [(0, 1), [1, 0], (Fraction(1), 0)]) == 4  # ∫ α∧β∧β
        assert integrate_forms(sc, ((0, 1), sc.codim_forms[1])) == 4

    @pytest.mark.parametrize("forms", [
        [(0.5, 1), (0, 1), (1, 0)],
        [(True, 1), (0, 1), (1, 0)],
        [{0: 1, 1: 1}, (0, 1), (1, 0)],
        [5, (0, 1), (1, 0)],
        [("1", 1), (0, 1), (1, 0)],
        5,
        {(0, 1): 1},
    ], ids=["float", "bool", "dict-form", "int-form", "str", "int", "dict"])
    def test_refused(self, sc, forms):
        """Each form is read by the one list rule: a float no longer returns 2.0, a bool is not
        read as 1 and a dict's keys are not read as coefficients."""
        with pytest.raises(ValidationError, match="binary form"):
            integrate_forms(sc, forms)

    def test_wrong_degree_is_still_a_degree_mismatch(self, sc):
        with pytest.raises(DegreeMismatchError):
            integrate_forms(sc, [(0, 1), (1, 0)])


@pytest.mark.parametrize("n", range(4, 9))
def test_pn_family_closed_forms(n):
    sc = document_to_scenario(pn_document(n))
    assert sc.ci.dim == n - 1
    assert sc.pairing_matrix == ((0, n), (n, n + 1))
    assert sc.pairing_matrix.det == -n * n
    assert tuple(balanced_cone(sc)) == (Ray(1, 0), Ray(-1, n))
    assert tuple(balanced_image_closure(sc)) == (Ray(1, 0), Ray(0, 1))
    assert gap_report(sc).witness == Ray(-1, 2 * n)
    e1 = dict(sc.prime_divisors)["E1"]
    assert divisor_bound_functional(sc, e1, (1, 1)) == (n, n + 1 + n * (n - 4))


@pytest.mark.parametrize("n", (4, 5, 9, 101, 200))
def test_pn_family_off_axis_kahler_closed_form(n):
    """P^n × P^1 with Kähler rays u = α and v = α + 2β, d = n − 1: α² = 0, κ_0 = n + 1
    and κ_1 = n, so k_0 = 2^d·(n+1) + d·2^(d−1)·n, k_1 = 2^(d−1)·n and k_j = 0 for j ≥ 2."""
    sc = document_to_scenario(dict(pn_document(n), kahler_cone=[[1, 0], [1, 2]]))
    d = n - 1
    assert kappa_in_basis(sc, *sc.kahler_cone) == (
        [2**d * (n + 1) + d * 2 ** (d - 1) * n, 2 ** (d - 1) * n] + [0] * (d - 1)
    )
    assert balanced_image_closure(sc) == Cone2D((1, 0), (d - 1, 2))


@pytest.mark.parametrize("n", (4, 9, 30, 60))
def test_pn_family_bound_closed_form(n):
    """The bound functional on P^n × P^1 for rational amples A = (a1, a2) and
    primes P = (p1, p2), with m = n − 3: l_α = p2·a2^m·n and
    l_β = a2^(m−1)·(a2·(p1·n + p2·(n+1)) + p2·m·a1·n)."""
    sc = document_to_scenario(pn_document(n))
    m = n - 3
    amples = ((Fraction(3, 2), Fraction(4, 3)), (Fraction(5, 7), Fraction(2, 9)), (3, 4))
    primes = ((-1, 1), (2, 3), (Fraction(1, 2), -5))
    for (a1, a2), (p1, p2) in product(amples, primes):
        assert divisor_bound_functional(sc, (p1, p2), (a1, a2)) == (
            p2 * a2**m * n,
            a2 ** (m - 1) * (a2 * (p1 * n + p2 * (n + 1)) + p2 * m * a1 * n),
        )


class TestBoundFunctional:
    def test_proportional_ample(self, sc):
        assert divisor_bound_functional(sc, (-1, 1), (3, 4)) == (16, 16)

    def test_unit_ample(self, sc):
        assert divisor_bound_functional(sc, (-1, 1), (1, 1)) == (4, 5)

    def test_zero_prime(self, sc):
        assert divisor_bound_functional(sc, (0, 0), (3, 4)) == (0, 0)

    @pytest.mark.parametrize("prime, ample", [
        ((-1, 1), (3, 4)), ((Fraction(1, 2), -5), (Fraction(3, 2), Fraction(1, 3))),
    ])
    def test_fractions_from_the_classes_as_given(self, sc, prime, ample):
        """The integrals of h·P·A on the classes as given are ``Fraction``s, whether the
        classes hold integers or fractions."""
        (p1, p2), (a1, a2) = prime, ample
        expected = [integrate_forms(sc, [h, (p2, p1), (a2, a1)]) for h in ((0, 1), (1, 0))]
        got = divisor_bound_functional(sc, prime, ample)
        assert got == tuple(expected)
        assert {type(x) for x in got} == {Fraction}

    def test_nonpositive_ample_rejected(self, sc):
        with pytest.raises(ValidationError, match="positive"):
            divisor_bound_functional(sc, (-1, 1), (3, 0))

    @pytest.mark.parametrize("value", [5, None, "ab", (1, "x"), (True, 1), [], {}])
    def test_not_a_pair_of_numbers_rejected(self, sc, value):
        """The value functions refuse what is not a pair of integers or fractions with a
        ``ValidationError``, and ``kappa_in_basis`` also a fraction, which it would floor."""
        with pytest.raises(ValidationError, match="prime divisor class needs exactly two"):
            divisor_bound_functional(sc, value, (1, 1))
        with pytest.raises(ValidationError, match="ample class needs exactly two"):
            divisor_bound_functional(sc, (-1, 1), value)
        for u, v in ((value, (1, 0)), ((0, 1), value), ((Fraction(1, 2), 0), (0, 1))):
            with pytest.raises(ValidationError, match="^basis class needs exactly two "
                               "coordinates, each an integer$"):
                kappa_in_basis(sc, u, v)

    def test_three_entry_classes_rejected(self, sc):
        with pytest.raises(ValidationError, match="ample class needs exactly two"):
            divisor_bound_functional(sc, (-1, 1), (3, 4, 5))
        with pytest.raises(ValidationError, match="prime divisor class needs exactly two"):
            divisor_bound_functional(sc, (-1, 1, 0), (3, 4))

    def test_linear_in_prime(self, sc):
        rng = random.Random(17)
        for _ in range(50):
            p1 = (rng.randint(-5, 5), rng.randint(-5, 5))
            p2 = (rng.randint(-5, 5), rng.randint(-5, 5))
            a = rng.randint(0, 6)
            b = rng.randint(1, 6)
            combo = (a * p1[0] + b * p2[0], a * p1[1] + b * p2[1])
            ample = (rng.randint(1, 7), rng.randint(1, 7))
            l1 = divisor_bound_functional(sc, p1, ample)
            l2 = divisor_bound_functional(sc, p2, ample)
            lc = divisor_bound_functional(sc, combo, ample)
            assert lc == (a * l1[0] + b * l2[0], a * l1[1] + b * l2[1])

    def test_linear_in_ample(self, sc):
        rng = random.Random(23)
        for _ in range(50):
            prime = (rng.randint(-5, 5), rng.randint(-5, 5))
            a1 = (rng.randint(1, 7), rng.randint(1, 7))
            a2 = (rng.randint(1, 7), rng.randint(1, 7))
            c = rng.randint(1, 5)
            d = rng.randint(1, 5)
            combo = (c * a1[0] + d * a2[0], c * a1[1] + d * a2[1])
            l1 = divisor_bound_functional(sc, prime, a1)
            l2 = divisor_bound_functional(sc, prime, a2)
            lc = divisor_bound_functional(sc, prime, combo)
            assert lc == (c * l1[0] + d * l2[0], c * l1[1] + d * l2[1])


class TestGapReport:
    def test_quintic(self, sc):
        gr = gap_report(sc)
        assert gr.image_closure == Cone2D((1, 0), (0, 1))
        assert gr.balanced_cone == Cone2D((1, 0), (-1, 4))
        assert gr.strict
        assert gr.gap_generators == (Ray(0, 1), Ray(-1, 4))
        assert gr.witness == Ray(-1, 8)

    def test_witness_memberships(self, sc):
        gr = gap_report(sc)
        assert gr.balanced_cone.contains(gr.witness, "open")
        assert not gr.image_closure.contains(gr.witness)

    def test_nef_closure_gap(self, sc):
        gr = gap_report(sc._replace(effective_cone=Cone2D((1, 0), (0, 1))))
        assert gr.strict
        assert gr.gap_generators == (Ray(0, 1), Ray(-5, 4))

    def test_inclusion_always_in_report(self, sc):
        gr = gap_report(sc)
        assert all(map(gr.balanced_cone.contains, gr.image_closure))

    def test_inconsistent_effective_cone_rejected(self, sc):
        # 2*alpha - beta pairs negatively with the image ray alpha^beta
        bad = sc._replace(effective_cone=Cone2D((2, -1), (-1, 1)))
        with pytest.raises(ComputationError, match="not contained.*effective cone is inconsistent"):
            gap_report(bad)


class TestGapMemo:
    """``Scenario.gap`` keeps the report on the object and changes nothing else."""

    def test_failure_is_not_stored(self, sc):
        bad = sc._replace(effective_cone=Cone2D((2, -1), (-1, 1)))
        messages = []
        for _ in range(2):
            with pytest.raises(ComputationError, match="not contained") as e:
                gap_payload(bad)
            messages.append(str(e.value))
        assert messages[0] == messages[1]
        assert "gap" not in vars(bad)

    def test_identity_unchanged(self):
        sc = parse_scenario(DEMO_SCENARIO_JSON)
        assert sc.gap == gap_report(sc)
        fresh = parse_scenario(DEMO_SCENARIO_JSON)
        assert sc == fresh
        assert hash(sc) == hash(fresh)
        assert repr(sc) == repr(fresh)

    def test_replace_computes_its_own(self):
        sc = parse_scenario(DEMO_SCENARIO_JSON)
        report = sc.gap
        twin = sc._replace()
        assert "gap" not in vars(twin)
        assert twin.gap == report
        assert twin.gap is not report
        assert sc.gap is report


def random_product_scenario(rng):
    """Random two-factor complete intersection with nef closure as effective cone."""
    while True:
        a = rng.randint(1, 4)
        b = rng.randint(1, 5 - a) if a < 5 else 1
        space = AmbientSpace([a, b])
        m = rng.randint(0, max(0, a + b - 2))
        divisors = []
        for _ in range(m):
            d = (rng.randint(0, 2), rng.randint(0, 2))
            if d == (0, 0):
                d = (1, 0)
            divisors.append(d)
        try:
            ci = CompleteIntersection(space, divisors)
        except ValidationError:
            continue
        if ci.dim < 2:
            continue
        n = ci.dim - 1
        candidates = [
            (f"h0^{i}*h1^{n - i}", "*".join(["h0"] * i + ["h1"] * (n - i)))
            for i in range(n + 1)
            if i <= a and n - i <= b  # h0^i h1^(n−i) is not zero on the ambient space
        ]
        quadrant = Cone2D((1, 0), (0, 1))
        for (na, ea), (nb, eb) in combinations(candidates, 2):
            try:
                return Scenario(
                    space=space,
                    divisors=divisors,
                    h11_names=("h0", "h1"),
                    h11_multidegrees=((1, 0), (0, 1)),
                    codim_names=(na, nb),
                    codim_exprs=(ea, eb),
                    kahler_cone=quadrant,
                    effective_cone=quadrant,
                )
            except ValidationError:
                continue


class TestRandomScenarios:
    def test_image_inside_balanced(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            scenario = random_product_scenario(rng)
            try:
                image = balanced_image_closure(scenario)
            except ComputationError:
                continue  # image collapsed to a single ray; nothing to compare
            bal = balanced_cone(scenario)
            assert all(map(bal.contains, image))
            gr = gap_report(scenario)
            if gr.strict:
                assert gr.balanced_cone.contains(gr.witness, "open")
                assert not gr.image_closure.contains(gr.witness)
                # a balanced generator outside the closed image, paired with the
                # image generator on its side; the r2 side first when both qualify
                inner, g = gr.gap_generators
                outside = [h for h in bal if not image.contains(h)]
                assert g in outside
                past_r2 = [h for h in outside if det2(image.r2, h) > 0]
                if past_r2:
                    assert (inner, g) == (image.r2, past_r2[0])
                else:
                    assert inner == image.r1 and det2(g, image.r1) > 0
            else:
                assert all(image.contains(g) for g in bal)
            checked += 1
        assert checked >= 40
