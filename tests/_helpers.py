"""Shared random generators and independent oracles for the test suite."""

from fractions import Fraction
from itertools import product
from math import comb

from balcone.cones import Cone2D, Pairing, cone_new, ray_normalize
from balcone.errors import ComputationError, DegeneratePairingError, ValidationError
from balcone.ring import AmbientSpace

from _ring_oracle import RingClass, express_in_basis, h11_classes, linear_combination


def random_space(rng, max_total=8, max_factors=3):
    k = rng.randint(1, max_factors)
    dims = []
    remaining = max_total - k  # reserve dimension 1 per factor
    for _ in range(k):
        extra = rng.randint(0, remaining)
        dims.append(1 + extra)
        remaining -= extra
    rng.shuffle(dims)
    return AmbientSpace(dims)


def random_class(rng, space, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, n) for n in space.dims)
        terms[exp] = rng.randint(-9, 9)
    return RingClass(space, terms)


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def dense_mul(space, p, q):
    """Brute-force convolution over the full truncated exponent grid.

    Written against the definition: the coefficient of each in-grid output
    exponent e is the sum of a[e1]*b[e2] over all splits e = e1 + e2.
    """
    a = p.terms()
    b = q.terms()
    out = {}
    grid = list(product(*(range(n + 1) for n in space.dims)))
    for e in grid:
        total = Fraction(0)
        for e1 in product(*(range(x + 1) for x in e)):
            e2 = tuple(x - y for x, y in zip(e, e1))
            total += a.get(e1, Fraction(0)) * b.get(e2, Fraction(0))
        if total:
            out[e] = total
    return out


def random_ray(rng):
    while True:
        x = rng.randint(-9, 9)
        y = rng.randint(-9, 9)
        if x or y:
            return ray_normalize((x, y))


def random_cone(rng) -> Cone2D:
    while True:
        a = random_ray(rng)
        b = random_ray(rng)
        if a.x * b.y - a.y * b.x != 0:
            return Cone2D(a, b)


def random_pairing(rng) -> Pairing:
    while True:
        m = ((rng.randint(-9, 9), rng.randint(-9, 9)),
             (rng.randint(-9, 9), rng.randint(-9, 9)))
        try:
            return Pairing(m)
        except DegeneratePairingError:
            continue


def pn_document(n):
    """P^n x P^1 cut by (1,1) and (n,1), prime E1 = β−α; n = 4 is the quintic conifold.

    The codim basis is α∧β^(n−3), β^(n−2) in degree dim−1 = n−2.
    """
    return {
        "ambient": [n, 1],
        "divisors": [[1, 1], [n, 1]],
        "h11_basis": [
            {"name": "α", "multidegree": [0, 1]},
            {"name": "β", "multidegree": [1, 0]},
        ],
        "codim_basis": [
            {"name": "c1", "expr": "*".join(["α"] + ["β"] * (n - 3))},
            {"name": "c2", "expr": "*".join(["β"] * (n - 2))},
        ],
        "kahler_cone": [[1, 0], [0, 1]],
        "effective_cone": [[1, 0], [-1, 1]],
        "prime_divisors": [{"name": "E1", "coords": [-1, 1]}],
    }


def nonneg_combination(rng, cone: Cone2D):
    s = Fraction(rng.randint(0, 9), rng.randint(1, 5))
    t = Fraction(rng.randint(0, 9), rng.randint(1, 5))
    return (
        s * cone.r1.x + t * cone.r2.x,
        s * cone.r1.y + t * cone.r2.y,
    )


def reference_image_closure(sc):
    """Image closure from the ring: every binomial term through express_in_basis.

    Scans the terms of (s*u + t*v)^(dim-1) from the u-dominant end and from
    the v-dominant end for the first non-zero codim coordinates.
    """
    n = sc.ci.dim - 1
    u, v = (
        linear_combination(zip(r.coords, h11_classes(sc))) for r in sc.kahler_cone.generators()
    )
    coords = [
        express_in_basis(sc, (u ** j) * (v ** (n - j)) * comb(n, j)) for j in range(n, -1, -1)
    ]
    live = [c for c in coords if any(c)]
    if not live:
        raise ComputationError("balanced map degenerate on this cone (all terms vanish)")
    try:
        return cone_new(live[0], live[-1])
    except ValidationError as e:
        raise ComputationError(f"balanced-map image closure is not a planar cone: {e}") from e
