"""Shared random generators and independent oracles for the test suite."""

import json
import re
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from balcone.cones import Cone2D, Pairing, ray_normalize
from balcone.errors import ComputationError, DegeneratePairingError, ScenarioError, ValidationError
from balcone.ring import AmbientSpace
from balcone.scenario_io import DEMO_SCENARIO_JSON

from _ring_oracle import RingClass, express_in_basis, h11_classes, linear_combination

# The shipped document, decoded once for the tests that mutate or compare it.
DEMO_SCENARIO_DOCUMENT = json.loads(DEMO_SCENARIO_JSON)

# A Kähler cone that cannot be nef: k = (−360, 336, −312, 288) on its rays, so the middle
# term of ω^2 lies outside the cone of the end terms (6,1), (4,1), and the closure is refused.
NOT_NEF_DOCUMENT = {
    "ambient": [4, 1],
    "divisors": [[2, 0], [3, 0]],
    "h11_basis": [{"name": "a", "multidegree": [0, 1]},
                  {"name": "b", "multidegree": [2, 2]}],
    "codim_basis": [{"name": "c1", "expr": "b*a"}, {"name": "c2", "expr": "b*b"}],
    "kahler_cone": [[2, 1], [-3, -1]],
    "effective_cone": [[1, 0], [0, 1]],
}


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
        exp = tuple(rng.randint(0, n) for n in space)
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
    grid = list(product(*(range(n + 1) for n in space)))
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
    the v-dominant end for the first non-zero codim coordinates, and refuses
    the cone they span unless it holds every non-zero term.
    """
    n = sc.ci.dim - 1
    u, v = (
        linear_combination(zip(r, h11_classes(sc))) for r in sc.kahler_cone
    )
    coords = [
        express_in_basis(sc, (u ** j) * (v ** (n - j)) * comb(n, j)) for j in range(n, -1, -1)
    ]
    live = [c for c in coords if any(c)]
    try:
        cone = Cone2D(live[0], live[-1])
    except ValidationError as e:
        raise ComputationError(f"balanced-map image closure is not a planar cone: {e}") from e
    if not all(cone.contains(c) for c in live):
        raise ComputationError("balanced-map image closure is not the cone of its end terms")
    return cone


REFERENCE_VULGAR = {
    Fraction(1, 2): "½", Fraction(1, 3): "⅓", Fraction(2, 3): "⅔", Fraction(1, 4): "¼",
    Fraction(3, 4): "¾", Fraction(1, 5): "⅕", Fraction(2, 5): "⅖", Fraction(3, 5): "⅗",
    Fraction(4, 5): "⅘", Fraction(1, 6): "⅙", Fraction(5, 6): "⅚", Fraction(1, 8): "⅛",
    Fraction(3, 8): "⅜", Fraction(5, 8): "⅝", Fraction(7, 8): "⅞",
}


def reference_class_label(ray, names):
    """``report.format_class_label`` as written with ``Fraction`` coefficients."""

    def coeff(c):
        sign, mag = ("+" if c > 0 else "−"), abs(c)
        if mag == 1:
            return sign
        return sign + REFERENCE_VULGAR.get(mag, str(mag) + ("" if mag.denominator == 1 else "·"))

    a, b = ray
    n1, n2 = names
    if b == 0:
        return n1 if a > 0 else f"−{n1}"
    if a == 0:
        return n2 if b > 0 else f"−{n2}"
    if b > 0:
        return f"{n2}{coeff(Fraction(a, b))}{n1}"
    if a > 0:
        return f"{n1}{coeff(Fraction(b, a))}{n2}"
    return f"−({reference_class_label((-a, -b), names)})"


_REFERENCE_NAME = r"[^\s\d+\-*/][^\s+\-*/]*"
_REFERENCE_TOKEN = re.compile(rf"\s*(\d+(?:/\d+)?|[+\-*]|{_REFERENCE_NAME})")


def reference_class_expr(expr, names, path="expr"):
    """``pipeline.parse_class_expr`` as a tokenizer and a token-index loop.

    Blanks may precede any token; a term is a sign, then names and numbers
    joined by ``*``; a missing leading sign reads as ``+``.
    """
    if not isinstance(expr, str) or not expr.strip():
        raise ScenarioError("expected a non-empty expression string", path=path)
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _REFERENCE_TOKEN.match(expr, pos)
        if m is None:
            break
        tokens.append(m.group(1))
        pos = m.end()
    if expr[pos:].strip():
        raise ScenarioError(f"cannot tokenize {expr[pos:].strip()!r}", path=path)

    if tokens[0] not in "+-":
        tokens.insert(0, "+")
    terms = []  # (degree, power of h1, coefficient)
    idx = 0
    while idx < len(tokens):
        if tokens[idx] not in "+-":
            raise ScenarioError(f"expected '+' or '-', got {tokens[idx]!r}", path=path)
        coeff, degree, j = Fraction(1 if tokens[idx] == "+" else -1), 0, 0
        while True:
            idx += 1
            if idx >= len(tokens) or tokens[idx] in "+-*":
                raise ScenarioError("expected a name or number", path=path)
            tok = tokens[idx]
            if re.match(r"\d+(?:/\d+)?$", tok):
                try:
                    coeff *= Fraction(tok)
                except ZeroDivisionError:
                    raise ScenarioError(f"zero denominator in {tok!r}", path=path) from None
                except ValueError:  # more digits than int's string conversion allows
                    raise ScenarioError("number has too many digits", path=path) from None
            elif tok in names:
                degree += 1
                j += tok == names[0]
            else:
                raise ScenarioError(f"unknown class name {tok!r}", path=path)
            idx += 1
            if idx >= len(tokens) or tokens[idx] != "*":
                break
        terms.append((degree, j, coeff))
    degrees = sorted({t[0] for t in terms})
    if len(degrees) > 1:
        raise ScenarioError(f"terms must share one degree, got degrees {degrees}", path=path)
    form = [Fraction(0)] * (degrees[0] + 1)
    for _, j, coeff in terms:
        form[j] += coeff
    return tuple(form)


def widest_by_count(dims, r):
    """W, the most exponent vectors e ≤ n with one degree |e| = t ≤ r, by listing every e."""
    counts = [0] * (r + 1)
    for e in product(*(range(k + 1) for k in dims)):
        if sum(e) <= r:
            counts[sum(e)] += 1
    return max(counts)


def finite_difference_kappa(dims, divisors, a, b):
    """κ_j = ∫ a^j b^(dim−j) by the mixed finite difference, with no ring and no DP.

    P = ∏D_k · a^j · b^(dim−j) is homogeneous of degree N = Σn_i in the
    hyperplane classes, and its top coefficient is
    [x^n] P = (1/∏n_i!) Σ_{0≤m≤n} (−1)^(N−|m|) ∏C(n_i, m_i) P(m),
    each linear form evaluated at the grid point m.  Every grid point adds to
    all κ_j at once.
    """
    n, dim = sum(dims), sum(dims) - len(divisors)
    sums = [0] * (dim + 1)
    for m in product(*(range(k + 1) for k in dims)):
        weight = (-1) ** (n - sum(m)) * prod(comb(k, i) for k, i in zip(dims, m))
        weight *= prod(sum(d * x for d, x in zip(div, m)) for div in divisors)
        at_a, at_b = (sum(d * x for d, x in zip(f, m)) for f in (a, b))
        for j in range(dim + 1):
            sums[j] += weight * at_a ** j * at_b ** (dim - j)
    denominator = prod(factorial(k) for k in dims)
    return tuple(s // denominator for s in sums)
