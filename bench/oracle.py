"""Independent reference arithmetic for checking balcone's answers.

Nothing here imports balcone.  In Picard rank 2 every number the pipeline
reports follows from the binary form ``kappa(s, t) = ∫_X (s·α + t·β)^dim``,
stored as ``kappa[j] = ∫_X α^j β^(dim−j)``.  This module computes kappa
with an integer dynamic programme over exponent vectors (a different
algorithm from the program's sparse rational ring), or takes it from the
closed form of the ``P^n × P^1`` family, and derives pairings, image rays,
bound functionals and dual-cone certificates with 2×2 rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd


def kappa_pn(n):
    """kappa of P^n × P^1 cut by (1,1) and (n,1), α from P^1, β from P^n.

    The fundamental class is (β+α)(nβ+α) = nβ² + (n+1)αβ, since α² = 0, so
    ∫ β^(n−1) = n+1, ∫ α β^(n−2) = n and every higher power of α vanishes.
    """
    dim = n - 1
    return [n + 1, n] + [0] * (dim - 1)


def _times_linear(poly, linear, dims):
    out = {}
    for exp, c in poly.items():
        for i, d in enumerate(linear):
            if d and exp[i] < dims[i]:
                e = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                out[e] = out.get(e, 0) + c * d
    return out


def kappa_product(dims, divisors, alpha, beta):
    """kappa of a complete intersection in a product of projective spaces.

    ``divisors``, ``alpha`` and ``beta`` are multidegrees; the integral is
    the coefficient of the top monomial of the ambient truncated ring.
    """
    dims = tuple(dims)
    dim = sum(dims) - len(divisors)
    poly = {(0,) * len(dims): 1}
    for d in divisors:
        poly = _times_linear(poly, d, dims)
    alpha_powers = [poly]
    for _ in range(dim):
        alpha_powers.append(_times_linear(alpha_powers[-1], alpha, dims))
    kappa = []
    for j in range(dim + 1):
        p = alpha_powers[j]
        for _ in range(dim - j):
            p = _times_linear(p, beta, dims)
        kappa.append(p.get(dims, 0))
    return kappa


def integral(kappa, vectors):
    """∫ of the product of classes x·α + y·β, one (x, y) per factor."""
    if len(vectors) != len(kappa) - 1:
        raise ValueError("number of factors must equal the dimension")
    poly = [Fraction(1)]  # poly[j]: coefficient of α^j β^(k−j)
    for x, y in vectors:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for j, c in enumerate(poly):
            nxt[j] += c * y
            nxt[j + 1] += c * x
        poly = nxt
    return sum(c * k for c, k in zip(poly, kappa))


def pairing(kappa, codim):
    """Rows α, β against columns α^a β^b, one (a, b) per codim class."""
    return [[Fraction(kappa[a + 1]) for a, _ in codim],
            [Fraction(kappa[a]) for a, _ in codim]]


def det(u, v):
    return Fraction(u[0]) * v[1] - Fraction(u[1]) * v[0]


def primitive(v):
    """Primitive integer vector in the direction of a rational vector."""
    a, b = Fraction(v[0]), Fraction(v[1])
    scale = a.denominator * b.denominator
    x, y = int(a * scale), int(b * scale)
    g = gcd(x, y)
    return (x // g, y // g)


def oriented(r1, r2):
    """The two rays of a planar cone in counterclockwise order."""
    r1, r2 = primitive(r1), primitive(r2)
    return [list(r1), list(r2)] if det(r1, r2) > 0 else [list(r2), list(r1)]


def pair(m, x, y):
    """x^T M y."""
    return sum(Fraction(x[i]) * m[i][j] * y[j] for i in range(2) for j in range(2))


def is_dual(m, cone, rays):
    """Whether ``rays`` are the boundary of the dual of ``cone`` under ``m``.

    The dual of a salient planar cone is fixed by four facts: its rays are
    primitive and counterclockwise, and each annihilates exactly one input
    ray while pairing strictly positively with the other.
    """
    if len(rays) != 2 or any(gcd(*r) != 1 for r in rays) or det(*rays) <= 0:
        return False
    for b in rays:
        values = sorted(pair(m, e, b) for e in cone)
        if values[0] != 0 or values[1] <= 0:
            return False
    return True


def image_rays(kappa, codim, kahler):
    """Closure of the image of the Kähler cone under x -> x^(dim−1).

    Codim coordinates of the binomial terms of (s·u + t·v)^(dim−1), scanned
    from the u-dominant end and from the v-dominant end for the first term
    that does not vanish.
    """
    m = pairing(kappa, codim)
    dm = det(m[0], m[1])
    u, v = kahler
    n = len(kappa) - 2
    coords = []
    for j in range(n, -1, -1):
        term = [u] * j + [v] * (n - j)
        w = [comb(n, j) * integral(kappa, [h] + term) for h in ((1, 0), (0, 1))]
        coords.append(((w[0] * m[1][1] - m[0][1] * w[1]) / dm,
                       (m[0][0] * w[1] - w[0] * m[1][0]) / dm))
    live = [c for c in coords if any(c)]
    return oriented(live[0], live[-1])


def bound(kappa, prime, ample):
    """∫ h ∧ P ∧ A^(dim−2) for h = α, β: the bound functional's coefficients."""
    rest = [prime] + [ample] * (len(kappa) - 3)
    return [integral(kappa, [h] + rest) for h in ((1, 0), (0, 1))]


def intersection_numbers(kappa):
    """Values of ∫ α^j β^(dim−j) in the order the demo report lists them."""
    return [str(Fraction(k)) for k in reversed(kappa)]
