"""Complete intersections in a product of projective spaces.

An intersection is recorded purely by the multidegrees of its defining
divisors.  Everything computed "on" the subvariety is pushed to the ambient
space: an integral over the intersection is the ambient integral of the
divisors' linear forms times the integrand.  ``kappa`` reads every κ_j from one
integer pass over the ambient factors, and a scenario reads every number it
reports from that one pass.

The identity behind the pass: group the r divisors into distinct multidegrees
D_g with multiplicities m_g.  In ∫ ∏_g D_g^(m_g)·a^j·b^(dim−j) each of the
r + dim linear forms lands on one of the n_i slots of factor i; counting those
assignments factor by factor, not form by form,

    κ_j = ∏m_g!·j!·(dim−j)!/∏n_i! · [x^m y^j z^(dim−j)] ∏_i ℓ_i^(n_i),
    ℓ_i = Σ_g d_(g,i)·x_g + a_i·y + b_i·z.

With X_i = Σ_g d_(g,i)·x_g, the pass multiplies in ℓ_i^(n_i) = Σ_p C(n_i,p)·X_i^p·
(a_i·y + b_i·z)^(n_i−p).  Kept as x-powers, its states have one field per distinct
divisor, up to ∏(m_g+1)·(dim+1) of them: 2^r when every divisor differs.  The other
way keeps one field per factor: the fundamental class F = ∏_g D_g^(m_g) = Σ_e F_e·h^e,
built one divisor at a time, has at most W terms, W the most exponent vectors e ≤ n
of one degree t ≤ r.  Counting the slots both ways, [x^m] ∏_i X_i^(e_i) =
∏e_i!/∏m_g!·F_e, so the same pass can start from F, take F's terms with e_i = p for
X_i^p and weigh them by n_i!/(n_i−p)!, with no ∏m_g!.  Both bounds are known from the
multidegrees, and the constructor takes the smaller.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate, compress
from math import comb, factorial, perm, prod
from operator import itemgetter, mul

from .errors import ValidationError, _immutable
from .ring import AmbientSpace, check_multidegree


def _times_linear(poly, terms):
    """poly · Σ d_i v_i on code -> integer coefficient dicts, each v_i capped at its bound.

    An exponent vector e has the code Σ e_i << shift_i, e_i in the bound_i.bit_length()
    bits of mask_i.  ``terms`` holds (d_i, 1 << shift_i, mask_i, bound_i << shift_i) per
    variable with d_i > 0: multiplying by v_i adds 1 << shift_i while e_i < bound_i.
    Every d_i is positive, so nothing cancels.
    """
    out = {}
    for d, step, mask, top in terms:
        for code, c in poly.items():
            if code & mask < top:
                out[k] = out.get(k := code + step, 0) + c * d
    return out


def _fields(bounds):
    """(1 << shift_i, mask_i, bound_i << shift_i) per variable for _times_linear, and the
    bits they take; variable i gets the bound_i.bit_length() bits above variable i − 1."""
    shifts = list(accumulate([m.bit_length() for m in bounds], initial=0))
    return [(1 << s, (1 << m.bit_length()) - 1 << s, m << s)
            for s, m in zip(shifts, bounds)], shifts[-1]


def _widest(space, r):
    """W: the most exponent vectors e ≤ n with one |e| = t ≤ r, a bound on F's terms as
    each divisor is multiplied in."""
    layers = [1]  # the number of e with |e| = t over the factors so far
    for n in space:
        layers = [sum(layers[max(0, t - n):t + 1])
                  for t in range(min(r, len(layers) + n - 1) + 1)]
    return max(layers)


def _buckets(poly, field):
    """p -> the terms of poly whose ``field`` holds p, with that field cleared: F's X^p."""
    step, mask, _ = field
    out = {}
    for code, v in poly.items():
        e = code & mask
        out.setdefault(e // step, {})[code - e] = v
    return out


class CompleteIntersection(namedtuple("CompleteIntersection", "space divisors")):
    """Intersection of divisors of the given multidegrees in an ambient product, and the pair
    ``(space, divisors)`` it compares, hashes and prints as.  Its dimension and κ's pass plan
    are kept beside that tuple, and it refuses attribute assignment."""

    # namedtuple's _replace builds through _make, which would skip the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, space: AmbientSpace, divisors: Sequence[Sequence[int]]):
        return super().__new__(cls, space, tuple([check_multidegree(space, d) for d in divisors]))

    def __init__(self, space, divisors):
        space, divisors = self  # as validated by __new__
        dim = sum(space) - len(divisors)
        if dim < 1:
            raise ValidationError(
                f"{len(divisors)} divisors in a {sum(space)}-dimensional "
                f"ambient space leave dimension {dim}; need at least 1"
            )
        groups = {}  # D_g -> m_g
        for d in divisors:
            groups[d] = groups.get(d, 0) + 1
        ms = [*groups.values()]
        # x-powers keep up to ∏(m_g+1)·(dim+1) states, F at most W terms in each degree
        # it is built through; take the smaller bound, the x-powers on a tie.
        if _widest(space, len(divisors)) < prod([m + 1 for m in ms]):
            fields, yshift = _fields(space)  # one field per factor, e_i ≤ n_i
            fundamental = {0: 1}
            for d in divisors:
                fundamental = _times_linear(fundamental, [(x, *f) for x, f in zip(d, fields) if x])
            # a column per factor, its X^p F's terms with e_i = p ≤ r; the pass clears every
            # field, so the x part of x^m's code is 0
            columns = [(f, len(divisors), (i,)) for i, f in enumerate(fields)]
            scale, top = 1, 0
        else:
            fundamental = None
            fields, yshift = _fields(ms)  # y, then w = y + z, sit above the x fields
            shared = {}  # d_(g,i) -> the factors i with that column
            for i, column in enumerate(zip(*groups) if groups else [()] * len(space)):
                shared.setdefault(column, []).append(i)
            # Per column, the terms of X = Σ_g d_(g,i)·x_g for _times_linear, and cap: the
            # most the x's can take on one of its factors, past which X^p is empty.
            columns = [([(d, *f) for d, f in zip(column, fields) if d],
                        sum(compress(ms, column)), factors)
                       for column, factors in shared.items()]
            scale, top = prod(map(factorial, ms)), sum([f[2] for f in fields])
        # the code of x^m, y = 0, w = dim: ∫F·H^dim's, and κ_j's at j << yshift above it
        vars(self).update(dim=dim, _fundamental=fundamental, _columns=columns, _yshift=yshift,
                          _scale=scale, _top=top + (dim << yshift + dim.bit_length()))
        # Every coefficient is non-negative, so F is zero exactly when x^m is missing from
        # the pass for ∫F·H^dim, H = Σh_i: a = 0, b = (1,…,1); a pass from F is empty when
        # F is.  Divisors with no zero entry meet every factor, and r < Σn_i slots take them.
        if all(map(all, groups)) or self._top in self._pass([0] * len(space), [1] * len(space)):
            return
        raise ValidationError(
            "divisor classes annihilate the ambient ring (zero fundamental class)"
        )

    __setattr__ = __delattr__ = _immutable

    def _pass(self, a, b):
        """∏_i ℓ_i^(n_i) as a code -> coefficient dict over (x, y, w), w ≤ dim; x the fields
        of the distinct divisors, x_g ≤ m_g, or those of F's factors, cleared as they pass.

        The product is homogeneous, so z = w − y is implicit; w = y + z only grows, and
        ends at dim, so no state past w = dim is kept.  Factors with one column and one
        (a_i, b_i) share ℓ_i, and their powers are taken as one, widest last: after the
        last only x^m is kept.  poly·ℓ^n = Σ_p c(n,p)·poly·X^p·(a_i·y + b_i·z)^(n−p), c the
        binomial or, from F, n!/(n−p)!: X^p by products with small coefficients, p ≤ cap,
        or as F's terms with e_i = p.  Then each term of (a_i·y + b_i·z)^s = Σ_q C(s,q)·
        a_i^q·b_i^(s−q)·y^q·z^(s−q) takes one weight per (p, q), a_i^q·b_i^(s−q) by a
        running ratio, and a single q unless a_i and b_i are both non-zero.
        """
        yshift, dim, space, fundamental = self._yshift, self.dim, self.space, self._fundamental
        wshift = yshift + dim.bit_length()
        xmask, ceiling = (1 << yshift) - 1, dim + 1 << wshift
        steps = []
        for column, cap, factors in self._columns:
            merged = {}
            for i in factors:
                merged[a[i], b[i]] = merged.get((a[i], b[i]), 0) + space[i]
            steps += [(n, x, y, column, cap) for (x, y), n in merged.items()]
        steps.sort(key=itemgetter(0))
        poly, choose = ({0: 1}, comb) if fundamental is None else (fundamental, perm)
        for last, (n, x, y, column, cap) in enumerate(steps, 1 - len(steps)):
            floor = 0 if last else self._top & xmask
            both, out, power = x and y, {}, poly
            buckets = None if fundamental is None else _buckets(poly, column)
            for p in range(min(n, cap) + 1):
                if buckets is not None:
                    power = buckets.get(p)
                elif p:
                    power = _times_linear(power, column)
                s = n - p
                if s > dim or not power:  # every key past w ≤ dim, or no X^p
                    continue
                c, t = choose(n, p), (y or x) ** s  # a_i^q·b_i^(s−q) at the first q
                for q in range(s + 1) if both else (s if x else 0,):
                    if both and q:
                        t = t // y * x
                    w = c * comb(s, q) * t if both else c * t
                    shift = (q << yshift) + (s << wshift)
                    for code, v in power.items() if w else ():
                        if code & xmask >= floor and (key := code + shift) < ceiling:
                            out[key] = out.get(key, 0) + w * v
            if not out:
                return out
            poly = out
        return poly

    def kappa(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Integrals of a^j * b^(dim-j) over the intersection, j = 0..dim, for multidegrees a, b.

        All of κ comes from one :meth:`_pass`, which keeps at most min(∏(m_g+1), W)·(dim+1)
        states (W from :func:`_widest`).  From x-powers it takes at most Σ_i min(n_i, cap_i)
        products by X, cap_i the sum of the m_g whose D_g meet factor i; from F, built by r
        products over at most W states, it takes none.  All of these are known from the
        multidegrees before any work.
        """
        a, b = (check_multidegree(self.space, d) for d in (a, b))
        poly, dim, yshift = self._pass(a, b), self.dim, self._yshift
        denominator = prod(map(factorial, self.space))  # ∏n_i!
        factorials = list(accumulate(range(1, dim + 1), mul, initial=1))  # j!, j = 0..dim
        return tuple([poly.pop(self._top + (j << yshift), 0) * self._scale * f
                      * factorials[-1 - j] // denominator for j, f in enumerate(factorials)])
