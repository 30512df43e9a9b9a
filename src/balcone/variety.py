"""Complete intersections in a product of projective spaces.

An intersection is recorded purely by the multidegrees of its defining
divisors.  Everything computed "on" the subvariety is pushed to the ambient
space: an integral over the intersection is the ambient integral of the
divisors' linear forms times the integrand.  ``kappa`` reads every κ_j from one
integer pass over the ambient factors (or, where that keeps more states, from one
contraction of the divisors' product), and a scenario reads every number it
reports from that one pass.

The identity behind the pass: group the r divisors into distinct multidegrees
D_g with multiplicities m_g.  In ∫ ∏_g D_g^(m_g)·a^j·b^(dim−j) each of the
r + dim linear forms lands on one of the n_i slots of factor i; counting those
assignments factor by factor, not form by form,

    κ_j = ∏m_g!·j!·(dim−j)!/∏n_i! · [x^m y^j z^(dim−j)] ∏_i ℓ_i^(n_i),
    ℓ_i = Σ_g d_(g,i)·x_g + a_i·y + b_i·z.

The pass keeps one field per distinct divisor, up to ∏(m_g+1)·(dim+1) states: 2^r
when every divisor differs.  The fundamental class F = ∏_g D_g^(m_g), built one
divisor at a time, has at most W terms, W the most exponent vectors e ≤ n of one
degree t ≤ r, and its contraction holds one polynomial of dim+1 terms per term.
Both bounds are known from the multidegrees, and the constructor takes the
smaller: where W < ∏(m_g+1) it builds F, and κ contracts it instead
(:meth:`CompleteIntersection._contract`).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, compress, repeat
from math import comb, factorial, prod
from operator import itemgetter, mul

from .errors import ValidationError
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


def _binomial(c, a, b, k):
    """c·(a·y + b·z)^k as its coefficients c·C(k, q)·a^q·b^(k−q) by powers of y, q = 0..k."""
    if not (a and b):
        return [0] * k + [c * a ** k] if a else [c * b ** k]
    t = b ** k  # a^q·b^(k−q), one power held at a time
    out = [c * t]
    for q in range(1, k + 1):
        t = t // b * a
        out.append(c * comb(k, q) * t)
    return out


def _times(p, w):
    """The product of two polynomials in y, each a list of coefficients."""
    out = [0] * (len(p) + len(w) - 1)
    for s, u in enumerate(p):
        for t, v in enumerate(w) if u else ():
            out[s + t] += u * v
    return out


class CompleteIntersection:
    """Intersection of divisors of the given multidegrees in an ambient product."""

    __slots__ = ("space", "divisors", "dim", "_fundamental", "_columns", "_yshift", "_top",
                 "_scale")

    def __init__(self, space: AmbientSpace, divisors: Sequence[Sequence[int]]):
        divisors = tuple([check_multidegree(space, d) for d in divisors])
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
        self.space = space
        self.divisors = divisors
        self.dim = dim
        # The pass over the factors keeps up to ∏(m_g+1)·(dim+1) states, one field per
        # distinct divisor; F has at most W terms in each degree it is built through, and
        # its contraction holds one polynomial of dim+1 terms per term.  Take the smaller
        # bound, the pass on a tie.
        if _widest(space, len(divisors)) < prod([m + 1 for m in ms]):
            self._fundamental = self._fundamental_class(groups)
            # kappa reads _contract's {j: count} as it reads the pass's codes
            self._top, self._yshift, self._scale = 0, 0, 1
            if self._fundamental:
                return
        else:
            self._fundamental = None
            self._plan(groups, ms)
            # Every coefficient is non-negative, so F is zero exactly when x^m is missing
            # from the pass for ∫F·H^dim, H = Σh_i: a = 0, b = (1,…,1).  Divisors with no
            # zero entry meet every factor, and r < Σn_i slots take them.
            if all(map(all, groups)) or self._top in self._pass([0] * len(space),
                                                                   [1] * len(space)):
                return
        raise ValidationError(
            "divisor classes annihilate the ambient ring (zero fundamental class)"
        )

    def _plan(self, groups, ms):
        """The x fields of the pass and, per column of multidegrees, its factors."""
        fields, self._yshift = _fields(ms)  # y, then w = y + z, sit above the x fields
        columns = {}  # d_(g,i) -> the factors i with that column
        for i, column in enumerate(zip(*groups) if groups else [()] * len(self.space)):
            columns.setdefault(column, []).append(i)
        # Per column, the terms of X = Σ_g d_(g,i)·x_g for _times_linear, and cap: the most
        # the x's can take on one of its factors, past which X^p is empty.
        self._columns = [([(d, *f) for d, f in zip(column, fields) if d],
                          sum(compress(ms, column)), factors)
                         for column, factors in columns.items()]
        # the code of x^m, y = 0, w = dim: ∫F·H^dim's, and κ_j's at j << yshift above it
        self._top = sum([top for _, _, top in fields]) + (self.dim << self._yshift
                                                          + self.dim.bit_length())
        self._scale = prod(map(factorial, ms))  # ∏m_g!

    def _fundamental_class(self, groups):
        """F = ∏_g D_g^(m_g) as a code -> coefficient dict over h_i ≤ n_i, one field per factor."""
        fields = _fields(self.space)[0]
        poly = {0: 1}
        for d, m in groups.items():
            terms = [(x, *f) for x, f in zip(d, fields) if x]
            for _ in range(m):
                poly = _times_linear(poly, terms)
        return poly

    def _contract(self, a, b):
        """j -> ∏m_g!·[x^m y^j z^(dim−j)] ∏_i ℓ_i^(n_i), j = 0..dim, from F = Σ_e F_e·h^e.

        Counting the slots both ways, [x^m] ∏_i X_i^(e_i) = ∏e_i!/∏m_g!·F_e; so expanding
        each ℓ_i^(n_i) = (X_i + a_i·y + b_i·z)^(n_i) by the power e_i of X_i gives
        Σ_e F_e·∏_i n_i!/k_i!·(a_i·y + b_i·z)^(k_i), k = n − e, |k| = dim.
        """
        space, r = self.space, len(self.divisors)
        # n!/(n−e)!, e = 0..min(n, r): no e_i passes r
        falling = [list(accumulate(range(n, max(n - r, 0), -1), mul, initial=1)) for n in space]
        out = [0] * (self.dim + 1)
        for code, c in self._fundamental.items():
            ks = []
            for n, f in zip(space, falling):
                e = code & (1 << n.bit_length()) - 1
                code >>= n.bit_length()
                c *= f[e]
                ks.append(n - e)
            # a factor with a_i = b_i = 0 and k_i > 0 zeroes the term
            if any([k and not (x or y) for k, x, y in zip(ks, a, b)]):
                continue
            poly = None  # c times the binomials of the factors with k_i > 0; |k| = dim ≥ 1
            for k, x, y in zip(ks, a, b):
                if k and poly is None:
                    poly = _binomial(c, x, y, k)
                elif k:
                    poly = _times(poly, _binomial(1, x, y, k))
            for j, v in enumerate(poly):
                out[j] += v
        return dict(enumerate(out))

    def _pass(self, a, b):
        """∏_i ℓ_i^(n_i) as a code -> coefficient dict over (x_1…x_G, y, w), x_g ≤ m_g, w ≤ dim.

        The product is homogeneous, so z = w − y is implicit; w = y + z only grows, and
        ends at dim, so no state past w = dim is kept.  Factors with one column and one
        (a_i, b_i) share ℓ_i, and their powers are taken as one, widest last: after the
        last only x^m is kept.  With X = Σ_g d_(g,i)·x_g, poly·ℓ^n = Σ_p C(n,p)·poly·X^p·
        (a_i·y + b_i·z)^(n−p): X^p by products with small coefficients, p ≤ cap, then
        each term of (a_i·y + b_i·z)^s = Σ_q C(s,q)·a_i^q·b_i^(s−q)·y^q·z^(s−q), one weight
        per (p, q), and a single q unless a_i and b_i are both non-zero.
        """
        yshift, dim, space = self._yshift, self.dim, self.space
        wshift = yshift + dim.bit_length()
        xmask, ceiling = (1 << yshift) - 1, dim + 1 << wshift
        steps = []
        for terms, cap, factors in self._columns:
            merged = {}
            for i in factors:
                merged[a[i], b[i]] = merged.get((a[i], b[i]), 0) + space[i]
            steps += [(n, x, y, terms, cap) for (x, y), n in merged.items()]
        steps.sort(key=itemgetter(0))
        poly = {0: 1}
        for last, (n, x, y, terms, cap) in enumerate(steps, 1 - len(steps)):
            floor = 0 if last else self._top & xmask
            if both := x and y:  # b_i^0…b_i^n; a_i^q is a running product
                ys = list(accumulate(repeat(y, n), mul, initial=1))
            out, power = {}, poly
            for p in range(min(n, cap) + 1):
                if p:
                    power = _times_linear(power, terms)
                s, xq = n - p, 1
                if s > dim:  # every key past w ≤ dim
                    continue
                for q in range(s + 1) if both else (s if x else 0,):
                    w = comb(n, p) * (comb(s, q) * xq * ys[s - q] if both else (x or y) ** s)
                    xq *= x
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

        All of κ comes from one :meth:`_pass`, which keeps at most ∏(m_g+1)·(dim+1) states
        and takes at most Σ_i min(n_i, cap_i) products by X, cap_i the sum of the m_g whose
        D_g meet factor i; or, where W (:func:`_widest`) is the smaller, from one
        :meth:`_contract` of F, built by r products over at most W states.  All of these
        are known from the multidegrees before any work.
        """
        a, b = (check_multidegree(self.space, d) for d in (a, b))
        poly = self._pass(a, b) if self._fundamental is None else self._contract(a, b)
        dim, yshift = self.dim, self._yshift
        denominator = prod(map(factorial, self.space))  # ∏n_i!
        factorials = list(accumulate(range(1, dim + 1), mul, initial=1))  # j!, j = 0..dim
        return tuple([poly.pop(self._top + (j << yshift), 0) * self._scale * f
                      * factorials[-1 - j] // denominator for j, f in enumerate(factorials)])

    def __eq__(self, other):
        if not isinstance(other, CompleteIntersection):
            return NotImplemented
        return self.space == other.space and self.divisors == other.divisors

    def __hash__(self):
        return hash((self.space, self.divisors))

    def __repr__(self):
        return f"CompleteIntersection({self.space!r}, {list(self.divisors)})"
