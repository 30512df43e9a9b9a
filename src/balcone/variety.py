"""Complete intersections in a product of projective spaces.

An intersection is recorded purely by the multidegrees of its defining
divisors.  Everything computed "on" the subvariety is pushed to the ambient
space: an integral over the intersection is the ambient integral against its
fundamental class, the product of the divisor classes.  The fundamental class
is an integer polynomial in the hyperplane classes, a product of linear forms,
and ``kappa`` reads every κ_j from one integer contraction of it (one per j on
wide entries); a scenario reads every number it reports from that one pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, repeat
from math import factorial, prod
from operator import mul

from .errors import ValidationError
from .ring import AmbientSpace, check_multidegree


def _times_linear(poly, linear, fields):
    """poly · Σ d_i h_i in the truncated ring, on code -> integer coefficient dicts.

    An exponent vector e has the code Σ e_i << shift_i, e_i in the n_i.bit_length()
    bits of ``mask_i``; ``fields`` holds (shift_i, mask_i, n_i) per factor.  Multiplying
    by h_i adds 1 << shift_i while e_i < n_i.  Multidegrees are non-negative, so
    nothing cancels: the zero class is the empty dict.
    """
    terms = [(d, 1 << s, mask, n << s) for d, (s, mask, n) in zip(linear, fields) if d]
    out = {}
    for d, step, mask, top in terms:
        for code, c in poly.items():
            if code & mask < top:
                out[k] = out.get(k := code + step, 0) + c * d
    return out


def _weights(n, b, size):
    """b^k·n!/k! at entry e = n − k, e = 0..n, by running products; then zeros up to ``size``.

    Only one power of b is held at a time: with b wide, the powers are as large as the table.
    """
    falling = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]  # n!/k!, k = 0..n
    weights = [f * p for f, p in zip(falling, accumulate(repeat(b, n), mul, initial=1))]
    return weights[::-1] + [0] * (size - n - 1)


# ``kappa``'s packed pass spends time and memory on the bits of its weight tables; the per-j
# contractions instead multiply about (dim+1)·|F|·k weights of a few bits each.  On P^n × P^1,
# (P^1)^k, (P^2)^k and (P^3)^3 with entries up to 10^1000 the packed pass was faster below
# about 1,000 table bits per such product and slower above 3,500, so it runs while its tables
# hold at most 2^11 bits per product and 2^26 bits (8 MiB) in all.
_PACKED_BITS_PER_PRODUCT = 1 << 11
_PACKED_BITS = 1 << 26


def _contract(poly, tables):
    """Σ c·∏ T[(code & mask) >> shift] over the terms of ``poly`` and the (T, shift, mask)."""
    top = 0
    for code, c in poly.items():
        for t, shift, mask in tables:
            c *= t[(code & mask) >> shift]
        top += c
    return top


class CompleteIntersection:
    """Intersection of divisors of the given multidegrees in an ambient product."""

    __slots__ = ("space", "divisors", "dim", "_fields", "_fundamental")

    def __init__(self, space: AmbientSpace, divisors: Sequence[Sequence[int]]):
        divisors = tuple([check_multidegree(space, d) for d in divisors])
        dim = sum(space) - len(divisors)
        if dim < 1:
            raise ValidationError(
                f"{len(divisors)} divisors in a {sum(space)}-dimensional "
                f"ambient space leave dimension {dim}; need at least 1"
            )
        shifts = accumulate([n.bit_length() for n in space[:-1]], initial=0)
        fields = tuple([(s, (1 << n.bit_length()) - 1 << s, n) for s, n in zip(shifts, space)])
        fundamental = {0: 1}
        for d in divisors:
            fundamental = _times_linear(fundamental, d, fields)
        if not fundamental:
            raise ValidationError(
                "divisor classes annihilate the ambient ring (zero fundamental class)"
            )
        self.space = space
        self.divisors = divisors
        self.dim = dim
        self._fields = fields
        self._fundamental = fundamental

    def kappa(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Integrals of a^j * b^(dim-j) over the intersection, j = 0..dim, for multidegrees a, b.

        All of κ comes from one contraction of the fundamental class F = Σ c_e h^e.  The
        coefficient of h^k in (s·a + b)^dim is dim!/∏k_i! · ∏(s·a_i + b_i)^(k_i) (truncation
        drops monomials, it changes no coefficient), and a term of F reaches the top monomial
        h^n only through k = n − e; so, over the common factor ∏n_i!,
        Σ_j κ_j·s^j·∏n_i!/(j!(dim−j)!) = Σ_e c_e·∏ n_i!/k_i!·(s·a_i + b_i)^(k_i).
        Every term is a non-negative integer, and their sum at s = 1 is at most
        B = ΣF·∏n_i!·∏max(1, a_i + b_i)^(n_i).  At s = 2^L, L the bit length of B, each
        coefficient of s^j sits in its own L-bit field of the one integer sum.  The weight
        tables of adjacent factors are multiplied into one, read by their joint bit fields of
        the code (:func:`_times_linear`), while it has no more entries than F; so a term takes
        one product per table.

        Factor i adds at most n_i·(n_i + 1 + |F|)·log(s·a_i + b_i) bits to those tables, to
        its own and to a merged one.  When their sum passes ``_PACKED_BITS`` or
        ``_PACKED_BITS_PER_PRODUCT``, κ_j is read one j at a time instead, as the top
        coefficient of F·a^j·b^(dim−j): F·a^j contracted against b's tables, times
        (dim−j)!/∏n_i!.
        """
        a, b = (check_multidegree(self.space, d) for d in (a, b))
        denominator = prod(map(factorial, self.space))  # ∏n_i!
        factorials = list(accumulate(range(1, self.dim + 1), mul, initial=1))  # j!, j = 0..dim
        size, total = len(self._fundamental), sum(self._fundamental.values())
        # log(s·a_i + b_i) is about L + log a_i, and L at most the bit length of ΣF·∏n_i! plus
        # Σ n_i·log(a_i + b_i): the table bits, before any power of an entry is taken.
        most = (total * denominator).bit_length() + sum(
            [n * (x + y).bit_length() for x, y, n in zip(a, b, self.space)])
        bits = sum([n * (n + 1 + size) * (most + x.bit_length() if x else y.bit_length())
                    for x, y, n in zip(a, b, self.space)])
        if bits > min(_PACKED_BITS, _PACKED_BITS_PER_PRODUCT * (self.dim + 1) * size * len(a)):
            # A factor with b_i = 0 zeroes every term with e_i < n_i.  Put first, it spares
            # the term's other products: 0 times an int costs nothing.
            order = sorted(zip(b, self._fields), key=lambda f: f[0] > 0)
            tables = [(_weights(n, y, (mask >> shift) + 1), shift, mask)
                      for y, (shift, mask, n) in order]
            poly, values = self._fundamental, []
            for j, f in enumerate(reversed(factorials)):  # (dim − j)!
                if j:
                    poly = _times_linear(poly, a, self._fields)
                values.append(_contract(poly, tables) * f // denominator)
            return tuple(values)
        width = (total * denominator  # L, the bit length of B
                 * prod([max(1, x + y) ** n for x, y, n in zip(a, b, self.space)])).bit_length()
        tables = []  # (T, shift, mask) per run of adjacent fields, T[v] = ∏ w_i[n_i − e_i]
        for x, y, (shift, mask, n) in zip(a, b, self._fields):
            t = _weights(n, (x << width) + y, (mask >> shift) + 1)
            if tables and len(tables[-1][0]) * len(t) <= size:
                low, shift, low_mask = tables.pop()
                t, mask = [u * v for u in t for v in low], mask | low_mask
            tables.append((t, shift, mask))
        top = _contract(self._fundamental, tables)
        return tuple([(top >> j * width & (1 << width) - 1) * f * factorials[-1 - j] // denominator
                      for j, f in enumerate(factorials)])

    def __eq__(self, other):
        if not isinstance(other, CompleteIntersection):
            return NotImplemented
        return self.space == other.space and self.divisors == other.divisors

    def __hash__(self):
        return hash((self.space, self.divisors))

    def __repr__(self):
        return f"CompleteIntersection({self.space!r}, {list(self.divisors)})"
