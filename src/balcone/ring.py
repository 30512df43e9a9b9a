"""Exact arithmetic in truncated cohomology rings of products of projective spaces.

The even cohomology ring of ``P^{n_1} x ... x P^{n_k}`` is
``Q[h_1,...,h_k] / (h_1^{n_1+1}, ..., h_k^{n_k+1})`` where ``h_i`` is the
hyperplane class pulled back from the i-th factor.  Classes are stored
sparsely as maps from exponent vectors to rational coefficients; a monomial
whose exponent exceeds a truncation bound is zero in the quotient and is
never stored, so equality of classes is equality of term maps.

All coefficients are ``fractions.Fraction`` over Python's arbitrary
precision integers.  Values are immutable and operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import ValidationError

Exponent = Tuple[int, ...]


class AmbientSpace:
    """A product of projective spaces, one positive dimension per factor."""

    __slots__ = ("dims",)

    def __init__(self, dims: Sequence[int]):
        dims = tuple(dims)
        if not dims:
            raise ValidationError("ambient space needs at least one projective factor")
        for i, n in enumerate(dims):
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValidationError(
                    f"factor {i}: dimension must be a positive integer, got {n!r}"
                )
        self.dims = dims

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def top_exponent(self) -> Exponent:
        """Exponent of the unique top monomial ``h_1^{n_1} ... h_k^{n_k}``."""
        return self.dims

    def zero(self) -> "CohomClass":
        return CohomClass(self, {})

    def one(self) -> "CohomClass":
        return CohomClass(self, {(0,) * self.nfactors: 1})

    def generator(self, i: int) -> "CohomClass":
        """The hyperplane class ``h_i`` of the i-th factor."""
        e = [0] * self.nfactors
        e[i] = 1
        return CohomClass(self, {tuple(e): 1})

    def __eq__(self, other):
        if not isinstance(other, AmbientSpace):
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"AmbientSpace({list(self.dims)})"


class CohomClass:
    """Element of the truncated ring, kept in canonical sparse form.

    The constructor canonicalizes: coefficients become ``Fraction``, zero
    coefficients are dropped, and monomials violating a truncation bound
    (zero in the quotient) are discarded.  Exponents of the wrong length or
    with negative entries are rejected.
    """

    __slots__ = ("space", "_terms")

    def __init__(self, space: AmbientSpace, terms: Mapping[Exponent, object]):
        dims = space.dims
        canonical = {}
        for exp, coeff in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != len(dims):
                raise ValidationError(
                    f"exponent vector {exp} has length {len(exp)}, expected {len(dims)}"
                )
            if any(not isinstance(e, int) or e < 0 for e in exp):
                raise ValidationError(
                    f"exponent vector {exp} must have non-negative integer entries"
                )
            if any(e > n for e, n in zip(exp, dims)):
                continue
            c = Fraction(coeff)
            if c:
                canonical[exp] = c
        self.space = space
        self._terms = canonical

    def terms(self) -> dict:
        """Copy of the canonical exponent -> coefficient map."""
        return dict(self._terms)

    def coefficient(self, exponent) -> Fraction:
        return self._terms.get(tuple(exponent), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self):
        """Common total degree of the stored monomials.

        Returns ``None`` for the zero class and raises if the class mixes
        degrees.
        """
        degrees = {sum(e) for e in self._terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValidationError(
                f"class is not homogeneous (degrees {sorted(degrees)})"
            )
        return degrees.pop()

    def _require_same_space(self, other: "CohomClass"):
        if self.space != other.space:
            raise ValidationError("classes live on different ambient spaces")

    def __add__(self, other):
        if not isinstance(other, CohomClass):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return CohomClass(self.space, out)

    def __sub__(self, other):
        if not isinstance(other, CohomClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return CohomClass(self.space, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, CohomClass):
            self._require_same_space(other)
            dims = self.space.dims
            out: dict = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    if any(a > n for a, n in zip(e, dims)):
                        continue
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return CohomClass(self.space, out)
        if isinstance(other, (int, Fraction)):
            return CohomClass(
                self.space, {e: c * other for e, c in self._terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValidationError(f"exponent must be a non-negative integer, got {n!r}")
        result = self.space.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, CohomClass):
            return NotImplemented
        return self.space == other.space and self._terms == other._terms

    def __hash__(self):
        return hash((self.space, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"CohomClass(0 on {self.space!r})"
        bits = []
        for e in sorted(self._terms):
            mono = "*".join(
                f"h{i}^{a}" if a > 1 else f"h{i}" for i, a in enumerate(e) if a
            )
            bits.append(f"{self._terms[e]}*{mono}" if mono else str(self._terms[e]))
        return "CohomClass(" + " + ".join(bits) + f" on {self.space!r})"


def check_multidegree(space: AmbientSpace, multidegree: Sequence[int]) -> Tuple[int, ...]:
    """The multidegree as a tuple, after checking its length and entries."""
    d = tuple(multidegree)
    if len(d) != space.nfactors:
        raise ValidationError(
            f"multidegree {d} has length {len(d)}, expected {space.nfactors}"
        )
    for i, di in enumerate(d):
        if not isinstance(di, int) or isinstance(di, bool) or di < 0:
            raise ValidationError(
                f"multidegree entry {i}: expected a non-negative integer, got {di!r}"
            )
    return d


def divisor_class(space: AmbientSpace, multidegree: Sequence[int]) -> CohomClass:
    """First Chern class ``sum(d_i * h_i)`` of a multidegree.

    A multihomogeneous polynomial of degree ``d_i`` in the variables of the
    i-th factor cuts out a divisor with exactly this class; the all-zero
    multidegree gives the zero class.
    """
    terms = {}
    for i, di in enumerate(check_multidegree(space, multidegree)):
        if di:
            e = [0] * space.nfactors
            e[i] = 1
            terms[tuple(e)] = di
    return CohomClass(space, terms)


def linear_combination(terms: Iterable) -> CohomClass:
    """Exact sum ``sum(c_i * p_i)`` over (coefficient, class) pairs."""
    terms = list(terms)
    if not terms:
        raise ValidationError("linear combination needs at least one term")
    space = terms[0][1].space
    acc: dict = {}
    for coeff, cls in terms:
        if cls.space != space:
            raise ValidationError("classes live on different ambient spaces")
        c0 = Fraction(coeff)
        for e, c in cls._terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c0 * c
    return CohomClass(space, acc)


def integrate(p: CohomClass) -> Fraction:
    """Coefficient of the top monomial ``h_1^{n_1} ... h_k^{n_k}``.

    This fixes the normalization in which the top monomial integrates to 1
    over the ambient space.  A class without a top-degree part integrates
    to 0, which keeps the map linear without degree bookkeeping.
    """
    return p.coefficient(p.space.top_exponent)
