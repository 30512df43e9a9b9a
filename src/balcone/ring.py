"""Products of projective spaces and the multidegrees of their divisors.

A divisor of ``P^{n_1} x ... x P^{n_k}`` cut out by a multihomogeneous
polynomial has the class ``sum(d_i * h_i)``, ``h_i`` the hyperplane class
pulled back from the i-th factor; it is recorded by its multidegree
``(d_1, ..., d_k)``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import ValidationError


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

    def __eq__(self, other):
        if not isinstance(other, AmbientSpace):
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"AmbientSpace({list(self.dims)})"


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

