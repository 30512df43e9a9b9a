"""Products of projective spaces and the multidegrees of their divisors.

A divisor of ``P^{n_1} x ... x P^{n_k}`` cut out by a multihomogeneous
polynomial has the class ``sum(d_i * h_i)``, ``h_i`` the hyperplane class
pulled back from the i-th factor; it is recorded by its multidegree
``(d_1, ..., d_k)``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ValidationError, _entries

_INT = frozenset([int])


class AmbientSpace(tuple):
    """A product of projective spaces: the tuple of its factor dimensions.

    ``len(space)`` is the number of factors and ``sum(space)`` the dimension;
    every factor dimension is a positive integer.
    """

    __slots__ = ()

    def __new__(cls, dims: Sequence[int]):
        space = super().__new__(cls, _entries(dims, "expected a list of integers", kinds=_INT))
        if not space:
            raise ValidationError("ambient space needs at least one projective factor")
        if min(space) < 1:
            i = next(i for i, n in enumerate(space) if n < 1)
            raise ValidationError(
                f"factor {i}: dimension must be a positive integer, got {space[i]!r}")
        return space

    def __repr__(self):
        return f"AmbientSpace({list(self)})"


def check_multidegree(space: AmbientSpace, multidegree: Sequence[int]) -> tuple[int, ...]:
    """The multidegree as a tuple, after checking its length and entries."""
    d = _entries(multidegree, "expected a list of integers", kinds=_INT)
    if len(d) != len(space):
        raise ValidationError(f"multidegree {d} has length {len(d)}, expected {len(space)}")
    if min(d, default=0) < 0:
        i = next(i for i, di in enumerate(d) if di < 0)
        raise ValidationError(
            f"multidegree entry {i}: expected a non-negative integer, got {d[i]!r}")
    return d

