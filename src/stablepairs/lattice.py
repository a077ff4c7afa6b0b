"""Exact lattice primitives: characters, one-parameter subgroups, pairings.

Characters live in an ambient free lattice Z^rank.  Quotient conventions
(for the special linear group, Z^(N+1) modulo the all-ones vector) are
expressed by constraint covectors that every admissible one-parameter
subgroup must annihilate; points themselves are never quotiented.  All
arithmetic is exact: integers stay integers, rationals are `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .linalg import integral

Scalar = int | Fraction
LatticePoint = tuple[int, ...]
OnePS = tuple[int, ...]


def lattice_point(coords: Iterable[Scalar]) -> LatticePoint:
    """Coerce coordinates to an exact integer tuple.

    Rejects anything non-integral: floats would silently poison the exact
    verdicts downstream.  A `Fraction` with denominator one and an `int`
    subclass other than `bool` become plain ints; `bool`, `float`, `str` and
    every other type raise `ValueError`.  Coordinates that are all plain
    ints, the common case, are returned as one tuple without any conversion.
    """
    out = tuple(coords)
    for c in out:
        if type(c) is not int:
            return tuple(map(_integer, out))
    return out


def _integer(c: Scalar) -> int:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"non-integral lattice coordinate {c}")
        return c.numerator
    if isinstance(c, bool) or not isinstance(c, int):
        raise ValueError(f"non-integer lattice coordinate {c!r}")
    return int(c)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Exact dot product; raises on length mismatch."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def is_admissible(u: Sequence[int], constraints: Iterable[Sequence[int]]) -> bool:
    """True when u annihilates every declared constraint covector."""
    return all(dot(c, u) == 0 for c in constraints)


def require_admissible(u: Sequence[int], constraints: Iterable[Sequence[int]]) -> None:
    if not is_admissible(u, constraints):
        raise ValueError(f"one-parameter subgroup {tuple(u)} violates the constraints")


def clear_denominators(g: Sequence[Scalar]) -> OnePS:
    """Smallest positive multiple of a rational covector that is integral,
    reduced to a primitive integer vector.

    The common denominator comes from `linalg.integral`, and the gcd of
    the scaled entries is divided out.  The multiplier is positive, so the
    direction of g is preserved.  Raises on the zero functional, which has
    no primitive representative.
    """
    _, (ints,) = integral([g])
    if not any(ints):
        raise ValueError("cannot clear denominators of the zero functional")
    g0 = gcd(*ints)
    return tuple([c // g0 for c in ints])
