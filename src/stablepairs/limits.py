"""Toric degeneration toolkit.

Two questions about a finite support A and a prescribed subset B: does the
equivariant projection forgetting the coordinates outside B extend to the
closure of the torus orbit, and is there a one-parameter subgroup whose
renormalized limit has support exactly B?  Both are containment questions
of `polytope`.  The second is answered constructively: a covector constant
on B and strictly larger on the rest is the separating functional of one
point of B from the rest of A, modulo the directions along which B is
flat, cleared to a primitive integer covector.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .lattice import OnePS, clear_denominators, lattice_point
from .polytope import (
    NO_CONTEXT,
    ContainmentContext,
    PointSet,
    _as_pointset,
    _check_dims,
    hull_contains,
    separating_functional,
)


def extension_criterion(
    A: PointSet | Iterable[Sequence[int]],
    B: PointSet | Iterable[Sequence[int]],
    ctx: ContainmentContext = NO_CONTEXT,
) -> bool:
    """Whether the orbit map that forgets the coordinates outside B extends
    to the whole orbit closure of A.

    Holds iff the hull of A minus B is contained in the hull of B together
    with the origin.  An empty A minus B is vacuously true.
    """
    A = _as_pointset(A)
    B = _as_pointset(B)
    if not B.points:
        raise ValueError("B must be nonempty")
    if not set(B.points) <= set(A.points):
        raise ValueError("B must be a subset of A")
    rest = PointSet(p for p in A.points if p not in B)
    if not rest.points:
        return True
    origin = (0,) * A.dim
    return hull_contains(PointSet(B.points + (origin,)), rest, ctx)


def find_degeneration(
    A: PointSet | Iterable[Sequence[int]],
    B: PointSet | Iterable[Sequence[int]],
    ctx: ContainmentContext = NO_CONTEXT,
) -> OnePS | None:
    """An admissible integer covector realizing B as a limit support of A.

    Such a u has a common value on B and strictly larger pairings on A
    minus B, so the renormalized limit along u lands on support exactly B.
    Equivalently, u vanishes on the span L of the quotient directions and
    the differences b - b0 (b0 the first point of B) and separates b0 from
    conv(A minus B).  By Gordan's theorem it exists exactly when b0 lies
    outside conv(A minus B) + L, and then it is the separating functional of
    that containment question, an integer covector made primitive.
    Returns None when B is not a limit support.
    """
    A = _as_pointset(A)
    B = _as_pointset(B)
    if not B.points:
        raise ValueError("B must be nonempty")
    if not set(B.points) < set(A.points):
        raise ValueError("B must be a proper subset of A")
    _check_dims(A, None, ctx)
    b0 = B.points[0]
    span, _ = linalg.rref(
        [*ctx.mod_directions, *([x - y for x, y in zip(b, b0)] for b in B.points[1:])]
    )
    flat = ContainmentContext(map(clear_denominators, span))
    rest = PointSet(p for p in A.points if p not in B)
    try:
        g = separating_functional(rest, b0, flat)
    except ValueError:
        return None  # b0 lies in conv(A minus B) + L
    u = clear_denominators(g)
    if limit_support(A, u) != B:
        raise RuntimeError("internal: degeneration covector missed its target support")
    return u


def limit_support(
    A: PointSet | Iterable[Sequence[int]], u: Sequence[int]
) -> PointSet:
    """Support of the renormalized limit along u: the argmin of the pairing.
    u is checked as every support point is (`lattice_point`)."""
    A, u = _as_pointset(A), lattice_point(u)
    if not A.points:
        raise ValueError("empty point set")
    if len(u) != A.dim:
        raise ValueError(f"length mismatch: {len(u)} vs {A.dim}")
    xs = [sum(map(mul, u, p)) for p in A.points]
    lo = min(xs)
    return PointSet(p for p, x in zip(A.points, xs) if x == lo)
