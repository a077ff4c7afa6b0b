"""Toric degeneration toolkit.

Two questions about a finite support A and a prescribed subset B: does the
equivariant projection forgetting the coordinates outside B extend to the
closure of the torus orbit, and is there a one-parameter subgroup whose
renormalized limit has support exactly B?  The second is answered
constructively: a covector constant on B and strictly larger on the rest
is found by exact LP, rationalized and cleared to a primitive integer
covector, mirroring the separation argument that produces it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .lattice import OnePS, clear_denominators, dot
from .linprog import OPTIMAL, solve_lp
from .polytope import (
    NO_CONTEXT,
    ContainmentContext,
    PointSet,
    _as_pointset,
    hull_contains,
    min_functional,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    Searches for u with a common value on B and strictly larger pairings on
    A minus B, so the renormalized limit along u lands on support exactly
    B.  Strictness is encoded by maximizing a slack bounded by one; the
    slack is positive iff such a u exists.  Returns None when B is not a
    limit support.
    """
    A = _as_pointset(A)
    B = _as_pointset(B)
    if not B.points:
        raise ValueError("B must be nonempty")
    if not set(B.points) < set(A.points):
        raise ValueError("B must be a proper subset of A")
    n = A.dim
    rest = [p for p in A.points if p not in B]
    dirs = ctx.mod_directions
    for d in dirs:
        if len(d) != n:
            raise ValueError("quotient direction dimension mismatch")

    # Variables: u (free), c (free), delta (>=0), one surplus per strict row
    # (>=0), one slack for delta <= 1 (>=0).
    nstrict = len(rest)
    nvars = n + 1 + 1 + nstrict + 1
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def blank() -> list[Fraction]:
        return [_ZERO] * nvars

    for d in dirs:
        row = blank()
        for i in range(n):
            row[i] = Fraction(d[i])
        rows.append(row)
        rhs.append(_ZERO)
    for b in B.points:
        row = blank()
        for i in range(n):
            row[i] = Fraction(b[i])
        row[n] = Fraction(-1)
        rows.append(row)
        rhs.append(_ZERO)
    for idx, a in enumerate(rest):
        row = blank()
        for i in range(n):
            row[i] = Fraction(a[i])
        row[n] = Fraction(-1)
        row[n + 1] = Fraction(-1)
        row[n + 2 + idx] = Fraction(-1)
        rows.append(row)
        rhs.append(_ZERO)
    cap = blank()
    cap[n + 1] = _ONE
    cap[n + 2 + nstrict] = _ONE
    rows.append(cap)
    rhs.append(_ONE)

    objective = blank()
    objective[n + 1] = _ONE
    nonneg = [False] * (n + 1) + [True] * (1 + nstrict + 1)
    res = solve_lp(objective, rows, rhs, nonneg)
    if res.status != OPTIMAL or res.objective <= 0:
        return None
    u = clear_denominators(res.x[:n])
    if limit_support(A, u) != B:
        raise RuntimeError("internal: degeneration covector missed its target support")
    return u


def limit_support(
    A: PointSet | Iterable[Sequence[int]], u: Sequence[int]
) -> PointSet:
    """Support of the renormalized limit along u: the argmin of the pairing."""
    A = _as_pointset(A)
    if not A.points:
        raise ValueError("empty point set")
    lo = min_functional(A, u)
    return PointSet(p for p in A.points if dot(u, p) == lo)
