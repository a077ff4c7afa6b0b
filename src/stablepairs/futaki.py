"""Futaki characters of a pair at the torus level.

The automorphism subtorus of a pair consists of the admissible covectors
pairing constantly with both supports; on it the classical character is
the difference of those two constants.  Both weight polytopes live in
parallel affine subspaces modeled on the span of within-support
differences, and the character vanishes exactly when those subspaces
coincide (modulo the constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice import OnePS, clear_denominators, dot, require_admissible
from . import linalg
from .pairs import Pair


@dataclass(frozen=True)
class StabilizerSubtorus:
    """Integer basis of the admissible covectors constant on both supports."""

    basis: tuple[OnePS, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def _difference_rows(p: Pair) -> list[tuple[int, ...]]:
    rows = []
    for support in (p.v.support, p.w.support):
        base = support.points[0]
        for q in support.points[1:]:
            rows.append(tuple(a - b for a, b in zip(q, base)))
    return rows


def stabilizer_subtorus(p: Pair) -> StabilizerSubtorus:
    """Kernel of the within-support differences and the constraints.

    Singleton supports impose nothing, so an unconstrained problem with two
    singleton supports has the full lattice as stabilizer.
    """
    rows = _difference_rows(p) + [list(c) for c in p.problem.constraints]
    basis = tuple(
        clear_denominators(vec)
        for vec in linalg.nullspace(rows, p.problem.rank)
    )
    return StabilizerSubtorus(basis)


def futaki_classical(p: Pair, u: Sequence[int]) -> int:
    """Classical Futaki number of a stabilizing covector.

    Requires u to pair constantly with each support (then the pairings are
    the characters through which u acts on the two lines); the value is
    their difference and agrees with the generalized character there.
    """
    u = tuple(u)
    require_admissible(u, p.problem.constraints)
    values = []
    for support in (p.v.support, p.w.support):
        vals = {dot(u, q) for q in support.points}
        if len(vals) != 1:
            raise ValueError(
                f"{u} is not in the stabilizer subtorus: non-constant on a support"
            )
        values.append(vals.pop())
    return values[1] - values[0]


def affine_span_test(p: Pair) -> bool:
    """Whether the affine spans of the two weight polytopes coincide.

    Both spans are parallel, modeled on the span L of within-support
    differences.  They coincide (forcing the classical character to
    vanish) iff the offset between base points of the supports lies in L
    plus the span of the constraint directions; otherwise they are
    disjoint.  Semistable pairs always land on the coinciding side.
    """
    rows = _difference_rows(p) + [list(c) for c in p.problem.constraints]
    a0 = p.v.support.points[0]
    b0 = p.w.support.points[0]
    offset = [b - a for b, a in zip(b0, a0)]
    return linalg.in_span(rows, offset)
