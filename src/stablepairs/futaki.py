"""Futaki characters of a pair at the torus level.

The automorphism subtorus of a pair consists of the admissible covectors
pairing constantly with both supports; on it the classical character is
the generalized one (`futaki_gen`), the difference of those two constants.
Both weight polytopes live in parallel affine subspaces modeled on the
span of within-support differences, and the character vanishes on the
whole subtorus exactly when those subspaces coincide (modulo the
constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice import OnePS, clear_denominators
from . import linalg
from .pairs import Pair, _futaki_pairings


@dataclass(frozen=True)
class StabilizerSubtorus:
    """Integer basis of the admissible covectors constant on both supports."""

    basis: tuple[OnePS, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def stabilizer_subtorus(p: Pair) -> StabilizerSubtorus:
    """Kernel of the within-support differences and the constraints.

    Singleton supports impose nothing, so an unconstrained problem with two
    singleton supports has the full lattice as stabilizer.
    """
    rows = []
    for support in (p.v.support, p.w.support):
        base = support.points[0]
        rows += [[a - b for a, b in zip(q, base)] for q in support.points[1:]]
    rows += [list(c) for c in p.problem.constraints]
    basis = tuple(
        clear_denominators(vec)
        for vec in linalg.nullspace(rows, p.problem.rank)
    )
    return StabilizerSubtorus(basis)


def futaki_classical(p: Pair, u: Sequence[int]) -> int:
    """Classical Futaki number of a stabilizing covector.

    Requires u to pair constantly with each support (then the pairings are
    the characters through which u acts on the two lines); the value is
    their difference, `futaki_gen` there.  u is checked as `futaki_gen`
    checks it (`_futaki_pairings`).
    """
    u = tuple(u)
    a, xw, xv = _futaki_pairings(u, p)
    if len(set(xw)) != 1 or len(set(xv)) != 1:
        raise ValueError(
            f"{u} is not in the stabilizer subtorus: non-constant on a support"
        )
    return a


def affine_span_test(p: Pair) -> bool:
    """Whether the affine spans of the two weight polytopes coincide.

    Both spans are parallel, modeled on the span L of within-support
    differences.  They coincide iff the offset between base points of the
    supports lies in L plus the span of the constraint directions, the
    annihilator of the stabilizer subtorus: iff the classical character
    vanishes on its basis.  Otherwise they are disjoint.  Semistable pairs
    always land on the coinciding side.
    """
    return not any(futaki_classical(p, u) for u in stabilizer_subtorus(p).basis)
