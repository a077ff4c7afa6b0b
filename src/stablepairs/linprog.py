"""Exact phase-1 rational simplex with Bland's rule and Farkas certificates.

Decides whether

    A x = b,   x >= 0

has a solution, entirely over `fractions.Fraction`, so feasibility answers
are sound, not approximate.  A feasible system yields a point x.  When the
system is infeasible the result carries a dual certificate y with

    y . A_j <= 0  for every column j,
    y . b    > 0,

which is exactly the separating datum the convex-geometry layer consumes.
Bland's rule (smallest eligible index enters, smallest basis index breaks
ratio ties) guarantees termination under degeneracy (Bland 1977).

This is the one LP form the package poses (`polytope._cone_lp`): a zero
objective over nonnegative columns.  The call still names the objective
and one nonnegativity flag per column, and refuses a nonzero objective or
a free column with `ValueError` rather than answer a question it does not
solve.

The loop is phase 1 alone: it maximizes minus the sum of the artificials.
The reduced costs are one tableau row, updated by each pivot like the
others, and the Farkas y is read off its artificial entries.  The loop
stops as soon as the artificials sum to 0, its optimum, and x is the point
it ends on.  Phase 1 is bounded above by 0, so every entering column has a
row to leave.  Over a zero right-hand side the artificials start at 0, so
the loop makes no pivot and x = 0.

Each pivot is sparse.  The nonzero entries of the pivot row are divided
and their columns listed once; every other row whose entering-column entry
is nonzero, and the reduced-cost row, is updated in place on those columns
only.  A zero entry (most of the artificial block, and the zero
coordinates of small lattice points) is never touched, and the pivots and
every entry are those of the dense update.  Bland's entering rule and the
ratio test check the sign of the numerator: a `Fraction`'s denominator is
always positive.

Bland's rule visits each basis at most once, so more pivots than there
are bases (`_max_pivots`) can only come from a defect; the loop then
raises `RuntimeError` instead of running forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _max_pivots(n: int, m: int) -> int:
    """A bound on the pivots of phase 1 over n columns and m rows: Bland's
    rule never returns to a basis, and there are at most comb(n + m, m)
    bases of the m rows among the n + m columns, artificials included."""
    return comb(n + m, m)


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None


def solve_lp(
    objective: Sequence,
    rows: Sequence[Sequence],
    rhs: Sequence,
    nonneg: Sequence[bool],
) -> LPResult:
    n = len(objective)
    if any(len(r) != n for r in rows):
        raise ValueError("row length does not match number of variables")
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match number of rows")
    if len(nonneg) != n:
        raise ValueError("nonneg flags do not match number of variables")
    if any(objective):
        raise ValueError("only feasibility is decided: the objective must be zero")
    if not all(nonneg):
        raise ValueError("only feasibility is decided: every column must be nonnegative")

    # Rows are flipped so b >= 0, each followed by its artificial column;
    # the flips are undone in the certificate.
    m = len(rows)
    tableau: list[list[Fraction]] = []
    b: list[Fraction] = []
    flips: list[int] = []
    for i, (row, bi_raw) in enumerate(zip(rows, rhs)):
        r = [Fraction(a) for a in row]
        bi = Fraction(bi_raw)
        if bi < 0:
            r = [-a for a in r]
            bi = -bi
            flips.append(-1)
        else:
            flips.append(1)
        r.extend(_ONE if k == i else _ZERO for k in range(m))
        tableau.append(r)
        b.append(bi)
    basis = [n + i for i in range(m)]

    # The reduced costs (the column sums on x, 0 on the artificials) are one
    # tableau row, and z is the running objective value.
    rc = [sum((r[j] for r in tableau), _ZERO) for j in range(n)] + [_ZERO] * m
    z = -sum(b, _ZERO)
    budget = _max_pivots(n, m)
    while z:
        entering = next((j for j, v in enumerate(rc) if v.numerator > 0), -1)
        if entering < 0:
            break
        if not budget:
            raise RuntimeError("internal: phase 1 exceeded its pivot bound, so it cycles")
        budget -= 1
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a.numerator > 0:
                ratio = b[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        # The sparse pivot: only the pivot row's nonzero columns change.
        prow = tableau[leave]
        piv = prow[entering]
        nz = [j for j, x in enumerate(prow) if x]
        for j in nz:
            prow[j] /= piv
        bl = b[leave] = b[leave] / piv
        for i, row in enumerate(tableau):
            f = row[entering]
            if f and i != leave:
                for j in nz:
                    row[j] -= f * prow[j]
                b[i] -= f * bl
        f = rc[entering]
        for j in nz:
            rc[j] -= f * prow[j]
        z += f * bl
        basis[leave] = entering

    if z < 0:
        # Simplex multipliers off the artificial columns form the
        # certificate: pi_i = -1 - rc_i.
        return LPResult(INFEASIBLE, farkas=[flips[i] * (1 + rc[n + i]) for i in range(m)])
    x = [_ZERO] * n
    for r, v in enumerate(basis):
        if v < n:
            x[v] = b[r]
    return LPResult(OPTIMAL, x=x, objective=_ZERO)
