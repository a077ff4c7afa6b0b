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

The loop is phase 1 alone: it maximizes minus the sum of the artificials
over one tableau.  Each row is a (flipped) row of A, its artificial column
and its right-hand side; the last row holds the reduced costs and, last,
the sum of b, minus the objective value.  The loop runs while that entry
is nonzero, and the system is infeasible iff it ends positive: the Farkas
y is then read off the artificial entries of the last row, and otherwise
x off the last column.  Phase 1 is bounded above by 0, so every entering
column has a row to leave; over a zero right-hand side the loop makes no
pivot and x = 0.

A pivot is one sparse update of every row.  The nonzero entries of the
pivot row are divided and their columns listed once; every other row
whose entering-column entry is nonzero, the last row too, is updated in
place on those columns only, so a zero entry (most of the artificial
block, the zero coordinates of small lattice points) is never touched.
Bland's entering rule (over x and the artificials) and the ratio test
(over the rows of A) check the sign of the numerator: a `Fraction`'s
denominator is always positive.

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

    # Rows flipped so b >= 0, then artificials and b; the certificate unflips.
    m = len(rows)
    tableau: list[list[Fraction]] = []
    flips: list[int] = []
    for i, (row, bi_raw) in enumerate(zip(rows, rhs)):
        bi = Fraction(bi_raw)
        flips.append(-1 if bi < 0 else 1)
        r = [Fraction(a) for a in row]
        if bi < 0:
            r = [-a for a in r]
        r.extend(_ONE if k == i else _ZERO for k in range(m))
        r.append(abs(bi))
        tableau.append(r)
    basis = [n + i for i in range(m)]

    # The reduced costs: column sums on x, 0 on the artificials, then sum b = -z.
    rc = [sum((r[j] for r in tableau), _ZERO) for j in range(n)] + [_ZERO] * m
    rc.append(sum((r[-1] for r in tableau), _ZERO))
    tableau.append(rc)
    budget = _max_pivots(n, m)
    while rc[-1]:
        entering = next((j for j in range(n + m) if rc[j].numerator > 0), -1)
        if entering < 0:
            break
        if not budget:
            raise RuntimeError("internal: phase 1 exceeded its pivot bound, so it cycles")
        budget -= 1
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(tableau[:m]):
            a = row[entering]
            if a.numerator > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        # The sparse pivot, on every row with a nonzero entering entry.
        prow = tableau[leave]
        piv = prow[entering]
        nz = [j for j, x in enumerate(prow) if x]
        for j in nz:
            prow[j] /= piv
        for i, row in enumerate(tableau):
            f = row[entering]
            if f and i != leave:
                for j in nz:
                    row[j] -= f * prow[j]
        basis[leave] = entering

    if rc[-1] > 0:
        # Simplex multipliers off the artificial columns form the
        # certificate: pi_i = -1 - rc_i.
        return LPResult(INFEASIBLE, farkas=[flips[i] * (1 + rc[n + i]) for i in range(m)])
    x = [_ZERO] * n
    for r, v in enumerate(basis):
        if v < n:
            x[v] = tableau[r][-1]
    return LPResult(OPTIMAL, x=x, objective=_ZERO)
