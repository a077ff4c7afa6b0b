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
column has a row to leave; over a zero right-hand side x = 0 is returned
before any tableau is built, as the loop would make no pivot.  The set-up
negates the rows with b < 0 and sums their columns and |b|, the reduced
costs, on the input numbers, then builds one `Fraction` per entry.  Only
ints and `Fraction`s are summed as given: any other kind (floats,
Decimals, strings) is first made its exact `Fraction`, as a Decimal
negation or sum may round.

A pivot is one sparse update of every row.  The nonzero entries of the
pivot row are divided and their columns listed once; every other row
whose entering-column entry is nonzero, the last row too, is updated in
place on those columns only, so a zero entry (most of the artificial
block, the zero coordinates of small lattice points) is never touched.
Bland's entering rule (over x and the artificials) and the ratio test
(over the rows of A) check the sign of the numerator: a `Fraction`'s
denominator is always positive.  The ratio test divides nothing: it
compares integer cross products, with ties to the smaller basis index.

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


def _flipped(rows: Sequence[Sequence], rhs: Sequence) -> tuple[list, list, list]:
    """The signs of b, the rows negated where b < 0, and their column sums then sum |b|."""
    flips = [-1 if b < 0 else 1 for b in rhs]
    flipped = [row if f > 0 else [-a for a in row] for row, f in zip(rows, flips)]
    return flips, flipped, [*map(sum, zip(*flipped)), sum(map(abs, rhs))]


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

    m = len(rows)
    try:
        flips, flipped, sums = _flipped(rows, rhs)
    except TypeError:  # kinds that do not mix, such as Decimal and Fraction
        sums = [None]
    if not {*map(type, sums)} <= {int, Fraction}:
        rows, rhs = [[*map(Fraction, r)] for r in rows], [*map(Fraction, rhs)]
        flips, flipped, sums = _flipped(rows, rhs)
    if not sums[-1]:
        # x = 0, with no pivot; so too with no rows, where there are no column sums.
        return LPResult(OPTIMAL, x=[_ZERO] * n, objective=_ZERO)
    zeros = [_ZERO] * m
    tableau = [
        [*map(Fraction, row), *zeros[:i], _ONE, *zeros[i + 1:], Fraction(abs(b))]
        for i, (row, b) in enumerate(zip(flipped, rhs))
    ]
    rc = [*map(Fraction, sums[:n]), *zeros, Fraction(sums[-1])]
    tableau.append(rc)
    basis = [n + i for i in range(m)]
    budget = _max_pivots(n, m)
    while rc[-1]:
        entering = next((j for j in range(n + m) if rc[j].numerator > 0), -1)
        if entering < 0:
            break
        if not budget:
            raise RuntimeError("internal: phase 1 exceeded its pivot bound, so it cycles")
        budget -= 1
        # b / a < p / q as num(b) den(a) q < p den(b) num(a); p / q the best
        # ratio so far, 1 / 0 before any.
        leave, p, q = -1, 1, 0
        for i, row in enumerate(tableau[:m]):
            a = row[entering]
            if a.numerator > 0:
                b = row[-1]
                bp, bq = b.numerator * a.denominator, b.denominator * a.numerator
                if bp * q < p * bq or (bp * q == p * bq and basis[i] < basis[leave]):
                    leave, p, q = i, bp, bq
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
