"""Exact two-phase rational simplex with Bland's rule and Farkas certificates.

Solves

    maximize  c . x   subject to   A x = b,   x_j >= 0 for flagged j,

entirely over `fractions.Fraction`, so feasibility answers are sound, not
approximate.  When the system is infeasible the result carries a dual
certificate y with

    y . A_j <= 0  for every sign-constrained column,
    y . A_j  = 0  for every free column,
    y . b    > 0,

which is exactly the separating datum the convex-geometry layer consumes.
Bland's rule (smallest eligible index enters, smallest basis index breaks
ratio ties) guarantees termination under degeneracy.

The loop does only the work a feasibility question needs.  The reduced
costs are one tableau row, updated by each pivot like the others, and the
Farkas y is read off its artificial entries.  Phase 1 stops as soon as the
artificials sum to 0, its optimum.  The artificial drive-out and phase 2
run only for a nonzero objective; under a zero objective (every call from
`polytope`) they would pivot degenerately or not at all, so x is the point
phase 1 ends on.  A zero objective over a zero right-hand side is
answered before any tableau is built: x = 0 is feasible, and phase 1 would
stop at once, its value -sum |b| already 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    maximize: bool = True,
) -> LPResult:
    n = len(objective)
    if any(len(r) != n for r in rows):
        raise ValueError("row length does not match number of variables")
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match number of rows")
    if len(nonneg) != n:
        raise ValueError("nonneg flags do not match number of variables")
    if not any(rhs) and not any(objective):
        return LPResult(OPTIMAL, x=[_ZERO] * n, objective=_ZERO)

    c_orig = [Fraction(v) for v in objective]
    c_signed = c_orig if maximize else [-v for v in c_orig]

    # Free variables are split into positive and negative parts.
    colmap: list[tuple[int, int]] = [(j, 1) for j in range(n)]
    colmap += [(j, -1) for j in range(n) if not nonneg[j]]
    nsplit = len(colmap)

    # Rows are flipped so b >= 0; the flips are undone in the certificate.
    tableau: list[list[Fraction]] = []
    b: list[Fraction] = []
    flips: list[int] = []
    for row, bi_raw in zip(rows, rhs):
        r = [Fraction(x) for x in row]
        bi = Fraction(bi_raw)
        cols = [r[j] * s for j, s in colmap]
        if bi < 0:
            cols = [-x for x in cols]
            bi = -bi
            flips.append(-1)
        else:
            flips.append(1)
        tableau.append(cols)
        b.append(bi)

    m = len(tableau)
    for i in range(m):
        tableau[i].extend(_ONE if k == i else _ZERO for k in range(m))
    basis = [nsplit + i for i in range(m)]

    # Phase 1 maximizes minus the sum of the artificials.  Its reduced costs
    # (the column sums on x, 0 on the artificials) are one tableau row from
    # here on, updated by each pivot, and z is the running objective value.
    rc = [sum((r[j] for r in tableau), _ZERO) for j in range(nsplit)] + [_ZERO] * m
    z = -sum(b, _ZERO)

    def pivot(r: int, j: int) -> None:
        nonlocal z
        piv = tableau[r][j]
        tableau[r] = [x / piv for x in tableau[r]]
        b[r] /= piv
        prow = tableau[r]
        for i in range(len(tableau)):
            if i != r and tableau[i][j] != 0:
                f = tableau[i][j]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], prow)]
                b[i] -= f * b[r]
        f = rc[j]
        if f != 0:
            rc[:] = [x - f * y for x, y in zip(rc, prow)]
            z += f * b[r]
        basis[r] = j

    def run(target: Fraction | None) -> str:
        """Bland pivots until optimal, unbounded, or z reaches `target`."""
        while z != target:
            entering = next((j for j, v in enumerate(rc) if v > 0), -1)
            if entering < 0:
                return OPTIMAL
            leave = -1
            best: Fraction | None = None
            for i in range(len(tableau)):
                a = tableau[i][entering]
                if a > 0:
                    ratio = b[i] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, entering)
        return OPTIMAL

    # Phase 1 stops once the artificials sum to 0: that is its optimum, and
    # every further pivot would be degenerate.
    run(_ZERO)
    if z < 0:
        # Simplex multipliers off the artificial columns form the
        # certificate: pi_i = -1 - rc_i.
        return LPResult(
            INFEASIBLE, farkas=[flips[i] * (1 + rc[nsplit + i]) for i in range(m)]
        )

    # Phase 2 and the drive-out before it change nothing under a zero
    # objective: the drive-out pivots are degenerate and no reduced cost is
    # positive.
    cost2 = [c_signed[j] * s for j, s in colmap]
    if any(cost2):
        # Phase-2 reduced costs on x only: the artificial columns leave with
        # the drive-out, and each pivot's zip stops at the end of this row.
        cb = [cost2[v] if v < nsplit else _ZERO for v in basis]
        rc[:] = [cost2[j] - sum(cb[i] * tableau[i][j] for i in range(m)) for j in range(nsplit)]
        z = sum(ci * bi for ci, bi in zip(cb, b))
        # Drive any artificial still in the basis out, dropping redundant rows.
        keep = []
        for r in range(m):
            if basis[r] < nsplit:
                keep.append(r)
                continue
            j = next((j for j in range(nsplit) if tableau[r][j] != 0), None)
            if j is not None:
                pivot(r, j)
                keep.append(r)
        tableau = [tableau[r][:nsplit] for r in keep]
        b = [b[r] for r in keep]
        basis = [basis[r] for r in keep]
        if run(None) == UNBOUNDED:
            return LPResult(UNBOUNDED)

    xsplit = [_ZERO] * nsplit
    for r, v in enumerate(basis):
        if v < nsplit:
            xsplit[v] = b[r]
    x = [_ZERO] * n
    for idx, (j, s) in enumerate(colmap):
        x[j] += s * xsplit[idx]
    value = sum(ci * xi for ci, xi in zip(c_orig, x))
    return LPResult(OPTIMAL, x=x, objective=value)
