"""Small dense exact linear algebra over the rationals.

Inputs may mix `int` and `Fraction` entries; results are `Fraction`s.
Elimination is fraction-free: the matrix is scaled to integers by the
common denominator of its entries (`integral`), which leaves the reduced
row echelon form unchanged, rows are combined in integers with Bareiss's
exact division (Bareiss 1968), and each entry is divided once, at the end.
Everything is sized for the lattice ranks this package sees (single
digits), not for bulk numerics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Sequence

Vec = tuple[Fraction, ...]
Rows = list[list[Fraction]]


def integral(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """The common denominator of all entries, and the rows times it.

    This is the package's one scaling of rationals to integers; entries may
    be anything `Fraction` accepts.  Rows of plain ints, the common case,
    are only copied (denominator 1).
    """
    rows = [list(row) for row in rows]
    if all([type(x) is int for row in rows for x in row]):
        return 1, rows
    rows = [[x if type(x) is int else Fraction(x) for x in row] for row in rows]
    # One argument per distinct denominator, not per entry: CPython 3.11
    # never reuses a freed 20-tuple, so each call on a 20-entry matrix
    # would leave one more in the tuple free list.
    den = lcm(*{x.denominator for row in rows for x in row})
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _eliminate(m: list[list[int]]) -> tuple[int, list[int]]:
    """Gauss-Jordan on the integer rows `m`, in place, by Bareiss's exact
    division.

    Returns the last pivot and the pivot columns.  After each pivot every
    entry is a minor of the integer matrix, so the division by the
    previous pivot is exact, and all pivot rows end with the same pivot.
    """
    pivots: list[int] = []
    if not m:
        return 1, pivots
    r = 0
    prev = 1
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return prev, pivots


def first_basis(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]] | None:
    """The indices of the first rows that form a basis, and their dual basis
    in integers; None when the (nonempty, integer) rows do not span.

    One `_eliminate` of [rows^T | I]: its pivots below len(rows) are the
    first independent rows S.  When they fill the columns, the identity
    block ends as det * S^-T, whose row j times sign(det) pairs to |det|
    with row j of S and to 0 with the others.
    """
    n, k = len(rows), len(rows[0])
    m = [[*col, *[int(i == j) for j in range(k)]] for i, col in enumerate(zip(*rows))]
    det, pivots = _eliminate(m)
    if pivots and pivots[-1] >= n:
        return None
    return pivots, [[x if det > 0 else -x for x in row[n:]] for row in m]


def rref(rows: Sequence[Sequence]) -> tuple[Rows, list[int]]:
    """Reduced row echelon form.

    Returns the nonzero rows and the pivot column indices: the integer
    elimination of `_eliminate`, whose last pivot is the one divisor of
    the result.
    """
    _, m = integral(rows)
    prev, pivots = _eliminate(m)
    return [[Fraction(a, prev) for a in row] for row in m[:len(pivots)]], pivots


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank of the matrix: the number of pivot columns of the integer
    elimination (`_eliminate`) of the rows scaled to integers, the same as
    `len(rref(rows)[0])`.  No `Fraction` is built beyond the non-integer
    entries of the input.

    The scaled rows are checked (`integral`) on every call, and their rank
    is then answered from a memo (`_rank`): a problem builder asks it of
    the same few reference polytopes over and over.
    """
    _, m = integral(rows)
    return _rank(tuple(map(tuple, m)))


@lru_cache(maxsize=64)
def _rank(rows: tuple[tuple[int, ...], ...]) -> int:
    """The rank of integer rows, eliminated once per distinct matrix."""
    return len(_eliminate(list(map(list, rows)))[1])


def integer_nullspace(rows: Sequence[Sequence], ncols: int) -> tuple[int, list[list[int]]]:
    """The basis of `nullspace` as a nonzero divisor and integer vectors.

    The vectors divided by the divisor are the basis `nullspace` returns:
    the one with a 1 in a free column and 0 in the other free columns.  The
    divisor is the last pivot of `_eliminate`, which may be negative, and
    no `Fraction` is built beyond the non-integer entries of the input.
    """
    _, m = integral(rows)
    last, pivots = _eliminate(m)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [0] * ncols
            vec[fc] = last
            for row, pc in zip(m, pivots):
                vec[pc] = -row[fc]
            basis.append(vec)
    return last, basis


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : A x = 0} for A given by `rows` with `ncols` columns:
    one vector per free column, with a 1 there and 0 in the other free
    columns (`integer_nullspace`, divided once).

    An empty list of rows means the whole space; the basis is then the
    standard one.
    """
    den, basis = integer_nullspace(rows, ncols)
    return [tuple(Fraction(x, den) for x in vec) for vec in basis]


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """A particular solution of A x = b, or None when inconsistent.

    Free variables are set to zero.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        return ()
    ncols = len(rows[0])
    red, pivots = rref([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def in_span(vectors: Sequence[Sequence], target: Sequence) -> bool:
    """True when `target` is a rational linear combination of `vectors`."""
    if not vectors:
        return all(c == 0 for c in target)
    cols = [[v[i] for v in vectors] for i in range(len(target))]
    return solve(cols, target) is not None


def left_inverse(columns: Sequence[Sequence]) -> Rows:
    """Left inverse T of the matrix B whose columns are given: T B = I.

    Precondition, not checked: the columns are linearly independent (on
    dependent ones the result is some T with T B != I).  Computed through
    the normal equations of the integer matrix den * B, whose left inverse
    is T / den; normal equations are always consistent.
    """
    den, cols = integral(columns)
    k = len(cols[0]) if cols else 0
    gram = [[sum(map(mul, a, b)) for b in cols] for a in cols]
    # Solve gram * T = (den B)^T for every ambient coordinate in one `rref`.
    red, pivots = rref([g + col for g, col in zip(gram, cols)])
    T: Rows = [[Fraction(0)] * k for _ in cols]
    for row, pc in zip(red, pivots):
        T[pc] = [x * den for x in row[len(cols):]]
    return T
