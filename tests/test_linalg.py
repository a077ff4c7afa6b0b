"""`stablepairs.linalg` against the independent `_o_*` elimination of the
test helpers, on int, Fraction and mixed matrices."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import stablepairs.linalg
from stablepairs.linalg import (
    first_basis,
    in_span,
    integer_nullspace,
    integral,
    left_inverse,
    matrix_rank,
    nullspace,
    rref,
    solve,
)

from helpers import _o_in_span, _o_left_inverse, _o_nullspace, _o_rref, _o_solve

INTS = st.integers(-9, 9)
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=7)
ENTRIES = {"int": INTS, "fraction": FRACTIONS, "mixed": st.one_of(INTS, FRACTIONS)}


@st.composite
def matrices(draw, min_rows=0, max_rows=6, ncols=None):
    """A matrix of int, Fraction or mixed entries, with at times a zero row,
    a zero column, a duplicate row or a row that combines two others."""
    n = draw(st.integers(1, 6)) if ncols is None else ncols
    m = draw(st.integers(min_rows, max_rows))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    edit = draw(st.sampled_from(["none", "zero_row", "zero_col", "duplicate", "combination"]))
    if rows and edit == "zero_row":
        rows[draw(st.integers(0, m - 1))] = [0] * n
    elif rows and edit == "zero_col":
        c = draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = 0
    elif rows and edit == "duplicate":
        rows.append(list(rows[draw(st.integers(0, m - 1))]))
    elif len(rows) >= 2 and edit == "combination":
        a, b = draw(FRACTIONS), draw(FRACTIONS)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows


def _is_fraction_matrix(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_oracle(rows):
    red, pivots = rref(rows)
    assert (red, pivots) == _o_rref(rows)
    assert _is_fraction_matrix(red)
    assert matrix_rank(rows) == len(pivots)


def _divided(den, ints):
    assert den != 0 and all(type(x) is int for vec in ints for x in vec)
    return [tuple(Fraction(x, den) for x in vec) for vec in ints]


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nullspace_matches_oracle(data):
    ncols = data.draw(st.integers(1, 6))
    rows = data.draw(matrices(ncols=ncols))
    basis = nullspace(rows, ncols)
    assert basis == _o_nullspace(rows, ncols)
    assert _is_fraction_matrix(basis)
    assert _divided(*integer_nullspace(rows, ncols)) == basis


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_matches_oracle(data):
    rows = data.draw(matrices(min_rows=1))
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        # A consistent right-hand side, A x for a drawn x.
        x = data.draw(st.lists(FRACTIONS, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = data.draw(st.lists(ENTRIES["mixed"], min_size=len(rows), max_size=len(rows)))
    sol = solve(rows, rhs)
    assert sol == _o_solve(rows, rhs)
    if sol is not None:
        assert _is_fraction_matrix([sol])
        assert [sum(a * b for a, b in zip(row, sol)) for row in rows] == rhs


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_in_span_matches_oracle(data):
    dim = data.draw(st.integers(1, 6))
    vectors = data.draw(matrices(ncols=dim))
    target = data.draw(st.lists(ENTRIES["mixed"], min_size=dim, max_size=dim))
    if vectors and data.draw(st.booleans()):
        a, b = data.draw(FRACTIONS), data.draw(FRACTIONS)
        target = [a * x + b * y for x, y in zip(vectors[0], vectors[-1])]
    assert in_span(vectors, target) == _o_in_span(vectors, target)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(matrices(min_rows=1))
def test_left_inverse_matches_oracle(rows):
    # A maximal independent subset of the rows, as the columns of B.
    columns = []
    for row in rows:
        if not _o_in_span(columns, row):
            columns.append(row)
    if not columns:
        return
    T = left_inverse(columns)
    assert T == _o_left_inverse(columns)
    assert _is_fraction_matrix(T)
    identity = [[int(i == j) for j in range(len(columns))] for i in range(len(columns))]
    assert [[sum(a * b for a, b in zip(t, col)) for col in columns] for t in T] == identity


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_basis_matches_oracle(data):
    """The first independent rows, found greedily by the oracle; when they
    span, each dual row pairs to one common positive |det| with its own row
    and to 0 with the others, and else there is no basis."""
    ncols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                              min_size=1, max_size=8))
    if data.draw(st.booleans()):
        rows = [row[:-1] + [row[0]] for row in rows]  # at times a repeated column
    seed = []
    for i, row in enumerate(rows):
        if not _o_in_span([rows[j] for j in seed], row):
            seed.append(i)
    got = first_basis(rows)
    if len(seed) < ncols:
        assert got is None
        return
    indices, dual = got
    assert indices == seed
    pairings = [[sum(a * b for a, b in zip(d, rows[i])) for i in seed] for d in dual]
    det = pairings[0][0]
    assert det > 0 and all(type(x) is int for d in dual for x in d)
    assert pairings == [[det * (r == c) for c in range(ncols)] for r in range(ncols)]


def test_left_inverse_eliminates_once(monkeypatch):
    """One elimination of [G | (den B)^T] serves every ambient coordinate."""
    sizes = []
    real = stablepairs.linalg._eliminate
    monkeypatch.setattr(stablepairs.linalg, "_eliminate", lambda m: sizes.append(len(m)) or real(m))
    columns = [[1, 2, 0, Fraction(1, 2)], [0, 1, 3, -1]]
    assert left_inverse(columns) == _o_left_inverse(columns)
    assert sizes == [2]


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[]],
        [[0]],
        [[Fraction(0)]],
        [[3]],
        [[Fraction(-2, 3)]],
        [[0, 0, 0], [0, 0, 0]],
        [[0, 2, 4], [0, 1, 2], [0, Fraction(1, 2), 1]],  # zero column, rank 1
        [[1, 2], [1, 2], [2, 4]],  # duplicate rows
        [[1, 2, 3, 4, 5]],  # wide
        [[1], [Fraction(1, 2)], [0], [-3]],  # tall
        [[2, 0, 1], [0, 0, 0], [4, 1, Fraction(5, 2)], [6, 1, Fraction(7, 2)]],
        [[Fraction(1, 6), Fraction(-1, 4), 2], [Fraction(1, 3), 1, Fraction(-5, 7)]],
    ],
)
def test_edge_cases_match_oracle(rows):
    red, pivots = rref(rows)
    assert (red, pivots) == _o_rref(rows)
    assert _is_fraction_matrix(red)
    assert matrix_rank(rows) == len(pivots)
    ncols = len(rows[0]) if rows else 3
    assert nullspace(rows, ncols) == _o_nullspace(rows, ncols)
    assert _divided(*integer_nullspace(rows, ncols)) == _o_nullspace(rows, ncols)
    if rows:
        rhs = [1] * len(rows)
        assert solve(rows, rhs) == _o_solve(rows, rhs)
        zero = [0] * len(rows)
        assert solve(rows, zero) == _o_solve(rows, zero)
        target = [1] * ncols
        assert in_span(rows, target) == _o_in_span(rows, target)
    if red:
        assert left_inverse(red) == _o_left_inverse(red)


def test_empty_and_trivial_systems():
    assert nullspace([], 3) == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
    ]
    assert integer_nullspace([], 2) == (1, [[1, 0], [0, 1]])
    # A negative last pivot is the divisor as it is.
    assert integer_nullspace([[0, -2, 1]], 3) == (-2, [[-2, 0, 0], [0, -1, -2]])
    assert solve([], []) == ()
    assert in_span([], [0, Fraction(0)])
    assert not in_span([], [0, 1])
    assert left_inverse([]) == []
    assert solve([[0, 0]], [1]) is None
    with pytest.raises(ValueError):
        solve([[1, 2]], [1, 2])


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(matrices())
def test_integral_is_the_least_integer_multiple(rows):
    den, scaled = integral(rows)
    assert den == lcm(*(Fraction(x).denominator for row in rows for x in row))
    assert scaled == [[den * x for x in row] for row in rows]
    assert all(type(x) is int for row in scaled for x in row)
