from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stablepairs.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    solve_lp,
)

from helpers import reference_solve_lp


def test_simple_optimum():
    # max x + y s.t. x + y + s = 1, all >= 0
    res = solve_lp([1, 1, 0], [[1, 1, 1]], [1], [True, True, True])
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_minimize():
    res = solve_lp([1, 1, 0], [[1, 1, -1]], [2], [True, True, True], maximize=False)
    assert res.status == OPTIMAL
    assert res.objective == 2


def test_infeasible_with_certificate():
    # x + y = -1, x, y >= 0
    res = solve_lp([0, 0], [[1, 1]], [-1], [True, True])
    assert res.status == INFEASIBLE
    y = res.farkas
    assert y[0] * 1 <= 0 and y[0] * (-1) > 0


def test_unbounded():
    res = solve_lp([1], [[0]], [0], [True])
    assert res.status == UNBOUNDED


def test_free_variable_solution():
    # x free with x = -3
    res = solve_lp([0], [[1]], [-3], [False])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(-3)]


def test_degenerate_system():
    rows = [[1, 1], [2, 2]]  # redundant row
    res = solve_lp([0, 0], rows, [1, 2], [True, True])
    assert res.status == OPTIMAL
    assert sum(res.x) == 1


def test_exact_fractions():
    res = solve_lp(
        [Fraction(1, 3), Fraction(1, 7)],
        [[Fraction(1, 2), Fraction(1, 5)]],
        [Fraction(3, 4)],
        [True, True],
    )
    assert res.status == OPTIMAL
    # optimum puts everything on the better per-unit ratio: y = 15/4
    assert res.objective == Fraction(15, 28)


small_int = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_feasibility_answers_verify(data):
    """Either a feasible point or a valid Farkas certificate, never neither."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(small_int, min_size=n, max_size=n)) for _ in range(m)]
    rhs = data.draw(st.lists(small_int, min_size=m, max_size=m))
    nonneg = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    res = solve_lp([0] * n, rows, rhs, nonneg)
    if res.status == OPTIMAL:
        for row, b in zip(rows, rhs):
            assert sum(Fraction(a) * x for a, x in zip(row, res.x)) == b
        for j in range(n):
            if nonneg[j]:
                assert res.x[j] >= 0
    else:
        assert res.status == INFEASIBLE
        y = res.farkas
        for j in range(n):
            yaj = sum(y[i] * rows[i][j] for i in range(m))
            if nonneg[j]:
                assert yaj <= 0
            else:
                assert yaj == 0
        assert sum(y[i] * rhs[i] for i in range(m)) > 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_optimal_value_is_certified_by_weak_duality(data):
    """Bounded problems: re-solving from the optimum finds nothing better."""
    n = data.draw(st.integers(1, 3))
    c = data.draw(st.lists(small_int, min_size=n, max_size=n))
    # box constraints x_j + s_j = ub_j keep everything bounded
    ubs = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    rows = []
    rhs = []
    for j in range(n):
        row = [0] * (2 * n)
        row[j] = 1
        row[n + j] = 1
        rows.append(row)
        rhs.append(ubs[j])
    res = solve_lp(c + [0] * n, rows, rhs, [True] * (2 * n))
    assert res.status == OPTIMAL
    expected = sum(cj * ub for cj, ub in zip(c, ubs) if cj > 0)
    assert res.objective == expected


# Beale (1955): cycles under the largest-coefficient rule; x1..x3 are slacks.
BEALE_ROWS = [
    [1, 0, 0, Fraction(1, 4), -8, -1, 9],
    [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3],
    [0, 0, 1, 0, 0, 1, 0],
]
BEALE_RHS = [0, 0, 1]
BEALE_COST = [0, 0, 0, Fraction(-3, 4), 20, Fraction(-1, 2), 6]


def test_beale_cycling_example_terminates_at_the_optimum():
    res = solve_lp(BEALE_COST, BEALE_ROWS, BEALE_RHS, [True] * 7, maximize=False)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(-5, 4)
    assert res.x[3] == 1 and res.x[5] == 1
    ref = reference_solve_lp(BEALE_COST, BEALE_ROWS, BEALE_RHS, [True] * 7, maximize=False)
    assert ref.objective == res.objective


def test_beale_rows_as_a_feasibility_problem():
    res = solve_lp([0] * 7, BEALE_ROWS, BEALE_RHS, [True] * 7)
    assert res.status == OPTIMAL
    for row, b in zip(BEALE_ROWS, BEALE_RHS):
        assert sum(a * x for a, x in zip(row, res.x)) == b
    assert all(x >= 0 for x in res.x)
    assert res == reference_solve_lp([0] * 7, BEALE_ROWS, BEALE_RHS, [True] * 7)


@st.composite
def _cone_lps(draw):
    """Cone membership as `polytope._cone_lp` poses it: columns (a, 1) and
    target (x, 1), or a homogeneous system with a zero right-hand side, with
    redundant rows mixed in."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    cols = [draw(st.lists(small_int, min_size=dim, max_size=dim)) for _ in range(k)]
    target = draw(st.lists(small_int, min_size=dim, max_size=dim))
    if draw(st.booleans()):
        cols = [[*c, 1] for c in cols]
        target = [*target, 1]
    elif draw(st.booleans()):
        target = [0] * dim
    rows = [list(r) for r in zip(*cols)]
    rhs = list(target)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        f = draw(st.integers(-2, 2))
        rows.append([a + f * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + f * rhs[j])
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(_cone_lps())
def test_cone_feasibility_matches_reference_exactly(lp):
    """Zero objective, nonnegative columns: the same status, x and Farkas y."""
    rows, rhs = lp
    n = len(rows[0])
    res = solve_lp([0] * n, rows, rhs, [True] * n)
    ref = reference_solve_lp([0] * n, rows, rhs, [True] * n)
    assert (res.status, res.x, res.farkas) == (ref.status, ref.x, ref.farkas)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_general_lps_match_reference_value(data):
    """Free columns and nonzero objectives, either sense: the same status and
    optimal value, and a feasible x (phase 1 may end on another vertex)."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(small_int, min_size=n, max_size=n)) for _ in range(m)]
    rhs = data.draw(st.lists(small_int, min_size=m, max_size=m))
    nonneg = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c = data.draw(st.lists(small_int, min_size=n, max_size=n))
    maximize = data.draw(st.booleans())
    res = solve_lp(c, rows, rhs, nonneg, maximize)
    ref = reference_solve_lp(c, rows, rhs, nonneg, maximize)
    assert (res.status, res.objective) == (ref.status, ref.objective)
    if res.status == INFEASIBLE:
        assert res.farkas == ref.farkas
    if res.status == OPTIMAL:
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, res.x)) == b
        assert all(x >= 0 for x, flag in zip(res.x, nonneg) if flag)
        assert sum(ci * x for ci, x in zip(c, res.x)) == res.objective


@pytest.mark.parametrize("rows, nonneg", [
    ([[1, -1, 2], [0, 3, -1]], [True, True, True]),
    ([[1, 2], [2, 4], [-1, 0]], [True, False]),
    ([[Fraction(1, 2), -3]], [False, False]),
    ([], [True, True]),
])
def test_zero_objective_over_zero_rhs_is_the_origin(rows, nonneg):
    """x = 0 is feasible and phase 1 has nothing to do: answered at once,
    and equal to the plainer solver's full run."""
    n = len(nonneg)
    res = solve_lp([0] * n, rows, [0] * len(rows), nonneg)
    assert res.status == OPTIMAL
    assert res.x == [0] * n and res.objective == 0
    assert res == reference_solve_lp([0] * n, rows, [0] * len(rows), nonneg)


def test_nonzero_objective_over_zero_rhs_still_optimizes():
    # x1 - x2 = 0 with x1, x2 >= 0: the minimum of x1 is 0, its supremum unbounded.
    res = solve_lp([1, 0], [[1, -1]], [0], [True, True], maximize=False)
    assert res.status == OPTIMAL and res.objective == 0
    assert solve_lp([1, 0], [[1, -1]], [0], [True, True]).status == UNBOUNDED


@pytest.mark.parametrize("objective, rows, rhs, nonneg", [
    ([0, 0], [[1, 1, 1]], [0], [True, True]),   # row longer than the objective
    ([0, 0], [[1, 1]], [0, 0], [True, True]),   # more rhs entries than rows
    ([0, 0], [[1, 1]], [0], [True]),            # too few nonneg flags
])
def test_length_mismatch_over_zero_rhs_is_an_error(objective, rows, rhs, nonneg):
    with pytest.raises(ValueError):
        solve_lp(objective, rows, rhs, nonneg)
