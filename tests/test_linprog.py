from fractions import Fraction

from hypothesis import given, settings, strategies as st

from stablepairs.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    solve_lp,
)


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
