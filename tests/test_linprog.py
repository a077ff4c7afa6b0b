import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stablepairs.linprog
import stablepairs.polytope
from stablepairs import (
    Pair,
    StabilityProblem,
    WeightedVector,
    extension_criterion,
    find_degeneration,
    relative_invariant,
    stable,
    t_semistable,
)
from stablepairs.linprog import INFEASIBLE, OPTIMAL, solve_lp

from helpers import random_pair, random_problem, random_support, reference_solve_lp


def _farkas_separates(y, rows, rhs):
    """y . A_j <= 0 for every column j and y . b > 0, in this test's own sums."""
    n = len(rows[0]) if rows else 0
    m = len(rows)
    return (
        all(sum(y[i] * rows[i][j] for i in range(m)) <= 0 for j in range(n))
        and sum(y[i] * rhs[i] for i in range(m)) > 0
    )


def _all_fractions(res):
    """Every entry of x or of the Farkas y is a `Fraction`: `Fraction(1) == 1`,
    so the field-for-field `==` alone would not see an `int` leak out."""
    return all(type(v) is Fraction for v in res.x or res.farkas)


def test_infeasible_with_certificate():
    # x + y = -1, x, y >= 0
    res = solve_lp([0, 0], [[1, 1]], [-1], [True, True])
    assert res.status == INFEASIBLE
    y = res.farkas
    assert y[0] * 1 <= 0 and y[0] * (-1) > 0


def test_degenerate_system():
    rows = [[1, 1], [2, 2]]  # redundant row
    res = solve_lp([0, 0], rows, [1, 2], [True, True])
    assert res.status == OPTIMAL
    assert sum(res.x) == 1


def test_exact_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 5)]]
    res = solve_lp([0, 0], rows, [Fraction(3, 4)], [True, True])
    assert res.status == OPTIMAL
    # Bland's rule enters the first column, which alone carries the weight.
    assert res.x == [Fraction(3, 2), 0] and res.objective == 0
    assert Fraction(1, 2) * res.x[0] + Fraction(1, 5) * res.x[1] == Fraction(3, 4)
    res = solve_lp([0, 0], rows, [Fraction(-3, 4)], [True, True])
    assert res.status == INFEASIBLE
    assert _farkas_separates(res.farkas, rows, [Fraction(-3, 4)])


small_int = st.integers(-4, 4)
small_frac = st.builds(Fraction, small_int, st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_feasibility_answers_verify(data):
    """Either a feasible point or a valid Farkas certificate, never neither."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(small_int, min_size=n, max_size=n)) for _ in range(m)]
    rhs = data.draw(st.lists(small_int, min_size=m, max_size=m))
    res = solve_lp([0] * n, rows, rhs, [True] * n)
    if res.status == OPTIMAL:
        assert res.objective == 0
        for row, b in zip(rows, rhs):
            assert sum(Fraction(a) * x for a, x in zip(row, res.x)) == b
        assert all(x >= 0 for x in res.x)
    else:
        assert res.status == INFEASIBLE
        assert _farkas_separates(res.farkas, rows, rhs)


# Beale (1955): cycles under the largest-coefficient rule; x1..x3 are slacks.
# Its cost row, as an equation, is feasible exactly down to the minimum -5/4.
BEALE_ROWS = [
    [1, 0, 0, Fraction(1, 4), -8, -1, 9],
    [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3],
    [0, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, Fraction(-3, 4), 20, Fraction(-1, 2), 6],
]
BEALE_RHS = [0, 0, 1]


def test_beale_cycling_example_terminates_at_the_optimum():
    rhs = [*BEALE_RHS, Fraction(-5, 4)]
    res = solve_lp([0] * 7, BEALE_ROWS, rhs, [True] * 7)
    assert res.status == OPTIMAL
    assert res.x == [Fraction(3, 4), 0, 0, 1, 0, 1, 0]
    assert res == reference_solve_lp([0] * 7, BEALE_ROWS, rhs, [True] * 7)


def test_beale_below_the_optimum_is_infeasible():
    rhs = [*BEALE_RHS, Fraction(-3, 2)]
    res = solve_lp([0] * 7, BEALE_ROWS, rhs, [True] * 7)
    assert res.status == INFEASIBLE
    assert _farkas_separates(res.farkas, BEALE_ROWS, rhs)
    assert res == reference_solve_lp([0] * 7, BEALE_ROWS, rhs, [True] * 7)


def test_beale_rows_as_a_feasibility_problem():
    rows = BEALE_ROWS[:3]
    res = solve_lp([0] * 7, rows, BEALE_RHS, [True] * 7)
    assert res.status == OPTIMAL
    for row, b in zip(rows, BEALE_RHS):
        assert sum(a * x for a, x in zip(row, res.x)) == b
    assert all(x >= 0 for x in res.x)
    assert res == reference_solve_lp([0] * 7, rows, BEALE_RHS, [True] * 7)


@st.composite
def _cone_lps(draw):
    """Cone membership as `polytope._cone_lp` poses it, at the sizes of the
    benchmark pools: up to 5 rows and 12 columns.  Columns (a, 1) and target
    (x, 1), or a homogeneous system, with duplicate, zero and unit columns,
    zero targets and redundant rows mixed in.  Entries and right-hand sides
    are ints, or in some systems `Fraction`s of either sign, the two kinds
    `polytope` lets through."""
    dim = draw(st.integers(1, 4))
    homogenized = draw(st.booleans())
    entry = draw(st.sampled_from((small_int, small_frac)))
    k = draw(st.integers(1, 12))
    cols = []
    for _ in range(k):
        kind = draw(st.sampled_from(("random", "random", "duplicate", "zero", "unit")))
        if kind == "duplicate" and cols:
            cols.append(list(draw(st.sampled_from(cols))))
        elif kind == "zero":
            cols.append([0] * dim)
        elif kind == "unit":
            i = draw(st.integers(0, dim - 1))
            cols.append([draw(st.sampled_from((1, -1))) * (j == i) for j in range(dim)])
        else:
            cols.append(draw(st.lists(entry, min_size=dim, max_size=dim)))
    target = [0] * dim if draw(st.booleans()) else draw(
        st.lists(entry, min_size=dim, max_size=dim)
    )
    if homogenized:
        cols = [[*c, 1] for c in cols]
        target = [*target, 1]
    rows = [list(r) for r in zip(*cols)]
    rhs = list(target)
    for _ in range(draw(st.integers(0, 5 - len(rows)))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        f = draw(st.integers(-2, 2))
        rows.append([a + f * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + f * rhs[j])
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(_cone_lps())
def test_cone_feasibility_matches_reference_exactly(lp):
    """Zero objective, nonnegative columns: the same result, field for field."""
    rows, rhs = lp
    n = len(rows[0])
    res = solve_lp([0] * n, rows, rhs, [True] * n)
    assert res == reference_solve_lp([0] * n, rows, rhs, [True] * n)
    assert _all_fractions(res)


big_int = st.integers(-1000, 1000)
big_frac = st.fractions(-1000, 1000, max_denominator=12)


@st.composite
def _long_lps(draw):
    """Systems past the pool sizes: 6-9 rows, 10-40 columns, coordinates in
    +-1000, all ints or all `Fraction`s.  The target is a nonnegative
    combination of up to five columns (feasible) or a free draw, so phase 1
    runs long pivot sequences on stored rows that are not normalized."""
    m = draw(st.integers(6, 9))
    n = draw(st.integers(10, 40))
    coord = draw(st.sampled_from((big_int, big_frac)))
    cols = [draw(st.lists(coord, min_size=m, max_size=m)) for _ in range(n)]
    if draw(st.booleans()):
        picks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 5)),
                              min_size=1, max_size=5))
        target = [sum(w * cols[j][i] for j, w in picks) for i in range(m)]
    else:
        target = draw(st.lists(coord, min_size=m, max_size=m))
    return [list(r) for r in zip(*cols)], target


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(_long_lps())
def test_long_pivot_sequences_match_reference_exactly(lp):
    rows, rhs = lp
    n = len(rows[0])
    res = solve_lp([0] * n, rows, rhs, [True] * n)
    assert res == reference_solve_lp([0] * n, rows, rhs, [True] * n)
    assert _all_fractions(res)


def test_lps_posed_by_the_verdicts_match_reference(monkeypatch):
    """Every LP that `t_semistable`, `stable` and `relative_invariant` pose
    on seeded acceptance-style pairs of ranks 1-4, that `interior_contains`
    poses on reference polytopes whose centroid is not 0, and that
    `find_degeneration` and `extension_criterion` pose on random supports,
    solves as the reference does, field for field."""
    posed = []
    caller = ["verdicts"]
    real = stablepairs.polytope.solve_lp

    def recording(*args):
        res = real(*args)
        posed.append((caller[0], args, res))
        return res

    monkeypatch.setattr(stablepairs.polytope, "solve_lp", recording)
    rng = random.Random(1401)
    pairs = []
    for rank in (1, 2, 3, 4):
        pairs += [random_pair(rng, rank, max_points=6, lo=-3, hi=3) for _ in range(20)]
        w = list(itertools.product((-3, 3), repeat=rank))
        for _ in range(5):  # v inside a w-box: semistable, with stable's confirmation
            v = {tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 3))}
            pairs.append(Pair(WeightedVector(v), WeightedVector(w), random_problem(rng, rank)))
    for p in pairs:
        verdict = t_semistable(p)
        stable(p, 4)
        if verdict.semistable:
            relative_invariant(p, rng.choice(p.v.support.points))
    for rank in (1, 2, 3, 4):
        problem = random_problem(rng, rank)
        for _ in range(10):
            caller[0] = "interior_contains"
            q = {tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank + 3)}
            try:
                StabilityProblem(rank, problem.constraints, q)
            except ValueError:
                pass  # 0 is not interior, or q is not full-dimensional
            A = random_support(rng, rank, max_points=7, lo=-3, hi=3).points
            if len(A) < 2:
                continue
            B = rng.sample(A, rng.randint(1, len(A) - 1))
            caller[0] = "find_degeneration"
            find_degeneration(A, B, problem.ctx)
            caller[0] = "extension_criterion"
            extension_criterion(A, B, problem.ctx)
    # Each caller posed at least one LP of each outcome.
    callers = ("verdicts", "interior_contains", "find_degeneration", "extension_criterion")
    assert {(name, res.status) for name, _, res in posed} == {
        (name, status) for name in callers for status in (OPTIMAL, INFEASIBLE)
    }
    assert len(posed) >= 400
    for _, args, res in posed:
        assert res == reference_solve_lp(*args)
        assert _all_fractions(res)


@pytest.mark.parametrize("rows, rhs, read_off", [
    ([[1, 0, 1], [0, 1, 1]], [2, 3], [2, 3]),    # x = (2, 3, 0)
    ([[1, 1], [1, 1]], [1, 2], [-1, 1]),         # y = (-1, 1)
], ids=["feasible", "infeasible"])
def test_unit_pivots_build_no_fraction_before_read_off(monkeypatch, rows, rhs, read_off):
    """An all-int LP whose every pivot is 1 stays in ints: the only
    `Fraction`s built are the entries of x or y, once each, at read-off."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(stablepairs.linprog, "Fraction", counting)
    n = len(rows[0])
    res = solve_lp([0] * n, rows, rhs, [True] * n)
    assert built == [(v,) for v in read_off]
    assert res == reference_solve_lp([0] * n, rows, rhs, [True] * n)
    assert _all_fractions(res)


@pytest.mark.parametrize("rows, rhs, before_read_off, read_off", [
    ([[2, 0, 4], [0, 1, 1]], [6, 3], [], [6, 3]),   # pivots 2, then 1: x = (6/2, 3/1, 0)
    ([[2, 4], [2, 4]], [2, 6], [], [-1, 1]),         # pivot 2, multipliers 1 and 2: y = (-1, 1)
    ([[2, 1], [1, 0]], [2, 3], [(1, 2), (3, 2)],     # pivot 2, multipliers 1/2 and 3/2
     [Fraction(-1, 2), 1]),                          # y = (-1/2, 1)
], ids=["feasible", "infeasible", "inexact"])
def test_a_pivot_keeps_its_exact_quotients_int(monkeypatch, rows, rhs, before_read_off, read_off):
    """A pivot of 2 leaves its row as it is.  Each other row with entering
    entry f subtracts f/2 times it, and that multiplier stays the int f // 2
    when it is exact: then no `Fraction` is built before read-off.  An
    inexact one is the one `Fraction(f, 2)` its row builds.  A basic x is
    its row's right-hand side over the row's basic entry, made a `Fraction`
    at read-off: x_0 = 6/2 from the stored row (2, 0, 4 | 6)."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(stablepairs.linprog, "Fraction", counting)
    n = len(rows[0])
    res = solve_lp([0] * n, rows, rhs, [True] * n)
    assert built == [*before_read_off, *[(v,) for v in read_off]]
    assert res == reference_solve_lp([0] * n, rows, rhs, [True] * n)
    assert _all_fractions(res)


@pytest.mark.parametrize("rows, rhs, expected", [
    ([[2, 0, 1], [0, 1, 1]], [3, 1], [Fraction(3, 2), 1, 0]),   # pivots 2, then 1
    ([[2, 1], [2, 1]], [1, 2], [-1, 1]),                         # pivot 2, infeasible
], ids=["feasible", "infeasible"])
def test_a_row_scaled_by_a_pivot_of_two_reads_off_exactly(rows, rhs, expected):
    n = len(rows[0])
    res = solve_lp([0] * n, rows, rhs, [True] * n)
    assert (res.x or res.farkas) == expected
    assert res == reference_solve_lp([0] * n, rows, rhs, [True] * n)
    assert _all_fractions(res)


@pytest.mark.parametrize("rows, nonneg", [
    ([[1, -1, 2], [0, 3, -1]], [True, True, True]),
    ([[1, 2], [2, 4], [-1, 0]], [True, True]),
    ([[Fraction(1, 2), -3]], [True, True]),
    ([], [True, True]),
])
def test_zero_objective_over_zero_rhs_is_the_origin(rows, nonneg):
    """x = 0 is feasible and phase 1 starts at its optimum: no pivot, and
    the answer equals the plainer solver's full run."""
    n = len(nonneg)
    res = solve_lp([0] * n, rows, [0] * len(rows), nonneg)
    assert res.status == OPTIMAL
    assert res.x == [0] * n and res.objective == 0
    assert res == reference_solve_lp([0] * n, rows, [0] * len(rows), nonneg)


@pytest.mark.parametrize("call, exc", [
    (lambda: solve_lp([0, 1], [[1, 1]], [1], [True, True]), ValueError),
    (lambda: solve_lp([1, 0], [[1, -1]], [0], [True, True]), ValueError),
    (lambda: solve_lp([0, 0], [[1, 1]], [1], [True, False]), ValueError),
    (lambda: solve_lp([0], [[1]], [0], [False]), ValueError),
    (lambda: solve_lp([0, 0], [[1, 1]], [1], [True, True], maximize=False), TypeError),
], ids=["objective", "objective_over_zero_rhs", "free_column",
        "free_column_over_zero_rhs", "maximize"])
def test_other_lp_forms_raise_before_any_tableau(monkeypatch, call, exc):
    """Only the feasibility form is solved; anything else is refused before
    a single coefficient becomes a `Fraction`."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(stablepairs.linprog, "Fraction", counting)
    with pytest.raises(exc):
        call()
    assert built == []


@pytest.mark.parametrize("objective, rows, rhs, nonneg", [
    ([0, 0], [[1, 1, 1]], [0], [True, True]),   # row longer than the objective
    ([0, 0], [[1, 1]], [0, 0], [True, True]),   # more rhs entries than rows
    ([0, 0], [[1, 1]], [0], [True]),            # too few nonneg flags
])
def test_length_mismatch_over_zero_rhs_is_an_error(objective, rows, rhs, nonneg):
    with pytest.raises(ValueError):
        solve_lp(objective, rows, rhs, nonneg)


def test_a_run_past_the_pivot_bound_is_an_internal_error(monkeypatch):
    """Bland's rule visits each basis at most once, so a phase 1 that
    outlasts the bound is a defect: it raises instead of running on."""
    rows, rhs = [[1, 1, 0], [0, 1, 1]], [1, 2]
    assert solve_lp([0] * 3, rows, rhs, [True] * 3).status == OPTIMAL
    assert stablepairs.linprog._max_pivots(3, 2) == 10
    monkeypatch.setattr(stablepairs.linprog, "_max_pivots", lambda n, m: 0)
    with pytest.raises(RuntimeError, match="^internal: "):
        solve_lp([0] * 3, rows, rhs, [True] * 3)
    # A zero right-hand side needs no pivot.
    assert solve_lp([0] * 3, rows, [0, 0], [True] * 3).status == OPTIMAL
